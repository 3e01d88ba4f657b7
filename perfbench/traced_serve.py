"""Run ``repro serve`` with the layer probes, for traced benchmark runs.

    python perfbench/traced_serve.py --spans OUT.json --ready READY \\
        serve --listen 0 --seed 7

The server starts unprobed, exactly like ``python -m repro serve``.
SIGUSR1 installs the probes and then creates the ``--ready`` file, so
a client can measure an untraced phase and a traced phase against one
warm server.  When the server exits (SIGINT stops it) the recorded
spans, ``SocketFrontend.stop`` included, are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import signal
import sys

import probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--ready", required=True)
    args, program_args = parser.parse_known_args(argv)

    from repro.__main__ import main as repro_main

    recorder = probes.Recorder()

    def start_tracing(signum, frame):
        if not recorder.installed:
            probes.install(recorder)
        with open(args.ready, "w"):
            pass

    signal.signal(signal.SIGUSR1, start_tracing)
    try:
        return repro_main(program_args)
    finally:
        recorder.uninstall()
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
