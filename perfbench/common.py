"""Process, path and input helpers shared by the workloads."""

from __future__ import annotations

import os
import random
import resource
import signal
import subprocess
import sys
import time

#: Root of the checkout the benchmark runs in (it holds ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Scratch space for server logs and span dumps, inside the checkout.
RUN_DIR = os.path.join(ROOT, ".perfbench")

#: Seed of the program's own data generation and speculation sample.
#: Fixed: the benchmark seed varies the request stream, never the data,
#: so every seed asks the optimizer for the same amount of work.
DATA_SEED = 7

#: Nominal tolerances of every workload.
EPSILONS = (1e-2, 1e-3)

#: Each workload draws every epsilon from this band around its nominal
#: value, so the chosen plans' simulated cost varies with the seed while
#: the speculation work (which stops at the speculation tolerance, not
#: at epsilon) stays the same.
EPSILON_JITTER = 0.05

#: Dense and sparse inputs with 28 to 123 features; rcv1 (47k sparse
#: features) joins them in optimize_cold only.
SMALL_DATASETS = ("adult", "covtype", "yearpred", "higgs", "svm1")


def jittered(rng, epsilon) -> float:
    """``epsilon`` moved by up to :data:`EPSILON_JITTER` either way,
    rounded to 4 significant digits so it prints exactly on the wire."""
    value = epsilon * (1.0 + rng.uniform(-EPSILON_JITTER, EPSILON_JITTER))
    return float(f"{value:.4g}")


def make_rng(seed, stream) -> random.Random:
    """An independent RNG per named stream of one benchmark seed."""
    return random.Random(f"{seed}:{stream}")


def program_env() -> dict:
    """Environment for child processes running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def pin_to_one_cpu() -> None:
    """Run this process, and every thread and process it starts from now
    on, on a single CPU.

    Every workload hands work between threads or processes: client and
    server on a socket, the speculation pool's threads on the
    interpreter lock.  On a small VM a wake-up across virtual CPUs costs
    2 to 30 ms at random.  Unpinned, serve_warm's throughput swung 2x
    between identical runs; pinned, what remains is mostly the machine's
    own speed changing."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


#: Iterations of :func:`speed_probe_s`'s loop, and its CPU time on a
#: 2-vCPU VM (Python 3.11, 2.1 GHz host) in the host's fast mode.
SPEED_PROBE_LOOPS = 20_000
SPEED_PROBE_REFERENCE_S = 1.3e-3


def speed_probe_s() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's current speed.

    A shared host runs this process in a fast and a slow mode about 1.6x
    apart, for seconds to minutes at a time, as its neighbours' load
    changes; steal time stays 0, so CPU time slows with wall time.
    Median of three, so that one interrupt does not count."""
    times = []
    for _ in range(3):
        start = time.thread_time()
        total = 0
        for i in range(SPEED_PROBE_LOOPS):
            total += i * i % 7
        times.append(time.thread_time() - start)
    return sorted(times)[1]


def timed_probe() -> tuple:
    """One speed probe as ``(start, end, probe_s)``, the first two on
    the ``perf_counter`` clock, for :func:`harness.at_reference_speed`."""
    start = time.perf_counter()
    probe_s = speed_probe_s()
    return start, time.perf_counter(), probe_s


def spawn_listener(args, log_name, timeout_s=60.0):
    """Start a program process that prints ``listening on HOST:PORT``.

    Returns ``(process, port)``; stderr goes to a log under
    :data:`RUN_DIR`.  The process is stopped if it never listens."""
    os.makedirs(RUN_DIR, exist_ok=True)
    log = open(os.path.join(RUN_DIR, log_name), "w")
    try:
        process = subprocess.Popen(
            [sys.executable] + list(args), cwd=ROOT, env=program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log,
            text=True,
        )
    finally:
        log.close()
    deadline = time.monotonic() + timeout_s
    try:
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                return process, int(line.rsplit(":", 1)[1].split()[0])
        raise RuntimeError(f"{' '.join(args)} did not start listening "
                           f"(see {os.path.join(RUN_DIR, log_name)})")
    except BaseException:
        kill(process)
        raise


def kill(process) -> None:
    """Stop a child at once and reap it."""
    if process.poll() is None:
        process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


def interrupt(process, timeout_s=60.0) -> float:
    """Stop a child gracefully with SIGINT; returns the seconds it took
    to exit.  A child that does not exit in time is killed."""
    start = time.perf_counter()
    process.send_signal(signal.SIGINT)
    try:
        process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        kill(process)
        raise
    return time.perf_counter() - start


def peak_rss_mb(pid=None) -> float:
    """Peak resident memory of ``pid`` (this process when None), MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# program-side helpers (import the program lazily: run.py puts src/ on
# the path only after checking it exists)
# ----------------------------------------------------------------------
def full_space() -> tuple:
    """Every executor-capable algorithm the registry knows, sorted."""
    from repro.gd import registry as gd_registry

    return tuple(sorted(name for name, spec in gd_registry.ALGORITHMS.items()
                        if spec.supports_executor))


def check_cheapest(tally, report, label) -> None:
    """The chosen plan must be the minimum-cost feasible candidate."""
    feasible = [c for c in report.candidates if c.feasible]
    tally.check(
        bool(feasible)
        and report.chosen.total_s == min(c.total_s for c in feasible)
        and any(str(c.plan) == str(report.chosen_plan) for c in feasible),
        f"{label}: chosen {report.chosen_plan} is not the cheapest "
        "feasible candidate",
    )


def check_roundtrip(tally, report, label) -> None:
    """``entry_to_dict`` -> JSON -> ``entry_from_dict`` must give the
    report back: same choice, candidates and iteration estimates."""
    import json

    from repro.service.serialize import entry_from_dict, entry_to_dict

    payload = json.loads(json.dumps(entry_to_dict(report, 1, "bench")))
    back, version, digest, _ = entry_from_dict(payload)

    def shape(rep):
        return (
            str(rep.chosen_plan), rep.chosen.total_s,
            [(str(c.plan), c.total_s, c.estimated_iterations)
             for c in rep.candidates],
            {alg: est.estimated_iterations
             for alg, est in (rep.iteration_estimates or {}).items()},
        )

    tally.check(shape(back) == shape(report)
                and (version, digest) == (1, "bench"),
                f"{label}: plan-store entry does not round-trip the report")
