"""serve_warm: warm plan-cache hits through the socket front-end.

Set-up starts ``repro serve --listen`` and warms it with a seeded pool of
20 request lines (five datasets x two tolerances x {optimizer's choice,
pinned ``algorithm=sgd``}).  Then two connections each send the pool
in their own seeded order, closed loop, in whole passes until the run's
seconds are up.  Every answer must be ``ok``, a cache hit, and carry the plan its
line got when it was cold.  Every :data:`PROBE_EVERY_S` the connections
pause between two requests for a speed probe, and latency and
throughput are scaled to the probe's reference speed
(:func:`harness.at_reference_speed`).  The hot path -- wire parse, dispatch,
fingerprint, plan cache -- does all the work; speculation and gradient
descent do none.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import socket
import threading
import time

import common
import harness
import probes

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Client connections of the closed loop, one thread each.
CONNECTIONS = 2

_EST_RE = re.compile(r"est\. ([0-9.]+)s simulated")


def pool_lines(seed) -> list:
    """The 20 request lines of one seed (distinct cache keys)."""
    rng = common.make_rng(seed, "serve_warm")
    seeds = iter(rng.sample(range(1, 10**9), 20))
    lines = []
    for dataset in common.SMALL_DATASETS:
        for epsilon in common.EPSILONS:
            value = common.jittered(rng, epsilon)
            for pinned in ("", " algorithm=sgd"):
                lines.append(f"{dataset} epsilon={value:g} "
                             f"seed={next(seeds)}{pinned}")
    return lines


class Connection:
    """One client connection speaking the JSON-lines protocol."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")
        self.writer = self.sock.makefile("w", encoding="utf-8", newline="\n")

    def ask(self, line) -> dict:
        self.writer.write(line + "\n")
        self.writer.flush()
        raw = self.reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw)

    def close(self) -> None:
        for handle in (self.reader, self.writer, self.sock):
            handle.close()


def warm(port, lines, tally) -> dict:
    """Send every pool line once; returns line -> cold plan."""
    cold = {}
    connection = Connection(port)
    try:
        for n, line in enumerate(lines):
            response = connection.ask(f"{line} id=warm-{n}")
            if not response.get("ok"):
                tally.problem(f"warm-up of {line!r} failed: {response}")
                continue
            tally.check(not response.get("cache_hit"),
                        f"warm-up of {line!r} was already a hit")
            cold[line] = response.get("plan")
    finally:
        connection.close()
    return cold


#: Seconds between speed probes during the closed loop.
PROBE_EVERY_S = 0.25


class Pauses:
    """Parks every connection between two requests while the main
    thread times a speed probe, so the probe has the CPU to itself and
    no request is timed across it."""

    def __init__(self, connections):
        self.wanted = threading.Event()
        self.barrier = threading.Barrier(connections + 1, timeout=30)

    def point(self) -> None:
        """A connection's stop between two requests."""
        if self.wanted.is_set():
            try:
                self.barrier.wait()  # parked
                self.barrier.wait()  # probe taken
            except threading.BrokenBarrierError:
                pass

    def probe(self, probes) -> bool:
        """Park the connections, append a probe, release them; False
        once a connection has left."""
        self.wanted.set()
        try:
            self.barrier.wait()
            self.wanted.clear()
            probes.append(common.timed_probe())
            self.barrier.wait()
        except threading.BrokenBarrierError:
            self.wanted.clear()
            return False
        return True

    def leave(self) -> None:
        """A connection is done: no more pauses for anyone."""
        self.barrier.abort()


def _client(port, lines, cold, order_rng, deadline, tag, tally, rtts,
            stamps, estimates, pauses) -> None:
    """One connection's closed loop: seeded passes over the pool, the
    next line as soon as the answer arrives, until the first pass
    boundary past ``deadline``.  Each request adds ``(began, latency)``
    to ``stamps``, ``math.inf`` for a failed one."""
    try:
        connection = Connection(port)
    except OSError as exc:
        tally.fail(f"{tag}: connect: {exc}")
        pauses.leave()
        return
    n = 0
    try:
        while time.perf_counter() < deadline:
            order = list(lines)
            order_rng.shuffle(order)
            for line in order:
                pauses.point()
                rid = f"{tag}-{n}"
                n += 1
                began = time.perf_counter()
                try:
                    response = connection.ask(f"{line} id={rid}")
                except (OSError, ValueError) as exc:
                    tally.fail(f"{rid}: {exc}")
                    stamps.append((began, math.inf))
                    return
                rtt = time.perf_counter() - began
                if not response.get("ok"):
                    tally.fail(f"{rid}: {response.get('error')}: "
                               f"{response.get('detail')}")
                    stamps.append((began, math.inf))
                    continue
                tally.ok(rtt)
                rtts[rid] = rtt
                stamps.append((began, rtt))
                tally.check(response.get("cache_hit") is True,
                            f"{rid} ({line!r}) was not a cache hit")
                tally.check(response.get("plan") == cold.get(line),
                            f"{rid} answered {response.get('plan')} but "
                            f"the cold answer was {cold.get(line)}")
                match = _EST_RE.search(response.get("summary", ""))
                if tally.check(match is not None,
                               f"{rid}: no cost estimate in summary"):
                    estimates.append(float(match.group(1)))
    finally:
        pauses.leave()
        connection.close()


def load(port, lines, cold, seed, seconds, phase):
    """Run the closed loop on :data:`CONNECTIONS` connections, one
    thread each, with a speed probe before, every
    :data:`PROBE_EVERY_S` during, and after it.

    Returns (tally, rtts by id, latencies and seconds at the probe's
    reference speed, estimates, seconds as timed)."""
    tallies = [harness.Tally() for _ in range(CONNECTIONS)]
    rtts, stamps, estimates = {}, [], []
    pauses = Pauses(CONNECTIONS)
    probes = [common.timed_probe()]
    start = time.perf_counter()
    threads = [
        threading.Thread(target=_client, args=(
            port, lines, cold, common.make_rng(seed, f"order-{phase}{k}"),
            start + seconds, f"{phase}{k}", tallies[k], rtts, stamps,
            estimates, pauses,
        ))
        for k in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    next_at = start + PROBE_EVERY_S
    while next_at < start + seconds:
        time.sleep(max(0.0, next_at - time.perf_counter()))
        if not pauses.probe(probes):
            break
        next_at += PROBE_EVERY_S
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    probes.append(common.timed_probe())
    scaled = harness.at_reference_speed(stamps, probes,
                                        common.SPEED_PROBE_REFERENCE_S)
    tally = harness.Tally()
    for part in tallies:
        tally.merge(part)
    return tally, rtts, scaled, estimates, elapsed


def _server_args(extra=()):
    return list(extra) + ["serve", "--listen", "0",
                          "--seed", str(common.DATA_SEED)]


def run(seed, seconds, trace):
    lines = pool_lines(seed)
    setup_tally = harness.Tally()
    if trace:
        return _run_traced(lines, seed, seconds, setup_tally)

    setups = []
    process = None
    for attempt in range(SETUPS):
        start = time.perf_counter()
        process, port = common.spawn_listener(
            ["-m", "repro"] + _server_args(), "serve_warm.log")
        try:
            cold = warm(port, lines, setup_tally)
        except BaseException:
            common.kill(process)
            raise
        setups.append(time.perf_counter() - start)
        if attempt < SETUPS - 1:
            common.kill(process)
    try:
        tally, _, (scaled, scaled_s), estimates, elapsed = load(
            port, lines, cold, seed, seconds, "u")
        rss = common.peak_rss_mb(process.pid)
    finally:
        stop_s = common.interrupt(process)
    tally.merge(setup_tally)
    latency = harness.latency_summary(scaled, scaled_s)
    timed = harness.latency_summary(tally.latencies_s, elapsed)
    metrics = {
        "setup_s": harness.median(setups),
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "throughput_rps": sum(map(math.isfinite, scaled)) / scaled_s,
        "plan_sim_s": sum(estimates) / len(estimates) if estimates else 0.0,
        "peak_rss_mb": rss,
    }
    info = [
        f"serve_warm: {tally.attempted} requests over {CONNECTIONS} "
        f"connections in {elapsed:.2f} s; {tally.failed} failed "
        f"(error_rate {tally.error_rate:.4f})",
        f"latency_tail_ms is p{latency['tail_q']:g} of "
        f"{latency['count']} samples",
        f"latency and throughput at the reference speed; as timed: p50 "
        f"{timed['p50_ms']:.4f} ms, tail {timed['tail_ms']:.4f} ms, "
        f"{(tally.attempted - tally.failed) / elapsed:.1f} req/s; the "
        f"host ran at {scaled_s / elapsed:.3f} of the reference speed",
        f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s; "
        f"server exit after SIGINT took {stop_s:.2f} s",
    ]
    return tally, metrics, info


def _run_traced(lines, seed, seconds, setup_tally):
    """Untraced half, then probes on, then traced half, one server."""
    os.makedirs(common.RUN_DIR, exist_ok=True)
    spans_path = os.path.join(common.RUN_DIR, "serve_warm.spans.json")
    ready_path = os.path.join(common.RUN_DIR, "serve_warm.ready")
    for path in (spans_path, ready_path):
        if os.path.exists(path):
            os.remove(path)
    launcher = os.path.join(common.BENCH_DIR, "traced_serve.py")
    process, port = common.spawn_listener(
        [launcher] + _server_args(["--spans", spans_path,
                                   "--ready", ready_path]),
        "serve_warm.traced.log")
    try:
        cold = warm(port, lines, setup_tally)
        plain, _, _, _, plain_s = load(port, lines, cold, seed,
                                       seconds / 2, "u")
        process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(ready_path):
            if time.monotonic() > deadline or process.poll() is not None:
                raise RuntimeError("traced server never installed probes")
            time.sleep(0.01)
        traced, rtts, _, _, traced_s = load(port, lines, cold, seed,
                                            seconds / 2, "t")
    finally:
        common.interrupt(process)
    spans = probes.Recorder.load(spans_path)
    metrics = probes.layer_metrics(spans)
    server_s = {}
    for span in spans:
        if span.name in ("parse", "dispatch") and "id" in span.attrs:
            rid = span.attrs["id"]
            server_s[rid] = server_s.get(rid, 0.0) + span.duration
    metrics["frontend.wire_us"] = harness.median(
        rtt - server_s[rid] for rid, rtt in rtts.items() if rid in server_s
    ) * 1e6
    metrics["trace.overhead_frac"] = harness.overhead_frac(
        plain, plain_s, traced, traced_s)
    untraced_p50 = harness.latency_summary(plain.latencies_s, plain_s)
    traced_p50 = harness.latency_summary(traced.latencies_s, traced_s)
    tally = harness.Tally()
    for part in (plain, traced, setup_tally):
        tally.merge(part)
    info = [
        f"serve_warm traced: {plain.attempted} untraced + "
        f"{traced.attempted} traced requests; p50 "
        f"{untraced_p50['p50_ms']:.3f} -> {traced_p50['p50_ms']:.3f} ms",
        "probe calls: " + json.dumps(probes.call_counts(spans),
                                     sort_keys=True),
    ]
    return tally, metrics, info
