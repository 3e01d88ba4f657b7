"""optimize_cold: cold ``optimize()`` calls, every one a plan-cache miss.

In-process ``ML4all(...).service()`` with its defaults (thread-pool
speculation, default ``SpeculationSettings``) and one caller.  The grid
is six datasets (adult, covtype, yearpred, higgs, svm1, rcv1) x two
tolerances x {3-algorithm core space, full 9-algorithm space}; each
request carries a fresh ``TrainingSpec.seed``, which changes the cache
key but not the speculation work.  A pass sends, in seeded order, each
rcv1 cell once, every other core-space cell twice and every other
full-space cell four times; a run sends whole passes until its seconds
are up.  One pass (64 requests, ~35 s, 20 s of it rcv1) outlasts the
default run, so a run sends exactly one.  The weights put the median
and the p75 in the middle of one cell's samples (today covtype's and
adult's full-space requests), not on the edge between two cells.  With
one copy of each of the 24 cells the median sat on such an edge and
swung 10-15 % between runs.

Speculation (Algorithm 1) is about all of the cold time.  rcv1 stays
in: its trials stop on the 2 s wall cap, and its set-up is ~20 s.

The host's speed moves a whole run by up to 1.6x (see
:func:`common.speed_probe_s`), so each request is timed between two
speed probes, and the latency percentiles scale each latency to the
probe's reference speed (:func:`harness.at_reference_speed`).
Throughput is reported as timed: a third of a pass is rcv1's
wall-capped trials, which take the same time at any speed.
"""

from __future__ import annotations

import json
import math
import time

import common
import harness
import probes

DATASETS = common.SMALL_DATASETS + ("rcv1",)


def grid(seed, full) -> list:
    """One pass of (dataset, nominal epsilon, epsilon, algorithms)."""
    from repro.gd.registry import CORE_ALGORITHMS

    rng = common.make_rng(seed, "optimize_cold")
    cells = []
    for dataset in DATASETS:
        for epsilon in common.EPSILONS:
            value = common.jittered(rng, epsilon)
            for space, copies in ((CORE_ALGORITHMS, 2), (full, 4)):
                if dataset == "rcv1":
                    copies = 1
                cells += [(dataset, epsilon, value, tuple(space))] * copies
    return cells


class Stream:
    """The closed loop: one caller, whole seeded passes over the grid."""

    def __init__(self, seed, service, datasets, cells):
        self.service = service
        self.datasets = datasets
        self.cells = cells
        self.rng = common.make_rng(seed, "order")
        self.next_seed = self.rng.randrange(1, 10**9)
        #: (dataset, nominal epsilon, space) -> first answer's estimates.
        self.first_estimates = {}
        self.drift = 0
        self.capped = 0
        self.trials = 0
        #: ``(began, latency)`` per request, and speed probes taken
        #: before the first request of a run and after every request.
        self.requests = []
        self.probes = []

    def run(self, seconds):
        """Returns (tally, reports, seconds measured)."""
        from repro.core.plans import TrainingSpec

        tally, reports = harness.Tally(), []
        self.probes.append(common.timed_probe())
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            order = list(self.cells)
            self.rng.shuffle(order)
            for name, nominal, epsilon, space in order:
                dataset = self.datasets[name]
                self.next_seed += 1
                training = TrainingSpec(task=dataset.stats.task,
                                        tolerance=epsilon,
                                        seed=self.next_seed)
                label = f"{name} eps={epsilon:g} {len(space)} algorithms"
                began = time.perf_counter()
                try:
                    result = self.service.optimize(dataset, training,
                                                   algorithms=space)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    tally.fail(f"{label}: {type(exc).__name__}: {exc}")
                    self.requests.append((began, math.inf))
                    self.probes.append(common.timed_probe())
                    continue
                latency = time.perf_counter() - began
                tally.ok(latency)
                self.requests.append((began, latency))
                self.probes.append(common.timed_probe())
                tally.check(not result.cache_hit, f"{label}: cache hit")
                reports.append((label, (name, nominal, epsilon, space),
                                result.report))
        return tally, reports, time.perf_counter() - start

    def account(self, tally, reports) -> None:
        """Correctness checks plus drift and wall-cap counts."""
        for label, (name, nominal, _, space), report in reports:
            key = (name, nominal, space)
            common.check_cheapest(tally, report, label)
            common.check_roundtrip(tally, report, label)
            estimates = {alg: est.estimated_iterations
                         for alg, est in report.iteration_estimates.items()}
            first = self.first_estimates.setdefault(key, estimates)
            if estimates != first:
                self.drift += 1
            for estimate in report.iteration_estimates.values():
                self.trials += 1
                self.capped += probes.wall_capped(
                    estimate, self.service.speculation)


def setup():
    """Build the system, generate every dataset, warm the code paths."""
    from repro.api import ML4all
    from repro.core.plans import TrainingSpec

    start = time.perf_counter()
    system = ML4all(seed=common.DATA_SEED)
    service = system.service()
    datasets = {name: system.load_dataset(name) for name in DATASETS}
    adult = datasets["adult"]
    # One throwaway miss (a key no measured request uses) pays the
    # first-call costs: lazy imports, thread-pool start.
    service.optimize(adult, TrainingSpec(task=adult.stats.task,
                                         tolerance=0.05, seed=0))
    return service, datasets, time.perf_counter() - start


def pool_versus_sequential(service, datasets, cells):
    """Time the speculation of ``cells`` with the service's pool and with
    no pool, back to back per cell in alternating order, so that both
    sides see the same machine; returns (pool seconds, sequential s)."""
    from repro.core.iterations import SpeculativeEstimator
    from repro.core.plans import TrainingSpec

    estimators = [
        SpeculativeEstimator(service.speculation, seed=service.seed,
                             max_workers=workers)
        for workers in (service.speculation_workers, 1)
    ]
    totals = [0.0, 0.0]
    for n, (name, epsilon, space) in enumerate(cells):
        dataset = datasets[name]
        training = TrainingSpec(task=dataset.stats.task, tolerance=epsilon)
        for side in ((0, 1) if n % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            estimators[side].estimate_all(
                dataset.X, dataset.y, training.gradient(),
                target_tolerance=epsilon, algorithms=space,
                step_size=training.step_size,
                batch_sizes=service.batch_sizes,
                convergence=training.convergence, on_error="skip",
            )
            totals[side] += time.perf_counter() - start
    return tuple(totals)


def run(seed, seconds, trace):
    full = common.full_space()
    if full != probes.ALGORITHMS:
        raise RuntimeError(f"the registry's executor algorithms {full} are "
                           f"not the benchmarked {probes.ALGORITHMS}")
    service, datasets, setup_s = setup()
    stream = Stream(seed, service, datasets, grid(seed, full))
    # A traced run measures an untraced half, then a traced half.
    tally, reports, elapsed = stream.run(seconds / 2 if trace else seconds)
    if not trace:
        stream.account(tally, reports)
        scaled, scaled_s = harness.at_reference_speed(
            stream.requests, stream.probes, common.SPEED_PROBE_REFERENCE_S)
        latency = harness.latency_summary(scaled, elapsed)
        timed = harness.latency_summary(tally.latencies_s, elapsed)
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "throughput_rps": (tally.attempted - tally.failed) / elapsed,
            "plan_sim_s": sum(r.chosen.total_s for _, _, r in reports)
            / max(1, len(reports)),
            "peak_rss_mb": common.peak_rss_mb(),
        }
        info = [
            f"optimize_cold: {tally.attempted} cold requests in "
            f"{elapsed:.2f} s; {tally.failed} failed "
            f"(error_rate {tally.error_rate:.4f})",
            f"latency_tail_ms is p{latency['tail_q']:g} of "
            f"{latency['count']} samples",
            f"latencies at the reference speed; as timed: p50 "
            f"{timed['p50_ms']:.1f} ms, tail {timed['tail_ms']:.1f} ms; "
            f"the host ran at {scaled_s / elapsed:.3f} of the reference "
            "speed",
            f"speculation: {stream.capped} of {stream.trials} trials "
            f"stopped on the wall cap; {stream.drift} requests drifted "
            "from their key's first estimates",
        ]
        return tally, metrics, info

    recorder = probes.Recorder()
    probes.install(recorder)
    try:
        traced, traced_reports, traced_s = stream.run(seconds / 2)
    finally:
        recorder.uninstall()
    spans = recorder.spans
    metrics = probes.layer_metrics(spans)

    # Pool gain, once per cell whose trials all stopped on tolerance or
    # iteration cap (a wall-capped trial takes its cap whatever the
    # schedule).
    uncapped = []
    for _, (name, _, epsilon, space), report in traced_reports:
        cell = (name, epsilon, space)
        if cell not in uncapped and not any(
                probes.wall_capped(est, service.speculation)
                for est in report.iteration_estimates.values()):
            uncapped.append(cell)
    pool_s, sequential_s = pool_versus_sequential(service, datasets,
                                                  uncapped)
    metrics["iterations.pool_gain"] = sequential_s / pool_s if pool_s else 0.0

    stream.account(tally, reports)
    stream.account(traced, traced_reports)
    metrics["iterations.estimate_drift"] = float(stream.drift)
    metrics["trace.overhead_frac"] = harness.overhead_frac(
        tally, elapsed, traced, traced_s)
    untraced = harness.latency_summary(tally.latencies_s, elapsed)
    with_probes = harness.latency_summary(traced.latencies_s, traced_s)
    tally.merge(traced)
    info = [
        f"optimize_cold traced: {untraced['count']} untraced + "
        f"{with_probes['count']} traced requests; p50 "
        f"{untraced['p50_ms']:.1f} -> {with_probes['p50_ms']:.1f} ms",
        f"pool gain over {len(uncapped)} cells without wall-capped "
        f"trials: sequential {sequential_s:.3f} s vs pool {pool_s:.3f} s",
        f"speculation: {stream.capped} of {stream.trials} trials stopped "
        f"on the wall cap; {stream.drift} requests drifted",
        "probe calls: " + json.dumps(probes.call_counts(spans),
                                     sort_keys=True),
    ]
    return tally, metrics, info
