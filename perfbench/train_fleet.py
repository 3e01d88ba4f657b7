"""train_fleet: durable training jobs against a ``repro store``.

Set-up starts ``python -m repro store`` (in memory) and builds a service
whose plan store and job checkpoints both live there, through
``RemoteBackend`` (``tcp://`` paths).  It warms the plan of every grid
cell -- five datasets x three tolerances, core plan space -- so no job
speculates.  Then one caller runs ``train(job_id=...,
checkpoint_every=25)`` jobs, each with a fresh job id, in seeded whole
passes over the grid until the run's seconds are up.  Each job is
gradient descent plus checkpoint CAS cycles (a read beside every write)
against the store.

Every cell trains with the same ``TrainingSpec.seed``: the benchmark
seed moves the order, the job ids, the tolerances and the iteration
caps, not the sampling, so every seed runs about the same descent.  The
odd cell count puts the median job inside one cell, not on the edge
between a fast cell and a slow one.
"""

from __future__ import annotations

import json
import time

import common
import harness
import probes

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Jobs checkpoint every this many iterations.
CHECKPOINT_EVERY = 25

#: Each cell's iteration cap is drawn from this range.  Most cells stop
#: on the cap, so the cap (not the sampling) sets their descent work and
#: their plan's estimated cost; drawing it lets ``plan_sim_s`` move with
#: the seed while the mean work per pass stays within a few percent.
MAX_ITER_RANGE = (90, 110)

#: Nominal tolerances of the job grid (the shared two plus one between).
EPSILONS = (1e-2, 3e-3, 1e-3)


def grid(seed) -> list:
    """(dataset, epsilon, max_iter) cells of one seed."""
    rng = common.make_rng(seed, "train_fleet")
    return [(name, common.jittered(rng, epsilon),
             rng.randint(*MAX_ITER_RANGE))
            for name in common.SMALL_DATASETS for epsilon in EPSILONS]


class Fleet:
    """One store process plus the in-process service that uses it."""

    def __init__(self, cells):
        from repro.api import ML4all
        from repro.core.plans import TrainingSpec

        self.store, port = common.spawn_listener(
            ["-m", "repro", "store", "--port", "0"], "train_fleet.store.log")
        try:
            url = f"tcp://127.0.0.1:{port}"
            self.system = ML4all(seed=common.DATA_SEED,
                                 cache_path=f"{url}/plans",
                                 checkpoint_path=f"{url}/jobs")
            self.service = self.system.service()
            self.cells = []
            for name, epsilon, max_iter in cells:
                dataset = self.system.load_dataset(name)
                training = TrainingSpec(task=dataset.stats.task,
                                        tolerance=epsilon, max_iter=max_iter,
                                        seed=common.DATA_SEED)
                report = self.service.optimize(dataset, training).report
                self.cells.append((name, dataset, training, report))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
        common.kill(self.store)


class Stream:
    """The closed loop: one caller, whole seeded passes over the grid."""

    def __init__(self, seed, fleet):
        self.fleet = fleet
        self.rng = common.make_rng(seed, "order")
        self.prefix = f"job-{seed}"
        self.jobs = 0

    def run(self, seconds):
        """Returns (tally, chosen plans' estimated simulated seconds,
        seconds measured)."""
        tally, sim_seconds = harness.Tally(), []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            order = list(self.fleet.cells)
            self.rng.shuffle(order)
            for name, dataset, training, report in order:
                self.jobs += 1
                job_id = f"{self.prefix}-{self.jobs}"
                label = f"{job_id} ({name} eps={training.tolerance:g})"
                began = time.perf_counter()
                try:
                    outcome = self.fleet.service.train(
                        dataset, training, job_id=job_id,
                        checkpoint_every=CHECKPOINT_EVERY,
                    )
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    tally.fail(f"{label}: {type(exc).__name__}: {exc}")
                    continue
                tally.ok(time.perf_counter() - began)
                sim_seconds.append(outcome.report.chosen.total_s)
                tally.check(outcome.job is not None
                            and outcome.job.status == "done",
                            f"{label}: job did not end done")
                tally.check(outcome.result.iterations <= training.max_iter,
                            f"{label}: {outcome.result.iterations} "
                            f"iterations > max_iter {training.max_iter}")
                tally.check(outcome.optimization.cache_hit,
                            f"{label}: plan was not warm")
                tally.check(str(outcome.report.chosen_plan)
                            == str(report.chosen_plan),
                            f"{label}: plan {outcome.report.chosen_plan} "
                            f"differs from the warm {report.chosen_plan}")
        return tally, sim_seconds, time.perf_counter() - start


def _check_plans(tally, fleet) -> None:
    for name, _, training, report in fleet.cells:
        label = f"{name} eps={training.tolerance:g}"
        common.check_cheapest(tally, report, label)
        common.check_roundtrip(tally, report, label)


def run(seed, seconds, trace):
    cells = grid(seed)
    setups = []
    for _ in range(1 if trace else SETUPS):
        if setups:
            fleet.close()
        start = time.perf_counter()
        fleet = Fleet(cells)
        setups.append(time.perf_counter() - start)
    try:
        stream = Stream(seed, fleet)
        # A traced run measures an untraced half, then a traced half.
        tally, sim_seconds, elapsed = stream.run(
            seconds / 2 if trace else seconds)
        if trace:
            recorder = probes.Recorder()
            probes.install(recorder)
            try:
                traced, _, traced_s = stream.run(seconds / 2)
                # Inside the traced window, so that entry_from_dict (which
                # the job path never calls) gets timed too.
                _check_plans(traced, fleet)
            finally:
                recorder.uninstall()
        else:
            _check_plans(tally, fleet)
    finally:
        fleet.close()

    if not trace:
        latency = harness.latency_summary(tally.latencies_s, elapsed)
        metrics = {
            "setup_s": harness.median(setups),
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "throughput_rps": (tally.attempted - tally.failed) / elapsed,
            "plan_sim_s": sum(sim_seconds) / max(1, len(sim_seconds)),
            "peak_rss_mb": common.peak_rss_mb(),
        }
        info = [
            f"train_fleet: {tally.attempted} jobs in {elapsed:.2f} s; "
            f"{tally.failed} failed (error_rate {tally.error_rate:.4f})",
            f"latency_tail_ms is p{latency['tail_q']:g} of "
            f"{latency['count']} samples",
            f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s",
        ]
        return tally, metrics, info

    spans = recorder.spans
    metrics = probes.layer_metrics(spans)
    metrics["trace.overhead_frac"] = harness.overhead_frac(
        tally, elapsed, traced, traced_s)
    untraced = harness.latency_summary(tally.latencies_s, elapsed)
    with_probes = harness.latency_summary(traced.latencies_s, traced_s)
    tally.merge(traced)
    info = [
        f"train_fleet traced: {untraced['count']} untraced + "
        f"{with_probes['count']} traced jobs; p50 "
        f"{untraced['p50_ms']:.1f} -> {with_probes['p50_ms']:.1f} ms",
        "probe calls: " + json.dumps(probes.call_counts(spans),
                                     sort_keys=True),
    ]
    return tally, metrics, info
