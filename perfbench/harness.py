"""Measurement helpers shared by every workload of the benchmark.

Nothing here imports the program under test: these are the statistics,
the span arithmetic and the result-line rules, kept apart so that the
harness tests can check them on synthetic inputs.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import statistics

#: Percentiles the tail metric may report, highest first.  The ladder is
#: coarse on purpose: with whole passes a run's sample count moves by a
#: pass between runs, and each workload's count must stay clear of a
#: step, or the reported percentile (and with it the metric) would jump.
#: serve_warm (~30k requests) reports p99; optimize_cold (44) and
#: train_fleet (~90-140 jobs) report p75.
TAIL_LADDER = (99.0, 75.0, 50.0)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``
#: and ``-``; at most 64 characters.
METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

#: Units: at most 16 letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_metric_name(name) -> bool:
    """True when ``name`` follows the metric-name grammar."""
    return isinstance(name, str) and bool(METRIC_NAME_RE.match(name))


def valid_unit(unit) -> bool:
    """True when ``unit`` follows the unit grammar."""
    return isinstance(unit, str) and bool(UNIT_RE.match(unit))


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def percentile(samples, q) -> float:
    """The ``q``-th percentile (0-100) of ``samples``, interpolating
    linearly between the closest ranks."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of no samples")
    rank = (len(values) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(values) - 1)
    return float(values[low] + (values[high] - values[low]) * (rank - low))


def tail_percentile(count) -> float | None:
    """The highest ladder percentile that leaves at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples beyond it, or None
    when there are too few samples for any of them."""
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return None


def latency_summary(samples_s, window_s) -> dict:
    """Median and tail of request latencies, in milliseconds.

    ``samples_s`` holds one latency per attempted request, in seconds,
    with ``math.inf`` for a request that failed or was refused: such a
    request misses every latency percentile.  It counts as taking the
    whole measuring window ``window_s``, which no answered request can
    exceed, so it sorts last.  With too few samples for any ladder
    percentile the tail is the largest sample.
    """
    if not samples_s:
        raise ValueError("no latency samples")
    values = [window_s if s == math.inf else s for s in samples_s]
    q = tail_percentile(len(values))
    tail = max(values) if q is None else percentile(values, q)
    return {
        "p50_ms": percentile(values, 50.0) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_q": 100.0 if q is None else q,
        "count": len(values),
    }


def at_reference_speed(requests, probes, reference_s):
    """Request latencies, and the seconds between the first and last
    speed probe, scaled to the speed at which a probe takes
    ``reference_s``.

    ``probes`` holds ``(start, end, probe_s)`` per speed probe, in time
    order, the first before any request began and the last after every
    one ended; ``requests`` holds ``(began, latency_s)``, ``math.inf``
    for a failed one.  A request ran at the mean speed of the two probes
    around the time it began, and its latency is multiplied by
    ``reference_s`` over their mean time.  Each stretch between two
    probes (the probes themselves left out) is scaled the same way."""
    ends = [end for _, end, _ in probes]
    factors = [2.0 * reference_s / (a[2] + b[2])
               for a, b in zip(probes, probes[1:])]
    if not factors:
        raise ValueError("speed scaling needs at least two probes")
    latencies = []
    for began, latency_s in requests:
        k = min(max(bisect.bisect_right(ends, began) - 1, 0),
                len(factors) - 1)
        latencies.append(latency_s * factors[k])
    seconds = sum((b[0] - a[1]) * f
                  for a, b, f in zip(probes, probes[1:], factors))
    return latencies, seconds


def overhead_frac(plain, plain_s, traced, traced_s) -> float:
    """Tracing overhead: the traced half's median latency over the
    untraced half's, minus 1 (each half a :class:`Tally` and its
    measured seconds)."""
    return (latency_summary(traced.latencies_s, traced_s)["p50_ms"]
            / latency_summary(plain.latencies_s, plain_s)["p50_ms"] - 1.0)


def median(values, default=0.0) -> float:
    """Median of ``values``, ``default`` when there are none."""
    values = list(values)
    return float(statistics.median(values)) if values else float(default)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def coverage(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``.

    Overlapping children (trials on a thread pool) count once, so a
    parent's self time never goes negative."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start, end, child_intervals) -> float:
    """A span's duration minus the part its children cover."""
    return (end - start) - coverage(child_intervals, start, end)


# ----------------------------------------------------------------------
# outcome accounting
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed requests plus correctness problems.

    A failed request is one that raised, was refused or answered
    ``ok: false``; a problem is a wrong answer (a miss where a hit was
    due, a plan that is not the cheapest candidate, ...).  Either makes
    the run incorrect.  Latencies go into :attr:`latencies_s`, with
    ``math.inf`` standing for a failed request.
    """

    #: Problems kept verbatim for the log; the rest are only counted.
    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies_s = []
        self.problems = []
        self.problem_count = 0

    def ok(self, latency_s) -> None:
        self.attempted += 1
        self.latencies_s.append(latency_s)

    def fail(self, reason) -> None:
        self.attempted += 1
        self.failed += 1
        self.latencies_s.append(math.inf)
        self.problem(f"failed request: {reason}")

    def problem(self, text) -> None:
        self.problem_count += 1
        if len(self.problems) < self.KEEP:
            self.problems.append(text)

    def check(self, condition, text) -> bool:
        if not condition:
            self.problem(text)
        return bool(condition)

    def merge(self, other) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies_s.extend(other.latencies_s)
        self.problem_count += other.problem_count
        self.problems.extend(other.problems[: self.KEEP - len(self.problems)])

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 \
            and self.problem_count == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def result_line(tally, metrics, units) -> str:
    """The benchmark's last output line.

    ``metrics`` maps name -> value; ``units`` maps name -> unit and
    fixes which names must be present.  A value that is missing, not
    finite or named outside ``units`` is a harness bug: it raises
    instead of printing a result."""
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"unexpected {extra}")
    body = {}
    for name in sorted(units):
        value = float(metrics[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        body[name] = {"value": value, "unit": units[name]}
    return json.dumps({
        "correct": tally.correct,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": body,
    })
