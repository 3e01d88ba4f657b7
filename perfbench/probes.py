"""Layer probes: timing wrappers around the program's public functions.

The benchmark measures every layer from outside.  :class:`Recorder`
replaces a function or method with a wrapper that records one span per
call -- name, start, end, the enclosing recorded span and a few
attributes -- and puts the original back on :meth:`Recorder.uninstall`.
The enclosing span travels in a :mod:`contextvars` variable, so calls
made on the program's speculation pool (which copies the caller's
context) nest under the call that submitted them.

:func:`install` wraps the whole set of layer entry points;
:func:`layer_metrics` turns the recorded spans into the per-layer
metrics that spans alone determine.  The workloads add the ones that
need client-side data (wire time, drift, pool gain, tracing overhead).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import sys
import time

from harness import median, percentile, self_time

#: The executor-capable algorithms whose speculation gets its own rows.
ALGORITHMS = ("adagrad", "adam", "arc", "bgd", "grad_avg", "mgd",
              "momentum", "sgd", "svrg")

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    """One recorded call."""

    __slots__ = ("sid", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, parent, start, end, attrs=None):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"sid": self.sid, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end,
                "attrs": {k: v for k, v in self.attrs.items()
                          if isinstance(v, (bool, int, float, str))}}

    @classmethod
    def from_dict(cls, payload) -> "Span":
        return cls(payload["sid"], payload["name"], payload["parent"],
                   payload["start"], payload["end"], payload["attrs"])


class Recorder:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._patches = []

    def wrap(self, owner, attr, name, note=None) -> None:
        """Wrap ``owner.attr`` (a class method or module function).

        ``note(args, kwargs, result)`` returns the span's attributes;
        it runs after the span's end time is taken."""
        original = getattr(owner, attr)
        spans, ids = self.spans, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            token = _CURRENT.set(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append(Span(sid, name, _parent(token), start, end,
                                  {"error": True}))
                raise
            end = time.perf_counter()
            _CURRENT.reset(token)
            spans.append(Span(sid, name, _parent(token), start, end,
                              note(args, kwargs, result) if note else None))
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_function(self, module, attr, name, note=None) -> None:
        """Wrap a module-level function everywhere it was imported.

        ``from x import f`` copies the binding, so every loaded
        ``repro`` module holding the same function object is patched."""
        original = getattr(module, attr)
        holders = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name.split(".")[0] == "repro"
            and getattr(mod, attr, None) is original
        ]
        for holder in holders:
            self.wrap(holder, attr, name, note)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)

    @staticmethod
    def load(path) -> list:
        with open(path) as handle:
            return [Span.from_dict(item) for item in json.load(handle)]


def _parent(token):
    """The span that was current when ``token``'s span started."""
    old = token.old_value
    return None if old is contextvars.Token.MISSING else old


def install(recorder) -> None:
    """Wrap every layer entry point the per-layer table reads."""
    import repro.core.curve_fit as curve_fit
    import repro.service.jobs  # noqa: F401 - imports entry_* by name
    import repro.service.serialize as serialize
    from repro.api import ML4all
    from repro.core.cost_model import CostModel
    from repro.core.executor import PlanExecutor
    from repro.core.iterations import SpeculativeEstimator
    from repro.core.optimizer import GDOptimizer
    from repro.service import frontend
    from repro.service.cache import PlanCache
    from repro.service.checkpoint import CheckpointStore
    from repro.service.core import OptimizerService
    from repro.service.jobs import TrainingJobs
    from repro.service.remote import RemoteBackend

    wrap = recorder.wrap
    # service.frontend
    recorder.wrap_function(frontend, "parse_wire_line", "parse",
                           note=lambda a, k, r: {"id": r.id})
    wrap(frontend.Dispatcher, "handle", "dispatch",
         note=lambda a, k, r: {"id": a[1].id})
    wrap(frontend.SocketFrontend, "stop", "frontend_stop")
    # api
    wrap(ML4all, "optimize_many", "optimize_many")
    # service.core, service.fingerprint, service.cache
    wrap(OptimizerService, "optimize", "optimize",
         note=lambda a, k, r: {"hit": bool(r.cache_hit)})
    wrap(OptimizerService, "fingerprint", "fingerprint")
    wrap(PlanCache, "get", "cache_get")
    # core.iterations, core.curve_fit, core.cost_model, core.optimizer
    wrap(SpeculativeEstimator, "estimate_all", "estimate_all")
    wrap(SpeculativeEstimator, "estimate", "trial",
         note=lambda a, k, r: {"estimate": r, "settings": a[0].settings})
    recorder.wrap_function(curve_fit, "fit_error_sequence", "curve_fit")
    wrap(CostModel, "estimate_batch", "estimate_batch")
    wrap(GDOptimizer, "optimize", "gd_optimize")
    # service.serialize, service.remote, service.checkpoint
    recorder.wrap_function(serialize, "entry_to_dict", "entry_to_dict",
                           note=lambda a, k, r: {"entry": r})
    recorder.wrap_function(serialize, "entry_from_dict", "entry_from_dict")
    wrap(RemoteBackend, "get", "remote_get")
    wrap(RemoteBackend, "get_versioned", "remote_get")
    wrap(RemoteBackend, "store", "remote_store")
    wrap(RemoteBackend, "update", "remote_update")
    # One wire round trip per frame: the only private hook, because the
    # public methods hide how many frames a CAS loop sends.
    wrap(RemoteBackend, "_call", "remote_frame")
    wrap(CheckpointStore, "save", "checkpoint_save")
    # core.executor, service.jobs
    wrap(PlanExecutor, "run", "executor_run",
         note=lambda a, k, r: {"iters": int(r.iterations)})
    wrap(TrainingJobs, "train", "train_job")


def wall_capped(estimate, settings) -> bool:
    """True when a speculative trial stopped on its wall-clock budget:
    it neither reached the speculation tolerance nor used up its
    iteration cap (Algorithm 1's three stopping rules)."""
    import dataclasses

    from repro.gd import registry as gd_registry

    overrides = gd_registry.speculation_overrides(estimate.algorithm)
    if overrides:
        settings = dataclasses.replace(settings, **overrides)
    errors = estimate.speculation_errors
    last = float(errors[-1, 1]) if len(errors) else float("inf")
    return (last > settings.speculation_tolerance
            and estimate.speculation_iterations
            < settings.max_speculation_iters)


def layer_metrics(spans) -> dict:
    """Per-layer metrics that the recorded spans alone determine.

    A layer with no recorded call reads 0: it is not on the measured
    workload's path.  Timings are medians unless the name says p90."""
    groups = {}
    children = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def of(name):
        return [s for s in groups.get(name, []) if not s.attrs.get("error")]

    def durations(name):
        return [s.duration for s in of(name)]

    def own(span):
        return self_time(span.start, span.end, [
            (c.start, c.end) for c in children.get(span.sid, [])
        ])

    def p90(values):
        return percentile(values, 90.0) if values else 0.0

    optimizes = of("optimize")
    hits = [s for s in optimizes if s.attrs.get("hit")]
    jobs = len(of("train_job"))
    frames = durations("remote_frame")
    runs = of("executor_run")
    gets = durations("remote_get")
    stores = durations("remote_store")
    updates = durations("remote_update")
    entries = [s.attrs["entry"] for s in of("entry_to_dict")
               if "entry" in s.attrs]
    metrics = {
        "frontend.parse_us": median(durations("parse")) * 1e6,
        "frontend.dispatch_self_us":
            median(own(s) for s in of("dispatch")) * 1e6,
        "frontend.stop_s": median(durations("frontend_stop")),
        "api.optimize_many_self_us":
            median(own(s) for s in of("optimize_many")) * 1e6,
        "service.optimize_hit_us":
            median(s.duration for s in hits) * 1e6,
        "fingerprint.us": median(durations("fingerprint")) * 1e6,
        "cache.lookup_us": median(durations("cache_get")) * 1e6,
        "cache.hit_ratio": len(hits) / len(optimizes) if optimizes else 0.0,
        "iterations.estimate_all_ms":
            median(durations("estimate_all")) * 1e3,
        "curve_fit.us": median(durations("curve_fit")) * 1e6,
        "cost_model.estimate_batch_us":
            median(durations("estimate_batch")) * 1e6,
        "optimizer.self_ms": median(own(s) for s in of("gd_optimize")) * 1e3,
        "serialize.entry_to_dict_us":
            median(durations("entry_to_dict")) * 1e6,
        "serialize.entry_from_dict_us":
            median(durations("entry_from_dict")) * 1e6,
        "serialize.entry_kb": median(
            len(json.dumps(entry, default=str)) / 1024 for entry in entries
        ),
        "remote.get_ms.p50": median(gets) * 1e3,
        "remote.get_ms.p90": p90(gets) * 1e3,
        "remote.store_ms.p50": median(stores) * 1e3,
        "remote.store_ms.p90": p90(stores) * 1e3,
        "remote.update_ms.p50": median(updates) * 1e3,
        "remote.update_ms.p90": p90(updates) * 1e3,
        "remote.calls_per_job": len(frames) / jobs if jobs else 0.0,
        "remote.ms_per_job": sum(frames) * 1e3 / jobs if jobs else 0.0,
        "checkpoint.save_ms": median(durations("checkpoint_save")) * 1e3,
        "checkpoint.saves_per_job":
            len(of("checkpoint_save")) / jobs if jobs else 0.0,
        "executor.run_ms": median(own(s) for s in runs) * 1e3,
        "executor.us_per_iter": median(
            own(s) / s.attrs["iters"] for s in runs if s.attrs["iters"]
        ) * 1e6,
        "executor.iters_per_job":
            sum(s.attrs["iters"] for s in runs) / jobs if jobs else 0.0,
        "jobs.train_self_ms": median(own(s) for s in of("train_job")) * 1e3,
        # Set by the workloads that reach them: they need client-side
        # data (request ids, a paired replay, both halves of the run).
        "frontend.wire_us": 0.0,
        "iterations.pool_gain": 0.0,
        "iterations.estimate_drift": 0.0,
        "trace.overhead_frac": 0.0,
    }
    trials = of("trial")
    capped = [wall_capped(s.attrs["estimate"], s.attrs["settings"])
              for s in trials if "estimate" in s.attrs]
    metrics["iterations.wall_capped_frac"] = (
        sum(capped) / len(capped) if capped else 0.0
    )
    for alg in ALGORITHMS:
        mine = [s for s in trials
                if "estimate" in s.attrs
                and s.attrs["estimate"].algorithm == alg]
        iters = [s.attrs["estimate"].speculation_iterations for s in mine]
        metrics[f"iterations.trial_ms.{alg}"] = \
            median(s.duration for s in mine) * 1e3
        metrics[f"iterations.trial_iters.{alg}"] = median(iters)
        metrics[f"iterations.us_per_iter.{alg}"] = median(
            s.duration / n for s, n in zip(mine, iters) if n
        ) * 1e6
    return metrics


def call_counts(spans) -> dict:
    """How many calls each probe recorded (for the baseline table)."""
    counts = {}
    for span in spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return counts
