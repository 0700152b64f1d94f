"""In-memory span and counter tracing around leostream's public functions.

The tracer patches each function where its caller looks it up (module
globals imported by name, class attributes for methods), records one span
per call -- name, start, end, parent span, exception type -- and keeps
counters for the hot inner calls that are too frequent to span
(`piecewise_download`, `RateSeries.rate_and_edge`, `evaluate_plan`).
Nothing inside the package is edited: `install()` patches, `uninstall()`
restores the originals.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import time

from leostream import harness, multiuser, planners, predictors, simcore, traces

# Span name -> the (owner, attribute) pairs that hold the function.
SPANNED = {
    "traces.gen_trace_set": [(traces, "gen_trace_set"), (harness, "gen_trace_set")],
    "simcore.run_session": [(simcore, "run_session"), (harness, "run_session")],
    "simcore.step_chunk": [(simcore, "step_chunk")],
    "simcore.apply_chunk": [(simcore, "apply_chunk")],
    "predictors.observe_epoch": [(predictors.PredictorBank, "observe_epoch")],
    "predictors.predict": [(predictors.PredictorBank, "predict")],
    "planners.exhaustive": [(planners, "f_mpc"), (planners, "f_sat_mpc")],
    "planners.dp": [(planners, "f_sat_dpmpc"), (multiuser, "f_sat_dpmpc")],
    "planners.offline": [(planners, "offline_optimal"), (harness, "offline_optimal")],
    "planners.decide.joint": [(planners.JointMpcController, "decide")],
    "planners.decide.separate": [(planners.SeparateController, "decide")],
    "multiuser.simulate_multi": [(multiuser, "simulate_multi"), (harness, "simulate_multi")],
    "multiuser.centralized": [(multiuser, "centralized_mpc_decide")],
    "multiuser.decide.central": [(multiuser.CentralizedCoordinator, "decide_multi")],
    "harness.run_experiment": [(harness, "run_experiment")],
    "harness.run_cell": [(harness, "run_cell")],
    "harness.write_results": [(harness, "write_results")],
}
SOLVES = ("planners.exhaustive", "planners.dp")
DECIDES = ("planners.decide.joint", "planners.decide.separate")

# name -> (unit, what it is); every per-layer metric the traced run emits.
PER_LAYER = {
    "planners.exhaustive_ms": ("ms", "time in f_mpc / f_sat_mpc"),
    "planners.exhaustive_solves": ("count", "f_mpc / f_sat_mpc calls"),
    "planners.exhaustive_plans": ("count", "evaluate_plan calls"),
    "planners.dp_ms": ("ms", "time in f_sat_dpmpc"),
    "planners.dp_solves": ("count", "f_sat_dpmpc calls"),
    "planners.dp_states": ("count", "sum of PlanResult.states_visited"),
    "planners.dp_states_per_transition": ("ratio", "DP states / downloads inside DP solves"),
    "planners.offline_ms": ("ms", "time in offline_optimal"),
    "planners.offline_downloads": ("count", "downloads inside the offline DP"),
    "planners.decide_ms.joint": ("ms", "mean JointMpcController.decide"),
    "planners.decide_ms.separate": ("ms", "mean SeparateController.decide"),
    "planners.decide_self_ms": ("ms", "mean decide minus its inner solves"),
    "planners.inner_calls_per_decision": ("ratio", "DecisionStats.inner_calls per decide"),
    "planners.unbounded_frac": ("ratio", "solves raising UnboundedDownloadError / solves"),
    "simcore.download_calls": ("count", "piecewise_download calls"),
    "simcore.segments_per_download": ("ratio", "rate_and_edge calls per download"),
    "simcore.step_us": ("us", "mean step_chunk / apply_chunk"),
    "predictors.observe_us": ("us", "mean PredictorBank.observe_epoch"),
    "predictors.predict_us": ("us", "mean PredictorBank.predict"),
    "predictors.calls": ("count", "observe_epoch + predict calls"),
    "multiuser.loop_self_ms": ("ms", "simulate_multi minus every traced call in it"),
    "multiuser.share_events": ("count", "ShareEvents logged"),
    "multiuser.central_ms": ("ms", "time in centralized_mpc_decide"),
    "multiuser.central_dp_solves": ("ratio", "DP solves per centralized_mpc_decide"),
    "harness.cell_self_ms": ("ms", "run_cell minus the layer calls it makes"),
    "harness.write_ms": ("ms", "time in write_results"),
    "traces.gen_ms": ("ms", "time in gen_trace_set"),
    "traces.gen_calls": ("count", "gen_trace_set calls"),
    "trace.overhead_frac": ("ratio", "traced / untraced host-scaled time - 1"),
    "trace.unaccounted_frac": ("ratio", "traced wall outside every root span"),
}


class Tracer:
    """Spans as [name, start, end, parent index, exception name or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._in_download = [0]
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _download(self, fn):
        counts, spans, stack, depth = self.counts, self.spans, self._stack, self._in_download

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["download", spans[stack[-1]][0] if stack else ""] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def _rate_and_edge(self, fn):
        counts, depth = self.counts, self._in_download

        @functools.wraps(fn)
        def wrapper(series, t):
            counts["segments" if depth[0] else "loop_rate_lookups"] += 1
            return fn(series, t)

        return wrapper

    def _evaluate_plan(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["plans"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        counts = self.counts

        def dp_after(args, result):
            counts["dp_states"] += result.states_visited

        def decide_after(args, result):
            counts["inner_calls"] += args[0].last_stats.inner_calls

        def multi_after(args, result):
            counts["share_events"] += len(result.share_events)

        after = {
            "planners.dp": dp_after,
            "planners.decide.joint": decide_after,
            "planners.decide.separate": decide_after,
            "multiuser.simulate_multi": multi_after,
        }
        for name, targets in SPANNED.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._span(name, owner.__dict__[attr], after.get(name)))
        for owner in (simcore, planners):
            self._patch(owner, "piecewise_download", self._download(owner.piecewise_download))
        rae = simcore.RateSeries.__dict__["rate_and_edge"]
        self._patch(simcore.RateSeries, "rate_and_edge", self._rate_and_edge(rae))
        self._patch(planners, "evaluate_plan", self._evaluate_plan(planners.evaluate_plan))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def span_stats(spans) -> tuple[dict, dict, dict]:
    """Per span name: calls, inclusive seconds, self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own = collections.Counter(), collections.Counter(), collections.Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
    return calls, total, own


def exact_counts(spans, counts) -> dict:
    """The deterministic counts: calls per span name, solves that raised,
    and the counters. Same inputs give the same dict."""
    out = {f"calls.{name}": n for name, n in collections.Counter(s[0] for s in spans).items()}
    for rec in spans:
        if rec[4] is not None:
            out[f"raised.{rec[0]}.{rec[4]}"] = out.get(f"raised.{rec[0]}.{rec[4]}", 0) + 1
    for key, n in counts.items():
        out[".".join(k for k in key if k) if isinstance(key, tuple) else key] = n
    return dict(sorted(out.items()))


def counts_digest(counts: dict) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from one traced region."""
    spans, counts = tracer.spans, tracer.counts
    calls, total, own = span_stats(spans)
    names = [s[0] for s in spans]

    def ms(name):
        return 1e3 * total[name]

    solves = sum(calls[n] for n in SOLVES)
    unbounded = sum(
        1 for s in spans if s[0] in SOLVES and s[4] == "UnboundedDownloadError"
    )
    decide_self = [0.0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name in DECIDES:
            decide_self[i] += end - start
        elif name in SOLVES and parent >= 0 and names[parent] in DECIDES:
            decide_self[parent] -= end - start
    decides = sum(calls[n] for n in DECIDES)
    steps = [
        s[2] - s[1]
        for s in spans
        if s[0] == "simcore.step_chunk"
        or (s[0] == "simcore.apply_chunk" and (s[3] < 0 or names[s[3]] != "simcore.step_chunk"))
    ]
    downloads = sum(n for k, n in counts.items() if isinstance(k, tuple) and k[0] == "download")
    central_dp = sum(
        1 for s in spans if s[0] == "planners.dp" and s[3] >= 0 and names[s[3]] == "multiuser.centralized"
    )
    covered = sum(s[2] - s[1] for s in spans if s[3] < 0)

    values = {
        "planners.exhaustive_ms": ms("planners.exhaustive"),
        "planners.exhaustive_solves": calls["planners.exhaustive"],
        "planners.exhaustive_plans": counts["plans"],
        "planners.dp_ms": ms("planners.dp"),
        "planners.dp_solves": calls["planners.dp"],
        "planners.dp_states": counts["dp_states"],
        "planners.dp_states_per_transition": _ratio(
            counts["dp_states"], counts["download", "planners.dp"]
        ),
        "planners.offline_ms": ms("planners.offline"),
        "planners.offline_downloads": counts["download", "planners.offline"],
        "planners.decide_ms.joint": _ratio(ms("planners.decide.joint"), calls["planners.decide.joint"]),
        "planners.decide_ms.separate": _ratio(
            ms("planners.decide.separate"), calls["planners.decide.separate"]
        ),
        "planners.decide_self_ms": _ratio(1e3 * sum(decide_self), decides),
        "planners.inner_calls_per_decision": _ratio(counts["inner_calls"], decides),
        "planners.unbounded_frac": _ratio(unbounded, solves),
        "simcore.download_calls": downloads,
        "simcore.segments_per_download": _ratio(counts["segments"], downloads),
        "simcore.step_us": _ratio(1e6 * sum(steps), len(steps)),
        "predictors.observe_us": _ratio(
            1e6 * total["predictors.observe_epoch"], calls["predictors.observe_epoch"]
        ),
        "predictors.predict_us": _ratio(1e6 * total["predictors.predict"], calls["predictors.predict"]),
        "predictors.calls": calls["predictors.observe_epoch"] + calls["predictors.predict"],
        "multiuser.loop_self_ms": 1e3 * own["multiuser.simulate_multi"],
        "multiuser.share_events": counts["share_events"],
        "multiuser.central_ms": ms("multiuser.centralized"),
        "multiuser.central_dp_solves": _ratio(central_dp, calls["multiuser.centralized"]),
        "harness.cell_self_ms": 1e3 * own["harness.run_cell"],
        "harness.write_ms": ms("harness.write_results"),
        "traces.gen_ms": ms("traces.gen_trace_set"),
        "traces.gen_calls": calls["traces.gen_trace_set"],
        "trace.overhead_frac": overhead_frac,
        "trace.unaccounted_frac": _ratio(traced_wall_s - covered, traced_wall_s),
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}


def self_time_split(tracer: Tracer, traced_wall_s: float) -> dict:
    """Self milliseconds and share of the traced wall, per span name."""
    calls, _, own = span_stats(tracer.spans)
    return {
        name: {
            "calls": calls[name],
            "self_ms": round(1e3 * own[name], 3),
            "share": round(_ratio(own[name], traced_wall_s), 4),
        }
        for name in sorted(own, key=own.get, reverse=True)
    }
