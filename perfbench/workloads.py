"""The three benchmark workloads: inputs, timed units, payloads and checks.

A workload turns a seed base into a fixed list of units. One unit is the
timed call into leostream's public API (one harness cell, one
single-user session, one multi-user scenario); everything the benchmark
does around it -- serialising payloads, checking outputs -- stays outside
the timed region. All leostream entry points are looked up on their module
at call time, so the tracer's patches take effect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from leostream import harness, multiuser, planners, simcore, traces

# Contention-suite trace generator; the seed is the only thing that varies.
TRACE_GEN = {
    "alpha": 1.0,
    "b_max_mbps": 8.0,
    "duration_s": 400.0,
    "n_satellites": 2,
    "min_elevation_deg": 45.0,
    "altitude_km": 250.0,
}
# The README exp.json: the paper's headline single-user comparison.
SWEEP_CONFIG = {
    "trace": {"generate": TRACE_GEN},
    "video": {"n_chunks": 49, "chunk_duration_s": 2.0, "ladder": "default"},
    "sim": {"mu1": 1.0, "mu2": 4.3, "mu3": 1.0, "rtt_s": 0.08, "handoff_delay_s": 0.2},
    "controllers": [
        "separate:mvt", "separate:mrss", "separate:mb", "joint:dual", "offline-optimal",
    ],
    "predictor": "robust",
    "user_counts": [1],
    "repetitions": 1,
    "jobs": 1,
}
CONTENTION_CONTROLLERS = ("separate:mb", "joint:dual", "centralized")
CONTENTION_USERS = 2
CONTENTION_BACKGROUND = 5
# Acceptance 4: offline may trail an online controller by this share of |offline|.
OFFLINE_SLACK = 0.02
CAPACITY_TOL = 1e-6

# Full and smoke sizes. A full pass takes about 9 s (sweep), 26 s
# (contention) and 8 s (realtime) of host time on a 2-vCPU x86 VM.
SIZES = {
    False: {"sweep_reps": 8, "contention_seeds": 4, "contention_chunks": 20,
            "realtime_seeds": 21, "realtime_chunks": 49, "sweep_chunks": 49},
    True: {"sweep_reps": 1, "contention_seeds": 1, "contention_chunks": 4,
           "realtime_seeds": 2, "realtime_chunks": 6, "sweep_chunks": 6},
}


@dataclass
class UnitResult:
    """What one timed unit produced, reduced to what the metrics need."""

    payload: bytes
    chunks: int
    decisions_s: list
    qoe: dict          # controller -> per-user session QoE values
    failures: int      # failed cells or users
    attempts: int      # cells or users run
    checks: list       # (check name, passed, detail)
    rows: list = field(default_factory=list)  # harness ResultRows (sweep)


class Workload:
    name = ""

    def __init__(self, seed_base: int, smoke: bool, out_dir: Path):
        self.seed_base = seed_base
        self.size = SIZES[smoke]
        self.out_dir = out_dir

    def build_inputs(self) -> list:
        """The units' inputs, generated from the seed base alone."""
        raise NotImplementedError

    def run(self, unit):
        """The timed call into leostream."""
        raise NotImplementedError

    def result(self, unit, raw) -> UnitResult:
        raise NotImplementedError

    def pass_checks(self, results) -> list:
        """Checks that need every unit of the first pass."""
        return []


def _video6(n_chunks: int) -> simcore.VideoSpec:
    return simcore.VideoSpec(
        n_chunks=n_chunks, bitrate_ladder_mbps=simcore.EXTENDED_LADDER_MBPS
    )


def _trace(seed: int) -> traces.TraceSet:
    return traces.gen_trace_set(traces.TraceGenConfig(seed=seed, **TRACE_GEN))


def offline_dominance(rows) -> list:
    """Acceptance 4 per seed: offline-optimal >= every online cell - 2%."""
    checks = []
    by_seed: dict = {}
    for row in rows:
        by_seed.setdefault(row.seed, {})[row.controller] = row.qoe_total
    for seed, cells in sorted(by_seed.items()):
        offline = cells.get("offline-optimal")
        if offline is None:
            checks.append((f"offline_dominance.seed{seed}", False, "no offline cell"))
            continue
        slack = OFFLINE_SLACK * max(1.0, abs(offline))
        beaten = {c: q for c, q in cells.items() if c != "offline-optimal" and q > offline + slack}
        checks.append((f"offline_dominance.seed{seed}", not beaten, beaten or ""))
    return checks


def capacity_conserved(share_events) -> tuple:
    """Acceptance 7: shares plus background never exceed capacity, and
    active users split exactly the residual."""
    bad = 0
    for ev in share_events:
        shares = sum(ev.per_user_mbps.values())
        background = ev.background_fraction * ev.capacity_mbps
        ok = shares + background <= ev.capacity_mbps + CAPACITY_TOL
        if ev.active_users:
            residual = ev.capacity_mbps * (1.0 - ev.background_fraction)
            ok = ok and abs(shares - residual) <= CAPACITY_TOL
        bad += not ok
    return ("capacity_conservation", bad == 0 and bool(share_events),
            f"{bad} of {len(share_events)} share events violate")


class Sweep(Workload):
    name = "sweep"

    def build_inputs(self):
        """One single-cell experiment per (repetition, controller): the
        harness path of `leostream run`, timed cell by cell."""
        data = dict(SWEEP_CONFIG, video=dict(SWEEP_CONFIG["video"], n_chunks=self.size["sweep_chunks"]))
        return [
            harness.config_from_dict(dict(data, seed_base=self.seed_base + rep, controllers=[name]))
            for rep in range(self.size["sweep_reps"])
            for name in SWEEP_CONFIG["controllers"]
        ]

    def run(self, exp):
        output = harness.run_experiment(exp)
        out = self.out_dir / f"seed{exp.seed_base}-{exp.controllers[0].replace(':', '-')}"
        harness.write_results(out, output)
        return output, out

    def result(self, exp, raw):
        output, out = raw
        payload = (out / "results.csv").read_bytes() + (out / "results.json").read_bytes()
        qoe: dict = {}
        for row in output.rows:
            qoe.setdefault(row.controller, []).append(row.qoe_total)
        online = [r for r in output.rows if r.controller != "offline-optimal"]
        return UnitResult(
            payload=payload,
            chunks=exp.video.n_chunks * len(output.rows),
            # run_experiment keeps one mean decision time per cell (timing.csv).
            decisions_s=[r.mean_decision_ms / 1e3 for r in online],
            qoe=qoe,
            failures=len(output.failures),
            attempts=len(output.rows) + len(output.failures),
            checks=[(f"cell_ok.{exp.controllers[0]}.seed{exp.seed_base}",
                     not output.failures, output.failures or "")],
            rows=output.rows,
        )

    def pass_checks(self, results):
        return offline_dominance([row for res in results if res for row in res.rows])


class Contention(Workload):
    name = "contention"

    def build_inputs(self):
        video = _video6(self.size["contention_chunks"])
        units = []
        for k in range(self.size["contention_seeds"]):
            seed = self.seed_base + k
            trace = _trace(seed)
            units += [(seed, trace, video, name) for name in CONTENTION_CONTROLLERS]
        return units

    def run(self, unit):
        seed, trace, video, name = unit
        cfg = simcore.SimConfig()
        if name == "centralized":
            controllers = [multiuser.CentralizedCoordinator(video, cfg)] * CONTENTION_USERS
        else:
            controllers = [
                harness.build_controller(name, video, cfg, "robust", 5, None)
                for _ in range(CONTENTION_USERS)
            ]
        scenario = multiuser.MultiUserScenario(
            trace=trace, controllers=controllers, n_background=CONTENTION_BACKGROUND
        )
        return multiuser.simulate_multi(scenario, video, cfg, seed=seed)

    def result(self, unit, res):
        seed, _, video, name = unit
        body = multiuser.result_json(res, include_share_events=True)
        body["decisions"] = [[[d.bitrate_idx, d.target_satellite, d.handoff_now]
                              for d in per_user] for per_user in res.decisions]
        payload = json.dumps(body, sort_keys=True).encode()
        done = [b for b in res.per_user if b is not None]
        return UnitResult(
            payload=payload,
            chunks=sum(len(b.per_chunk) for b in done),
            decisions_s=[x for per_user in res.decision_latencies_s for x in per_user],
            qoe={name: [b.qoe_total for b in done]},
            failures=len(res.failures),
            attempts=len(res.per_user),
            checks=[
                capacity_conserved(res.share_events),
                (f"users_ok.{name}.seed{seed}", not res.failures, res.failures or ""),
            ],
        )


class Realtime(Workload):
    name = "realtime"

    def build_inputs(self):
        video = _video6(self.size["realtime_chunks"])
        return [(self.seed_base + k, _trace(self.seed_base + k), video)
                for k in range(self.size["realtime_seeds"])]

    def run(self, unit):
        _, trace, video = unit
        cfg = simcore.SimConfig()
        controller = planners.JointMpcController(video, cfg, mode="dual", predictor="robust")
        return simcore.run_session(trace, controller, video, cfg)

    def result(self, unit, res):
        _, _, video = unit
        body = simcore.session_json(res.breakdown, video, simcore.SimConfig())
        body["decisions"] = [[d.bitrate_idx, d.target_satellite, d.handoff_now]
                             for d in res.decisions]
        return UnitResult(
            payload=json.dumps(body, sort_keys=True).encode(),
            chunks=len(res.breakdown.per_chunk),
            decisions_s=list(res.decision_latencies_s),
            qoe={"joint:dual": [res.breakdown.qoe_total]},
            failures=0,
            attempts=1,
            checks=[],
        )


WORKLOADS = {w.name: w for w in (Sweep, Contention, Realtime)}
