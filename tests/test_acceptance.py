"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line with its measured numbers; the heavy
shared computation (20-seed contention suite across controllers and
predictors) runs once per session.
"""

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from leostream.cli import main as cli_main
from leostream.harness import config_from_dict, run_experiment, write_results
from leostream.multiuser import MultiUserScenario, simulate_multi
from leostream.planners import (
    JointMpcController,
    PlanInstance,
    SeparateController,
    f_sat_dpmpc,
    f_sat_mpc,
    offline_optimal,
)
from leostream.predictors import ErrorTracker, ThroughputHistory, harmonic_mean, robust_predict
from leostream.simcore import (
    Decision,
    RateSeries,
    SimConfig,
    VideoSpec,
    initial_state,
    run_session,
    session_qoe,
    step_chunk,
)
from leostream.traces import inject_obstructions

from conftest import SUITE_SEEDS, make_flat_trace, reference_session, suite_trace

ONLINE_CONTROLLERS = (
    "joint:dual",
    "joint:manifold",
    "separate:mvt",
    "separate:mrss",
    "separate:mb",
)


def _controller(name, video, cfg, predictor):
    kind, _, variant = name.partition(":")
    if kind == "joint":
        return JointMpcController(video, cfg, mode=variant, predictor=predictor)
    return SeparateController(video, cfg, strategy=variant, predictor=predictor)


def _random_plan_instance(rng, video, cfg, horizon=5):
    n = 40
    cur = np.maximum(rng.uniform(0.3, 10.0) + rng.normal(0, 1.5, n).cumsum() * 0.3, 0.2)
    new = np.maximum(rng.uniform(0.3, 10.0) + rng.normal(0, 1.5, n).cumsum() * 0.3, 0.2)
    return PlanInstance(
        horizon=horizon,
        buffer_s=float(rng.uniform(0.0, 15.0)),
        last_bitrate_idx=int(rng.integers(0, len(video.bitrate_ladder_mbps))),
        start_t=float(rng.uniform(0.0, 5.0)),
        handoff_chunk=int(rng.integers(1, horizon + 1)),
        current_link=RateSeries(0.0, 1.0, cur),
        target_link=RateSeries(0.0, 1.0, new),
        video=video,
        sim=cfg,
    )


@dataclass
class SuiteRuns:
    singles: dict = field(default_factory=dict)   # (controller, predictor, seed) -> SessionResult
    offline: dict = field(default_factory=dict)   # seed -> QoEBreakdown
    multi3: dict = field(default_factory=dict)    # (controller, seed) -> MultiUserResult


@pytest.fixture(scope="session")
def suite(video, sim_cfg):
    runs = SuiteRuns()
    for seed in SUITE_SEEDS:
        trace = suite_trace(seed)
        runs.offline[seed] = offline_optimal(trace, video, sim_cfg)
        for name in ONLINE_CONTROLLERS:
            for predictor in ("robust", "oracle"):
                ctrl = _controller(name, video, sim_cfg, predictor)
                runs.singles[(name, predictor, seed)] = run_session(
                    trace, ctrl, video, sim_cfg
                )
        for name in ("joint:dual", "separate:mb"):
            controllers = [
                _controller(name, video, sim_cfg, "robust") for _ in range(3)
            ]
            runs.multi3[(name, seed)] = simulate_multi(
                MultiUserScenario(trace=trace, controllers=controllers),
                video, sim_cfg, seed=seed,
            )
    return runs


def test_criterion_01_dp_exhaustive_equivalence(video, sim_cfg):
    rng = np.random.default_rng(2024)
    fine = replace(sim_cfg, dt_s=0.05)
    start = time.perf_counter()
    agreements = 0
    for _ in range(200):
        inst = _random_plan_instance(rng, video, fine, horizon=5)
        ex = f_sat_mpc(inst)
        dp = f_sat_dpmpc(inst)
        assert dp.best_qoe <= ex.best_qoe + 1e-9
        assert dp.best_qoe >= ex.best_qoe - 0.02 * max(1.0, abs(ex.best_qoe))
        if dp.first_bitrate_idx == ex.first_bitrate_idx:
            agreements += 1
        else:
            assert abs(dp.best_qoe - ex.best_qoe) < 1e-6
    elapsed = time.perf_counter() - start
    assert agreements >= 190  # >= 95% of 200
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1: PASS - dp/exhaustive agreement {agreements}/200, "
        f"qoe within 2%, runtime {elapsed:.1f}s < 60s"
    )


def test_criterion_02_dp_acceleration(video6, sim_cfg):
    rng = np.random.default_rng(7)
    speedups = []
    max_states = 0
    for _ in range(50):
        inst = _random_plan_instance(rng, video6, sim_cfg, horizon=5)
        t0 = time.perf_counter()
        f_sat_mpc(inst)
        t_ex = time.perf_counter() - t0
        t0 = time.perf_counter()
        dp = f_sat_dpmpc(inst)
        t_dp = time.perf_counter() - t0
        speedups.append(t_ex / t_dp)
        max_states = max(max_states, dp.states_visited)
        assert dp.states_visited < 6**5
    median_speedup = float(np.median(speedups))
    assert median_speedup >= 5.0
    print(
        f"ACCEPTANCE 2: PASS - median speedup {median_speedup:.1f}x >= 5x, "
        f"max visited states {max_states} < 7776"
    )


def test_criterion_03_joint_beats_separate(suite):
    joint_1u = np.mean([suite.singles[("joint:dual", "robust", s)].breakdown.qoe_total
                        for s in SUITE_SEEDS])
    mb_1u = np.mean([suite.singles[("separate:mb", "robust", s)].breakdown.qoe_total
                     for s in SUITE_SEEDS])
    margin_1u = (joint_1u - mb_1u) / abs(mb_1u)
    joint_3u = np.mean([suite.multi3[("joint:dual", s)].qos for s in SUITE_SEEDS])
    mb_3u = np.mean([suite.multi3[("separate:mb", s)].qos for s in SUITE_SEEDS])
    margin_3u = (joint_3u - mb_3u) / abs(mb_3u)
    assert margin_1u >= 0.05
    assert margin_3u >= 0.15
    print(
        f"ACCEPTANCE 3: PASS - joint-dual vs MB margin "
        f"{100 * margin_1u:.1f}% (1 user, need >=5%), "
        f"{100 * margin_3u:.1f}% (3 users, need >=15%)"
    )


def test_criterion_04_offline_dominance(suite):
    violations = 0
    comparisons = 0
    for seed in SUITE_SEEDS:
        offline = suite.offline[seed].qoe_total
        slack = 0.02 * max(1.0, abs(offline))
        for name in ONLINE_CONTROLLERS:
            for predictor in ("robust", "oracle"):
                comparisons += 1
                online = suite.singles[(name, predictor, seed)].breakdown.qoe_total
                if online > offline + slack:
                    violations += 1
    assert violations == 0
    print(
        f"ACCEPTANCE 4: PASS - offline optimal dominates all "
        f"{comparisons} online runs (2% discretization slack, 0 violations)"
    )


def test_criterion_05_prediction_effect(suite):
    for name in ("joint:dual", "separate:mb"):
        oracle = np.mean([suite.singles[(name, "oracle", s)].breakdown.qoe_total
                          for s in SUITE_SEEDS])
        robust = np.mean([suite.singles[(name, "robust", s)].breakdown.qoe_total
                          for s in SUITE_SEEDS])
        assert oracle >= robust, name
    print("ACCEPTANCE 5: PASS - oracle prediction mean QoE >= robust for joint and separate MPC")


def test_criterion_06_breakdown_identity(video, sim_cfg):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        rates = rng.uniform(0.5, 25.0, size=3)
        trace = make_flat_trace(rates, duration_s=400.0)
        state = initial_state(trace, video, sim_cfg)
        outcomes = []
        for _ in range(8):
            idx = int(rng.integers(0, 3))
            sat = int(rng.integers(0, 3))
            state, outcome = step_chunk(
                state, Decision(idx, sat, sat != state.current_satellite),
                trace, video, sim_cfg,
            )
            outcomes.append(outcome)
        b = session_qoe(outcomes, sim_cfg)
        gap = abs(b.qoe_total - (b.quality_total - b.rebuf_penalty_total - b.smooth_penalty_total))
        worst = max(worst, gap)
        assert gap < 1e-9
    print(f"ACCEPTANCE 6: PASS - breakdown identity on 1000 sessions, worst gap {worst:.2e} < 1e-9")


def test_criterion_07_capacity_conservation(suite, video, sim_cfg):
    events = 0
    scenarios = [res for res in suite.multi3.values()]
    trace = suite_trace(0)
    controllers = [
        _controller("joint:dual", video, sim_cfg, "robust") for _ in range(3)
    ]
    scenarios.append(
        simulate_multi(
            MultiUserScenario(trace=trace, controllers=controllers, n_background=10),
            video, sim_cfg, seed=0,
        )
    )
    loaded_events = 0
    for result in scenarios:
        for ev in result.share_events:
            events += 1
            if ev.background_fraction > 0:
                loaded_events += 1
            background = ev.background_fraction * ev.capacity_mbps
            assert sum(ev.per_user_mbps.values()) + background <= ev.capacity_mbps + 1e-6
            if ev.active_users:
                residual = ev.capacity_mbps * (1.0 - ev.background_fraction)
                assert abs(sum(ev.per_user_mbps.values()) - residual) <= 1e-6
    assert events > 0
    assert loaded_events > 0  # background demand genuinely exercised
    print(
        f"ACCEPTANCE 7: PASS - capacity and work conservation on {events} share "
        f"events ({loaded_events} under background load)"
    )


def test_criterion_08_single_user_degeneracy(video, sim_cfg):
    for seed in SUITE_SEEDS:
        trace = suite_trace(seed)
        solo = reference_session(
            trace, _controller("joint:dual", video, sim_cfg, "robust"), video, sim_cfg
        )
        multi = simulate_multi(
            MultiUserScenario(
                trace=trace,
                controllers=[_controller("joint:dual", video, sim_cfg, "robust")],
                n_background=0,
            ),
            video, sim_cfg, seed=seed,
        )
        assert multi.failures == {}
        assert multi.decisions[0] == solo.decisions
        assert multi.per_user[0].per_chunk == solo.breakdown.per_chunk
        assert multi.per_user[0].qoe_total == solo.breakdown.qoe_total
    print(f"ACCEPTANCE 8: PASS - multi-user U=1 bit-identical to single user on {len(SUITE_SEEDS)} seeds")


def test_criterion_09_decision_latency(video6, sim_cfg):
    latencies = []
    for seed in range(3):
        trace = suite_trace(seed)
        ctrl = JointMpcController(video6, sim_cfg, mode="dual", predictor="robust")
        result = run_session(trace, ctrl, video6, sim_cfg)
        latencies.extend(result.decision_latencies_s)
    median_ms = 1000.0 * float(np.median(latencies))
    assert median_ms < 10.0
    print(
        f"ACCEPTANCE 9: PASS - median joint-dual decision {median_ms:.2f} ms < 10 ms "
        f"(6 bitrates, F=5, DT=1, {len(latencies)} decisions)"
    )


def test_criterion_10_conservatism():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(10_000):
        history = ThroughputHistory()
        for v in rng.uniform(0.05, 30.0, size=int(rng.integers(1, 6))):
            history.append(float(v))
        errors = ErrorTracker()
        for e in rng.uniform(0.0, 3.0, size=int(rng.integers(0, 6))):
            errors.record(float(e))
        hm = harmonic_mean(history)
        rp = robust_predict(history, errors)
        assert rp <= hm + 1e-12
        if errors.max_error() == 0.0:
            assert rp == hm
        else:
            assert rp < hm
        checked += 1
    print(f"ACCEPTANCE 10: PASS - robust <= harmonic mean on {checked} tracker states, equality iff no error")


def test_criterion_11_obstruction_handling(video):
    cfg = SimConfig(max_buffer_s=8.0)
    trace = inject_obstructions(
        make_flat_trace([10.0, 10.0], duration_s=200.0), [(0, 14.0, 39.0)]
    )
    joint = run_session(
        trace, JointMpcController(video, cfg, mode="dual", predictor="robust"),
        video, cfg,
    )
    mb = run_session(
        trace, SeparateController(video, cfg, strategy="mb", predictor="robust"),
        video, cfg,
    )

    def chunk_at_onset(breakdown):
        t = 0.0
        for oc in breakdown.per_chunk:
            if t >= 14.0:
                return oc.chunk_index
            t += oc.download_time_s + (cfg.handoff_delay_s if oc.handoff_performed else 0.0) + oc.drain_s
        return None

    onset = chunk_at_onset(joint.breakdown)
    handoffs = [oc.chunk_index for oc in joint.breakdown.per_chunk if oc.handoff_performed]
    assert handoffs, "joint controller never handed off"
    assert handoffs[0] - onset <= 2
    # Rebuffer attributable to the obstruction: the startup chunk (empty
    # buffer, identical for both controllers) is excluded.
    joint_rebuf = sum(oc.rebuffer_s for oc in joint.breakdown.per_chunk[1:])
    mb_rebuf = sum(oc.rebuffer_s for oc in mb.breakdown.per_chunk[1:])
    assert joint_rebuf < 0.5
    assert mb_rebuf >= 2.0
    assert mb.handoff_count == 0  # visibility never ends, so MB never switches
    print(
        f"ACCEPTANCE 11: PASS - joint hands off at chunk {handoffs[0]} "
        f"(onset {onset}), rebuffer {joint_rebuf:.2f}s < 0.5s; "
        f"MB rebuffer {mb_rebuf:.2f}s >= 2s"
    )


def test_criterion_12_end_to_end_determinism(tmp_path):
    config = {
        "trace": {
            "generate": {
                "alpha": 1.0, "b_max_mbps": 8.0, "duration_s": 300.0,
                "n_satellites": 2, "min_elevation_deg": 45.0, "altitude_km": 250.0,
            }
        },
        "video": {"n_chunks": 12},
        "controllers": ["separate:mb", "joint:dual"],
        "repetitions": 2,
        "seed_base": 0,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("results.csv", "results.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    print("ACCEPTANCE 12: PASS - repeated runs produce byte-identical payloads")
