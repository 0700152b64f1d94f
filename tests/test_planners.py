import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leostream import planners
from leostream.harness import build_controller
from leostream.planners import (
    BelowFloorError,
    JointMpcController,
    PlanInstance,
    PlanningError,
    SeparateController,
    _chunk_wait,
    baseline_handoff,
    chunk_scores,
    evaluate_plan,
    f_mpc,
    f_sat_dpmpc,
    f_sat_mpc,
    handoff_instances,
    offline_optimal,
    offline_optimal_plan,
    select_candidates,
    solve_options,
)
from leostream.simcore import (
    Decision,
    PlayerState,
    RateSeries,
    SimConfig,
    UnboundedDownloadError,
    VideoSpec,
    chunk_qoe,
    initial_state,
    piecewise_download,
    run_session,
    session_qoe,
    settle_chunk,
    step_chunk,
)
from leostream.traces import TraceGenConfig, TraceSet, gen_trace_set, inject_obstructions

from conftest import assert_best_first_floors, make_flat_trace, step_seed, suite_trace


def _instance(video, cfg, buffer_s=8.0, last_idx=0, start_t=0.0, h=None,
              cur=10.0, new=None, horizon=5):
    cur_link = cur if isinstance(cur, RateSeries) else RateSeries.constant(cur)
    new_link = None
    if new is not None:
        new_link = new if isinstance(new, RateSeries) else RateSeries.constant(new)
    return PlanInstance(
        horizon=horizon,
        buffer_s=buffer_s,
        last_bitrate_idx=last_idx,
        start_t=start_t,
        handoff_chunk=h,
        current_link=cur_link,
        target_link=new_link,
        video=video,
        sim=cfg,
    )


def _random_instance(rng, video, cfg, horizon=5, with_handoff=True):
    n = 40
    cur = np.maximum(rng.uniform(0.3, 10.0) + rng.normal(0, 1.5, n).cumsum() * 0.3, 0.2)
    new = np.maximum(rng.uniform(0.3, 10.0) + rng.normal(0, 1.5, n).cumsum() * 0.3, 0.2)
    h = int(rng.integers(1, horizon + 1)) if with_handoff else None
    return PlanInstance(
        horizon=horizon,
        buffer_s=float(rng.uniform(0.0, 15.0)),
        last_bitrate_idx=int(rng.integers(0, len(video.bitrate_ladder_mbps))),
        start_t=float(rng.uniform(0.0, 5.0)),
        handoff_chunk=h,
        current_link=RateSeries(0.0, 1.0, cur),
        target_link=RateSeries(0.0, 1.0, new) if h is not None else None,
        video=video,
        sim=cfg,
    )


def test_f_mpc_flat_rich_link_all_max(video, sim_cfg):
    res = f_mpc(_instance(video, sim_cfg, buffer_s=8.0, last_idx=0, cur=10.0))
    assert res.full_bitrate_plan == (2, 2, 2, 2, 2)
    assert res.best_qoe == pytest.approx(5 * 2.85 - (2.85 - 0.3))


def test_f_mpc_starved_link_all_min(video, sim_cfg):
    res = f_mpc(_instance(video, sim_cfg, buffer_s=0.0, cur=0.1))
    assert res.full_bitrate_plan == (0, 0, 0, 0, 0)


def test_f_mpc_horizon_one_is_single_chunk_argmax(video, sim_cfg):
    inst = _instance(video, sim_cfg, buffer_s=4.0, last_idx=1, cur=6.0, horizon=1)
    res = f_mpc(inst)
    best = max(
        range(3), key=lambda idx: (evaluate_plan(inst, (idx,)), idx)
    )
    assert res.first_bitrate_idx == best


def test_f_mpc_rejects_handoff_instance(video, sim_cfg):
    with pytest.raises(PlanningError):
        f_mpc(_instance(video, sim_cfg, h=2, new=10.0))
    with pytest.raises(PlanningError):
        f_sat_mpc(_instance(video, sim_cfg))


def test_f_sat_mpc_equal_links_match_stay(video, sim_cfg):
    # Same throughput on both sides: the handoff delay is absorbed by the
    # buffer, so plan and horizon QoE match the no-handoff search.
    stay = f_mpc(_instance(video, sim_cfg, buffer_s=8.0, cur=10.0))
    move = f_sat_mpc(_instance(video, sim_cfg, buffer_s=8.0, cur=10.0, new=10.0, h=3))
    assert move.full_bitrate_plan == stay.full_bitrate_plan
    assert move.best_qoe == pytest.approx(stay.best_qoe)


def test_f_sat_mpc_prefers_rich_target(video, sim_cfg):
    res = f_sat_mpc(_instance(video, sim_cfg, buffer_s=4.0, cur=0.5, new=10.0, h=1))
    assert res.full_bitrate_plan[-1] == 2
    assert res.best_qoe > f_mpc(_instance(video, sim_cfg, buffer_s=4.0, cur=0.5)).best_qoe


def test_f_sat_mpc_handoff_cost_with_empty_buffer(video, sim_cfg):
    stay = f_mpc(_instance(video, sim_cfg, buffer_s=0.0, cur=10.0))
    move = f_sat_mpc(_instance(video, sim_cfg, buffer_s=0.0, cur=10.0, new=10.0, h=1))
    # With nothing buffered the 0.2 s switch becomes pure rebuffer.
    assert stay.best_qoe - move.best_qoe == pytest.approx(
        sim_cfg.mu2 * sim_cfg.handoff_delay_s
    )


LADDERS = ((0.3, 1.2, 2.85), (0.3, 0.75, 1.2, 1.85, 2.85, 4.3))


def _naive_exhaustive(inst):
    """Reference search: score every plan from scratch, keep the last best."""
    n_rates = len(inst.video.bitrate_ladder_mbps)
    best_q, best_plan = -math.inf, None
    for plan in itertools.product(range(n_rates), repeat=inst.horizon):
        try:
            q = evaluate_plan(inst, plan)
        except UnboundedDownloadError:
            continue
        if q >= best_q:
            best_q, best_plan = q, plan
    if best_plan is None:
        raise UnboundedDownloadError("all horizon plans are unbounded")
    return best_q, best_plan


@st.composite
def _links(draw):
    """A predicted link, often with a zero-throughput tail (unbounded)."""
    rates = draw(st.lists(st.floats(0.2, 10.0), min_size=1, max_size=10))
    zero_from = draw(st.none() | st.integers(0, len(rates) - 1))
    if zero_from is not None:
        rates[zero_from:] = [0.0] * (len(rates) - zero_from)
    anchor = draw(st.floats(0.0, 2.0))
    return RateSeries(anchor, draw(st.sampled_from((0.5, 1.0, 2.0))), rates)


@st.composite
def _plan_instances(draw):
    ladder = draw(st.sampled_from(LADDERS))
    horizon = draw(st.integers(1, 5 if len(ladder) == 3 else 4))
    h = draw(st.none() | st.integers(1, horizon))
    # A small buffer cap makes the player idle (drain) between chunks.
    sim = SimConfig(max_buffer_s=draw(st.sampled_from((60.0, 8.0))))
    return PlanInstance(
        horizon=horizon,
        buffer_s=draw(st.floats(0.0, sim.max_buffer_s)),
        last_bitrate_idx=draw(st.integers(0, len(ladder) - 1)),
        start_t=draw(st.floats(0.0, 6.0)),
        handoff_chunk=h,
        current_link=draw(_links()),
        target_link=None if h is None else draw(_links()),
        video=VideoSpec(bitrate_ladder_mbps=ladder),
        sim=sim,
    )


@st.composite
def _tied_instances(draw):
    """Instances whose plans often tie exactly: integer rungs, rates on a
    0.5 Mbps grid, start and buffer on a 0.5 s grid. They hand off
    nowhere; a test may set any handoff point on the target link."""
    horizon = draw(st.integers(2, 4))
    sim = SimConfig(
        max_buffer_s=draw(st.sampled_from((8.0, 60.0))),
        dt_s=draw(st.sampled_from((0.5, 1.0, 2.0))),
    )
    rates = st.lists(st.integers(1, 16).map(lambda k: k / 2), min_size=4, max_size=12)
    return PlanInstance(
        horizon=horizon,
        buffer_s=draw(st.integers(0, 16)) / 2,
        last_bitrate_idx=draw(st.integers(0, 5)),
        start_t=draw(st.integers(0, 8)) / 2,
        handoff_chunk=None,
        current_link=RateSeries(0.0, draw(st.sampled_from((0.5, 1.0))), draw(rates)),
        target_link=RateSeries(0.0, draw(st.sampled_from((0.5, 1.0))), draw(rates)),
        video=VideoSpec(bitrate_ladder_mbps=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
        sim=sim,
    )


@st.composite
def _weights(draw):
    """QoE weights, zeros included: mu1 = mu3 = 0 ties every rebuffer-free
    plan, and mu3 = 0 leaves the bound no switch cost to rely on."""
    return dict(
        mu1=draw(st.sampled_from((0.0, 1.0, 2.0))),
        mu2=draw(st.sampled_from((0.0, 0.5, 4.3))),
        mu3=draw(st.sampled_from((0.0, 1.0, 3.0))),
    )


@settings(max_examples=300)
@given(_plan_instances() | _tied_instances(), _weights())
def test_prefix_shared_search_matches_naive_enumeration(base, weights):
    # f_mpc is the bounded walk and f_sat_mpc the full one. A drawn handoff
    # instance is also solved without its handoff, so every example checks
    # the bound at least once.
    base = dataclasses.replace(base, sim=dataclasses.replace(base.sim, **weights))
    cases = [base]
    if base.handoff_chunk is not None:
        cases.append(dataclasses.replace(base, handoff_chunk=None, target_link=None))
    for inst in cases:
        try:
            q, plan = _naive_exhaustive(inst)
            expected = (q.hex(), plan, plan[0])
        except UnboundedDownloadError:
            expected = None
        search = f_mpc if inst.handoff_chunk is None else f_sat_mpc
        try:
            res = search(inst)
            got = (res.best_qoe.hex(), res.full_bitrate_plan, res.first_bitrate_idx)
        except UnboundedDownloadError:
            got = None
        assert got == expected


def _scalar_dp(inst, reverse=False):
    """Reference grid DP: one _chunk_wait + settle_chunk + chunk_qoe per rung.

    A tie in QoE keeps the earlier clock, then the fuller buffer, then the
    lower parent key. reverse visits each stage's states, and the ladder,
    in reverse order, which that rule makes irrelevant.
    """
    dt = inst.sim.dt_s
    ladder = inst.video.bitrate_ladder_mbps
    order = reversed if reverse else iter
    init_key = (int(inst.start_t / dt), int(inst.buffer_s / dt), inst.last_bitrate_idx)
    stage = {init_key: (0.0, inst.start_t, inst.buffer_s)}
    parents, visited = [], 0
    for n in range(1, inst.horizon + 1):
        new_stage, par = {}, {}
        for key, (q, t, buf) in order(list(stage.items())):
            for rate_idx in order(range(len(ladder))):
                try:
                    wait = _chunk_wait(inst, n, t, rate_idx)
                except UnboundedDownloadError:
                    continue
                rebuf, new_buf, drain = settle_chunk(
                    buf, wait, inst.video.chunk_duration_s, inst.sim.max_buffer_s
                )
                new_q = q + chunk_qoe(ladder[key[2]], ladder[rate_idx], rebuf, inst.sim)
                new_t = t + wait
                if drain > 0.0:
                    new_t += drain
                new_key = (int(new_t / dt), int(new_buf / dt), rate_idx)
                cur = new_stage.get(new_key)
                if cur is None or new_q > cur[0] or (
                    new_q == cur[0]
                    and (new_t, -new_buf, key) < (cur[1], -cur[2], par[new_key])
                ):
                    new_stage[new_key] = (new_q, new_t, new_buf)
                    par[new_key] = key
        if not new_stage:
            raise UnboundedDownloadError("all horizon plans are unbounded")
        parents.append(par)
        stage = new_stage
        visited += len(new_stage)
    best_q = max(v[0] for v in stage.values())
    plans = []
    for key, v in stage.items():
        if v[0] != best_q:
            continue
        plan = []
        for par in reversed(parents):
            plan.append(key[2])
            key = par[key]
        plans.append(tuple(reversed(plan)))
    return best_q, max(plans), visited


@settings(max_examples=200)
@given(_plan_instances(), st.sampled_from((0.25, 1.0)))
def test_dp_matches_scalar_reference_and_reevaluates_exactly(inst, dt):
    inst = dataclasses.replace(inst, sim=dataclasses.replace(inst.sim, dt_s=dt))
    try:
        q, plan, visited = _scalar_dp(inst)
        expected = (q.hex(), plan, visited)
    except UnboundedDownloadError:
        expected = None
    try:
        res = f_sat_dpmpc(inst)
        got = (res.best_qoe.hex(), res.full_bitrate_plan, res.states_visited)
    except UnboundedDownloadError:
        got = None
    assert got == expected
    if got is None:
        return
    assert res.first_bitrate_idx == res.full_bitrate_plan[0]
    # The DP value is the exact value of a real plan, never above the optimum.
    assert evaluate_plan(inst, res.full_bitrate_plan) == res.best_qoe
    exhaustive = f_mpc if inst.handoff_chunk is None else f_sat_mpc
    assert res.best_qoe <= exhaustive(inst).best_qoe


@settings(max_examples=300)
@given(
    _plan_instances() | _tied_instances(), _weights(), st.sampled_from((0.25, 0.5, 1.0, 2.0)),
    st.floats(0.0, 20.0), st.integers(0, 4),
)
def test_dp_floor_returns_the_unbounded_plan_or_below_floor(inst, weights, dt, gap, h):
    # The floor skips a state by the rebuffer-free ceiling of the chunks
    # left, which the QoE weights set; mu1 = 0 makes it 0. Tied instances
    # make plans tie exactly, so floors land exactly on plan values; they
    # hand off at point h, or nowhere when h is 0 or past the horizon.
    inst = dataclasses.replace(inst, sim=dataclasses.replace(inst.sim, dt_s=dt, **weights))
    if inst.handoff_chunk is None and inst.target_link is not None:
        inst = dataclasses.replace(inst, handoff_chunk=h if 0 < h <= inst.horizon else None)
    try:
        full = f_sat_dpmpc(inst)
    except UnboundedDownloadError:
        # No plan at all: no floor finds one.
        with pytest.raises((UnboundedDownloadError, BelowFloorError)):
            f_sat_dpmpc(inst, -gap)
        return
    best = full.best_qoe
    floors = [best - gap, best - 1e-9, best, math.nextafter(best, math.inf), best + 1.0 + gap]
    for floor in floors:
        if best >= floor:
            res = f_sat_dpmpc(inst, floor)
            assert (res.best_qoe.hex(), res.full_bitrate_plan) == (
                best.hex(), full.full_bitrate_plan
            ), floor
            assert res.states_visited <= full.states_visited
        else:
            with pytest.raises(BelowFloorError) as below:
                f_sat_dpmpc(inst, floor)
            assert 0 <= below.value.states_visited <= full.states_visited


def test_below_floor_error_counts_the_states_kept(video6, sim_cfg):
    inst = _instance(video6, sim_cfg, buffer_s=8.0, cur=6.0, new=4.0, h=3)
    full = f_sat_dpmpc(inst)
    with pytest.raises(BelowFloorError) as below:
        f_sat_dpmpc(inst, math.nextafter(full.best_qoe, math.inf))
    # The solve ran dry after keeping states: work the caller sees no
    # PlanResult for.
    assert 0 < below.value.states_visited <= full.states_visited


def test_dp_floor_keeps_the_unbounded_tie_break():
    # Plans (3, 4, 4) and (4, 3, 4) meet in one chunk-3 cell with equal
    # QoE (11), clock and buffer, so the lower parent key, that of (4, 3),
    # wins. (4, 3, 3) scores 11 in another cell; the higher of the tied
    # plans is returned. The floors skip states at chunks 2 and 3, which
    # leaves the tied cell's winner as it is.
    video = VideoSpec(bitrate_ladder_mbps=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    cur = [1.0, 5.7, 3.7, 1.5, 5.0, 4.2, 3.6, 0.8, 3.6, 2.2, 0.7, 6.5]
    new = [0.6, 0.7, 8.7, 7.7, 8.6, 7.2, 6.0, 4.0, 6.3, 3.6, 4.6]
    inst = PlanInstance(
        horizon=3, buffer_s=3.8, last_bitrate_idx=5, start_t=2.66, handoff_chunk=3,
        current_link=RateSeries(1.0, 1.0, cur), target_link=RateSeries(1.5, 0.5, new),
        video=video, sim=SimConfig(max_buffer_s=8.0, dt_s=2.0),
    )
    assert {evaluate_plan(inst, plan) for plan in ((3, 4, 4), (4, 3, 4), (4, 3, 3))} == {11.0}
    full = f_sat_dpmpc(inst)
    assert (full.best_qoe, full.full_bitrate_plan) == (11.0, (4, 3, 4))
    for floor in (11.0, 10.9):
        res = f_sat_dpmpc(inst, floor)
        assert (res.best_qoe.hex(), res.full_bitrate_plan) == (
            full.best_qoe.hex(), full.full_bitrate_plan
        )
        assert res.states_visited < full.states_visited


@settings(max_examples=60, deadline=None)
@given(_tied_instances())
def test_dp_merge_ignores_stage_order(base):
    for h in (None, *range(1, base.horizon + 1)):
        inst = dataclasses.replace(base, handoff_chunk=h)
        q, plan, visited = _scalar_dp(inst, reverse=True)
        full = f_sat_dpmpc(inst)
        assert (full.best_qoe.hex(), full.full_bitrate_plan, full.states_visited) == (
            q.hex(), plan, visited
        )
        for floor in (q - 1.0, math.nextafter(q, -math.inf), q, math.nextafter(q, math.inf)):
            try:
                res = f_sat_dpmpc(inst, floor)
            except BelowFloorError:
                assert q < floor
                continue
            assert (res.best_qoe.hex(), res.full_bitrate_plan) == (q.hex(), plan)
            assert res.states_visited <= visited


def _bounded_prefixes(inst):
    n_rates = len(inst.video.bitrate_ladder_mbps)
    count = 0
    for k in range(1, inst.horizon + 1):
        for prefix in itertools.product(range(n_rates), repeat=k):
            try:
                evaluate_plan(inst, prefix)
            except UnboundedDownloadError:
                continue
            count += 1
    return count


@pytest.mark.parametrize("ladder, full", [(LADDERS[0], 363), (LADDERS[1], 9330)])
def test_exhaustive_states_visited_counts_simulated_prefixes(sim_cfg, ladder, full):
    video = VideoSpec(bitrate_ladder_mbps=ladder)
    assert full == sum(len(ladder) ** k for k in range(1, 6))
    rich = _instance(video, sim_cfg, cur=10.0)
    walk = planners._plan_exhaustive(rich)
    assert walk.states_visited == full
    # f_mpc bounds the same walk. Its first descent, along the top rung,
    # sets a best that no other child's bound reaches: it simulates the
    # ladder once per chunk and returns the full walk's QoE and plan.
    res = f_mpc(rich)
    assert (res.best_qoe.hex(), res.full_bitrate_plan) == (
        walk.best_qoe.hex(), walk.full_bitrate_plan
    )
    assert res.states_visited == 5 * len(ladder) < full
    # The target link dies at t = 3 s: prefixes stranded there are pruned.
    dying = RateSeries(0.0, 1.0, [4.0, 4.0, 4.0, 0.0])
    inst = _instance(video, sim_cfg, cur=10.0, new=dying, h=2)
    visited = f_sat_mpc(inst).states_visited
    assert 0 < visited < full
    assert visited == _bounded_prefixes(inst)


def test_dp_buffer_discretization_shares_states(video6, sim_cfg):
    # 8.1 s and 8.2 s buffers floor to the same index at DT = 1 s.
    assert int(8.1 / 1.0) == int(8.2 / 1.0) == 8
    inst = _instance(video6, sim_cfg, buffer_s=8.0, cur=6.0, new=4.0, h=3)
    res = f_sat_dpmpc(inst)
    assert res.states_visited is not None
    assert res.states_visited < 6**5


def test_dp_matches_exhaustive_fine_grid(video, sim_cfg):
    rng = np.random.default_rng(10)
    fine = dataclasses.replace(sim_cfg, dt_s=0.01)
    agree = 0
    for _ in range(200):
        inst = _random_instance(rng, VideoSpec(), fine, horizon=3)
        ex = f_sat_mpc(inst)
        dp = f_sat_dpmpc(inst)
        assert abs(dp.best_qoe - ex.best_qoe) < 1e-6
        if dp.first_bitrate_idx == ex.first_bitrate_idx:
            agree += 1
        else:
            assert abs(dp.best_qoe - ex.best_qoe) < 1e-6
    assert agree >= 196  # >= 98% of 200


def test_dp_never_exceeds_exhaustive(video, sim_cfg):
    rng = np.random.default_rng(11)
    for _ in range(60):
        inst = _random_instance(rng, video, sim_cfg)
        ex = f_sat_mpc(inst)
        dp = f_sat_dpmpc(inst)
        assert dp.best_qoe <= ex.best_qoe + 1e-9


def test_plan_reevaluation_matches_best_qoe(video, sim_cfg):
    rng = np.random.default_rng(12)
    for _ in range(60):
        inst = _random_instance(rng, video, dataclasses.replace(sim_cfg, dt_s=0.5))
        for res in (f_sat_mpc(inst), f_sat_dpmpc(inst)):
            assert evaluate_plan(inst, res.full_bitrate_plan) == pytest.approx(
                res.best_qoe, abs=1e-9
            )


def test_prediction_monotonicity(video, sim_cfg):
    rng = np.random.default_rng(13)
    for _ in range(40):
        inst = _random_instance(rng, video, sim_cfg)
        boosted = PlanInstance(
            horizon=inst.horizon,
            buffer_s=inst.buffer_s,
            last_bitrate_idx=inst.last_bitrate_idx,
            start_t=inst.start_t,
            handoff_chunk=inst.handoff_chunk,
            current_link=inst.current_link.scaled(1.1),
            target_link=inst.target_link.scaled(1.1),
            video=inst.video,
            sim=inst.sim,
        )
        assert f_sat_mpc(boosted).best_qoe >= f_sat_mpc(inst).best_qoe - 1e-9
        assert f_sat_dpmpc(boosted).best_qoe >= f_sat_dpmpc(inst).best_qoe - 1e-9


def _full_joint_optimum(video, cfg, buffer_s, last_idx, rate_by_sat, start_sat, horizon):
    """Test-only oracle: enumerate every (satellite, bitrate) sequence with a
    handoff delay charged at each satellite change, using hand-rolled
    constant-rate arithmetic."""
    ladder = video.bitrate_ladder_mbps
    sats = sorted(rate_by_sat)
    best = (-math.inf, None)
    for sat_seq in itertools.product(sats, repeat=horizon):
        for rate_seq in itertools.product(range(len(ladder)), repeat=horizon):
            buf = buffer_s
            prev_idx = last_idx
            prev_sat = start_sat
            total = 0.0
            for sat, idx in zip(sat_seq, rate_seq):
                wait = ladder[idx] * video.chunk_duration_s / rate_by_sat[sat] + cfg.rtt_s
                if sat != prev_sat:
                    wait += cfg.handoff_delay_s
                rebuf = max(0.0, wait - buf)
                buf = max(0.0, buf - wait) + video.chunk_duration_s
                if buf > cfg.max_buffer_s:
                    buf = cfg.max_buffer_s
                total += (
                    cfg.mu1 * ladder[idx]
                    - cfg.mu2 * rebuf
                    - cfg.mu3 * abs(ladder[idx] - ladder[prev_idx])
                )
                prev_idx = idx
                prev_sat = sat
            switches = sum(1 for a, b in zip((start_sat,) + sat_seq, sat_seq) if a != b)
            if total > best[0]:
                best = (total, switches)
    return best


def test_pruned_search_matches_full_joint_oracle(video, sim_cfg):
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(40):
        rates = {0: float(rng.uniform(0.2, 9.0)), 1: float(rng.uniform(0.2, 9.0))}
        buffer_s = float(rng.uniform(0.0, 10.0))
        last_idx = int(rng.integers(0, 3))
        full_best, switches = _full_joint_optimum(
            video, sim_cfg, buffer_s, last_idx, rates, start_sat=0, horizon=3
        )
        if switches > 1:
            continue
        checked += 1
        options = [
            f_mpc(_instance(video, sim_cfg, buffer_s=buffer_s, last_idx=last_idx,
                            cur=rates[0], horizon=3)).best_qoe
        ]
        for h in (1, 2, 3):
            options.append(
                f_sat_mpc(_instance(video, sim_cfg, buffer_s=buffer_s, last_idx=last_idx,
                                    cur=rates[0], new=rates[1], h=h, horizon=3)).best_qoe
            )
        assert max(options) == pytest.approx(full_best, abs=1e-9)
    assert checked >= 20


def test_select_candidates_dual_picks_best_runner_up():
    predictions = {0: 7.0, 1: 10.0, 2: 5.0}
    assert select_candidates("dual", [0, 1, 2], predictions, current=0, previous=None) == [1]


def test_select_candidates_dual_excludes_previous():
    predictions = {0: 7.0, 1: 10.0, 2: 5.0}
    assert select_candidates("dual", [0, 1, 2], predictions, current=0, previous=1) == [2]


def test_select_candidates_dual_empty():
    assert select_candidates("dual", [0], {0: 7.0}, current=0, previous=None) == []


def test_select_candidates_dual_tie_lower_id():
    predictions = {0: 7.0, 1: 5.0, 2: 5.0}
    assert select_candidates("dual", [0, 1, 2], predictions, current=0, previous=None) == [1]


def test_select_candidates_manifold():
    predictions = {0: 7.0, 1: 10.0, 2: 5.0}
    assert select_candidates("manifold", [0, 1, 2], predictions, current=0, previous=1) == [1, 2]


def test_joint_controller_stays_on_equal_flats(video, sim_cfg):
    trace = make_flat_trace([10.0, 10.0], duration_s=200.0)
    ctrl = JointMpcController(video, sim_cfg, mode="dual")
    result = run_session(trace, ctrl, video, sim_cfg)
    assert result.handoff_count == 0


def test_joint_controller_inner_call_count(video, sim_cfg):
    trace = make_flat_trace([10.0, 8.0, 6.0], duration_s=200.0)
    ctrl = JointMpcController(video, sim_cfg, mode="manifold")
    state = initial_state(trace, video, sim_cfg)
    ctrl.observe_start(trace, state)
    ctrl.decide(state, trace)
    # Two candidates (everything visible except current), F=5 each, plus
    # the stay search.
    assert ctrl.last_stats.inner_calls == 2 * 5 + 1


def test_joint_controller_handoff_out_of_obstruction(video, sim_cfg):
    cfg = SimConfig(max_buffer_s=8.0)
    trace = inject_obstructions(
        make_flat_trace([10.0, 10.0], duration_s=200.0), [(0, 14.0, 39.0)]
    )
    ctrl = JointMpcController(video, cfg, mode="dual")
    result = run_session(trace, ctrl, video, cfg)
    handoffs = [oc.chunk_index for oc in result.breakdown.per_chunk if oc.handoff_performed]
    assert handoffs and result.breakdown.per_chunk[handoffs[0]].satellite_id == 1


def test_joint_controller_degraded_mode_no_visible(video, sim_cfg):
    vis = np.zeros(60, dtype=bool)
    vis[:20] = True
    trace = make_flat_trace([10.0], duration_s=60.0, visible=[vis])
    ctrl = JointMpcController(video, sim_cfg, mode="dual")
    state = PlayerState(chunk_index=5, wallclock_s=30.0, buffer_s=4.0,
                        last_bitrate_idx=1, current_satellite=0)
    decision = ctrl.decide(state, trace)
    assert decision == Decision(0, 0, False)


class _CheckedChoice:
    """Runs a controller and checks that each decision is its chosen
    option's first chunk."""

    def __init__(self, ctrl):
        self.ctrl = ctrl

    def __getattr__(self, name):
        return getattr(self.ctrl, name)

    def decide(self, state, trace):
        decision = self.ctrl.decide(state, trace)
        assert self.ctrl.last_stats.chosen.decision(state.current_satellite) == decision
        return decision


@pytest.mark.parametrize("name", ["joint:dual", "joint:manifold", "separate:mb"])
def test_chosen_option_gives_the_decision(name, video, sim_cfg):
    trace = suite_trace(1)  # every controller here hands off once on it
    ctrl = build_controller(name, video, sim_cfg, "robust", 5)
    result = run_session(trace, _CheckedChoice(ctrl), video, sim_cfg)
    assert len(result.decisions) == video.n_chunks
    assert any(d.handoff_now for d in result.decisions)


@pytest.mark.parametrize("name", ["joint:dual", "joint:manifold", "separate:mb"])
def test_no_chosen_option_when_every_plan_is_unbounded(name, video, sim_cfg):
    # The oracle sees zero throughput to the end of the trace on both
    # satellites, so every plan's download is unbounded.
    trace = make_flat_trace([0.0, 0.0], duration_s=60.0)
    ctrl = build_controller(name, video, sim_cfg, "oracle", 5)
    state = initial_state(trace, video, sim_cfg)
    ctrl.observe_start(trace, state)
    assert ctrl.decide(state, trace) == Decision(0, 0, False)
    assert ctrl.last_stats.chosen is None


def test_joint_decide_deterministic(video, sim_cfg):
    trace = suite_trace(0)
    decisions = []
    for _ in range(2):
        ctrl = JointMpcController(video, sim_cfg, mode="dual")
        result = run_session(trace, ctrl, video, sim_cfg)
        decisions.append(result.decisions)
    assert decisions[0] == decisions[1]


@pytest.mark.parametrize("name", ["joint:dual", "joint:manifold", "separate:mb"])
def test_a_controller_runs_a_second_session_as_a_fresh_one(name, video, sim_cfg):
    traces = [suite_trace(1)]  # every controller here hands off once on it
    if name.startswith("joint"):
        # Satellite 0 serves first and sets at 10 s; satellite 1 stays in view.
        n = 200
        traces.append(
            make_flat_trace([8.0, 4.0], visible=[[i < 10 for i in range(n)], [True] * n])
        )
    for trace in traces:
        reused = build_controller(name, video, sim_cfg, "robust", 5)
        run_session(suite_trace(3), reused, video, sim_cfg)
        if name.startswith("joint"):
            # As if the first session had just left satellite 1: dual's
            # no-bounce-back rule would keep excluding it.
            reused.record_handoff(PlayerState(48, 96.0, 4.0, 0, 1))
        again = run_session(trace, reused, video, sim_cfg)
        fresh = run_session(trace, build_controller(name, video, sim_cfg, "robust", 5), video, sim_cfg)
        assert any(d.handoff_now for d in fresh.decisions)
        assert again.decisions == fresh.decisions
        assert again.breakdown == fresh.breakdown


def test_a_reused_controller_lists_only_its_session_candidates(video, sim_cfg):
    def dumping():
        return JointMpcController(video, sim_cfg, mode="dual", dump_candidates=True)

    trace = suite_trace(3)
    reused = dumping()
    run_session(trace, reused, video, sim_cfg)
    run_session(trace, reused, video, sim_cfg)
    fresh = dumping()
    run_session(trace, fresh, video, sim_cfg)
    assert fresh.candidate_rows  # the session scores handoff options
    assert reused.candidate_rows == fresh.candidate_rows


def test_dp_and_exhaustive_controllers_agree_closely(video, sim_cfg, monkeypatch):
    trace = suite_trace(1)
    dp_ctrl = JointMpcController(video, dataclasses.replace(sim_cfg, dt_s=0.05), mode="dual")
    dp_res = run_session(trace, dp_ctrl, video, sim_cfg)

    # The controller's inner search, swapped for exhaustive enumeration.
    solves = []

    def exhaustive(inst, floor=-math.inf):  # the floor only prunes; ignoring it is exact
        solves.append(inst.handoff_chunk)
        return f_mpc(inst) if inst.handoff_chunk is None else f_sat_mpc(inst)

    monkeypatch.setattr(planners, "f_sat_dpmpc", exhaustive)
    ex_ctrl = JointMpcController(video, sim_cfg, mode="dual")
    ex_res = run_session(trace, ex_ctrl, video, sim_cfg)
    assert None in solves and any(h is not None for h in solves)
    assert dp_res.breakdown.qoe_total == pytest.approx(ex_res.breakdown.qoe_total, abs=1e-6)


def test_baseline_mvt_keeps_current_mid_pass(video):
    vis0 = np.ones(100, dtype=bool)
    vis1 = np.ones(100, dtype=bool)
    trace = make_flat_trace([5.0, 9.0], duration_s=100.0, visible=[vis0, vis1])
    assert baseline_handoff("mvt", 0, trace, 10.0, video.chunk_duration_s) == 0


def test_baseline_mvt_picks_longest_visible_at_expiry(video):
    vis0 = np.zeros(100, dtype=bool)
    vis0[:12] = True
    vis1 = np.zeros(100, dtype=bool)
    vis1[:40] = True
    vis2 = np.ones(100, dtype=bool)
    vis2[:5] = False
    trace = make_flat_trace([5.0, 5.0, 5.0], duration_s=100.0, visible=[vis0, vis1, vis2])
    # Current expires within a chunk; candidate 2 stays visible longest.
    assert baseline_handoff("mvt", 0, trace, 10.5, video.chunk_duration_s) == 2


def test_baseline_mb_picks_max_bandwidth_at_expiry(video):
    vis0 = np.zeros(100, dtype=bool)
    vis0[:12] = True
    trace = make_flat_trace([5.0, 5.0, 12.0], duration_s=100.0,
                            visible=[vis0, np.ones(100, bool), np.ones(100, bool)])
    assert baseline_handoff("mb", 0, trace, 10.5, video.chunk_duration_s) == 2


def test_baseline_mrss_switches_on_strictly_better_elevation(video):
    trace = gen_trace_set(TraceGenConfig(n_satellites=2, duration_s=240.0, seed=6))
    idx = 0
    elev0 = trace.tracks[0].elevation_deg
    elev1 = trace.tracks[1].elevation_deg
    both = np.nonzero(trace.tracks[0].visible & trace.tracks[1].visible)[0]
    t_better = next(float(i) for i in both if elev1[i] > elev0[i])
    assert baseline_handoff("mrss", 0, trace, t_better, video.chunk_duration_s) == 1
    only0 = np.nonzero(trace.tracks[0].visible & ~trace.tracks[1].visible)[0]
    assert baseline_handoff("mrss", 0, trace, float(only0[0]), video.chunk_duration_s) == 0


def test_baseline_errors_when_nothing_visible(video):
    vis = np.zeros(60, dtype=bool)
    vis[:10] = True
    trace = make_flat_trace([5.0], duration_s=60.0, visible=[vis])
    with pytest.raises(PlanningError):
        baseline_handoff("mb", 0, trace, 30.0, video.chunk_duration_s)


def test_visibility_queries_index_a_time_once():
    # At sample_dt = 0.05, the sample start of t = 43.5 dt is 43 dt, and
    # int(43 dt / dt) is 42: re-indexing the start reads the previous sample.
    dt = 0.05
    n = 100
    trace = make_flat_trace(
        [5.0, 5.0], duration_s=n * dt, sample_dt=dt,
        visible=[[True] * n, [i >= 43 for i in range(n)]],
    )
    t = 43.5 * dt
    assert trace.clamped_index(t) == 43 and int((43 * dt) / dt) == 42
    # Satellite 1 stays visible to the end, so MVT keeps it.
    assert baseline_handoff("mvt", 1, trace, t, 2.0) == 1
    ctrl = JointMpcController(VideoSpec(), SimConfig(), mode="dual")
    assert ctrl._horizon_link(trace, t, 1, 3.0) == RateSeries.constant(3.0)


def test_separate_mb_equals_single_satellite_mpc_on_equal_flats(video, sim_cfg):
    shared = make_flat_trace([10.0, 10.0], duration_s=200.0)
    single = make_flat_trace([10.0], duration_s=200.0)
    res_two = run_session(shared, SeparateController(video, sim_cfg, strategy="mb"), video, sim_cfg)
    res_one = run_session(single, SeparateController(video, sim_cfg, strategy="mb"), video, sim_cfg)
    assert res_two.breakdown.qoe_total == pytest.approx(res_one.breakdown.qoe_total)
    assert res_two.handoff_count == 0


def test_mrss_hands_off_more_than_mvt_on_crossing_passes(video, sim_cfg):
    # MRSS switches whenever the other satellite's elevation wins; MVT only
    # at visibility expiry.
    totals = {"mrss": 0, "mvt": 0}
    for seed in range(3):
        trace = suite_trace(seed)
        for strategy in totals:
            ctrl = SeparateController(video, sim_cfg, strategy=strategy)
            totals[strategy] += run_session(trace, ctrl, video, sim_cfg).handoff_count
    assert totals["mrss"] > totals["mvt"]


def test_separation_property_ignores_unused_satellite(video, sim_cfg):
    base = make_flat_trace([10.0, 4.0], duration_s=200.0)
    perturbed = make_flat_trace([10.0, 7.3], duration_s=200.0)
    dec_a = run_session(base, SeparateController(video, sim_cfg, strategy="mvt"), video, sim_cfg)
    dec_b = run_session(perturbed, SeparateController(video, sim_cfg, strategy="mvt"), video, sim_cfg)
    assert dec_a.decisions == dec_b.decisions


def test_offline_optimal_flat_rich_link_all_max(sim_cfg):
    video = VideoSpec(n_chunks=12)
    trace = make_flat_trace([50.0], duration_s=120.0)
    breakdown = offline_optimal(trace, video, sim_cfg)
    assert all(oc.bitrate_mbps == 2.85 for oc in breakdown.per_chunk)


def _step_replay(trace, video, cfg, decisions):
    """The session of a fixed decision list, stepped chunk by chunk."""
    state = initial_state(trace, video, cfg)
    outcomes = []
    for decision in decisions:
        state, outcome = step_chunk(state, decision, trace, video, cfg)
        outcomes.append(outcome)
    return session_qoe(outcomes, cfg)


def test_offline_plan_value_matches_replay(video, sim_cfg):
    trace = suite_trace(2)
    decisions, value = offline_optimal_plan(trace, video, sim_cfg)
    replay = _step_replay(trace, video, sim_cfg, decisions)
    assert replay.qoe_total == pytest.approx(value, abs=1e-9)


def test_true_future_plans_never_lose_to_estimated_plans(video, sim_cfg):
    # Planning against the true future maximizes realized horizon QoE over
    # the same plan space, so re-simulating both plans against the truth
    # can never favor the estimate.
    rng = np.random.default_rng(21)
    for seed in range(15):
        trace = suite_trace(seed)
        sat = 0
        t = float(rng.uniform(0.0, 40.0))
        truth = RateSeries(
            float(int(t)), trace.sample_dt,
            trace.track(sat).throughput_mbps[int(t):],
        )
        estimate = RateSeries.constant(float(rng.uniform(0.5, 8.0)))
        buffer_s = float(rng.uniform(0.0, 10.0))
        last_idx = int(rng.integers(0, 3))
        truth_inst = _instance(video, sim_cfg, buffer_s=buffer_s, last_idx=last_idx,
                               start_t=t, cur=truth)
        est_inst = _instance(video, sim_cfg, buffer_s=buffer_s, last_idx=last_idx,
                             start_t=t, cur=estimate)
        oracle_plan = f_mpc(truth_inst).full_bitrate_plan
        est_plan = f_mpc(est_inst).full_bitrate_plan
        assert evaluate_plan(truth_inst, oracle_plan) >= evaluate_plan(truth_inst, est_plan) - 1e-9


def test_plan_result_first_action_consistency(video, sim_cfg):
    rng = np.random.default_rng(22)
    for _ in range(20):
        inst = _random_instance(rng, video, sim_cfg)
        for res in (f_sat_mpc(inst), f_sat_dpmpc(inst)):
            assert res.first_bitrate_idx == res.full_bitrate_plan[0]
            assert len(res.full_bitrate_plan) == inst.horizon


def test_offline_finer_grid_never_loses(sim_cfg):
    video = VideoSpec(n_chunks=12)
    for seed in range(50):
        trace = gen_trace_set(TraceGenConfig(
            alpha=1.0, b_max_mbps=8.0, duration_s=120.0, n_satellites=2,
            min_elevation_deg=45.0, altitude_km=250.0, seed=seed,
        ))
        fine = offline_optimal(trace, video, dataclasses.replace(sim_cfg, dt_s=0.25))
        coarse = offline_optimal(trace, video, sim_cfg)
        assert fine.qoe_total >= coarse.qoe_total - 1e-9


def _scalar_offline_plan(trace, video, cfg):
    """Reference offline DP: one dict per stage, filled in stage order, then
    track order, then ascending rung; a later candidate replaces a key only
    on a strictly greater QoE, and each key keeps its first insertion slot."""
    dt = cfg.dt_s
    ladder = video.bitrate_ladder_mbps
    series = {sat: RateSeries.for_satellite(trace, sat) for sat in trace.sat_ids}
    start = initial_state(trace, video, cfg)
    stage = {(0, 0, start.last_bitrate_idx, start.current_satellite): (0.0, 0.0, 0.0)}
    parents = []
    for k in range(video.n_chunks):
        new_stage, par = {}, {}
        for key, (q, t, buf) in stage.items():
            idx = trace.clamped_index(t)
            for tr in trace.tracks:
                if not tr.visible[idx]:
                    continue
                sat = tr.sat_id
                handoff = sat != key[3]
                start_t = t + cfg.handoff_delay_s if handoff else t
                for rate_idx, size in enumerate(video.chunk_sizes_mb):
                    try:
                        dl = piecewise_download(series[sat], start_t, size, cfg.rtt_s)
                    except UnboundedDownloadError:
                        break
                    wait = cfg.handoff_delay_s + dl if handoff else dl
                    rebuf, new_buf, drain = settle_chunk(
                        buf, wait, video.chunk_duration_s, cfg.max_buffer_s
                    )
                    smooth = 0.0 if k == 0 else cfg.mu3 * abs(ladder[rate_idx] - ladder[key[2]])
                    new_q = q + cfg.mu1 * ladder[rate_idx] - cfg.mu2 * rebuf - smooth
                    new_t = t + wait
                    if drain > 0.0:
                        new_t += drain
                    new_key = (int(new_t / dt), int(new_buf / dt), rate_idx, sat)
                    if new_key not in new_stage or new_q > new_stage[new_key][0]:
                        new_stage[new_key] = (new_q, new_t, new_buf)
                        par[new_key] = key
        if not new_stage:
            raise PlanningError(f"offline search dead-ended at chunk {k}")
        parents.append(par)
        stage = new_stage
    key = max(stage, key=lambda key: (stage[key][0],) + key)
    best_q = stage[key][0]
    path = []
    for par in reversed(parents):
        path.append((key[2], key[3]))
        key = par[key]
    decisions, prev_sat = [], start.current_satellite
    for rate_idx, sat in reversed(path):
        decisions.append(Decision(rate_idx, sat, sat != prev_sat))
        prev_sat = sat
    return decisions, best_q


@st.composite
def _offline_cases(draw):
    """Generated 2-3 satellite traces, both ladders, dt 1.0 and 0.25,
    sessions that outlast their trace and obstruction windows; flat
    equal-rate traces make QoE ties between keys common."""
    ladder = draw(st.sampled_from(LADDERS))
    dt = draw(st.sampled_from((1.0, 0.25)))
    n_sats = draw(st.integers(2, 3))
    small = len(ladder) == 6 and dt == 0.25
    n_chunks = draw(st.integers(2, 5 if small else 12))
    video = VideoSpec(n_chunks=n_chunks, bitrate_ladder_mbps=ladder)
    duration = draw(st.sampled_from((12.0, 30.0, 60.0)))
    if draw(st.integers(0, 3)) == 0:
        rate = draw(st.sampled_from((0.5, 3.0, 20.0)))
        trace = make_flat_trace([rate] * n_sats, duration_s=duration)
    else:
        trace = gen_trace_set(TraceGenConfig(
            alpha=1.0, b_max_mbps=draw(st.sampled_from((4.0, 8.0))), duration_s=duration,
            n_satellites=n_sats, min_elevation_deg=45.0, altitude_km=250.0,
            seed=draw(st.integers(0, 10_000)),
        ))
    if draw(st.booleans()):
        begin = draw(st.integers(0, int(duration) - 2))
        end = min(duration, begin + draw(st.integers(2, 12)))
        trace = inject_obstructions(trace, [(draw(st.integers(0, n_sats - 1)), float(begin), end)])
    cfg = SimConfig(max_buffer_s=draw(st.sampled_from((60.0, 6.0, math.inf))), dt_s=dt)
    return trace, video, cfg


def _relabelled(trace, sat_ids):
    """The same tracks, in the same order, under new satellite ids."""
    tracks = tuple(dataclasses.replace(tr, sat_id=sat) for tr, sat in zip(trace.tracks, sat_ids))
    return TraceSet(trace.sample_dt, tracks, trace.meta)


@settings(max_examples=100)
@given(_offline_cases())
@example((_relabelled(make_flat_trace([20.0, 20.0, 20.0], duration_s=30.0), (2, 0, 1)),
          VideoSpec(n_chunks=8), SimConfig()))
@example((make_flat_trace([20.0, 20.0], duration_s=30.0), VideoSpec(n_chunks=8), SimConfig()))
@example((make_flat_trace([1.0] * 3, duration_s=8.0), VideoSpec(n_chunks=8), SimConfig(dt_s=0.25)))
@example((make_flat_trace([20.0, 20.0], duration_s=30.0), VideoSpec(n_chunks=8),
          SimConfig(max_buffer_s=math.inf)))
# The buffer reaches its 6 s cap from chunk 4 on: the replay drains it.
@example((make_flat_trace([20.0, 20.0], duration_s=30.0), VideoSpec(n_chunks=8),
          SimConfig(max_buffer_s=6.0)))
def test_offline_dp_matches_scalar_reference(case):
    trace, video, cfg = case
    decisions, value = offline_optimal_plan(trace, video, cfg)
    ref_decisions, ref_value = _scalar_offline_plan(trace, video, cfg)
    assert decisions == ref_decisions
    assert value.hex() == ref_value.hex()
    assert all(type(d.bitrate_idx) is int and type(d.target_satellite) is int for d in decisions)
    # offline_optimal replays the plan as a session: every chunk and total
    # as step_chunk settles them, bit for bit.
    assert offline_optimal(trace, video, cfg) == _step_replay(trace, video, cfg, decisions)


@pytest.mark.parametrize("dt", [1e-12, 1e-20])
def test_offline_dp_fine_grid_keys_match_scalar_reference(sim_cfg, dt):
    # At these grids t/dt passes 2**40 and 2**63: every candidate keeps its
    # own key, as the scalar DP's Python ints keep them apart. On the
    # stepped trace, merging keys (as a wrapped int64 cast would) loses the
    # optimum.
    steps = ((3.0, 1.0, 0.5, 0.5, 0.2, 0.2), (0.2, 0.2, 8.0, 3.0, 8.0, 1.0))
    flat = make_flat_trace([1.0, 1.0], duration_s=30.0)
    stepped = TraceSet(flat.sample_dt, tuple(
        dataclasses.replace(tr, throughput_mbps=np.repeat(rates, 5))
        for tr, rates in zip(flat.tracks, steps)
    ), flat.meta)
    video, cfg = VideoSpec(n_chunks=4), dataclasses.replace(sim_cfg, dt_s=dt)
    for trace in (suite_trace(4), stepped):
        assert offline_optimal_plan(trace, video, cfg) == _scalar_offline_plan(trace, video, cfg)


@st.composite
def _option_sets(draw):
    """A stay instance and its handoff targets. A link is flat, at one of
    three rates, so options often tie exactly, or ends in a zero tail: a
    cliff that leaves some plans unbounded."""

    def link():
        if draw(st.booleans()):
            return RateSeries.constant(draw(st.sampled_from((1.0, 2.0, 4.0))))
        rates = draw(st.lists(st.integers(1, 16).map(lambda k: k / 2), min_size=1, max_size=8))
        return RateSeries(0.0, draw(st.sampled_from((0.5, 1.0))), [*rates, 0.0])

    video = VideoSpec()
    stay = PlanInstance(
        horizon=draw(st.integers(1, 4)),
        buffer_s=draw(st.integers(0, 16)) / 2,
        last_bitrate_idx=draw(st.integers(0, len(video.bitrate_ladder_mbps) - 1)),
        start_t=draw(st.integers(0, 4)) / 2,
        handoff_chunk=None,
        current_link=link(),
        target_link=None,
        video=video,
        sim=SimConfig(max_buffer_s=draw(st.sampled_from((8.0, 60.0)))),
    )
    sats = draw(st.lists(st.integers(1, 4), max_size=2, unique=True))
    return stay, {sat: link() for sat in sats}


def _solved(inst, floor=-math.inf):
    try:
        return f_sat_dpmpc(inst, floor)
    except (UnboundedDownloadError, BelowFloorError):
        return None


@settings(max_examples=300)
@given(_option_sets())
# Every link is dry from the start: every plan of every option is
# unbounded, so there is no seed and each option is solved once, in full.
@example((
    dataclasses.replace(
        _instance(VideoSpec(), SimConfig(), horizon=2), current_link=RateSeries(0.0, 1.0, [0.0])
    ),
    {1: RateSeries(0.0, 1.0, [0.0]), 2: RateSeries(0.0, 0.5, [0.0])},
))
def test_best_first_options_choose_the_option_solving_all_in_full_chooses(option_set):
    stay, targets = option_set
    instances = [(0, stay), *handoff_instances(stay, targets)]
    log = []

    def solver(inst, floor=-math.inf):
        try:
            res = f_sat_dpmpc(inst, floor)
        except (UnboundedDownloadError, BelowFloorError):
            log.append((floor, None))
            raise
        log.append((floor, res.best_qoe))
        return res

    def chosen(options):
        best = max(options, key=planners.PlanOption.rank, default=None)
        return best and (
            best.result.best_qoe.hex(), best.result.full_bitrate_plan,
            best.satellite, best.handoff_chunk,
        )

    full = [
        planners.PlanOption(sat, inst.handoff_chunk, res)
        for sat, inst in instances
        if (res := _solved(inst)) is not None
    ]
    assert chosen(solve_options(instances, solver)) == chosen(full)
    # Every option is solved once, above the higher of the step's seed and
    # the best QoE found before it; a seeded pass that keeps nothing is
    # followed by one from -inf, and with no seed there is one pass.
    assert_best_first_floors(log, len(instances), step_seed(instances))


@settings(max_examples=100)
@given(
    st.lists(st.floats(0.1, 10.0), min_size=2, max_size=6, unique=True).map(sorted),
    st.sampled_from((0.0, 0.5, 1.0, 3.0)),
    st.sampled_from((0.0, 0.5, 1.0, 3.0)),
    st.integers(1, 4),
)
def test_chunk_scores_table_the_rebuffer_free_chunk_score(ladder, mu1, mu3, horizon):
    ladder = tuple(ladder)
    cfg = SimConfig(mu1=mu1, mu3=mu3)
    gain, switch, ceiling = chunk_scores(ladder, mu1, mu3, horizon)
    rungs = range(len(ladder))
    for p in rungs:
        for b in rungs:
            score = chunk_qoe(ladder[p], ladder[b], 0.0, cfg)
            assert (gain[b] - switch[p][b]).hex() == score.hex()
    assert len(ceiling) == horizon + 1
    for k in range(horizon + 1):
        for p in rungs:
            u = ceiling[k][p]
            best = -math.inf
            for seq in itertools.product(rungs, repeat=k):
                # Summed from the last chunk back, as the table sums: U
                # bounds every sequence exactly.
                back = 0.0
                for prev, b in reversed(list(zip((p, *seq), seq))):
                    back = (gain[b] + back) - switch[prev][b]
                assert u >= back
                # Summed forward, as the searches accumulate QoE.
                total = 0.0
                for prev, b in zip((p, *seq), seq):
                    total += gain[b] - switch[prev][b]
                best = max(best, total)
            assert abs(u - best) <= 1e-9 * (abs(best) + 1.0)
    assert chunk_scores(tuple(list(ladder)), mu1, mu3, horizon) is chunk_scores(
        ladder, mu1, mu3, horizon
    )


@pytest.mark.parametrize("name", ["joint:dual", "separate:mb"])
def test_a_list_ladder_plans_as_its_tuple(name, sim_cfg):
    trace = suite_trace(2)
    listed = VideoSpec(n_chunks=12, bitrate_ladder_mbps=[0.3, 1.2, 2.85])
    tupled = VideoSpec(n_chunks=12, bitrate_ladder_mbps=(0.3, 1.2, 2.85))
    assert listed.bitrate_ladder_mbps == tupled.bitrate_ladder_mbps
    assert listed == tupled and hash(listed) == hash(tupled)
    runs = [
        run_session(trace, build_controller(name, video, sim_cfg, "robust", 5), video, sim_cfg)
        for video in (listed, tupled)
    ]
    assert runs[0].breakdown == runs[1].breakdown
    assert runs[0].decisions == runs[1].decisions
    assert offline_optimal(trace, listed, sim_cfg) == offline_optimal(trace, tupled, sim_cfg)
