import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leostream import multiuser
from leostream.harness import build_controller
from leostream.multiuser import (
    BackgroundProfile,
    CentralizedCoordinator,
    MultiUserError,
    MultiUserScenario,
    UserPlanView,
    allocate_shares,
    centralized_mpc_decide,
    make_background_profile,
    simulate_multi,
)
from leostream.planners import JointMpcController, PlanningError, SeparateController
from leostream.simcore import (
    DEFAULT_LADDER_MBPS,
    EXTENDED_LADDER_MBPS,
    Decision,
    PlayerState,
    RateSeries,
    SimConfig,
    UnboundedDownloadError,
    VideoSpec,
    run_session,
)
from leostream.traces import TraceGenConfig, gen_trace_set, inject_obstructions

from conftest import make_flat_trace, suite_trace


def test_allocate_equal_split():
    shares = allocate_shares(120.0, [0, 1], 0.0)
    assert shares == {0: 60.0, 1: 60.0}


def test_allocate_single_user_gets_everything():
    assert allocate_shares(37.5, [4], 0.0) == {4: 37.5}


def test_allocate_with_background():
    shares = allocate_shares(100.0, [0, 1, 2, 3], 0.2)
    assert all(v == pytest.approx(20.0) for v in shares.values())


def test_allocate_empty_set():
    assert allocate_shares(100.0, [], 0.3) == {}


def test_allocate_validates_inputs():
    with pytest.raises(MultiUserError):
        allocate_shares(-1.0, [0], 0.0)
    with pytest.raises(MultiUserError):
        allocate_shares(10.0, [0], 1.0)


def test_background_profile_zero_users():
    trace = make_flat_trace([10.0], duration_s=60.0)
    profile = make_background_profile(trace, 0, seed=1)
    assert profile.fraction(0, 33.0) == 0.0


def test_background_profile_cap_binds():
    trace = make_flat_trace([10.0], duration_s=100.0)
    profile = make_background_profile(trace, 40, seed=2)
    for sat in trace.sat_ids:
        assert np.all(profile.fractions[sat] <= 0.8)
    assert any(np.any(profile.fractions[s] == 0.8) for s in trace.sat_ids)


def test_background_profile_deterministic():
    trace = make_flat_trace([10.0, 5.0], duration_s=100.0)
    p1 = make_background_profile(trace, 5, seed=3)
    p2 = make_background_profile(trace, 5, seed=3)
    for sat in trace.sat_ids:
        assert np.array_equal(p1.fractions[sat], p2.fractions[sat])


def test_single_user_degeneracy_bit_for_bit(video, sim_cfg):
    trace = suite_trace(3)
    single = run_session(
        trace, JointMpcController(video, sim_cfg, mode="dual"), video, sim_cfg
    )
    scenario = MultiUserScenario(
        trace=trace,
        controllers=[JointMpcController(video, sim_cfg, mode="dual")],
        n_background=0,
    )
    multi = simulate_multi(scenario, video, sim_cfg, seed=0)
    assert multi.failures == {}
    assert multi.per_user[0].per_chunk == single.breakdown.per_chunk
    assert multi.per_user[0].qoe_total == single.breakdown.qoe_total
    assert multi.decisions[0] == single.decisions


@st.composite
def _single_user_cases(draw):
    """Short sessions on generated 1-3 satellite traces, with and without
    obstruction windows, for the joint planner and a separate baseline.
    Fast passes (about 8 s at 60 km/s) and a small buffer cap, which makes
    the client wait for playback, put pass seams, and so handoffs, inside
    sessions this short."""
    n_sats = draw(st.sampled_from((2, 3, 1)))
    duration = draw(st.sampled_from((20.0, 60.0)))
    trace = gen_trace_set(TraceGenConfig(
        alpha=1.0, b_max_mbps=draw(st.sampled_from((4.0, 8.0))), duration_s=duration,
        n_satellites=n_sats, min_elevation_deg=45.0, altitude_km=250.0,
        speed_kms=draw(st.sampled_from((60.0, 7.6))), seed=draw(st.integers(0, 10_000)),
    ))
    if draw(st.booleans()):
        begin = draw(st.integers(0, int(duration) - 2))
        end = min(duration, begin + draw(st.integers(2, 12)))
        trace = inject_obstructions(trace, [(draw(st.sampled_from(trace.sat_ids)), float(begin), end)])
    ladder = draw(st.sampled_from((DEFAULT_LADDER_MBPS, EXTENDED_LADDER_MBPS)))
    video = VideoSpec(n_chunks=draw(st.sampled_from((12, 7, 4))), bitrate_ladder_mbps=ladder)
    sim = SimConfig(max_buffer_s=draw(st.sampled_from((6.0, 60.0))))
    return trace, video, sim, draw(st.sampled_from(("separate:mb", "joint:dual")))


@settings(max_examples=150)
@given(_single_user_cases())
# The session outlasts a 20 s trace whose last sample is zero.
@example((
    gen_trace_set(TraceGenConfig(
        alpha=1.0, b_max_mbps=4.0, duration_s=20.0, n_satellites=1,
        min_elevation_deg=45.0, altitude_km=250.0, seed=2386,
    )),
    VideoSpec(n_chunks=12, bitrate_ladder_mbps=EXTENDED_LADDER_MBPS),
    SimConfig(max_buffer_s=6.0),
    "joint:dual",
))
def test_single_user_degeneracy_on_generated_traces(case):
    trace, video, sim, name = case

    # The loops are under test, not the planner: a 3-chunk horizon keeps
    # the 6-rung exhaustive baseline cheap.
    def controller():
        return build_controller(name, video, sim, "robust", 3)

    scenario = MultiUserScenario(trace=trace, controllers=[controller()], n_background=0)
    try:
        single = run_session(trace, controller(), video, sim)
    except UnboundedDownloadError:
        # A session that outlasts a trace ending in zero throughput fails
        # in both loops.
        with pytest.raises(MultiUserError, match="UnboundedDownloadError"):
            simulate_multi(scenario, video, sim, seed=0)
        return
    multi = simulate_multi(scenario, video, sim, seed=0)
    assert multi.failures == {}
    # Breakdown equality compares every per-chunk outcome and each total.
    assert multi.per_user[0] == single.breakdown
    assert multi.decisions[0] == single.decisions


def test_two_users_split_flat_capacity(video, sim_cfg):
    trace = make_flat_trace([10.0], duration_s=400.0)
    scenario = MultiUserScenario(
        trace=trace,
        controllers=[SeparateController(video, sim_cfg, strategy="mb") for _ in range(2)],
    )
    result = simulate_multi(scenario, video, sim_cfg, seed=0)
    both_active = [ev for ev in result.share_events if len(ev.active_users) == 2]
    assert both_active
    for ev in both_active:
        for rate in ev.per_user_mbps.values():
            assert rate == pytest.approx(5.0)


def test_capacity_and_work_conservation(video, sim_cfg):
    trace = suite_trace(4)
    scenario = MultiUserScenario(
        trace=trace,
        controllers=[JointMpcController(video, sim_cfg, mode="dual") for _ in range(3)],
        n_background=5,
    )
    result = simulate_multi(scenario, video, sim_cfg, seed=4)
    assert result.share_events
    for ev in result.share_events:
        used = sum(ev.per_user_mbps.values()) + ev.background_fraction * ev.capacity_mbps
        assert used <= ev.capacity_mbps + 1e-6
        if ev.active_users:
            residual = ev.capacity_mbps * (1.0 - ev.background_fraction)
            assert sum(ev.per_user_mbps.values()) == pytest.approx(residual, abs=1e-6)


def test_contention_never_helps_the_first_user(video, sim_cfg):
    # One shared satellite: adding a second streamer cannot improve the
    # first user's session.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        rate = float(rng.uniform(3.0, 8.0))
        trace = make_flat_trace([rate], duration_s=500.0)
        alone = simulate_multi(
            MultiUserScenario(trace=trace, controllers=[
                SeparateController(video, sim_cfg, strategy="mb")
            ]),
            video, sim_cfg, seed=seed,
        )
        crowded = simulate_multi(
            MultiUserScenario(trace=trace, controllers=[
                SeparateController(video, sim_cfg, strategy="mb"),
                SeparateController(video, sim_cfg, strategy="mb"),
            ]),
            video, sim_cfg, seed=seed,
        )
        assert crowded.per_user[0].qoe_total <= alone.per_user[0].qoe_total + 1e-9


def test_failed_user_excluded_with_diagnostic(video, sim_cfg):
    # Satellite dies for good halfway through: the download can never
    # finish, the user fails, the run still completes.
    vis = np.zeros(400, dtype=bool)
    vis[:40] = True
    trace = make_flat_trace([6.0, 6.0], duration_s=400.0,
                            visible=[np.ones(400, bool), vis])
    class StubbornController:
        def observe_start(self, trace, state): pass
        def observe_chunk(self, trace, state, outcome): pass
        def decide(self, state, trace):
            from leostream.simcore import Decision
            return Decision(2, 1, state.current_satellite != 1)
    scenario = MultiUserScenario(
        trace=trace,
        controllers=[SeparateController(video, sim_cfg, strategy="mb"), StubbornController()],
    )
    result = simulate_multi(scenario, video, sim_cfg, seed=0)
    assert 1 in result.failures
    assert result.per_user[1] is None
    assert result.per_user[0] is not None


def test_satellite_switch_without_handoff_fails_that_user(video, sim_cfg):
    trace = make_flat_trace([6.0, 6.0], duration_s=200.0)

    class SilentSwitch(SeparateController):
        def decide(self, state, trace):
            return Decision(0, 1 - state.current_satellite, False)

    scenario = MultiUserScenario(
        trace=trace,
        controllers=[SeparateController(video, sim_cfg), SilentSwitch(video, sim_cfg)],
    )
    result = simulate_multi(scenario, video, sim_cfg, seed=0)
    assert "handoff_now" in result.failures[1]
    assert result.per_user[1] is None and result.decisions[1] == ()
    assert result.per_user[0] is not None and 0 not in result.failures


def test_failed_observe_start_recorded_as_failed_user(video, sim_cfg):
    trace = make_flat_trace([6.0], duration_s=200.0)

    class BrokenStart(SeparateController):
        def observe_start(self, trace, state):
            raise RuntimeError("predictor warm-up failed")

    scenario = MultiUserScenario(
        trace=trace,
        controllers=[SeparateController(video, sim_cfg), BrokenStart(video, sim_cfg)],
    )
    result = simulate_multi(scenario, video, sim_cfg, seed=0)
    assert "predictor warm-up failed" in result.failures[1]
    assert result.per_user[1] is None and result.decisions[1] == ()
    assert result.per_user[0] is not None and 0 not in result.failures


def test_event_loop_iteration_budget(video, sim_cfg, monkeypatch):
    trace = make_flat_trace([6.0], duration_s=200.0)
    scenario = MultiUserScenario(trace=trace, controllers=[SeparateController(video, sim_cfg)])
    monkeypatch.setattr(multiuser, "MAX_EVENT_ITERATIONS", 5)
    with pytest.raises(MultiUserError, match="iteration budget"):
        simulate_multi(scenario, video, sim_cfg, seed=0)


def _view(uid, links, scalars, cur, video, horizon=5, buffer_s=6.0, last_idx=2, t=0.0):
    return UserPlanView(
        user_id=uid,
        buffer_s=buffer_s,
        last_bitrate_idx=last_idx,
        start_t=t,
        current_satellite=cur,
        previous_satellite=None,
        links={s: RateSeries.constant(v) for s, v in links.items()},
        scalars=scalars,
        visible=sorted(links),
        horizon=horizon,
    )


@st.composite
def _shared_cases(draw):
    """2-3 users on a generated trace, with no, light or capped background
    load; fast passes put satellite changes inside these short sessions."""
    trace = gen_trace_set(TraceGenConfig(
        alpha=1.0, b_max_mbps=draw(st.sampled_from((4.0, 8.0))), duration_s=60.0,
        n_satellites=draw(st.integers(1, 3)), min_elevation_deg=45.0, altitude_km=250.0,
        speed_kms=draw(st.sampled_from((60.0, 7.6))), seed=draw(st.integers(0, 10_000)),
    ))
    names = draw(st.lists(st.sampled_from(("joint:dual", "separate:mb")), min_size=2, max_size=3))
    return trace, names, draw(st.sampled_from((0, 5, 20))), draw(st.integers(0, 10_000))


@settings(max_examples=40)
@given(_shared_cases())
def test_capacity_conservation_on_generated_runs(case):
    # Acceptance 7 on generated inputs: the users' shares plus the
    # background's never exceed the capacity, and users in transfer split
    # the whole residual.
    trace, names, n_background, seed = case
    video, sim = VideoSpec(n_chunks=8), SimConfig()
    controllers = [build_controller(name, video, sim, "robust", 3) for name in names]
    result = simulate_multi(
        MultiUserScenario(trace=trace, controllers=controllers, n_background=n_background),
        video, sim, seed=seed,
    )
    assert result.share_events
    for ev in result.share_events:
        total = sum(ev.per_user_mbps.values())
        assert total + ev.background_fraction * ev.capacity_mbps <= ev.capacity_mbps + 1e-6
        assert abs(total - ev.capacity_mbps * (1.0 - ev.background_fraction)) <= 1e-6
        assert set(ev.per_user_mbps) == set(ev.active_users)


def test_centralized_splits_crowded_satellite(video, sim_cfg):
    # Shared 4 Mbps cannot carry two top-rung streams; a 3 Mbps spare can
    # carry one. With a thin buffer, lingering on the shared link costs
    # rebuffer immediately, so the joint optimum parks one user on each
    # satellite and moves the second user right away.
    links = {0: 4.0, 1: 3.0}
    scalars = dict(links)
    views = [
        _view(0, links, scalars, cur=0, video=video, buffer_s=1.0),
        _view(1, links, scalars, cur=0, video=video, buffer_s=1.0),
    ]
    decisions = centralized_mpc_decide(views, video, sim_cfg)
    targets = {uid: d.target_satellite if d.handoff_now else 0 for uid, d in decisions.items()}
    assert sorted(targets.values()) == [0, 1]


@pytest.mark.parametrize("seed, obstructions", [
    pytest.param(5, [], id="seed5"),
    pytest.param(0, [], id="seed0"),
    pytest.param(3, [], id="seed3"),
    pytest.param(11, [], id="seed11"),
    pytest.param(17, [], id="seed17"),
    # Each window leaves the other satellite visible.
    pytest.param(5, [(0, 36.0, 44.0), (1, 85.0, 92.0)], id="seed5-obstructed"),
])
def test_centralized_single_user_matches_joint_controller(video, sim_cfg, seed, obstructions):
    trace = inject_obstructions(suite_trace(seed), obstructions)
    coord = CentralizedCoordinator(video, sim_cfg, predictor="robust")
    central = simulate_multi(
        MultiUserScenario(trace=trace, controllers=[coord]), video, sim_cfg, seed=seed
    )
    solo = run_session(
        trace, JointMpcController(video, sim_cfg, mode="dual"), video, sim_cfg
    )
    assert central.decisions[0] == solo.decisions
    assert central.per_user[0].qoe_total == solo.breakdown.qoe_total


def _dual_decider(kind, video, sim_cfg, horizon, solves):
    """decide(state, trace) -> (decision, inner solves) for a joint:dual
    controller or a one-user centralized coordinator, whose DP solves are
    appended to solves. With two satellites, one solve means only the stay
    plan was scored: no handoff candidate."""
    if kind == "joint":
        ctrl = JointMpcController(
            video, sim_cfg, mode="dual", predictor="oracle", horizon=horizon
        )

        def decide(state, trace):
            return ctrl.decide(state, trace), ctrl.last_stats.inner_calls

        return decide
    coord = CentralizedCoordinator(video, sim_cfg, predictor="oracle", horizon=horizon)

    def decide(state, trace):
        solves.clear()
        return coord.decide_multi(0, [state], trace), len(solves)

    return decide


@pytest.mark.parametrize("kind", ["joint", "centralized"])
def test_no_bounce_back_lapses_after_horizon_or_set(kind, video, sim_cfg, monkeypatch):
    solves = []
    solve = multiuser.f_sat_dpmpc

    def counting(inst):
        solves.append(inst)
        return solve(inst)

    monkeypatch.setattr(multiuser, "f_sat_dpmpc", counting)
    horizon = 5
    handoff_solves = 1 + horizon  # the stay plan, then h = 1..horizon onto satellite 0

    def state(chunk, t, sat):
        return PlayerState(chunk, t, 4.0, 0, sat)

    # Satellite 0 is weak, so both planners leave it at chunk 0. It stays
    # visible in the first trace; in the second it sets over [10, 20) s.
    always = make_flat_trace([0.5, 8.0])
    n = 200
    sets = make_flat_trace(
        [0.5, 8.0], visible=[[not 10 <= i < 20 for i in range(n)], [True] * n]
    )
    for trace, steps in [
        # Excluded until `horizon` chunks have passed since the handoff.
        (always, [(1, 4.0, 1), (4, 10.0, 1), (5, 12.0, handoff_solves)]),
        # Setting lifts the exclusion early: back in view at chunk 3 < horizon.
        (sets, [(1, 4.0, 1), (2, 12.0, 1), (3, 22.0, handoff_solves)]),
    ]:
        decide = _dual_decider(kind, video, sim_cfg, horizon, solves)
        decision, n_solves = decide(state(0, 0.0, 0), trace)
        assert (decision.handoff_now, decision.target_satellite) == (True, 1)
        assert n_solves == handoff_solves
        for chunk, t, expected in steps:
            decision, n_solves = decide(state(chunk, t, 1), trace)
            assert not decision.handoff_now
            assert n_solves == expected, (chunk, t)


def test_centralized_user_cap(video, sim_cfg):
    links = {0: 4.0}
    views = [_view(i, links, dict(links), cur=0, video=video) for i in range(4)]
    with pytest.raises(PlanningError):
        centralized_mpc_decide(views, video, sim_cfg)


def test_centralized_dominates_independent_two_user_oracle(video, sim_cfg):
    for seed in range(6):
        trace = suite_trace(seed)
        coord = CentralizedCoordinator(video, sim_cfg, predictor="oracle")
        central = simulate_multi(
            MultiUserScenario(trace=trace, controllers=[coord, coord]),
            video, sim_cfg, seed=seed,
        )
        independents = [
            JointMpcController(video, sim_cfg, mode="dual", predictor="oracle")
            for _ in range(2)
        ]
        independent = simulate_multi(
            MultiUserScenario(trace=trace, controllers=independents),
            video, sim_cfg, seed=seed,
        )
        assert central.qos >= independent.qos - 1e-6


class _SolveEvery(multiuser.DpMemo):
    """A memo that keeps nothing: every instance is solved anew."""

    __slots__ = ()

    def solve(self, inst):
        return multiuser.f_sat_dpmpc(inst)


def _centralized_run(trace, video, sim_cfg, n_users, n_background, seed, memo=None):
    coord = CentralizedCoordinator(video, sim_cfg, predictor="robust")
    if memo is not None:
        coord._memo = memo
    return simulate_multi(
        MultiUserScenario(trace=trace, controllers=[coord] * n_users, n_background=n_background),
        video, sim_cfg, seed=seed,
    )


@settings(max_examples=3)
@given(
    seed=st.integers(0, 10_000),
    rates=st.tuples(st.floats(1.0, 8.0), st.floats(1.0, 8.0)),
    n_users=st.integers(2, 3),
    n_background=st.sampled_from([0, 5]),
)
@example(seed=3, rates=(4.0, 3.0), n_users=3, n_background=5)
def test_memoised_centralized_matches_solving_every_instance(
    seed, rates, n_users, n_background
):
    # Users on a suite trace move in lockstep through its pass seams; on
    # two flat links the planner soon splits them, so their states and
    # instances diverge.
    sim_cfg = SimConfig()
    for trace, video in [
        (suite_trace(seed), VideoSpec()),
        (make_flat_trace(list(rates)), VideoSpec(n_chunks=20)),
    ]:
        memoised = _centralized_run(trace, video, sim_cfg, n_users, n_background, seed)
        fresh = _centralized_run(
            trace, video, sim_cfg, n_users, n_background, seed, memo=_SolveEvery()
        )
        assert memoised.decisions == fresh.decisions
        assert memoised.per_user == fresh.per_user
        assert memoised.qos == fresh.qos
        assert memoised.share_events == fresh.share_events
        assert memoised.failures == fresh.failures


def test_identical_users_at_the_same_instant_are_solved_once(video, sim_cfg, monkeypatch):
    solves = []
    solve = multiuser.f_sat_dpmpc

    def counting(inst):
        solves.append(inst)
        return solve(inst)

    monkeypatch.setattr(multiuser, "f_sat_dpmpc", counting)
    trace = make_flat_trace([4.0, 3.0])
    start = PlayerState(0, 0.0, 4.0, 0, 0)
    horizon = 5
    coord = CentralizedCoordinator(video, sim_cfg, predictor="oracle", horizon=horizon)
    coord.decide_multi(0, [start, start], trace)
    # Both users share satellite 0 before any handoff, so one stay solve
    # serves every assignment; the handoff solves differ only in how many
    # users satellite 1 carries (one or both).
    assert len(solves) == 1 + 2 * horizon
    assert len(set(solves)) == len(solves)
    coord.decide_multi(1, [start, start], trace)
    assert len(solves) == 1 + 2 * horizon

    # The same users, each instance solved anew: every assignment repeats
    # its solves, and the second user's call repeats the first's.
    solves.clear()
    coord = CentralizedCoordinator(video, sim_cfg, predictor="oracle", horizon=horizon)
    coord._memo = _SolveEvery()
    for uid in (0, 1):
        coord.decide_multi(uid, [start, start], trace)
    assert len(solves) == 2 * 4 * (1 + horizon)
    assert len(set(solves)) == 1 + 2 * horizon


def test_memo_replays_unbounded_outcomes_and_keeps_one_call(video, sim_cfg, monkeypatch):
    calls = []

    def unbounded(inst):
        calls.append(inst)
        raise UnboundedDownloadError("all horizon plans are unbounded")

    monkeypatch.setattr(multiuser, "f_sat_dpmpc", unbounded)
    memo = multiuser.DpMemo()
    view = _view(0, {0: 4.0}, {0: 4.0}, cur=0, video=video)
    inst = view.stay_instance(view.links[0], video, sim_cfg)
    for _ in range(3):
        with pytest.raises(UnboundedDownloadError, match="unbounded"):
            memo.solve(inst)
    assert calls == [inst]

    # A call keeps what it touched; the call after it drops what it did not.
    memo.retire()
    other = view.stay_instance(RateSeries.constant(2.0), video, sim_cfg)
    with pytest.raises(UnboundedDownloadError):
        memo.solve(other)
    memo.retire()
    with pytest.raises(UnboundedDownloadError):
        memo.solve(inst)
    assert calls == [inst, other, inst]
