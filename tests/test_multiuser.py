import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leostream import multiuser, planners
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
from leostream.planners import (
    BelowFloorError,
    JointMpcController,
    PlanningError,
    SeparateController,
    SolveMemo,
    f_mpc,
    f_sat_dpmpc,
    handoff_instances,
    select_candidates,
    solve_options,
    stay_instance,
)
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

from conftest import (
    assert_best_first_floors,
    make_flat_trace,
    reference_session,
    step_seed,
    suite_trace,
)


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
    single = reference_session(
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
        single = reference_session(trace, controller(), video, sim)
    except UnboundedDownloadError:
        # A session that outlasts a trace ending in zero throughput fails
        # in both: the loop fails its only user and raises from that error.
        with pytest.raises(MultiUserError, match="UnboundedDownloadError") as failed:
            simulate_multi(scenario, video, sim, seed=0)
        assert isinstance(failed.value.__cause__, UnboundedDownloadError)
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


def test_failed_observe_chunk_recorded_as_failed_user(video, sim_cfg):
    trace = make_flat_trace([6.0], duration_s=200.0)

    class BrokenUpdate(SeparateController):
        def observe_chunk(self, trace, state, outcome):
            raise RuntimeError("predictor update failed")

    scenario = MultiUserScenario(
        trace=trace,
        controllers=[BrokenUpdate(video, sim_cfg), SeparateController(video, sim_cfg)],
    )
    result = simulate_multi(scenario, video, sim_cfg, seed=0)
    assert list(result.failures) == [0]
    assert "predictor update failed" in result.failures[0]
    assert result.per_user[0] is None and len(result.decisions[0]) == 1
    assert result.per_user[1] is not None
    assert len(result.decisions[1]) == video.n_chunks


def test_centralized_plans_only_for_live_users(video, sim_cfg, monkeypatch):
    trace = make_flat_trace([6.0, 4.0], duration_s=200.0)
    planned = []
    decide = multiuser.centralized_mpc_decide

    def recording(views, memo=None):
        planned.append(tuple(view.user_id for view in views))
        return decide(views, memo)

    monkeypatch.setattr(multiuser, "centralized_mpc_decide", recording)

    class BrokenUpdate(CentralizedCoordinator):
        def observe_chunk_user(self, uid, trace, state, outcome):
            if uid == 1:
                raise RuntimeError("predictor update failed")
            super().observe_chunk_user(uid, trace, state, outcome)

    coord = BrokenUpdate(video, sim_cfg, predictor="oracle")
    scenario = MultiUserScenario(trace=trace, controllers=[coord] * 3)
    result = simulate_multi(scenario, video, sim_cfg, seed=0)
    assert list(result.failures) == [1]
    assert result.decisions[1] and len(result.decisions[0]) == video.n_chunks
    # Every plan before user 1's first chunk completes covers all three
    # users; every plan after it covers only users 0 and 2.
    first_live = planned.index((0, 2))
    assert set(planned[:first_live]) == {(0, 1, 2)}
    assert set(planned[first_live:]) == {(0, 2)}


def test_event_loop_iteration_budget(video, sim_cfg, monkeypatch):
    trace = make_flat_trace([6.0], duration_s=200.0)
    scenario = MultiUserScenario(trace=trace, controllers=[SeparateController(video, sim_cfg)])
    monkeypatch.setattr(multiuser, "MAX_EVENT_ITERATIONS", 5)
    with pytest.raises(MultiUserError, match="iteration budget"):
        simulate_multi(scenario, video, sim_cfg, seed=0)


def _view(uid, links, scalars, cur, video, horizon=5, buffer_s=6.0, last_idx=2, t=0.0):
    """A joint:dual view on constant links, planned with the default SimConfig."""
    series = {s: RateSeries.constant(v) for s, v in links.items()}
    state = PlayerState(0, t, buffer_s, last_idx, cur)
    return UserPlanView(
        user_id=uid,
        current_satellite=cur,
        stay=stay_instance(state, horizon, series[cur], video, SimConfig()),
        targets={
            s: series[s] for s in select_candidates("dual", sorted(links), scalars, cur, None)
        },
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
    decisions = centralized_mpc_decide(views)
    targets = {uid: d.target_satellite if d.handoff_now else 0 for uid, d in decisions.items()}
    assert sorted(targets.values()) == [0, 1]


def test_centralized_assigns_only_view_targets():
    # Satellite 1 is far faster, but user 0's controller admitted no
    # handoff candidate, so only user 1 may move there.
    video = VideoSpec()
    links = {0: 0.5, 1: 10.0}
    views = [_view(uid, links, dict(links), cur=0, video=video, buffer_s=1.0) for uid in (0, 1)]
    views[0] = dataclasses.replace(views[0], targets={})
    decisions = centralized_mpc_decide(views)
    assert decisions[0] == Decision(decisions[0].bitrate_idx, 0, False)
    assert decisions[1].handoff_now and decisions[1].target_satellite == 1


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

    def counting(inst, *floor):
        solves.append(inst)
        return solve(inst, *floor)

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
        centralized_mpc_decide(views)


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


class _SolveEvery(SolveMemo):
    """A memo that keeps nothing: every step is solved anew. steps counts
    the steps asked of it."""

    __slots__ = ("steps",)

    def __init__(self):
        super().__init__()
        self.steps = 0

    def options(self, solver, options):
        self.steps += 1
        return solve_options(options, solver)


def _controllers(kind, n_users, video, sim_cfg):
    """n_users controllers; "mixed" alternates separate:mb and joint:dual."""
    if kind == "centralized":
        return [CentralizedCoordinator(video, sim_cfg, predictor="robust")] * n_users
    names = ["separate:mb", "joint:dual"] if kind == "mixed" else [kind]
    return [
        build_controller(names[uid % len(names)], video, sim_cfg, "robust", 5)
        for uid in range(n_users)
    ]


def _scenario_run(kind, trace, video, sim_cfg, n_users, n_background, seed, memo=SolveMemo):
    """One scenario, its planners served by the memo class simulate_multi
    makes; returns the result and that memo."""
    scenario = MultiUserScenario(
        trace=trace,
        controllers=_controllers(kind, n_users, video, sim_cfg),
        n_background=n_background,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiuser, "SolveMemo", memo)
        result = simulate_multi(scenario, video, sim_cfg, seed=seed)
    made = scenario.controllers[0].memo
    assert type(made) is memo
    return result, made


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
    # two flat links the centralized planner soon splits them, so their
    # states and instances diverge. The scenario memo serves every
    # planner: the separate:mb, joint:dual and mixed runs share it too.
    sim_cfg = SimConfig()
    for trace, video in [
        (suite_trace(seed), VideoSpec()),
        (make_flat_trace(list(rates)), VideoSpec(n_chunks=20)),
    ]:
        for kind in ("centralized", "separate:mb", "joint:dual", "mixed"):
            run = (kind, trace, video, sim_cfg, n_users, n_background, seed)
            memoised, _ = _scenario_run(*run)
            fresh, every = _scenario_run(*run, memo=_SolveEvery)
            # Each decision asks at least one step of the fake.
            assert every.steps >= sum(map(len, fresh.decisions)) > 0, kind
            assert memoised.decisions == fresh.decisions, kind
            assert memoised.per_user == fresh.per_user, kind
            assert memoised.qos == fresh.qos, kind
            assert memoised.share_events == fresh.share_events, kind
            assert memoised.failures == fresh.failures, kind


@pytest.mark.parametrize("kind, solver", [
    ("separate:mb", "f_mpc"),
    ("joint:dual", "f_sat_dpmpc"),
])
def test_lockstep_users_make_half_the_solves(kind, solver, video, sim_cfg, monkeypatch):
    solves = []
    solve = getattr(planners, solver)

    def counting(inst, *floor):
        solves.append(inst)
        return solve(inst, *floor)

    monkeypatch.setattr(planners, solver, counting)
    run = (kind, suite_trace(3), video, sim_cfg, 2, 5, 3)
    shared, _ = _scenario_run(*run)
    n_shared = len(solves)
    solves.clear()
    fresh, every = _scenario_run(*run, memo=_SolveEvery)
    # Each decision is one step.
    assert every.steps == sum(map(len, fresh.decisions)) > 0
    # Both users make the same decisions at the same instants, so the
    # second user to decide reuses every solve of the first.
    assert shared.decisions[0] == shared.decisions[1] == fresh.decisions[0]
    assert len(solves) == 2 * n_shared
    assert len(set(solves)) == n_shared


class _Unfloored(SolveMemo):
    """A memo that solves every option of a step in full, each as a lone
    set, so it drops only an option whose plans are all unbounded. steps
    counts the steps asked of it."""

    __slots__ = ("steps",)

    def __init__(self):
        super().__init__()
        self.steps = 0

    def options(self, solver, options):
        self.steps += 1
        solve = super().options
        return [o for option in options for o in solve(solver, [option])]


class _FloorLog(SolveMemo):
    """A memo that solves every step anew and logs, per step and in solve
    order, each solve's handoff chunk (None for the stay), floor and QoE
    (None when the solve found no plan). steps holds each step's option
    count and seed."""

    __slots__ = ("calls", "steps")

    def __init__(self):
        super().__init__()
        self.calls = []
        self.steps = []

    def options(self, solver, options):
        log = []
        self.calls.append(log)
        self.steps.append((len(options), step_seed(options)))

        def logged(inst, *floor):
            entry = (inst.handoff_chunk, floor[0] if floor else -math.inf)
            try:
                res = solver(inst, *floor)
            except (UnboundedDownloadError, BelowFloorError):
                log.append((*entry, None))
                raise
            log.append((*entry, res.best_qoe))
            return res

        return solve_options(options, logged)


class _Choices:
    """Runs a controller and keeps each decision's chosen option, bit for bit."""

    def __init__(self, ctrl):
        self.ctrl = ctrl
        self.chosen = []

    def __getattr__(self, name):
        return getattr(self.ctrl, name)

    def decide(self, state, trace):
        decision = self.ctrl.decide(state, trace)
        c = self.ctrl.last_stats.chosen
        self.chosen.append(None if c is None else (
            c.satellite, c.handoff_chunk, c.result.best_qoe.hex(), c.result.full_bitrate_plan
        ))
        return decision


def _setting_trace():
    """Satellite 0, the faster, sets at 60 s: inside the horizon of the
    decisions before it, its stay scores below handing off to satellite 1."""
    n = 200
    return make_flat_trace([3.0, 2.0], visible=[[i < 60 for i in range(n)], [True] * n])


def _floor_traces():
    """Suite traces on which the planners hand off, flat equal-rate
    traces, whose options tie exactly, and a serving satellite that sets."""
    n = 200
    return [
        _setting_trace(),
        suite_trace(1),
        suite_trace(3),
        make_flat_trace([4.0, 4.0, 4.0]),
        # Satellite 0 sets at 40 s: handoff options onto satellites 1 and
        # 2 tie exactly, across targets and handoff points, and rank
        # breaks the ties.
        make_flat_trace(
            [4.0, 4.0, 4.0], visible=[[i < 40 for i in range(n)], [True] * n, [True] * n]
        ),
    ]


@pytest.mark.parametrize("mode", ["dual", "manifold"])
def test_floored_joint_decisions_match_solving_in_full(mode, video6, sim_cfg):
    traces = _floor_traces()
    for trace in traces:
        runs = []
        floored, full, dumped = _FloorLog(), _Unfloored(), _FloorLog()
        for memo, dump in ((floored, False), (full, False), (dumped, True)):
            ctrl = JointMpcController(video6, sim_cfg, mode=mode, dump_candidates=dump)
            ctrl.memo = memo
            choices = _Choices(ctrl)
            result = run_session(trace, choices, video6, sim_cfg)
            assert ctrl.memo is memo
            runs.append((result.decisions, result.breakdown, choices.chosen))
        assert runs[0] == runs[1] == runs[2]
        # The loop gives every controller with a memo its own; _Choices
        # takes that one, so ctrl keeps the memo set here. The floored log
        # holds one step per decision, and every option of a decision is
        # solved once in it (twice when its seeded pass keeps nothing).
        # Dumping candidates asks each option as a lone set.
        steps, floored, dumped = floored.steps, floored.calls, dumped.calls
        assert len(floored) == full.steps == len(runs[0][0])
        assert len(dumped) == sum(n for n, _ in steps)
        assert all(len(solves) == 1 for solves in dumped)
        # Options are solved best-first: the first above the step's seed
        # (the best constant-rung plan, when the step has more than one
        # option) and each later one above the best option solved before
        # it in the same decision, if higher; dumping candidates solves
        # every option in full.
        for (n, seed), solves in zip(steps, floored):
            assert_best_first_floors([(floor, qoe) for _, floor, qoe in solves], n, seed)
        assert any(seed > -math.inf for _, seed in steps)
        assert all(floor == -math.inf for solves in dumped for _, floor, _ in solves)
        if trace is traces[0]:
            # Before satellite 0 sets, some decision solves a handoff
            # first, and the stay then ends below the floor it sets.
            assert any(
                solves[0][0] is not None and any(h is None and q is None for h, _, q in solves)
                for solves in floored
            )


def test_floored_centralized_decisions_match_solving_in_full(video6, sim_cfg):
    video = dataclasses.replace(video6, n_chunks=25)
    for trace in _floor_traces():
        run = ("centralized", trace, video, sim_cfg, 2, 0, 3)
        floored, _ = _scenario_run(*run)
        full, unfloored = _scenario_run(*run, memo=_Unfloored)
        assert unfloored.steps > 0
        assert floored.decisions == full.decisions
        assert floored.per_user == full.per_user
        assert floored.failures == full.failures == {}


@pytest.mark.parametrize("kind", ["centralized", "joint:dual", "mixed"])
def test_controllers_run_a_second_scenario_as_fresh_ones(kind, video, sim_cfg):
    def run(trace, controllers):
        scenario = MultiUserScenario(trace=trace, controllers=controllers, n_background=5)
        return simulate_multi(scenario, video, sim_cfg, seed=3)

    reused = _controllers(kind, 2, video, sim_cfg)
    assert not run(suite_trace(1), reused).failures
    again = run(suite_trace(3), reused)
    fresh = run(suite_trace(3), _controllers(kind, 2, video, sim_cfg))
    assert not again.failures
    assert again.decisions == fresh.decisions
    assert again.per_user == fresh.per_user


class _Recording(SolveMemo):
    """A memo that records each step asked, as (start time, key), and the
    keys it holds after each step."""

    __slots__ = ("asked", "held")

    def __init__(self):
        super().__init__()
        self.asked = []
        self.held = []

    def options(self, solver, options):
        self.asked.append((options[0][1].start_t, (solver, tuple(options))))
        step = super().options(solver, options)
        self.held.append(set(self._steps))
        return step


def test_memo_keeps_every_step_of_its_scenario(video, sim_cfg):
    made = []

    def recording():
        made.append(_Recording())
        return made[-1]

    trace = suite_trace(3)
    for run in range(2):
        controllers = _controllers("mixed", 3, video, sim_cfg)
        memos = [ctrl.memo for ctrl in controllers]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multiuser, "SolveMemo", recording)
            result = simulate_multi(
                MultiUserScenario(trace=trace, controllers=controllers), video, sim_cfg
            )
        assert not result.failures
        # Each simulate_multi makes one memo and gives it to every controller.
        assert len(made) == run + 1
        assert all(ctrl.memo is made[-1] for ctrl in controllers)
        assert not any(memo is made[-1] for memo in memos)
    calls = sum(len(d) for d in result.decisions)
    for memo in made:
        # Each decision is one step.
        assert len(memo.asked) == calls
        # After each step the memo holds every step asked so far, and
        # nothing else: it starts empty and drops nothing.
        for k in range(calls):
            assert memo.held[k] == {key for _, key in memo.asked[:k + 1]}
        assert len({start_t for start_t, _ in memo.asked}) > 1
        # The two separate:mb users decide in lockstep: every instant
        # repeats a step.
        assert len(set(key for _, key in memo.asked)) < calls
    # Every step asked again, the latest instant first, is the stored one:
    # a step at an earlier instant runs no solver and no incumbent.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planners, "solve_options", None)
        for _, (solver, options) in reversed(memo.asked):
            assert memo.options(solver, list(options)) is memo._steps[solver, options]


def test_identical_users_at_the_same_instant_are_solved_once(video, sim_cfg, monkeypatch):
    solves = []
    solve = multiuser.f_sat_dpmpc

    def counting(inst, *floor):
        solves.append(inst)
        return solve(inst, *floor)

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
    coord.memo = _SolveEvery()
    for uid in (0, 1):
        coord.decide_multi(uid, [start, start], trace)
    # Each call asks one step per user under each of the 4 assignments.
    assert coord.memo.steps == 2 * 4 * 2
    assert len(solves) == 2 * 4 * (1 + horizon)
    assert len(set(solves)) == 1 + 2 * horizon


def test_memo_replays_steps_with_no_plan_at_every_instant(video, sim_cfg):
    calls = []

    def unbounded(inst, *floor):
        calls.append(inst)
        raise UnboundedDownloadError("all horizon plans are unbounded")

    def below_floor(inst, *floor):
        # Solves in full; no floor is ever reached.
        calls.append((inst, *floor))
        if floor:
            raise BelowFloorError(f"no plan reaches {floor[0]!r}")
        return f_sat_dpmpc(inst)

    memo = SolveMemo()
    view = _view(0, {0: 4.0, 1: 3.0}, {0: 4.0, 1: 3.0}, cur=0, video=video, horizon=1)
    lone = [(0, view.stay)]
    pair = [*lone, *handoff_instances(view.stay, view.targets)]
    assert len(pair) == 2
    seed = step_seed(pair)
    for _ in range(3):
        assert memo.options(unbounded, lone) == []
        assert len(memo.options(below_floor, pair)) == 1
    # Both options are solved above the seed and neither reaches it, so the
    # step is solved again as an unseeded step is: the first option in full
    # and the second above it.
    (first, _), (second, _) = calls[1:3]
    assert {first, second} == {inst for _, inst in pair}
    assert seed > -math.inf
    first_qoe = f_sat_dpmpc(first).best_qoe
    assert calls == [view.stay, (first, seed), (second, seed), (first,), (second, first_qoe)]
    # The memo stores the step's options, not the solver's exception.
    assert [len(step) for step in memo._steps.values()] == [0, 1]

    # Every step stays: another instance and a later instant are solved
    # once each, and the step of the earlier instant is not solved again.
    calls.clear()
    other = dataclasses.replace(view.stay, current_link=RateSeries.constant(2.0))
    later = dataclasses.replace(view.stay, start_t=1.0)
    for _ in range(2):
        assert memo.options(unbounded, [(0, other)]) == []
        assert memo.options(unbounded, lone) == []
        assert memo.options(unbounded, [(0, later)]) == []
        assert memo.options(unbounded, lone) == []
    assert calls == [other, later]

    # Any other error is the caller's: the memo neither stores nor hides it.
    def failing(inst, *floor):
        calls.append(inst)
        raise PlanningError("not a plan outcome")

    for _ in range(2):
        with pytest.raises(PlanningError):
            memo.options(failing, lone)
    assert calls == [other, later, view.stay, view.stay]

    # The solver is part of the key: exhaustive and DP results never mix.
    assert memo.options(f_mpc, lone) == solve_options(lone, f_mpc)
    assert memo.options(f_sat_dpmpc, lone) is not memo.options(f_mpc, lone)
    assert len(calls) == 4


def test_a_repeated_step_runs_no_solver_and_no_incumbent(video, monkeypatch):
    incumbents, solves = [], []
    incumbent = planners._incumbent

    def counting_incumbent(inst):
        incumbents.append(inst)
        return incumbent(inst)

    def solver(inst, *floor):
        solves.append(inst)
        return f_sat_dpmpc(inst, *floor)

    monkeypatch.setattr(planners, "_incumbent", counting_incumbent)
    links = {0: 4.0, 1: 3.0}

    def step(t):
        view = _view(0, links, dict(links), cur=0, video=video, t=t)
        return [(0, view.stay), *handoff_instances(view.stay, view.targets)]

    memo = SolveMemo()
    options = step(0.0)
    first = memo.options(solver, options)
    # Each of the 6 options is ordered by its incumbent and solved once.
    assert len(incumbents) == len(solves) == len(options) == 6
    assert first
    assert memo.options(solver, step(0.0)) == first
    assert len(incumbents) == len(solves) == 6
    # A step at a new instant is solved once; the step of the earlier
    # instant, asked again, runs no solver and no incumbent.
    later = memo.options(solver, step(1.0))
    assert len(incumbents) == len(solves) == 12
    assert memo.options(solver, options) is first
    assert memo.options(solver, step(1.0)) is later
    assert len(incumbents) == len(solves) == 12


def test_split_centralized_users_solve_each_step_once(video, sim_cfg, monkeypatch):
    # On two flat links the centralized planner splits its users, so a
    # call plans users whose states start at different instants, and a
    # user's steps recur in the calls made before it settles its chunk.
    instants, solved = [], []
    decide, solve = multiuser.centralized_mpc_decide, planners.solve_options

    def recording_decide(views, memo):
        instants.append({view.stay.start_t for view in views})
        return decide(views, memo)

    def counting_solve(options, solver):
        solved.append((solver, tuple(options)))
        return solve(options, solver)

    monkeypatch.setattr(multiuser, "centralized_mpc_decide", recording_decide)
    monkeypatch.setattr(planners, "solve_options", counting_solve)
    video = dataclasses.replace(video, n_chunks=20)
    run = ("centralized", make_flat_trace([4.0, 3.0]), video, sim_cfg, 3, 5, 3)
    result, _ = _scenario_run(*run)
    assert not result.failures
    assert any(len(starts) > 1 for starts in instants)
    assert solved
    assert len(solved) == len(set(solved))


def test_the_loop_logs_share_signatures_and_builds_events_on_read(video, sim_cfg, monkeypatch):
    made = []
    share_event = multiuser.ShareEvent

    def counting(*args, **kwargs):
        made.append(args)
        return share_event(*args, **kwargs)

    monkeypatch.setattr(multiuser, "ShareEvent", counting)
    scenario = MultiUserScenario(
        trace=suite_trace(1), controllers=[SeparateController(video, sim_cfg, strategy="mb")]
    )
    result = simulate_multi(scenario, video, sim_cfg, seed=1)
    assert made == []
    events = result.share_events
    assert len(made) == len(result.share_log) == len(events) > 0
