"""Multiple clients sharing satellite capacity, plus a centralized planner.

Capacity is split equally among the users actively transferring on a
satellite, after background (non-video) demand has taken its fraction.
The event loop advances all transfers between breakpoints (trace sample
edges, background windows, phase changes, chunk completions) where every
rate is constant, so download progress integrates exactly. It is the one
loop that settles chunks: simcore.run_session and the offline replay run
one user through it. With one user and no background load each chunk
comes out as simcore's one-chunk reference settles it, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import simcore
from .planners import (
    JointMpcController,
    PlanningError,
    PlanOption,
    SolveMemo,
    UserPlanView,
    f_sat_dpmpc,
    handoff_instances,
)
from .simcore import (
    Decision,
    PlayerState,
    QoEBreakdown,
    RateSeries,
    SimConfig,
    VideoSpec,
)
from .traces import TraceSet

BACKGROUND_WINDOW_S = 10.0
BACKGROUND_DEMAND_LOW = 0.0
BACKGROUND_DEMAND_HIGH = 0.06
BACKGROUND_CAP = 0.8
CENTRALIZED_USER_CAP = 3
# Guard against an event loop that stops advancing. Each iteration moves
# the clock to the next event, so a finite session needs far fewer.
MAX_EVENT_ITERATIONS = 10_000_000


class MultiUserError(RuntimeError):
    pass


@dataclass(frozen=True)
class BackgroundProfile:
    """Piecewise-constant fraction of each satellite's capacity consumed by
    non-video users, one value per BACKGROUND_WINDOW_S window."""

    fractions: dict[int, np.ndarray]

    def fraction(self, sat_id: int, t: float) -> float:
        values = self.fractions[sat_id]
        if t < 0:
            raise MultiUserError(f"t={t} before profile start")
        idx = min(int(t / BACKGROUND_WINDOW_S), len(values) - 1)
        return float(values[idx])

    def next_edge(self, t: float) -> float:
        any_values = next(iter(self.fractions.values()))
        idx = int(t / BACKGROUND_WINDOW_S)
        if idx >= len(any_values) - 1:
            return math.inf
        return (idx + 1) * BACKGROUND_WINDOW_S


def make_background_profile(trace: TraceSet, n_background: int, seed: int) -> BackgroundProfile:
    """Per-satellite background demand: one uniform draw per user per window,
    summed and capped."""
    rng = np.random.default_rng(seed)
    n_windows = max(1, int(np.ceil(trace.duration_s / BACKGROUND_WINDOW_S)))
    fractions = {}
    for sat_id in trace.sat_ids:
        draws = rng.uniform(
            BACKGROUND_DEMAND_LOW, BACKGROUND_DEMAND_HIGH, size=(n_windows, n_background)
        )
        fractions[sat_id] = np.minimum(draws.sum(axis=1), BACKGROUND_CAP)
    return BackgroundProfile(fractions=fractions)


def allocate_shares(
    capacity_mbps: float, active: list[int], background_fraction: float
) -> dict[int, float]:
    """Equal split of the residual capacity among active downloaders."""
    if capacity_mbps < 0:
        raise MultiUserError("capacity must be >= 0")
    if not 0.0 <= background_fraction < 1.0:
        raise MultiUserError("background fraction must be in [0, 1)")
    if not active:
        return {}
    residual = capacity_mbps * (1.0 - background_fraction)
    share = residual / len(active)
    return {uid: share for uid in active}


@dataclass(frozen=True)
class ShareEvent:
    time_s: float
    satellite_id: int
    active_users: tuple[int, ...]
    per_user_mbps: dict[int, float]
    capacity_mbps: float
    background_fraction: float


@dataclass
class MultiUserScenario:
    trace: TraceSet
    controllers: list
    n_background: int = 0


@dataclass
class MultiUserResult:
    per_user: list[QoEBreakdown | None]
    failures: dict[int, str]
    qos: float
    # (time, satellite, (active users, capacity, background)) at each change.
    share_log: list[tuple[float, int, tuple]]
    decisions: list[tuple[Decision, ...]]
    decision_latencies_s: list[tuple[float, ...]]

    @property
    def share_events(self) -> list[ShareEvent]:
        """The share log as ShareEvents, the shares recomputed through
        allocate_shares on each read, as the event loop computed them."""
        return [
            ShareEvent(t, sat, active, allocate_shares(capacity, list(active), bg), capacity, bg)
            for t, sat, (active, capacity, bg) in self.share_log
        ]


class _User:
    # A user in "decide" decides at its state's wallclock. The decision fixes
    # request_t (wallclock, plus the handoff delay on a handoff) and
    # transfer_pos (request_t + RTT) before the transfer starts. A user in
    # "transfer" gets its share (rate) and projected finish at every event.
    __slots__ = (
        "uid", "controller", "state", "phase", "request_t",
        "transfer_pos", "transfer_remaining", "rate", "finish", "decision",
        "outcomes", "decisions", "latencies",
    )

    def __init__(self, uid: int, controller, state: PlayerState):
        self.uid = uid
        self.controller = controller
        self.state = state
        self.phase = "decide"
        self.request_t = 0.0
        self.transfer_pos = 0.0
        self.transfer_remaining = 0.0
        self.rate = 0.0
        self.finish = math.inf
        self.decision: Decision | None = None
        self.outcomes = []
        self.decisions = []
        self.latencies = []


def _decide(user: _User, users: list[_User], trace: TraceSet) -> Decision:
    ctrl = user.controller
    t0 = _time.perf_counter()
    if hasattr(ctrl, "decide_multi"):
        # A failed user's state is None: it takes no share of a plan.
        states = [None if u.phase == "failed" else u.state for u in users]
        decision = ctrl.decide_multi(user.uid, states, trace)
    else:
        decision = ctrl.decide(user.state, trace)
    user.latencies.append(_time.perf_counter() - t0)
    return decision


def _observe_start(user: _User, trace: TraceSet) -> None:
    ctrl = user.controller
    if hasattr(ctrl, "observe_start_user"):
        ctrl.observe_start_user(user.uid, trace, user.state)
    else:
        ctrl.observe_start(trace, user.state)


def _observe_chunk(user: _User, trace: TraceSet, outcome) -> None:
    ctrl = user.controller
    if hasattr(ctrl, "observe_chunk_user"):
        ctrl.observe_chunk_user(user.uid, trace, user.state, outcome)
    else:
        ctrl.observe_chunk(trace, user.state, outcome)


def simulate_multi(
    scenario: MultiUserScenario,
    video: VideoSpec,
    cfg: SimConfig,
    seed: int = 0,
) -> MultiUserResult:
    """Event-driven shared-capacity simulation of all video users."""
    trace = scenario.trace
    if not scenario.controllers:
        raise MultiUserError("need at least one video user")
    profile = None
    if scenario.n_background > 0:
        profile = make_background_profile(trace, scenario.n_background, seed)

    series = {tr.sat_id: RateSeries.for_satellite(trace, tr.sat_id) for tr in trace.tracks}
    # A fresh memo per scenario serves every planner: users that reach
    # the same step repeat each other's solves.
    memo = SolveMemo()
    for controller in scenario.controllers:
        if hasattr(controller, "memo"):
            controller.memo = memo
    users = []
    errors: dict[int, Exception] = {}  # by user id, in the order users failed

    def fail(user: _User, exc: Exception) -> None:
        user.phase = "failed"
        errors[user.uid] = exc

    start = simcore.initial_state(trace, video, cfg)
    for uid, controller in enumerate(scenario.controllers):
        user = _User(uid, controller, start)
        users.append(user)
        try:
            _observe_start(user, trace)
        except Exception as exc:
            fail(user, exc)

    share_log: list[tuple[float, int, tuple]] = []
    last_logged: dict[int, tuple] = {}

    def complete_chunk(user: _User, finish_t: float) -> None:
        dl = finish_t - user.request_t
        new_state, outcome = simcore.apply_chunk(user.state, user.decision, dl, video, cfg)
        user.state = new_state
        user.outcomes.append(outcome)
        user.decisions.append(user.decision)
        try:
            _observe_chunk(user, trace, outcome)
        except Exception as exc:
            fail(user, exc)
        else:
            user.phase = "done" if new_state.chunk_index >= video.n_chunks else "decide"

    def cascade(now: float) -> None:
        # One pass suffices: whether a user's step is due depends only on
        # its own clock, never on another user's step.
        for user in users:
            if user.phase == "decide" and user.state.wallclock_s <= now:
                try:
                    decision = _decide(user, users, trace)
                    simcore.validate_decision(user.state, decision, video)
                except Exception as exc:
                    fail(user, exc)
                    continue
                user.decision = decision
                if decision.handoff_now:
                    user.request_t = user.state.wallclock_s + cfg.handoff_delay_s
                else:
                    user.request_t = user.state.wallclock_s
                user.transfer_pos = user.request_t + cfg.rtt_s
                user.phase = "prep"
            if user.phase == "prep" and user.transfer_pos <= now:
                user.phase = "transfer"
                user.transfer_remaining = video.chunk_mb(user.decision.bitrate_idx)

    now = 0.0
    for _ in range(MAX_EVENT_ITERATIONS):
        cascade(now)
        # t_next: the earliest event after now (inf: none). One pass groups
        # the transfers by satellite and takes the other users' next steps.
        t_next = math.inf
        live = False
        active_by_sat: dict[int, list[_User]] = {}
        for user in users:
            phase = user.phase
            if phase == "transfer":
                active_by_sat.setdefault(user.decision.target_satellite, []).append(user)
            elif phase == "decide":
                if now < user.state.wallclock_s < t_next:
                    t_next = user.state.wallclock_s
            elif phase == "prep":
                if now < user.transfer_pos < t_next:
                    t_next = user.transfer_pos
            else:
                continue  # done or failed
            live = True
        if not live:
            break

        overdue = False
        for sat_id in sorted(active_by_sat):
            members = active_by_sat[sat_id]
            pos = members[0].transfer_pos
            capacity, seg_end = series[sat_id].rate_and_edge(pos)
            bg = 0.0 if profile is None else profile.fraction(sat_id, pos)
            active = tuple(u.uid for u in members)
            shares = allocate_shares(capacity, list(active), bg)
            if now < seg_end < t_next:
                t_next = seg_end
            # The shares follow from these three, so the log keeps only them.
            signature = (active, capacity, bg)
            if last_logged.get(sat_id) != signature:
                last_logged[sat_id] = signature
                share_log.append((pos, sat_id, signature))
            for user in members:
                rate = user.rate = shares[user.uid]
                if rate > 0:
                    finish = user.finish = user.transfer_pos + user.transfer_remaining / rate
                    if finish <= now:
                        overdue = True
                    elif finish < t_next:
                        t_next = finish
                else:
                    user.finish = math.inf
                    if seg_end == math.inf:
                        fail(user, simcore.UnboundedDownloadError.starting_at(user.request_t))
            if profile is not None:
                bg_edge = profile.next_edge(pos)
                if now < bg_edge < t_next:
                    t_next = bg_edge

        # A recomputed share can land a finish at or before the current
        # time; settle those downloads before advancing the clock.
        if overdue:
            for user in users:
                if user.phase == "transfer" and user.finish <= now:
                    complete_chunk(user, user.finish)
            continue

        if t_next == math.inf:
            for user in users:
                if user.phase not in ("done", "failed"):
                    fail(user, MultiUserError("simulation stalled"))
            break

        for user in users:
            if user.phase != "transfer":
                continue
            if user.finish == t_next:
                complete_chunk(user, t_next)
                continue
            if user.rate > 0:
                user.transfer_remaining = user.transfer_remaining - user.rate * (
                    t_next - user.transfer_pos
                )
            user.transfer_pos = t_next
        now = t_next
    else:
        raise MultiUserError("event loop exceeded the iteration budget")

    # The loop ends only with every user done or failed, and a done user
    # has settled every chunk.
    failures = {uid: repr(exc) for uid, exc in errors.items()}
    if len(errors) == len(users):
        raise MultiUserError(f"all users failed: {failures}") from next(iter(errors.values()))
    per_user = [
        None if user.uid in errors else simcore.session_qoe(user.outcomes, cfg)
        for user in users
    ]
    return MultiUserResult(
        per_user=per_user,
        failures=failures,
        qos=simcore.qos(b.qoe_total for b in per_user if b is not None),
        share_log=share_log,
        decisions=[tuple(u.decisions) for u in users],
        decision_latencies_s=[tuple(u.latencies) for u in users],
    )


def result_json(result: MultiUserResult, include_share_events: bool = False) -> dict:
    """Scenario result payload: per-user breakdowns and QoS, with the
    share-event log behind a flag."""
    payload = {
        "qos": result.qos,
        "users": [
            None
            if breakdown is None
            else {
                "qoe_total": breakdown.qoe_total,
                "quality": breakdown.quality_total,
                "rebuf_penalty": breakdown.rebuf_penalty_total,
                "smooth_penalty": breakdown.smooth_penalty_total,
                "handoff_count": breakdown.handoff_count,
            }
            for breakdown in result.per_user
        ],
        "failures": {str(uid): msg for uid, msg in result.failures.items()},
    }
    if include_share_events:
        payload["share_events"] = [
            {
                "time_s": ev.time_s,
                "satellite_id": ev.satellite_id,
                "active_users": list(ev.active_users),
                "per_user_mbps": {str(u): r for u, r in ev.per_user_mbps.items()},
                "capacity_mbps": ev.capacity_mbps,
                "background_fraction": ev.background_fraction,
            }
            for ev in result.share_events
        ]
    return payload


def _best_option(
    view: UserPlanView, target: int, scale_cur: float, scale_target: float, memo: SolveMemo
) -> PlanOption | None:
    """Best option for one user given a target satellite assignment, None
    when every plan is unbounded. Staying is one option; handing off to
    another target is one option per handoff point, which one memo.options
    call (solve_options) takes best-first, each point above the best
    constant-rung plan and the best point solved before it."""
    stay = replace(view.stay, current_link=view.stay.current_link.scaled(scale_cur))
    if target == view.current_satellite:
        options = [(target, stay)]
    else:
        options = handoff_instances(stay, {target: view.targets[target].scaled(scale_target)})
    return max(memo.options(f_sat_dpmpc, options), key=PlanOption.rank, default=None)


def centralized_mpc_decide(
    views: list[UserPlanView], memo: SolveMemo | None = None
) -> dict[int, Decision]:
    """Joint assignment search maximizing the sum of horizon QoEs; returns
    each user's Decision by user id.

    Each user's candidates are its current satellite and its view's
    targets; predicted throughput on a satellite is split equally among
    the users assigned to it within the horizon.
    Each user's options under one assignment are one planning step,
    solved once through memo (a fresh SolveMemo by default): assignments
    that give a user the same shares repeat its step, and a memo passed
    in, which keeps every step it solved, also serves later calls.
    """
    if len(views) > CENTRALIZED_USER_CAP:
        raise PlanningError(
            f"centralized search capped at {CENTRALIZED_USER_CAP} users, got {len(views)}"
        )
    memo = SolveMemo() if memo is None else memo
    candidate_lists = [[view.current_satellite, *view.targets] for view in views]

    # Everyone rides their current satellite until their handoff point,
    # so pre-handoff shares are counted by current satellite while
    # post-handoff shares are counted by the assigned target.
    current_counts = Counter(view.current_satellite for view in views)

    best_total = None
    best_options = None
    for assignment in itertools.product(*candidate_lists):
        target_counts = Counter(assignment)
        total = 0.0
        options = []
        for view, target in zip(views, assignment):
            scale_cur = 1.0 / current_counts[view.current_satellite]
            scale_target = 1.0 / target_counts[target]
            option = _best_option(view, target, scale_cur, scale_target, memo)
            if option is None:
                break  # an infeasible assignment
            total += option.result.best_qoe
            options.append(option)
        else:
            if best_total is None or total > best_total:
                best_total = total
                best_options = options

    if best_options is None:
        raise PlanningError("centralized search found no feasible assignment")

    return {
        view.user_id: option.decision(view.current_satellite)
        for view, option in zip(views, best_options)
    }


class CentralizedCoordinator:
    """Session-state wrapper driving centralized_mpc_decide inside the
    multi-user loop.

    Invoked at each user's own chunk boundary; plans jointly over all
    users' latest settled states but applies only the deciding user's
    action (the others re-plan at their own boundaries). Each user's
    predictions, no-bounce-back exclusion and handoff record live in its
    own joint:dual controller, whose planning view the search reads.
    Its memo keeps every step it solved, so a call reuses the steps of
    earlier calls. simulate_multi gives each scenario a fresh memo, the
    one that serves every planner: users in lockstep (same controller,
    same state at the same instant) solve each step once, and so do
    users the search has split across satellites, call after call. On
    the benchmark's contention workload that sharing saves half of the
    separate:mb and joint:dual solves; its one-user workloads share
    nothing.
    """

    def __init__(
        self,
        video: VideoSpec,
        cfg: SimConfig,
        predictor: str = "robust",
        horizon: int = 5,
    ):
        self.video = video
        self.cfg = cfg
        self.horizon = horizon
        self.predictor = predictor
        self._users: dict[int, JointMpcController] = {}
        self.memo = SolveMemo()

    def _user(self, uid: int) -> JointMpcController:
        if uid not in self._users:
            self._users[uid] = JointMpcController(
                self.video, self.cfg, mode="dual", predictor=self.predictor, horizon=self.horizon
            )
        return self._users[uid]

    def observe_start_user(self, uid: int, trace: TraceSet, state: PlayerState) -> None:
        self._user(uid).observe_start(trace, state)

    def observe_chunk_user(self, uid: int, trace: TraceSet, state, outcome) -> None:
        self._user(uid).observe_chunk(trace, state, outcome)

    def _view(self, uid: int, state: PlayerState, trace: TraceSet) -> UserPlanView:
        visible = trace.visible_at(state.wallclock_s)
        return self._user(uid).plan_view(state, trace, visible, user_id=uid)

    def decide_multi(
        self, uid: int, states: list[PlayerState | None], trace: TraceSet
    ) -> Decision:
        """uid's decision, planned jointly with every user still playing;
        a None state (a failed user) and a finished session are left out."""
        views = [
            self._view(i, state, trace)
            for i, state in enumerate(states)
            if state is not None and state.chunk_index < self.video.n_chunks
        ]
        if not views:
            raise PlanningError("no active users to plan for")
        decision = centralized_mpc_decide(views, self.memo)[uid]
        if decision.handoff_now:
            self._user(uid).record_handoff(states[uid])
        return decision
