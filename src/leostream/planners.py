"""Bitrate and satellite-handoff decision algorithms.

The joint planners use receding-horizon search: at each chunk boundary
they score every bitrate plan over the next F chunks both with and
without a single satellite handoff at some point h in [1, F], then
execute only the first action of the winner. The inner search is a
dynamic program over discretized (time, buffer, bitrate) states that
merges plans whose states collide on the grid; exhaustive enumeration of
all |R|^F plans is its reference. The separate baselines' planner is
the same enumeration with a branch-and-bound, which returns the
enumeration's plan bit for bit.

Separate-selection baselines (max visible time, max signal, max
bandwidth paired with a bitrate-only planner) and an offline optimal
dynamic program over the full session are included for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

from . import simcore
from .predictors import MIN_OBSERVED_MBPS, OracleProvider, PredictorBank
from .simcore import (
    Decision,
    PlayerState,
    QoEBreakdown,
    RateSeries,
    SimConfig,
    UnboundedDownloadError,
    VideoSpec,
    chunk_qoe,
    piecewise_download,
    piecewise_downloads,
    settle_chunk,
)
from .traces import TraceSet, remaining_visible_time

NEG_INF = float("-inf")
# The most (state, visible satellite, rung) candidates one offline-DP stage
# may score, in the bounded pass and in the unbounded one alike. A stage
# keeps at most one state per candidate, and a kept state with its key and
# values takes ~340-380 bytes (tracemalloc: 57 MB for the 168k states of 8
# unbounded chunks at dt_s=1e-6, 162 MB for the 429k states kept before
# the refusal that test_offline_dp_refuses_a_stage_past_its_candidate_cap
# pins), so a stage at the cap can take ~400 MB, on top of the earlier
# stages the plan is read back from. On a fine dt_s grid few candidates
# share a cell, and a stage can grow by (satellites x rungs) per chunk; the
# bound cuts a stage only as far as its greedy floor is tight, so the cap
# guards the unbounded pass, which the bounded one falls back to. The
# README exp.json's largest stage holds ~11k candidates unbounded and
# ~130 bounded at the default dt_s.
MAX_OFFLINE_STAGE_CANDIDATES = 1 << 20


class PlanningError(RuntimeError):
    pass


class BelowFloorError(Exception):
    """No plan of a floored DP solve reaches its floor (f_sat_dpmpc).

    states_visited counts the states the solve kept before it ran dry, as
    PlanResult.states_visited counts those of a solve that returns.
    """

    def __init__(self, message: str, states_visited: int | None = None):
        super().__init__(message)
        self.states_visited = states_visited


@dataclass(frozen=True)
class PlanInstance:
    """One inner-search problem: fixed handoff point, predicted links."""

    horizon: int
    buffer_s: float
    last_bitrate_idx: int
    start_t: float
    handoff_chunk: int | None
    current_link: RateSeries
    target_link: RateSeries | None
    video: VideoSpec
    sim: SimConfig

    def __post_init__(self):
        if self.horizon < 1:
            raise PlanningError("horizon must be >= 1")
        h = self.handoff_chunk
        if h is not None:
            if not 1 <= h <= self.horizon:
                raise PlanningError(f"handoff chunk {h} outside [1, {self.horizon}]")
            if self.target_link is None:
                raise PlanningError("handoff requires a target link")


@dataclass
class PlanResult:
    best_qoe: float
    full_bitrate_plan: tuple[int, ...]
    states_visited: int | None = None

    @property
    def first_bitrate_idx(self) -> int:
        return self.full_bitrate_plan[0]


def stay_instance(
    state: PlayerState, horizon: int, link: RateSeries, video: VideoSpec, cfg: SimConfig
) -> PlanInstance:
    """The no-handoff instance from state on link; handoff_instances
    derives a decision's other options from it."""
    return PlanInstance(
        horizon=horizon,
        buffer_s=state.buffer_s,
        last_bitrate_idx=state.last_bitrate_idx,
        start_t=state.wallclock_s,
        handoff_chunk=None,
        current_link=link,
        target_link=None,
        video=video,
        sim=cfg,
    )


def _chunk_wait(inst: PlanInstance, n: int, t: float, rate_idx: int) -> float:
    """Wait for horizon chunk n (1-based): handoff delay, RTT, transfer."""
    h = inst.handoff_chunk
    if h is not None and n >= h:
        link = inst.target_link
        handoff = n == h
    else:
        link = inst.current_link
        handoff = False
    if handoff:
        start = t + inst.sim.handoff_delay_s
        dl = piecewise_download(link, start, inst.video.chunk_mb(rate_idx), inst.sim.rtt_s)
        return inst.sim.handoff_delay_s + dl
    return piecewise_download(link, t, inst.video.chunk_mb(rate_idx), inst.sim.rtt_s)


def evaluate_plan(inst: PlanInstance, plan) -> float:
    """Horizon QoE of one bitrate plan, simulated with the buffer dynamics."""
    ladder = inst.video.bitrate_ladder_mbps
    t = inst.start_t
    buf = inst.buffer_s
    prev = inst.last_bitrate_idx
    total = 0.0
    for n, rate_idx in enumerate(plan, start=1):
        wait = _chunk_wait(inst, n, t, rate_idx)
        rebuf, buf, drain = settle_chunk(
            buf, wait, inst.video.chunk_duration_s, inst.sim.max_buffer_s
        )
        total += chunk_qoe(ladder[prev], ladder[rate_idx], rebuf, inst.sim)
        t = t + wait
        if drain > 0.0:
            t += drain
        prev = rate_idx
    return total


@cache
def chunk_scores(ladder: tuple[float, ...], mu1: float, mu3: float, horizon: int) -> tuple:
    """The rebuffer-free chunk score as tables, built once per (ladder,
    mu1, mu3, horizon) and shared read-only: (gain, switch, U).

    gain[b] - switch[p][b], that is mu1*b - mu3*|b - p|, is chunk_qoe of
    rung b after rung p with no rebuffer, bit for bit. U[k][p], k in
    [0, horizon], is the best such score summed over k more chunks after
    rung p. It bounds every continuation because mu2 >= 0 (SimConfig
    checks it): rebuffering only lowers a chunk's score, and the
    buffer-cap drain moves only the clock.
    """
    gain = tuple(mu1 * b for b in ladder)
    switch = tuple(tuple(mu3 * abs(b - p) for b in ladder) for p in ladder)
    ceiling = [(0.0,) * len(ladder)]
    for _ in range(horizon):
        after = [g + u for g, u in zip(gain, ceiling[-1])]
        ceiling.append(tuple(max(a - s for a, s in zip(after, row)) for row in switch))
    return gain, switch, tuple(ceiling)


def _scores(inst: PlanInstance) -> tuple:
    """chunk_scores for inst's ladder, weights and horizon."""
    return chunk_scores(inst.video.bitrate_ladder_mbps, inst.sim.mu1, inst.sim.mu3, inst.horizon)


def _child_expander(inst: PlanInstance):
    """Child expansion for the exhaustive search (_plan_exhaustive).

    Returns expand(n, t, buf, prev, total): every bounded child of a
    node at horizon chunk n (1-based) as (rung, new_t, new_buf, q) in
    ascending rung order. It scores each rung as _chunk_wait,
    settle_chunk and chunk_qoe would, bit for bit: the waits of the
    whole ladder come from one piecewise_downloads walk (the handoff
    chunk adds the delay to the start and to the result, as _chunk_wait
    does), mu1*b and mu3*|b - p| come from chunk_scores, and q keeps
    chunk_qoe's association, total + ((mu1*b - mu2*rebuf) - mu3*|b - p|).

    f_sat_dpmpc inlines these floats in its stage loop rather than call
    expand per state. Each copy is pinned against a scalar reference:
    this one by test_prefix_shared_search_matches_naive_enumeration, the
    DP's by test_dp_matches_scalar_reference_and_reevaluates_exactly and
    test_dp_merge_ignores_stage_order, both by golden/check.py.
    """
    sizes = inst.video.chunk_sizes_mb
    sim = inst.sim
    rtt_s, delay_s, mu2 = sim.rtt_s, sim.handoff_delay_s, sim.mu2
    chunk_s, max_buffer_s = inst.video.chunk_duration_s, sim.max_buffer_s
    gain, switch, _ = _scores(inst)
    h = inst.handoff_chunk
    current, target = inst.current_link, inst.target_link

    def expand(n: int, t: float, buf: float, prev: int, total: float) -> list[tuple]:
        if h is None or n < h:
            waits = piecewise_downloads(current, t, sizes, rtt_s)
        elif n == h:
            waits = piecewise_downloads(target, t + delay_s, sizes, rtt_s)
            waits = [None if w is None else delay_s + w for w in waits]
        else:
            waits = piecewise_downloads(target, t, sizes, rtt_s)
        sw = switch[prev]
        children = []
        for rate_idx, wait in enumerate(waits):
            if wait is None:
                break  # sizes ascend, so every larger rung is unbounded too
            # settle_chunk inlined: buf - wait is exactly -(wait - buf) and
            # chunk_s > 0, so the branch gives the floats its max() calls give.
            if wait > buf:
                rebuf = wait - buf
                new_buf = chunk_s
            else:
                rebuf = 0.0
                new_buf = (buf - wait) + chunk_s
            new_t = t + wait
            if new_buf > max_buffer_s:
                new_t += new_buf - max_buffer_s
                new_buf = max_buffer_s
            q = total + ((gain[rate_idx] - mu2 * rebuf) - sw[rate_idx])
            children.append((rate_idx, new_t, new_buf, q))
        return children

    return expand


def _plan_exhaustive(inst: PlanInstance, bounded: bool = False) -> PlanResult:
    """The best of the |R|^F plans, scored as evaluate_plan would score it.

    A depth-first walk over plan prefixes simulates each prefix once and
    carries (time, buffer, previous rung, QoE so far) down to its
    children, so a full walk costs sum_k |R|^k chunk downloads instead of
    F * |R|^F. Children come in descending rung order, so leaves come in
    descending lexicographic order, and a leaf replaces the best only on
    a strictly higher QoE: the lexicographically highest plan (hence
    highest first bitrate) wins ties. Leaves add the same floats in the
    same order as evaluate_plan, so the result is bit-identical to
    scoring each plan separately. A prefix whose download is unbounded
    prunes exactly the plans evaluate_plan would reject.

    bounded skips a child at chunk n, with QoE so far q and rung p, when
    q + U + 1e-9*(|q| + |U| + 1) < best, where U = U[F - n][p] of
    chunk_scores, which bounds every continuation. The slack covers the
    rounding of the sums, so no plan scoring >= best is skipped and the
    result is the full walk's, QoE and plan bit for bit. states_visited
    counts the simulated prefixes (those whose download is bounded),
    skipped children included.
    """
    expand = _child_expander(inst)
    horizon = inst.horizon
    ceiling = _scores(inst)[2] if bounded else None
    plan = [0] * horizon
    best_q = NEG_INF
    best_plan = None
    visited = 0

    def walk(n: int, t: float, buf: float, prev: int, total: float) -> None:
        nonlocal best_q, best_plan, visited
        children = expand(n, t, buf, prev, total)
        visited += len(children)
        children.reverse()
        if n == horizon:
            for rate_idx, _, _, q in children:
                if q > best_q:
                    best_q = q
                    plan[n - 1] = rate_idx
                    best_plan = tuple(plan)
            return
        ceiling_row = ceiling[horizon - n] if ceiling is not None else None
        for rate_idx, new_t, new_buf, q in children:
            if ceiling_row is not None:
                u = ceiling_row[rate_idx]
                if q + u + 1e-9 * (abs(q) + abs(u) + 1.0) < best_q:
                    continue
            plan[n - 1] = rate_idx
            walk(n + 1, new_t, new_buf, rate_idx, q)

    walk(1, inst.start_t, inst.buffer_s, inst.last_bitrate_idx, 0.0)
    if best_plan is None:
        raise UnboundedDownloadError("all horizon plans are unbounded")
    return PlanResult(best_q, best_plan, states_visited=visited)


def f_mpc(inst: PlanInstance) -> PlanResult:
    """Exact bitrate-only search, no handoff in the horizon: the bounded
    walk of _plan_exhaustive, which returns the full enumeration's QoE
    and plan bit for bit and simulates fewer prefixes. The separate
    baselines plan with it."""
    if inst.handoff_chunk is not None:
        raise PlanningError("f_mpc expects no handoff point")
    return _plan_exhaustive(inst, bounded=True)


def f_sat_mpc(inst: PlanInstance) -> PlanResult:
    """Exhaustive search with one handoff fixed at inst.handoff_chunk: the
    full walk of _plan_exhaustive, which simulates every prefix whose
    download is bounded. It is the reference the DP (f_sat_dpmpc) is
    checked and timed against."""
    if inst.handoff_chunk is None:
        raise PlanningError("f_sat_mpc expects a handoff point")
    return _plan_exhaustive(inst)


def f_sat_dpmpc(inst: PlanInstance, floor: float = NEG_INF) -> PlanResult:
    """The exhaustive search's objective, solved by a DP on the dt_s grid.

    States are keyed by (floor(time/dt), floor(buffer/dt), bitrate) with
    dt = inst.sim.dt_s; each key keeps the best accumulated QoE together
    with its exact time and buffer, so the returned QoE is the true value
    of a real plan. It matches the exhaustive search whenever no two
    plans collide on the grid. When they do, the cell keeps the plan
    with more QoE so far, which can pay for its later clock (a rate
    cliff at the pass end), so the DP can return less than the
    exhaustive search. handoff_chunk None is the stay branch.

    floor asks only for a plan scoring >= floor: the result is the
    unbounded DP's, bit for bit, when its best plan reaches floor, and
    BelowFloorError, with the states kept so far, is raised otherwise.
    A state at chunk n with QoE q and rung p is not expanded when
    q + U + 1e-9*(|q| + |U| + 1) < floor, where U = U[F - n + 1][p] of
    chunk_scores, the bound the exhaustive search skips by; the default
    floor, -inf, skips nothing. U bounds the F - n + 1 chunks left, and
    the slack covers the rounding of the sums, so every state on the path
    of a plan scoring >= floor is expanded, with the values the unbounded
    DP gives it.

    A merge keeps the child with the highest QoE and, on an exact tie,
    the one with the earlier clock, then the fuller buffer, then the
    lower parent key. That order is total and does not depend on the
    order in which a stage lists its states, so a cell keeps the
    unbounded DP's winner whenever that winner is bounded at or above
    floor, whichever of the cell's other children were skipped.

    Each stage is one loop: the stage's link and handoff delay are picked
    once, each kept state makes one piecewise_downloads walk, and each
    child is settled, scored, keyed and merged inline, with the floats of
    _child_expander (see there for the tests that pin both copies).
    """
    sim, video = inst.sim, inst.video
    dt, rtt_s, mu2, max_buffer_s = sim.dt_s, sim.rtt_s, sim.mu2, sim.max_buffer_s
    sizes, chunk_s = video.chunk_sizes_mb, video.chunk_duration_s
    gain, switch, ceiling = _scores(inst)
    h, horizon = inst.handoff_chunk, inst.horizon
    init_key = (
        int(inst.start_t / dt),
        int(inst.buffer_s / dt),
        inst.last_bitrate_idx,
    )
    # Each state keeps (QoE, exact time, exact buffer, parent key); the
    # stages themselves are the back-pointers for plan reconstruction.
    stage = {init_key: (0.0, inst.start_t, inst.buffer_s, None)}
    stages: list[dict] = []
    visited = 0
    skipped = False

    for n in range(1, horizon + 1):
        # The stage's link and handoff delay, as _chunk_wait picks them;
        # a delay of 0.0 leaves every start and wait as it is, bit for bit.
        if h is None or n < h:
            link, delay_s = inst.current_link, 0.0
        else:
            link, delay_s = inst.target_link, sim.handoff_delay_s if n == h else 0.0
        new_stage: dict = {}
        get = new_stage.get
        ceiling_row = ceiling[horizon - n + 1]
        for key, (q, t, buf, _) in stage.items():
            prev = key[2]
            u = ceiling_row[prev]
            if q + u + 1e-9 * (abs(q) + abs(u) + 1.0) < floor:
                skipped = True
                continue
            sw = switch[prev]
            # _child_expander's floats, inlined: settle, score and key each
            # bounded rung, then merge it.
            for rate_idx, wait in enumerate(piecewise_downloads(link, t + delay_s, sizes, rtt_s)):
                if wait is None:
                    break  # sizes ascend, so every larger rung is unbounded too
                wait = delay_s + wait
                if wait > buf:
                    rebuf = wait - buf
                    new_buf = chunk_s
                else:
                    rebuf = 0.0
                    new_buf = (buf - wait) + chunk_s
                new_t = t + wait
                if new_buf > max_buffer_s:
                    new_t += new_buf - max_buffer_s
                    new_buf = max_buffer_s
                new_q = q + ((gain[rate_idx] - mu2 * rebuf) - sw[rate_idx])
                new_key = (int(new_t / dt), int(new_buf / dt), rate_idx)
                cur = get(new_key)
                if cur is None or new_q > cur[0] or (
                    new_q == cur[0] and (new_t, -new_buf, key) < (cur[1], -cur[2], cur[3])
                ):
                    new_stage[new_key] = (new_q, new_t, new_buf, key)
        if not new_stage:
            if skipped:
                raise BelowFloorError(f"no plan reaches {floor!r}", visited)
            raise UnboundedDownloadError("all horizon plans are unbounded")
        stages.append(new_stage)
        stage = new_stage
        visited += len(new_stage)

    best_q = max(v[0] for v in stage.values())
    if best_q < floor:
        raise BelowFloorError(f"no plan reaches {floor!r}", visited)
    tied = [key for key, v in stage.items() if v[0] == best_q]
    best_plan = max(_reconstruct(stages, key) for key in tied)
    return PlanResult(best_q, best_plan, states_visited=visited)


def _reconstruct(stages: list[dict], final_key) -> tuple[int, ...]:
    plan = []
    key = final_key
    for stage in reversed(stages):
        plan.append(key[2])
        key = stage[key][3]
    plan.reverse()
    return tuple(plan)


def select_candidates(
    mode: str,
    visible: list[int],
    predictions: dict[int, float],
    current: int,
    previous: int | None,
) -> list[int]:
    """Handoff candidates: every other visible satellite (manifold) or just
    the best-predicted runner-up, excluding the satellite we last left
    (dual)."""
    others = [s for s in visible if s != current]
    if mode == "manifold":
        return sorted(others)
    if mode != "dual":
        raise PlanningError(f"unknown candidate mode {mode!r}")
    eligible = [s for s in others if s != previous]
    if not eligible:
        return []
    best = min(eligible, key=lambda s: (-predictions.get(s, 0.0), s))
    return [best]


def baseline_handoff(
    strategy: str,
    current_sat: int,
    trace: TraceSet,
    t: float,
    chunk_duration_s: float,
) -> int:
    """Separate-selection satellite rules: MVT, MRSS, or MB."""
    visible = trace.visible_at(t)
    idx = trace.clamped_index(t)
    if not visible:
        raise PlanningError(f"no satellite visible at t={idx * trace.sample_dt:.3f}")

    if strategy == "mrss":
        elev = {s: float(trace.track(s).elevation_deg[idx]) for s in visible}
        best = min(visible, key=lambda s: (-elev[s], s))
        cur_elev = elev.get(current_sat, NEG_INF)
        return best if elev[best] > cur_elev else current_sat

    if strategy not in ("mvt", "mb"):
        raise PlanningError(f"unknown handoff strategy {strategy!r}")
    remaining = (
        remaining_visible_time(trace, current_sat, t)
        if current_sat in trace.sat_ids
        else 0.0
    )
    if remaining > chunk_duration_s:
        return current_sat
    if strategy == "mvt":
        return min(
            visible, key=lambda s: (-remaining_visible_time(trace, s, t), s)
        )
    return trace.strongest_visible(t)


@dataclass
class UserPlanView:
    """One user's planning inputs at a chunk boundary: the stay instance on
    the current satellite's predicted link, and the predicted link of each
    handoff candidate the controller's rule admits, in the rule's order.
    The joint controller plans from one, and the centralized coordinator
    gathers one per user.
    """

    user_id: int
    current_satellite: int
    stay: PlanInstance
    targets: dict[int, RateSeries]


@dataclass(frozen=True)
class PlanOption:
    """A solved option: stay (handoff_chunk None) or hand off to satellite."""

    satellite: int
    handoff_chunk: int | None
    result: PlanResult

    def rank(self) -> tuple:
        """Higher QoE, then stay over handoff, later handoff point, lower
        satellite id, higher first bitrate."""
        h = self.handoff_chunk
        return (
            self.result.best_qoe, h is None, h or 0, -self.satellite,
            self.result.first_bitrate_idx,
        )

    def decision(self, current: int) -> Decision:
        """The plan's first chunk: a handoff only when the plan hands off at h = 1."""
        if self.handoff_chunk == 1:
            return Decision(self.result.first_bitrate_idx, self.satellite, True)
        return Decision(self.result.first_bitrate_idx, current, False)


def handoff_instances(
    stay: PlanInstance, targets: dict[int, RateSeries]
) -> list[tuple[int, PlanInstance]]:
    """stay with one handoff, as (target, instance): onto each target in
    turn, at each h in [1, stay.horizon]."""
    return [
        (target, replace(stay, handoff_chunk=h, target_link=link))
        for target, link in targets.items()
        for h in range(1, stay.horizon + 1)
    ]


def _incumbent(inst: PlanInstance) -> float:
    """The best evaluate_plan value over inst's constant-rung plans, -inf
    when all of them are unbounded."""
    best = NEG_INF
    for rate_idx in range(len(inst.video.bitrate_ladder_mbps)):
        try:
            best = max(best, evaluate_plan(inst, (rate_idx,) * inst.horizon))
        except UnboundedDownloadError:
            pass
    return best


def solve_options(options: list[tuple[int, PlanInstance]], solver) -> list[PlanOption]:
    """Every option, given as (satellite, instance), that scores >= the
    running floor, in the given order.

    solver(instance) solves an option in full and solver(instance, floor)
    above floor; an option whose solve raises UnboundedDownloadError or
    BelowFloorError is dropped. Options are solved best-first: by their
    incumbent (_incumbent) in descending order, a stable sort, so ties
    keep the given order. The first is solved above the best incumbent,
    the QoE of a real constant-rung plan, and each later one above the
    best QoE found so far, if higher. So an option is dropped only when a
    real plan beats it: the best option by PlanOption.rank, and every
    option that ties with it, is kept whatever the order, as long as some
    option reaches the seed. The grid DP can score every option below
    the seed (a grid merge can lose the constant plan); then the step is
    solved again unseeded, the first option in full. When every
    constant-rung plan is unbounded, every plan is, so there is no seed
    and the step is solved once, unseeded.

    A lone option is solved in full, with no incumbent. Seeding it too
    gives the same results and makes single-option steps faster, but the
    benchmark keeps every repeat's payload, so its peak memory grows with
    the extra repeats beyond its 5% bound; that waits for the benchmark
    to measure memory per unit.
    """
    order = range(len(options))
    seed = NEG_INF
    if len(options) > 1:
        incumbents = [_incumbent(inst) for _, inst in options]
        order = sorted(order, key=lambda i: -incumbents[i])
        seed = incumbents[order[0]]
    # The seeded pass, then the unseeded one if it keeps nothing (at once
    # when there is no seed).
    for start in (seed, NEG_INF):
        solved = {}
        floor = start
        for i in order:
            satellite, inst = options[i]
            try:
                res = solver(inst) if floor == NEG_INF else solver(inst, floor)
            except (UnboundedDownloadError, BelowFloorError):
                continue
            solved[i] = PlanOption(satellite, inst.handoff_chunk, res)
            floor = max(floor, res.best_qoe)
        if solved or start == NEG_INF:
            return [solved[i] for i in sorted(solved)]


class SolveMemo:
    """Planning steps keyed by (solver, options): options(solver, options)
    returns solve_options(options, solver), and solves each step once.

    A step is a pure function of its solver and its (satellite,
    PlanInstance) options, so a stored step is the same as solving anew;
    the solver in the key keeps exhaustive and DP results apart, and each
    option's instance carries its start time. Callers pass the solver
    they read from their module at call time, so a patched solver is the
    one that runs. A memo keeps every step it solved for as long as it
    lives. The returned list is shared; callers do not modify it.

    Every controller plans through its memo. simulate_multi, which runs
    every session (run_session too), gives each scenario a fresh memo and
    hands it to all its controllers, so users that reach the same step
    (lockstep users, or one user in every assignment of a centralized
    search) solve it once. The memo a controller builds for itself
    serves only decide calls made outside a session.
    """

    __slots__ = ("_steps",)

    def __init__(self):
        self._steps: dict = {}

    def options(self, solver, options: list[tuple[int, PlanInstance]]) -> list[PlanOption]:
        key = (solver, tuple(options))
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = solve_options(options, solver)
        return step


@dataclass
class DecisionStats:
    inner_calls: int = 0
    chosen: PlanOption | None = None


class _PredictingController:
    """Shared prediction plumbing for the online controllers."""

    def __init__(self, video: VideoSpec, cfg: SimConfig, predictor: str, horizon: int):
        if predictor not in ("robust", "oracle"):
            raise PlanningError(f"unknown predictor {predictor!r}")
        self.video = video
        self.cfg = cfg
        self.predictor = predictor
        self.horizon = horizon
        self.bank = PredictorBank() if predictor == "robust" else None
        self.last_stats = DecisionStats()
        self.memo = SolveMemo()

    def observe_start(self, trace: TraceSet, state: PlayerState) -> None:
        """Start a session: forget the last session's observations. The
        memo stays: simulate_multi, which runs every session, gives each
        scenario a fresh memo before this call, and a memo keeps every
        step it solved, each the same as solving anew."""
        if self.bank is not None:
            self.bank = PredictorBank()
            self.bank.observe_epoch(trace, 0.0)

    def observe_chunk(self, trace: TraceSet, state: PlayerState, outcome) -> None:
        if self.bank is None:
            return
        transfer = outcome.download_time_s - self.cfg.rtt_s
        realized = (
            outcome.bitrate_mbps * self.video.chunk_duration_s / transfer
            if transfer > 0
            else 0.0
        )
        self.bank.observe_epoch(
            trace,
            state.wallclock_s,
            serving_sat=outcome.satellite_id,
            serving_actual_mbps=realized,
        )

    def _rank_window_s(self, chunks: int) -> float:
        return max(chunks, 1) * self.video.chunk_duration_s

    def _horizon_link(self, trace: TraceSet, t: float, sat: int, value: float) -> RateSeries:
        """Predicted link: the scalar forecast carried forward along the
        satellite's known pass, collapsing to the observation floor once
        the pass ends.

        Trajectories are deterministic, so two things are knowable ahead
        of time even though throughput itself is only estimated: when the
        satellite leaves visibility, and the inverse-square shape of the
        rate along the pass. The scalar sets the level; the geometry sets
        the trend. Hand-built traces without pass geometry fall back to a
        flat forecast over the visibility window. A pass with no known end
        (pass_end = inf) that stays visible to the end of the trace is
        forecast to the trace end, one rate per remaining sample; as in
        every RateSeries, the last rate then holds.

        Rate k is value * d(t_q)^2 / d(t_q + (k + 0.5) dt)^2, with d the
        slant range computed as slant_range computes it: the pass
        constants are read once and each sample keeps slant_range's float
        order, so the rates are those of calling it per sample.
        """
        dt = trace.sample_dt
        idx = trace.clamped_index(t)
        t_q = idx * dt
        remaining = remaining_visible_time(trace, sat, t)
        if remaining < math.inf:
            # Model the cliff one sample early: a download stranded past
            # the true edge stalls until the next pass, so the boundary
            # sample is never worth scheduling into.
            remaining -= dt
        if remaining <= 0.0:
            return RateSeries.constant(MIN_OBSERVED_MBPS)

        active = None
        for geom in trace.track(sat).passes:
            if geom.pass_start <= t_q <= geom.pass_end:
                active = geom
                break
        if active is None:
            if remaining == math.inf:
                return RateSeries.constant(value)
            return RateSeries(t_q, remaining, [value, MIN_OBSERVED_MBPS])

        if remaining < math.inf:
            n = max(int(remaining // dt), 1)
        elif active.pass_end < math.inf:
            n = max(1, int(math.ceil(max(active.pass_end - t_q, dt) / dt)))
        else:
            n = trace.n_samples - idx
        speed, t_ca = active.speed_kms, active.closest_approach_time
        d_min_sq = active.altitude_km**2 + active.cross_track_km**2
        sqrt = math.sqrt
        level = value * sqrt(d_min_sq + (speed * (t_q - t_ca)) ** 2) ** 2
        rates = [
            level / sqrt(d_min_sq + (speed * (t_q + (k + 0.5) * dt - t_ca)) ** 2) ** 2
            for k in range(n)
        ]
        if remaining < math.inf:
            rates.append(MIN_OBSERVED_MBPS)
        return RateSeries(t_q, dt, rates)

    def _predictions(
        self, trace: TraceSet, t: float, sats: list[int], chunks: int
    ) -> tuple[dict[int, RateSeries], dict[int, float]]:
        """Per-satellite predicted link and ranking scalar."""
        links: dict[int, RateSeries] = {}
        scalars: dict[int, float] = {}
        if self.predictor == "robust":
            for sat in sats:
                if not self.bank.has_history(sat):
                    self.bank.record(sat, trace.rate_at(sat, t), t)
                value = self.bank.predict(sat)
                scalars[sat] = value
                links[sat] = self._horizon_link(trace, t, sat, value)
        else:
            oracle = OracleProvider(trace)
            window = self._rank_window_s(chunks)
            for sat in sats:
                links[sat] = oracle.link(sat, t, max(window, trace.duration_s - t))
                scalars[sat] = oracle.scalar(sat, t, window)
        return links, scalars


class JointMpcController(_PredictingController):
    """Receding-horizon joint bitrate and handoff planner.

    mode selects the candidate rule (dual or manifold); every option is
    solved by the grid DP. One memo.options call (solve_options) takes the
    stay and every (candidate, handoff point) option best-first: the most
    promising option is solved above the best constant-rung plan's QoE
    and each later one above the best option found before it, if higher
    (the DP's floor), so an option that cannot win or tie is not solved
    in full, and a stay on a setting satellite can end below the floor a
    handoff sets. The decision always comes from that floored step. With
    dump_candidates each option is also asked as a lone set, which is
    solved in full, for candidates.csv, and the decision raises
    PlanningError unless the best of those is the floored choice, bit for
    bit. Only the first action of the winning horizon plan is executed; a
    handoff happens only when the winner switches before the immediate
    chunk.
    """

    def __init__(
        self,
        video: VideoSpec,
        cfg: SimConfig,
        mode: str = "dual",
        predictor: str = "robust",
        horizon: int = 5,
        dump_candidates: bool = False,
    ):
        super().__init__(video, cfg, predictor, horizon)
        if mode not in ("dual", "manifold"):
            raise PlanningError(f"unknown mode {mode!r}")
        self.mode = mode
        self.previous_satellite: int | None = None
        self._last_handoff_chunk: int | None = None
        self.dump_candidates = dump_candidates
        self.candidate_rows: list[tuple[int, int, int | None, float]] = []

    def observe_start(self, trace: TraceSet, state: PlayerState) -> None:
        super().observe_start(trace, state)
        self.previous_satellite = None
        self._last_handoff_chunk = None
        self.candidate_rows = []

    def record_handoff(self, state: PlayerState) -> None:
        """Note a handoff away from state's satellite, decided at its chunk."""
        self.previous_satellite = state.current_satellite
        self._last_handoff_chunk = state.chunk_index

    def plan_view(
        self, state: PlayerState, trace: TraceSet, visible: list[int], user_id: int = 0
    ) -> UserPlanView:
        """This user's planning inputs: predictions for every visible
        satellite and the current one, and the handoff candidates that
        self.mode admits after the no-bounce-back exclusion."""
        # The exclusion only guards against an immediate return: it lapses
        # once the satellite we left has set, or one full horizon after the
        # handoff. A permanent exclusion would strand the planner on a
        # dying satellite in two-satellite skies.
        prev = self.previous_satellite
        if prev is not None and (
            state.chunk_index - self._last_handoff_chunk >= self.horizon
            or prev not in visible
        ):
            self.previous_satellite = None
        chunks = min(self.horizon, self.video.n_chunks - state.chunk_index)
        cur = state.current_satellite
        links, scalars = self._predictions(
            trace, state.wallclock_s, sorted(set(visible) | {cur}), chunks
        )
        candidates = select_candidates(self.mode, visible, scalars, cur, self.previous_satellite)
        return UserPlanView(
            user_id=user_id,
            current_satellite=cur,
            stay=stay_instance(state, chunks, links[cur], self.video, self.cfg),
            targets={sat: links[sat] for sat in candidates},
        )

    def decide(self, state: PlayerState, trace: TraceSet) -> Decision:
        t = state.wallclock_s
        cur = state.current_satellite
        stats = self.last_stats = DecisionStats()
        visible = trace.visible_at(t)
        if not visible:
            return Decision(0, cur, False)
        view = self.plan_view(state, trace, visible)
        instances = [(cur, view.stay), *handoff_instances(view.stay, view.targets)]
        stats.inner_calls = len(instances)
        options = self.memo.options(f_sat_dpmpc, instances)
        stats.chosen = max(options, key=PlanOption.rank, default=None)
        if self.dump_candidates:
            self._dump_candidates(state.chunk_index, instances, stats.chosen)

        if stats.chosen is None:
            # Every plan diverged: limp along on the strongest visible signal.
            fallback = trace.strongest_visible(t)
            return Decision(0, fallback, fallback != cur)

        decision = stats.chosen.decision(cur)
        if decision.handoff_now:
            self.record_handoff(state)
        return decision

    def _dump_candidates(
        self, chunk: int, instances: list[tuple[int, PlanInstance]], chosen: PlanOption | None
    ) -> None:
        """Record every handoff option's exact QoE for candidates.csv, and
        check the floored choice against it.

        Each option is asked as a lone set, which is solved in full. The
        best of them by PlanOption.rank must be chosen, the option the
        floored step chose, in satellite, handoff point, QoE bits and plan;
        PlanningError is raised when it is not.
        """
        options = [o for option in instances for o in self.memo.options(f_sat_dpmpc, [option])]
        self.candidate_rows += [
            (chunk, o.satellite, o.handoff_chunk, o.result.best_qoe)
            for o in options
            if o.handoff_chunk is not None
        ]
        best = max(options, key=PlanOption.rank, default=None)
        if _signature(best) != _signature(chosen):
            raise PlanningError(
                f"chunk {chunk}: floored step chose {_signature(chosen)}, "
                f"options solved in full choose {_signature(best)}"
            )


def _signature(option: PlanOption | None) -> tuple | None:
    """An option's satellite, handoff point, QoE bits and plan."""
    if option is None:
        return None
    res = option.result
    return option.satellite, option.handoff_chunk, res.best_qoe.hex(), res.full_bitrate_plan


class SeparateController(_PredictingController):
    """Baseline: satellite picked by a handoff rule, bitrate by MPC on it."""

    def __init__(
        self,
        video: VideoSpec,
        cfg: SimConfig,
        strategy: str = "mb",
        predictor: str = "robust",
        horizon: int = 5,
    ):
        super().__init__(video, cfg, predictor, horizon)
        if strategy not in ("mvt", "mrss", "mb"):
            raise PlanningError(f"unknown handoff strategy {strategy!r}")
        self.strategy = strategy

    def decide(self, state: PlayerState, trace: TraceSet) -> Decision:
        t = state.wallclock_s
        cur = state.current_satellite
        sat = baseline_handoff(
            self.strategy, cur, trace, t, self.video.chunk_duration_s
        )
        chunks = min(self.horizon, self.video.n_chunks - state.chunk_index)
        links, _ = self._predictions(trace, t, [sat], chunks)
        stats = self.last_stats = DecisionStats(inner_calls=1)
        stay = stay_instance(state, chunks, links[sat], self.video, self.cfg)
        options = self.memo.options(f_mpc, [(sat, stay)])
        if not options:
            return Decision(0, sat, sat != cur)
        # The rule switches satellites before the first chunk, if at all.
        stats.chosen = PlanOption(sat, None if sat == cur else 1, options[0].result)
        return stats.chosen.decision(cur)


def _offline_incumbent(trace: TraceSet, video: VideoSpec, cfg: SimConfig) -> float:
    """offline_optimal_plan's floor: the QoE of a greedy plan, lowered by
    the bound's slack, or -inf when the greedy plan dead-ends.

    The rollout takes, chunk by chunk, the child with the highest QoE so
    far plus U[K - k - 1][rung] of chunk_scores (K chunks, this one k)
    over every visible satellite and rung, the first in ascending
    satellite and rung order on a tie. Each satellite's children come
    from _child_expander on a one-chunk instance that hands off at its
    first chunk when the satellite is not the current one, which is the
    offline DP's stage arithmetic up to rounding. That instance charges
    the switch from the start rung at chunk 0, which the offline DP does
    not, so the value is at most that of the plan it follows.
    """
    n_chunks = video.n_chunks
    ceiling = chunk_scores(video.bitrate_ladder_mbps, cfg.mu1, cfg.mu3, n_chunks)[2]
    series = {sat: RateSeries.for_satellite(trace, sat) for sat in trace.sat_ids}
    start = simcore.initial_state(trace, video, cfg)
    t, buf, q = start.wallclock_s, start.buffer_s, 0.0
    rung, sat = start.last_bitrate_idx, start.current_satellite
    for k in range(n_chunks):
        row = ceiling[n_chunks - k - 1]
        best = None
        for target in trace.visible_at(t):
            inst = PlanInstance(
                horizon=1, buffer_s=buf, last_bitrate_idx=rung, start_t=t,
                handoff_chunk=None if target == sat else 1, current_link=series[sat],
                target_link=series[target], video=video, sim=cfg,
            )
            for child in _child_expander(inst)(1, t, buf, rung, q):
                score = child[3] + row[child[0]]
                if best is None or score > best[0]:
                    best = (score, target, child)
        if best is None:
            return NEG_INF
        _, sat, (rung, t, buf, q) = best
    return q - 1e-9 * (abs(q) + 1.0)


def _offline_solve(
    trace: TraceSet, video: VideoSpec, cfg: SimConfig, floor: float
) -> list[dict] | None:
    """One pass of offline_optimal_plan's DP above floor: the stages, each
    a dict from (time cell, buffer cell, rung, satellite) to (QoE, exact
    time, exact buffer, parent key). None when a stage above a finite
    floor runs dry."""
    dt, rtt_s, mu2 = cfg.dt_s, cfg.rtt_s, cfg.mu2
    delay, chunk_s, max_buf = cfg.handoff_delay_s, video.chunk_duration_s, cfg.max_buffer_s
    sizes = video.chunk_sizes_mb
    n_rungs, n_chunks = len(sizes), video.n_chunks
    gain, switch, ceiling = chunk_scores(video.bitrate_ladder_mbps, cfg.mu1, cfg.mu3, n_chunks)
    no_switch = (0.0,) * n_rungs  # chunk 0 has no smoothness term
    by_sample: dict[int, list] = {}

    def visible(t: float) -> list[tuple[int, RateSeries]]:
        """(satellite, link) of every track visible at t's sample."""
        idx = trace.clamped_index(t)
        tracks = by_sample.get(idx)
        if tracks is None:
            tracks = by_sample[idx] = [
                (sat, RateSeries.for_satellite(trace, sat)) for sat in trace.visible_at(t)
            ]
        return tracks

    start = simcore.initial_state(trace, video, cfg)
    init_key = (
        int(start.wallclock_s / dt), int(start.buffer_s / dt),
        start.last_bitrate_idx, start.current_satellite,
    )
    stage = {init_key: (0.0, start.wallclock_s, start.buffer_s, None)}
    stages: list[dict] = []
    for k in range(n_chunks):
        items = stage.items()
        if k and floor > NEG_INF:
            row = ceiling[n_chunks - k]
            items = [
                (key, value) for key, value in items
                if value[0] + row[key[2]] + 1e-9 * (abs(value[0]) + abs(row[key[2]]) + 1.0)
                >= floor
            ]
            if not items:
                return None
        n_candidates = n_rungs * sum(len(visible(value[1])) for _, value in items)
        if n_candidates > MAX_OFFLINE_STAGE_CANDIDATES:
            raise PlanningError(
                f"offline search at chunk {k} would score {n_candidates} candidates, more "
                f"than {MAX_OFFLINE_STAGE_CANDIDATES}: sim.dt_s={dt!r} is too fine a grid "
                "to merge states; use a coarser dt_s"
            )
        new_stage: dict = {}
        get = new_stage.get
        for key, (q, t, buf, _) in items:
            sw = switch[key[2]] if k else no_switch
            for sat, link in visible(t):
                # A handoff starts the download, and ends the wait, delay
                # later; a delay of 0.0 leaves both as they are, bit for bit.
                d = delay if sat != key[3] else 0.0
                for rate_idx, wait in enumerate(piecewise_downloads(link, t + d, sizes, rtt_s)):
                    if wait is None:
                        break  # sizes ascend, so every larger rung is unbounded too
                    wait = wait + d
                    # settle_chunk, with the floats of its max(0.0, x) calls.
                    if wait > buf:
                        rebuf = wait - buf
                        new_buf = chunk_s
                    else:
                        rebuf = 0.0
                        new_buf = (buf - wait) + chunk_s
                    new_t = t + wait
                    if new_buf > max_buf:
                        new_t += new_buf - max_buf
                        new_buf = max_buf
                    new_q = ((q + gain[rate_idx]) - mu2 * rebuf) - sw[rate_idx]
                    new_key = (int(new_t / dt), int(new_buf / dt), rate_idx, sat)
                    cur = get(new_key)
                    if cur is None or new_q > cur[0] or (
                        new_q == cur[0] and (new_t, -new_buf, key) < (cur[1], -cur[2], cur[3])
                    ):
                        new_stage[new_key] = (new_q, new_t, new_buf, key)
        if not new_stage:
            if floor > NEG_INF:
                return None
            raise PlanningError(f"offline search dead-ended at chunk {k}")
        stages.append(new_stage)
        stage = new_stage
    return stages


def offline_optimal_plan(
    trace: TraceSet, video: VideoSpec, cfg: SimConfig
) -> tuple[list[Decision], float]:
    """Full-session DP over true throughput.

    State is (time index, buffer index, bitrate, satellite), the indices on
    the cfg.dt_s grid, with exact time/buffer carried along each kept path;
    handoffs (with delay) are allowed before any chunk. Returns the
    per-chunk decisions and the DP objective, which equals the realized
    session QoE of those decisions.

    Each chunk is one stage, a dict keyed by state (_offline_solve), the
    shape of f_sat_dpmpc's: each kept state makes one piecewise_downloads
    walk per track visible at its time's sample, and each child is
    settled (settle_chunk's branches, then the drain), scored, keyed and
    merged inline. A handoff starts the download at t + delay and waits
    w + delay; QoE is ((q + mu1*b) - mu2*rebuf) - mu3*|b - p|, with no
    smoothness term at chunk 0. Each key keeps the child with the highest
    QoE and, on an exact tie, the one with the earlier clock, then the
    fuller buffer, then the lower parent key, f_sat_dpmpc's rule. That
    order is total and does not depend on the order in which a stage
    lists its states or tracks. The final state is the max over
    (QoE,) + key.

    The solve is bounded by a floor, _offline_incumbent's greedy plan
    value. From chunk 1 on, a state at chunk k with QoE q and rung p is
    expanded only when q + U + 1e-9*(|q| + |U| + 1) >= floor, where U =
    U[K - k][p] of chunk_scores for the K - k chunks left; chunk 0 pays
    no switch, which U counts, so the one start state is always expanded.
    U bounds every continuation (mu2 >= 0) and the slack covers the
    rounding of the sums, so every state on the path of a plan scoring
    >= floor is expanded, with the values the unbounded DP gives it.
    Where a skipped state's child would have won a cell, the cell keeps
    a child that scores no more and so, like it, ends below floor on
    every continuation; such a child never outranks a state on the path
    of a plan scoring >= floor. With the merge's order-free rule, each
    cell on such a path keeps the unbounded DP's winner, so when the
    unbounded optimum reaches floor the bounded solve returns it,
    decisions and objective bit for bit, and when it does not, the
    bounded solve ends below floor. A grid merge can drop
    the greedy plan, so the optimum can fall below it; then, or when a
    bounded stage empties, the DP is solved again without the floor.
    Bounded, a README exp.json session takes ~2 ms on a 2-core x86
    host; the unbounded pass takes ~83 ms.
    """
    floor = _offline_incumbent(trace, video, cfg)
    stages = _offline_solve(trace, video, cfg, floor)
    if stages is None or max(value[0] for value in stages[-1].values()) < floor:
        stages = _offline_solve(trace, video, cfg, NEG_INF)
    last = stages[-1]
    key = max(last, key=lambda key: (last[key][0],) + key)
    best_q = last[key][0]

    path = []
    for stage in reversed(stages):
        path.append(key[2:])
        key = stage[key][3]
    path.reverse()

    decisions = []
    prev_sat = key[3]  # the start state's
    for rate_idx, sat_id in path:
        decisions.append(Decision(rate_idx, sat_id, sat_id != prev_sat))
        prev_sat = sat_id
    return decisions, best_q


class _Script:
    """A controller that plays a fixed list of decisions, one per chunk."""

    def __init__(self, decisions: list[Decision]):
        self.decide = lambda state, trace, plays=iter(decisions): next(plays)
        self.observe_start = self.observe_chunk = lambda *observed: None


def offline_optimal(trace: TraceSet, video: VideoSpec, cfg: SimConfig) -> QoEBreakdown:
    """Best achievable session QoE under full trace knowledge (DP, then replay)."""
    decisions, _ = offline_optimal_plan(trace, video, cfg)
    return simcore.run_session(trace, _Script(decisions), video, cfg).breakdown
