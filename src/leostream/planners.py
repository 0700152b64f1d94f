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

import numpy as np

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
    piecewise_downloads_many,
    settle_chunk,
)
from .traces import TraceSet, remaining_visible_time, slant_range

NEG_INF = float("-inf")


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
    """Child expansion shared by the exhaustive search and the DP.

    Returns expand(n, t, buf, prev, total): every bounded child of a
    node at horizon chunk n (1-based) as (rung, new_t, new_buf, q) in
    ascending rung order. It scores each rung as _chunk_wait,
    settle_chunk and chunk_qoe would, bit for bit: the waits of the
    whole ladder come from one piecewise_downloads walk (the handoff
    chunk adds the delay to the start and to the result, as _chunk_wait
    does), mu1*b and mu3*|b - p| come from chunk_scores, and q keeps
    chunk_qoe's association, total + ((mu1*b - mu2*rebuf) - mu3*|b - p|).
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
    """
    dt = inst.sim.dt_s
    expand = _child_expander(inst)
    ceiling = _scores(inst)[2]
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

    for n in range(1, inst.horizon + 1):
        new_stage: dict = {}
        ceiling_row = ceiling[inst.horizon - n + 1]
        for key, (q, t, buf, _) in stage.items():
            u = ceiling_row[key[2]]
            if q + u + 1e-9 * (abs(q) + abs(u) + 1.0) < floor:
                skipped = True
                continue
            for rate_idx, new_t, new_buf, new_q in expand(n, t, buf, key[2], q):
                new_key = (int(new_t / dt), int(new_buf / dt), rate_idx)
                cur = new_stage.get(new_key)
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
        flat forecast over the visibility window.
        """
        dt = trace.sample_dt
        t_q = trace.clamped_index(t) * trace.sample_dt
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
        else:
            n = max(1, int(math.ceil(max(active.pass_end - t_q, dt) / dt)))
        d_now_sq = slant_range(active, t_q) ** 2
        rates = [
            value * d_now_sq / slant_range(active, t_q + (k + 0.5) * dt) ** 2
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
    handoff sets. With
    dump_candidates each option is asked as a lone set, which is solved
    in full. Only the first action of the winning horizon plan is
    executed; a handoff happens only when the winner switches before the
    immediate chunk.
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
        if self.dump_candidates:
            # candidates.csv lists every option's exact QoE: each option is
            # a lone set, and a lone option is solved in full.
            options = [
                o for option in instances for o in self.memo.options(f_sat_dpmpc, [option])
            ]
            self.candidate_rows += [
                (state.chunk_index, o.satellite, o.handoff_chunk, o.result.best_qoe)
                for o in options
                if o.handoff_chunk is not None
            ]
        else:
            options = self.memo.options(f_sat_dpmpc, instances)

        if not options:
            # Every plan diverged: limp along on the strongest visible signal.
            fallback = trace.strongest_visible(t)
            return Decision(0, fallback, fallback != cur)

        stats.chosen = max(options, key=PlanOption.rank)
        decision = stats.chosen.decision(cur)
        if decision.handoff_now:
            self.record_handoff(state)
        return decision


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


def offline_optimal_plan(
    trace: TraceSet, video: VideoSpec, cfg: SimConfig
) -> tuple[list[Decision], float]:
    """Full-session DP over true throughput.

    State is (time index, buffer index, bitrate, satellite), the indices on
    the cfg.dt_s grid, with exact time/buffer carried along each kept path;
    handoffs (with delay) are allowed before any chunk. Returns the
    per-chunk decisions and the DP objective, which equals the realized
    session QoE of those decisions.

    Each chunk is one numpy stage over (state x satellite x rung): the
    waits come from one piecewise_downloads_many walk per satellite, and
    the candidates, laid out in stage order, then track order, then
    ascending rung, are settled and scored elementwise with the scalar
    DP's floats. The merge keeps the tie rules of a dict filled in that
    order: a key keeps its first candidate with the highest QoE (a later
    one replaces it only on a strictly greater value), and the new stage
    lists keys by their first candidate. The final state is the max over
    (QoE,) + key. This first-candidate rule is not f_sat_dpmpc's tie
    rule, which does not depend on stage order.
    """
    dt = cfg.dt_s
    sizes = video.chunk_sizes_mb
    n_rungs = len(sizes)
    gain, switch, _ = chunk_scores(video.bitrate_ladder_mbps, cfg.mu1, cfg.mu3, 0)
    gain, switch = np.asarray(gain), np.asarray(switch)  # switch[prev, rung]
    delay, chunk_s, max_buf = cfg.handoff_delay_s, video.chunk_duration_s, cfg.max_buffer_s
    sat_ids = np.array(trace.sat_ids)
    series = [RateSeries.for_satellite(trace, sat) for sat in trace.sat_ids]
    n_sats = len(series)
    n_cells = n_sats * n_rungs
    last_sample = trace.n_samples - 1
    start = simcore.initial_state(trace, video, cfg)

    def expand(k, q, t, buf, rung, sat):
        """Stage k: every bounded (state, track, rung) candidate, merged by
        key. Returns the new stage's QoE, time, buffer, rung and satellite
        id, and each new state's parent index. Works in place where it
        can: the candidate arrays dominate the DP's memory."""
        # clamped_index of every state's time, then the visible tracks.
        sample = np.clip(t / trace.sample_dt, 0, last_sample).astype(np.int64)
        visible = trace.visibility[:, sample]
        waits = np.full((len(q), n_sats, n_rungs), np.nan)
        for col in range(n_sats):
            states = np.flatnonzero(visible[col])
            if not states.size:
                continue
            handoff = sat[states] != sat_ids[col]
            starts = np.where(handoff, t[states] + delay, t[states])
            dls = piecewise_downloads_many(series[col], starts, sizes, cfg.rtt_s)
            waits[states, col] = np.where(handoff[:, None], delay + dls, dls)
        waits = waits.ravel()
        pos = np.flatnonzero(~np.isnan(waits))  # NaN: unbounded or not visible
        if not pos.size:
            raise PlanningError(f"offline search dead-ended at chunk {k}")
        wait = waits[pos]
        parent, cell = np.divmod(pos, n_cells)  # cell: track row * n_rungs + rung
        del waits, pos
        new_rung = cell % n_rungs
        new_t = t[parent]
        new_t += wait
        # settle_chunk, with the floats of its max(0.0, x) calls.
        new_buf = buf[parent]
        new_buf -= wait
        new_buf[~(new_buf > 0.0)] = 0.0
        rebuf = wait  # in place: wait is not needed again
        rebuf -= buf[parent]
        rebuf[~(rebuf > 0.0)] = 0.0
        new_buf += chunk_s
        over = new_buf > max_buf
        new_t[over] += new_buf[over] - max_buf
        new_buf[over] = max_buf
        new_q = q[parent]
        new_q += gain[new_rung]
        rebuf *= cfg.mu2
        new_q -= rebuf
        del rebuf
        if k:  # chunk 0 has no smoothness term
            new_q -= switch[rung[parent], new_rung]

        # The scalar key (int(t/dt), int(buf/dt), rung, satellite), with the
        # cell standing for (rung, satellite). Integer-valued floats compare
        # exactly as those ints do, whatever their size. lexsort is stable,
        # so each key's rows run best QoE first, ties in candidate order:
        # the first row is the candidate the scalar merge keeps.
        kt, kb = np.trunc(new_t / dt), np.trunc(new_buf / dt)
        order = np.lexsort((-new_q, cell, kb, kt))
        kt, kb, key_cell = kt[order], kb[order], cell[order]
        first = np.flatnonzero(np.r_[
            True, (kt[1:] != kt[:-1]) | (kb[1:] != kb[:-1]) | (key_cell[1:] != key_cell[:-1])
        ])
        del kt, kb, key_cell
        # Winners listed by the first candidate of their key.
        keep = order[first][np.argsort(np.minimum.reduceat(order, first))]
        return (
            new_q[keep], new_t[keep], new_buf[keep], new_rung[keep],
            sat_ids[cell[keep] // n_rungs], parent[keep],
        )

    q, t, buf = np.zeros(1), np.zeros(1), np.zeros(1)
    rung = np.array([start.last_bitrate_idx])
    sat = np.array([start.current_satellite])
    back: list[tuple] = []  # per stage: rung, satellite and parent of each state
    for k in range(video.n_chunks):
        q, t, buf, rung, sat, parent = expand(k, q, t, buf, rung, sat)
        back.append((rung, sat, parent))

    best = int(np.lexsort((sat, rung, np.trunc(buf / dt), np.trunc(t / dt), q))[-1])
    best_q = float(q[best])

    path = []
    for rungs, sats, parents in reversed(back):
        path.append((int(rungs[best]), int(sats[best])))
        best = parents[best]
    path.reverse()

    decisions = []
    prev_sat = start.current_satellite
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
