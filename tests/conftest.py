import math
import time

import numpy as np
import pytest
from hypothesis import settings

from leostream import planners
from leostream.simcore import (
    SessionResult,
    SimConfig,
    VideoSpec,
    initial_state,
    session_qoe,
    step_chunk,
)
from leostream.traces import SatelliteTrack, TraceGenConfig, TraceSet, gen_trace_set

# Frozen contention-suite parameters: two satellites with crossing ~65 s
# passes so a 49-chunk session spans one to two seams, and a peak rate
# low enough that three users sharing one satellite cannot all stream the
# top ladder rung.
SUITE_KWARGS = dict(
    alpha=1.0,
    b_max_mbps=8.0,
    duration_s=400.0,
    n_satellites=2,
    min_elevation_deg=45.0,
    altitude_km=250.0,
    speed_kms=7.6,
)
SUITE_SEEDS = tuple(range(20))

# Property tests draw the same examples on every run and never time out on
# a slow host; no example database is written.
settings.register_profile("leostream", derandomize=True, deadline=None, database=None)
settings.load_profile("leostream")


def make_flat_trace(rates_mbps, duration_s=200.0, sample_dt=1.0, visible=None):
    """Hand-built trace: constant per-satellite rates, full visibility."""
    n = int(round(duration_s / sample_dt))
    tracks = []
    for sat_id, rate in enumerate(rates_mbps):
        vis = np.ones(n, dtype=bool) if visible is None else np.asarray(visible[sat_id], dtype=bool)
        thr = np.where(vis, float(rate), 0.0)
        tracks.append(
            SatelliteTrack(
                sat_id=sat_id,
                passes=(),
                throughput_mbps=thr,
                elevation_deg=np.where(vis, 90.0, 0.0),
                visible=vis,
            )
        )
    return TraceSet(sample_dt=sample_dt, tracks=tuple(tracks), meta={})


def reference_clamped_index(trace: TraceSet, t: float) -> int:
    """TraceSet.clamped_index as one expression over the track length."""
    return max(0, min(int(t / trace.sample_dt), len(trace.tracks[0].throughput_mbps) - 1))


def reference_visible_at(trace: TraceSet, t: float) -> list[int]:
    """TraceSet.visible_at read from a (satellites x samples) visibility
    matrix per call: the reference for its per-sample table."""
    visibility = np.array([np.asarray(tr.visible, dtype=bool) for tr in trace.tracks])
    column = visibility[:, reference_clamped_index(trace, t)]
    return sorted(tr.sat_id for row, tr in enumerate(trace.tracks) if column[row])


def reference_rate_at(trace: TraceSet, sat_id: int, t: float) -> float:
    """TraceSet.rate_at read from the track's numpy array per call."""
    return float(trace.track(sat_id).throughput_mbps[reference_clamped_index(trace, t)])


def reference_remaining_visible_time(trace: TraceSet, sat_id: int, t: float) -> float:
    """traces.remaining_visible_time as a numpy scan from t's sample on:
    the reference for its per-satellite run-end table."""
    tr = trace.track(sat_id)
    idx = reference_clamped_index(trace, t)
    if not tr.visible[idx]:
        return 0.0
    invisible_after = np.nonzero(~tr.visible[idx:])[0]
    if len(invisible_after) == 0:
        return math.inf
    end_t = (idx + int(invisible_after[0])) * trace.sample_dt
    return end_t - idx * trace.sample_dt


def suite_trace(seed: int) -> TraceSet:
    return gen_trace_set(TraceGenConfig(seed=seed, **SUITE_KWARGS))


def reference_session(trace, controller, video, cfg) -> SessionResult:
    """One session stepped chunk by chunk through step_chunk, with no event
    loop: the reference the one-user runs of simulate_multi must equal.
    A failed session raises the controller's or step_chunk's exception."""
    state = initial_state(trace, video, cfg)
    controller.observe_start(trace, state)
    outcomes = []
    decisions = []
    latencies = []
    for _ in range(video.n_chunks):
        t0 = time.perf_counter()
        decision = controller.decide(state, trace)
        latencies.append(time.perf_counter() - t0)
        state, outcome = step_chunk(state, decision, trace, video, cfg)
        controller.observe_chunk(trace, state, outcome)
        outcomes.append(outcome)
        decisions.append(decision)
    return SessionResult(
        breakdown=session_qoe(outcomes, cfg),
        decisions=tuple(decisions),
        decision_latencies_s=tuple(latencies),
    )


def step_seed(options) -> float:
    """The floor solve_options starts a step at: the best constant-rung
    plan's QoE when the step has more than one option, else -inf."""
    if len(options) < 2:
        return -math.inf
    return max(planners._incumbent(inst) for _, inst in options)


def assert_best_first_floors(solves, n_options, seed):
    """Check the floors of one solve_options step against its contract.

    solves lists each solve as (floor, QoE), in solve order, with QoE None
    when the solve found no plan. Each of the n_options options is solved
    once above the higher of seed and the best QoE found before it. When
    seed is finite and no option reaches it, the step is solved once more
    from -inf.
    """
    starts = [seed]
    if seed > -math.inf and all(qoe is None for _, qoe in solves[:n_options]):
        starts.append(-math.inf)
    assert len(solves) == n_options * len(starts)
    for k, best in enumerate(starts):
        for floor, qoe in solves[k * n_options:(k + 1) * n_options]:
            assert floor == best
            if qoe is not None:
                best = max(best, qoe)


@pytest.fixture(scope="session")
def video():
    return VideoSpec()


@pytest.fixture(scope="session")
def video6():
    return VideoSpec(bitrate_ladder_mbps=(0.3, 0.75, 1.2, 1.85, 2.85, 4.3))


@pytest.fixture(scope="session")
def sim_cfg():
    return SimConfig()
