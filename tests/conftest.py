import time

import numpy as np
import pytest
from hypothesis import settings

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


@pytest.fixture(scope="session")
def video():
    return VideoSpec()


@pytest.fixture(scope="session")
def video6():
    return VideoSpec(bitrate_ladder_mbps=(0.3, 0.75, 1.2, 1.85, 2.85, 4.3))


@pytest.fixture(scope="session")
def sim_cfg():
    return SimConfig()
