import numpy as np
import pytest
from hypothesis import settings

from leostream.simcore import SimConfig, VideoSpec
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


@pytest.fixture(scope="session")
def video():
    return VideoSpec()


@pytest.fixture(scope="session")
def video6():
    return VideoSpec(bitrate_ladder_mbps=(0.3, 0.75, 1.2, 1.85, 2.85, 4.3))


@pytest.fixture(scope="session")
def sim_cfg():
    return SimConfig()
