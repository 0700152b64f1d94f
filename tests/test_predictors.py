import numpy as np
import pytest

from leostream.predictors import (
    ErrorTracker,
    OracleProvider,
    PredictorBank,
    ThroughputHistory,
    harmonic_mean,
    observe,
    robust_predict,
)
from leostream.traces import SatelliteTrack, TraceSet

from conftest import make_flat_trace


def _history(values):
    h = ThroughputHistory()
    for v in values:
        h.append(v)
    return h


def test_harmonic_mean_constant():
    assert harmonic_mean([4.0] * 5) == pytest.approx(4.0)


def test_harmonic_mean_two_samples():
    assert harmonic_mean([2.0, 4.0]) == pytest.approx(2.0 / 0.75)


def test_harmonic_mean_empty():
    with pytest.raises(ValueError):
        harmonic_mean([])


def test_harmonic_mean_never_exceeds_arithmetic_mean():
    rng = np.random.default_rng(0)
    for _ in range(200):
        values = rng.uniform(0.05, 40.0, size=int(rng.integers(1, 6)))
        assert harmonic_mean(values) <= np.mean(values) + 1e-12


def test_robust_predict_no_errors_is_harmonic_mean():
    history = _history([4.0] * 5)
    assert robust_predict(history, ErrorTracker()) == pytest.approx(4.0)


def test_robust_predict_halves_under_unit_error():
    history = _history([4.0] * 5)
    errors = ErrorTracker()
    errors.record(1.0)
    assert robust_predict(history, errors) == pytest.approx(2.0)


def test_observe_records_relative_error():
    history = _history([4.0])
    errors = ErrorTracker()
    observe(history, errors, predicted_mbps=4.0, actual_mbps=2.0)
    assert errors.values() == [1.0]
    observe(history, errors, predicted_mbps=2.0, actual_mbps=2.0)
    assert errors.values() == [1.0, 0.0]


def test_windows_evict_oldest():
    history = ThroughputHistory()
    errors = ErrorTracker()
    for i in range(6):
        observe(history, errors, predicted_mbps=1.0, actual_mbps=float(i + 1))
    assert len(history) == 5
    assert history.values() == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert len(errors) == 5


def test_max_error_uses_window_only():
    errors = ErrorTracker()
    errors.record(9.0)
    for _ in range(5):
        errors.record(0.1)
    assert errors.max_error() == pytest.approx(0.1)


def test_history_timestamps_strictly_increase():
    history = ThroughputHistory()
    history.append(1.0, timestamp_s=0.0)
    with pytest.raises(ValueError):
        history.append(1.0, timestamp_s=0.0)


def test_conservatism_robust_below_harmonic_mean():
    rng = np.random.default_rng(1)
    for _ in range(500):
        history = _history(list(rng.uniform(0.05, 30.0, size=int(rng.integers(1, 6)))))
        errors = ErrorTracker()
        for _ in range(int(rng.integers(0, 6))):
            errors.record(float(rng.uniform(0.0, 3.0)))
        hm = harmonic_mean(history)
        rp = robust_predict(history, errors)
        assert rp <= hm + 1e-12
        if errors.max_error() == 0.0:
            assert rp == pytest.approx(hm)


def test_scale_equivariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        values = list(rng.uniform(0.5, 20.0, size=5))
        c = float(rng.uniform(0.1, 10.0))
        errs = list(rng.uniform(0.0, 2.0, size=3))
        e1, e2 = ErrorTracker(), ErrorTracker()
        for e in errs:
            e1.record(e)
            e2.record(e)
        assert harmonic_mean([c * v for v in values]) == pytest.approx(c * harmonic_mean(values))
        assert robust_predict(_history([c * v for v in values]), e1) == pytest.approx(
            c * robust_predict(_history(values), e2)
        )


def test_oracle_link_flat():
    trace = make_flat_trace([10.0], duration_s=60.0)
    link = OracleProvider(trace).link(0, 5.0, 10.0)
    assert np.all(link.rates == 10.0)


def test_oracle_link_exact_slice():
    trace = make_flat_trace([10.0, 4.0], duration_s=60.0)
    arr = trace.tracks[1].throughput_mbps
    link = OracleProvider(trace).link(1, 5.0, 10.0)
    assert (link.anchor_t, link.sample_dt) == (5.0, trace.sample_dt)
    assert np.array_equal(link.rates, arr[5:15])


def _ramp_trace(n=60):
    """One always-visible satellite whose sample i carries i + 1 Mbps."""
    track = SatelliteTrack(
        sat_id=0,
        passes=(),
        throughput_mbps=np.arange(1.0, n + 1.0),
        elevation_deg=np.full(n, 90.0),
        visible=np.ones(n, dtype=bool),
    )
    return TraceSet(sample_dt=1.0, tracks=(track,), meta={})


def test_oracle_link_clamps_at_trace_end():
    # A window past the trace end keeps the samples that exist; one that
    # starts past it keeps the last sample.
    trace = _ramp_trace()
    rates = trace.tracks[0].throughput_mbps
    oracle = OracleProvider(trace)
    tail = oracle.link(0, 55.0, 10.0)
    assert tail.anchor_t == 55.0 and np.array_equal(tail.rates, rates[55:])
    past = oracle.link(0, 70.0, 10.0)
    assert past.anchor_t == 59.0 and np.array_equal(past.rates, rates[59:])


def test_oracle_scalar_is_window_mean():
    oracle = OracleProvider(_ramp_trace())
    assert oracle.scalar(0, 10.0, 4.0) == np.mean([11.0, 12.0, 13.0, 14.0])
    assert oracle.scalar(0, 10.0, 4.0) == float(np.mean(oracle.link(0, 10.0, 4.0).rates))


def test_bank_rising_satellite_ignores_floor_poisoning():
    bank = PredictorBank()
    # A satellite observed from its pass edge: an early floor-level sample
    # would dominate the harmonic mean; the estimate should track the
    # recent level instead.
    for t, v in enumerate([0.005, 0.8, 1.6, 2.2, 2.6]):
        bank.record(0, v, float(t))
    assert bank.predict(0) > 1.0


def test_bank_requires_observations():
    bank = PredictorBank()
    with pytest.raises(ValueError):
        bank.predict(3)
