import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leostream.simcore import (
    Decision,
    PlayerState,
    RateSeries,
    SimConfig,
    SimulationError,
    UnboundedDownloadError,
    VideoSpec,
    chunk_qoe,
    initial_state,
    piecewise_download,
    piecewise_downloads,
    qos,
    session_json,
    session_qoe,
    settle_chunk,
    step_chunk,
)
from leostream.traces import TraceSet

from conftest import make_flat_trace


def test_chunk_qoe_examples(sim_cfg):
    assert chunk_qoe(1.2, 2.85, 0.0, sim_cfg) == pytest.approx(2.85 - 1.65)
    assert chunk_qoe(0.3, 0.3, 0.0, sim_cfg) == pytest.approx(0.3)
    assert chunk_qoe(2.85, 2.85, 1.0, sim_cfg) == pytest.approx(2.85 - 4.3)


def _lookup_points(anchor, dt, n):
    """Before the anchor, every segment boundary, segment midpoints, past the end."""
    return (
        [anchor - 3.0 * dt, anchor - 0.25 * dt]
        + [anchor + i * dt for i in range(n + 1)]
        + [anchor + (i + 0.5) * dt for i in range(n)]
        + [anchor + (n + 10) * dt, 1e9]
    )


def _assert_lookups_match(series, rates, anchor, dt):
    last = len(rates) - 1
    for t in _lookup_points(anchor, dt, len(rates)):
        idx = min(max(int((t - anchor) / dt), 0), last)
        edge = math.inf if idx == last else anchor + (idx + 1) * dt
        rate, seg_end = series.rate_and_edge(t)
        assert type(rate) is float
        assert (rate, seg_end) == (float(rates[idx]), edge)


def test_rate_series_lookup_matches_array():
    anchor, dt = 2.0, 0.5
    rates = np.array([3.25, 0.0, 7.1, 1e-3, 4.4])
    series = RateSeries(anchor, dt, rates)
    _assert_lookups_match(series, rates, anchor, dt)
    # Boundaries are exact here: each opens its own segment.
    for i in range(len(rates) - 1):
        assert series.rate_and_edge(anchor + i * dt) == (float(rates[i]), anchor + (i + 1) * dt)
    assert series.rate_and_edge(anchor - 0.25 * dt) == (3.25, anchor + dt)
    assert series.rate_and_edge(anchor + 99.0) == (4.4, math.inf)

    scaled = series.scaled(0.37)
    _assert_lookups_match(scaled, rates * 0.37, anchor, dt)
    # Scaling builds a new series; the original keeps its values.
    _assert_lookups_match(series, rates, anchor, dt)


def test_rate_series_edge_always_after_t():
    # With this anchor, (edge - anchor) / dt rounds to 1.9999999999999998
    # at the end of segment 1: the raw index would return that edge again
    # and a segment walk would never advance.
    anchor = 0.9718553931256253
    series = RateSeries(anchor, 1.0, [5.0, 1.0, 4.0, 4.0])
    edge = anchor + 2 * 1.0
    assert int((edge - anchor) / 1.0) == 1
    assert series.rate_and_edge(edge) == (4.0, anchor + 3 * 1.0)
    # 5 Mb + 1 Mb in the first two seconds, then 2 Mb at 4 Mbps.
    assert piecewise_download(series, anchor, 8.0, 0.0) == pytest.approx(2.5)


def test_rate_series_single_sample_holds_forever():
    series = RateSeries(5.0, 1.0, [2])
    for t in (-10.0, 0.0, 5.0, 5.5, 6.0, 1e9):
        rate, seg_end = series.rate_and_edge(t)
        assert type(rate) is float
        assert (rate, seg_end) == (2.0, math.inf)
    assert RateSeries.constant(0.1).rate_and_edge(3.0) == (0.1, math.inf)


def test_rate_series_equality_is_by_value():
    series = RateSeries(5.0, 1.0, [2.0, 3.0])
    same = RateSeries(5.0, 1.0, np.array([2.0, 3.0]))
    assert series == same and hash(series) == hash(same)
    assert RateSeries.constant(4.0).scaled(0.5) == RateSeries.constant(2.0)
    for other in (
        RateSeries(5.0, 1.0, [2.0, 3.5]),
        RateSeries(5.0, 1.0, [2.0]),
        RateSeries(5.0, 2.0, [2.0, 3.0]),
        RateSeries(4.0, 1.0, [2.0, 3.0]),
    ):
        assert series != other
    assert series != (5.0, 1.0, [2.0, 3.0])
    assert len({series, same, RateSeries(5.0, 1.0, [2.0, 3.5])}) == 2


def test_download_time_flat(sim_cfg):
    trace = make_flat_trace([10.0], duration_s=60.0)
    # 2.85 Mbps x 2 s = 5.7 Mb at 10 Mbps, plus one 80 ms RTT.
    series = RateSeries.for_satellite(trace, 0)
    assert piecewise_download(series, 0.0, 5.7, sim_cfg.rtt_s) == pytest.approx(0.65)


def test_download_time_zero_size(sim_cfg):
    trace = make_flat_trace([10.0], duration_s=60.0)
    series = RateSeries.for_satellite(trace, 0)
    assert piecewise_download(series, 3.0, 0.0, sim_cfg.rtt_s) == sim_cfg.rtt_s


def test_download_time_piecewise():
    # 5 Mbps for the first second, then 20 Mbps: 10 Mb takes 1 + 5/20.
    series = RateSeries(0.0, 1.0, [5.0, 20.0])
    assert piecewise_download(series, 0.0, 10.0, 0.0) == pytest.approx(1.25)


def test_download_time_extrapolates_final_sample(sim_cfg):
    trace = make_flat_trace([4.0], duration_s=10.0)
    # 80 Mb needs 20 s at 4 Mbps; the 10 s trace's final rate extends.
    series = RateSeries.for_satellite(trace, 0)
    assert piecewise_download(series, 0.0, 80.0, sim_cfg.rtt_s) == pytest.approx(20.0 + 0.08)


def test_download_unbounded_error():
    series = RateSeries(0.0, 1.0, [5.0, 0.0])
    with pytest.raises(UnboundedDownloadError):
        piecewise_download(series, 0.0, 10.0, 0.0)


def test_download_skips_zero_segments_inside_trace():
    series = RateSeries(0.0, 1.0, [5.0, 0.0, 0.0, 5.0])
    # 7.5 Mb: 5 Mb in second 0, stall for two seconds, 2.5 Mb in second 3.
    assert piecewise_download(series, 0.0, 7.5, 0.0) == pytest.approx(3.5)


def _reference_download(series, start_t, size_mb, rtt_s):
    """One size, one plain segment walk; None where the transfer never ends."""
    t = start_t + rtt_s
    remaining = size_mb
    while True:
        rate, seg_end = series.rate_and_edge(t)
        if rate > 0:
            finish = t + remaining / rate
            if finish <= seg_end:
                return finish - start_t
            remaining = remaining - rate * (seg_end - t)
        elif seg_end == math.inf:
            return None
        t = seg_end


@st.composite
def _download_cases(draw):
    """Series with zero segments, optional zero tails, off-grid anchors,
    one-sample and scaled variants; starts before and after the anchor."""
    rates = draw(st.lists(st.just(0.0) | st.floats(0.05, 12.0), max_size=7))
    rates.append(draw(st.just(0.0) | st.floats(0.05, 12.0)))  # the tail
    series = RateSeries(
        draw(st.floats(-3.0, 3.0)), draw(st.sampled_from((0.3, 0.5, 1.0, 2.0))), rates
    )
    if draw(st.booleans()):
        series = series.scaled(draw(st.floats(0.1, 3.0)))
    sizes = sorted(draw(st.lists(st.floats(0.01, 30.0), min_size=1, max_size=6)))
    return series, draw(st.floats(-5.0, 12.0)), sizes, draw(st.sampled_from((0.0, 0.08)))


@settings(max_examples=300)
@given(_download_cases())
@example((RateSeries(0.4, 1.0, [3.0]), -2.0, [0.6, 1.5, 5.7], 0.08))
@example((RateSeries(0.0, 1.0, [5.0, 0.0, 0.0, 5.0, 0.0]), 0.5, [2.0, 7.5, 12.5, 13.0], 0.0))
def test_piecewise_downloads_matches_per_size_walk(case):
    series, start_t, sizes, rtt_s = case
    waits = piecewise_downloads(series, start_t, sizes, rtt_s)
    expected = [_reference_download(series, start_t, size, rtt_s) for size in sizes]
    assert waits == expected
    assert all(w is None or type(w) is float for w in waits)
    for size, wait in zip(sizes, waits):
        if wait is None:
            with pytest.raises(UnboundedDownloadError):
                piecewise_download(series, start_t, size, rtt_s)
        else:
            assert piecewise_download(series, start_t, size, rtt_s) == wait


class _CountingSeries(RateSeries):
    """A RateSeries that counts its rate_and_edge lookups."""

    lookups = 0

    def rate_and_edge(self, t):
        self.lookups += 1
        return super().rate_and_edge(t)


@st.composite
def _long_walk_cases(draw):
    """20-60 samples in runs of zeros and of positive rates, an optional
    zero tail, off-grid anchors; starts before the anchor, exactly on a
    sample edge or anywhere; 1-8 sizes large enough to cross many
    segments, with an equal pair at times."""
    n = draw(st.integers(20, 60))
    rates: list[float] = []
    while len(rates) < n:
        if draw(st.booleans()):
            rates += [0.0] * draw(st.integers(1, 6))
        else:
            rates += draw(st.lists(st.floats(0.05, 12.0), min_size=1, max_size=8))
    rates = rates[:n]
    if draw(st.booleans()):
        tail = draw(st.integers(1, 5))
        rates[-tail:] = [0.0] * tail
    anchor = draw(st.just(0.0) | st.floats(-3.0, 3.0))
    dt = draw(st.sampled_from((0.3, 0.5, 1.0, 2.0)))
    series = _CountingSeries(anchor, dt, rates)
    start_t = draw(
        st.floats(anchor - 5.0, anchor)  # before the anchor
        | st.integers(0, n).map(lambda j: anchor + j * dt)  # on an edge
        | st.floats(anchor, anchor + n * dt)
    )
    sizes = draw(st.lists(st.floats(0.01, 60.0), min_size=1, max_size=8))
    if len(sizes) > 1 and draw(st.booleans()):
        sizes[-1] = sizes[0]
    return series, start_t, sorted(sizes), draw(st.sampled_from((0.0, 0.08)))


@settings(max_examples=300)
@given(_long_walk_cases())
def test_piecewise_downloads_long_walks_match_per_size_walk_bits_and_lookups(case):
    series, start_t, sizes, rtt_s = case
    assert piecewise_downloads(series, start_t, [], rtt_s) == []
    series.lookups = 0
    waits = piecewise_downloads(series, start_t, sizes, rtt_s)
    walk_lookups = series.lookups
    expected = [_reference_download(series, start_t, size, rtt_s) for size in sizes]
    assert [None if w is None else w.hex() for w in waits] == [
        None if w is None else w.hex() for w in expected
    ]
    series.lookups = 0
    _reference_download(series, start_t, sizes[-1], rtt_s)
    assert walk_lookups == series.lookups


def test_video_spec_chunk_sizes_and_duration_check():
    video = VideoSpec(chunk_duration_s=1.5, bitrate_ladder_mbps=(0.3, 1.2, 2.85))
    assert video.chunk_sizes_mb == (0.3 * 1.5, 1.2 * 1.5, 2.85 * 1.5)
    assert [video.chunk_mb(i) for i in range(3)] == list(video.chunk_sizes_mb)
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(ValueError, match="chunk_duration_s"):
            VideoSpec(chunk_duration_s=bad)


def test_settle_chunk_cap_drain():
    rebuf, buf, drain = settle_chunk(59.5, 0.5, 2.0, 60.0)
    assert rebuf == 0.0
    assert buf == 60.0
    assert drain == pytest.approx(1.0)


def _state(buffer_s, chunk_index=1, sat=0, last_idx=0, wallclock=10.0):
    return PlayerState(
        chunk_index=chunk_index,
        wallclock_s=wallclock,
        buffer_s=buffer_s,
        last_bitrate_idx=last_idx,
        current_satellite=sat,
    )


def test_step_chunk_buffer_growth(video, sim_cfg):
    trace = make_flat_trace([10.0], duration_s=120.0)
    state, outcome = step_chunk(_state(8.0, last_idx=2), Decision(2, 0), trace, video, sim_cfg)
    assert outcome.rebuffer_s == 0.0
    assert outcome.download_time_s == pytest.approx(0.65)
    assert state.buffer_s == pytest.approx(9.35)


def test_step_chunk_rebuffer(video, sim_cfg):
    trace = make_flat_trace([10.0], duration_s=120.0)
    state, outcome = step_chunk(_state(0.1, last_idx=2), Decision(2, 0), trace, video, sim_cfg)
    assert outcome.rebuffer_s == pytest.approx(0.55)
    assert state.buffer_s == pytest.approx(2.0)


def test_step_chunk_handoff_delay(video, sim_cfg):
    trace = make_flat_trace([10.0, 10.0], duration_s=120.0)
    stay, oc_stay = step_chunk(_state(8.0, sat=0, last_idx=2), Decision(2, 0), trace, video, sim_cfg)
    move, oc_move = step_chunk(_state(8.0, sat=0, last_idx=2), Decision(2, 1, True), trace, video, sim_cfg)
    wait_stay = oc_stay.download_time_s
    wait_move = oc_move.download_time_s + sim_cfg.handoff_delay_s
    assert wait_move - wait_stay == pytest.approx(sim_cfg.handoff_delay_s)
    assert oc_move.rebuffer_s == 0.0
    assert move.buffer_s == pytest.approx(stay.buffer_s - sim_cfg.handoff_delay_s)


def test_step_chunk_validates_decision(video, sim_cfg):
    trace = make_flat_trace([10.0], duration_s=120.0)
    with pytest.raises(SimulationError):
        step_chunk(_state(5.0), Decision(9, 0), trace, video, sim_cfg)
    with pytest.raises(SimulationError):
        step_chunk(_state(5.0, sat=0), Decision(0, 0, True), trace, video, sim_cfg)


def test_step_chunk_rejects_satellite_switch_without_handoff(video, sim_cfg):
    # Moving to another satellite must pay the handoff delay and count as a
    # handoff; a decision that skips handoff_now is an error, not a free move.
    trace = make_flat_trace([10.0, 10.0], duration_s=120.0)
    with pytest.raises(SimulationError, match="handoff_now"):
        step_chunk(_state(5.0, sat=0), Decision(1, 1, False), trace, video, sim_cfg)


def test_first_chunk_has_no_smoothness_penalty(video, sim_cfg):
    trace = make_flat_trace([10.0], duration_s=120.0)
    state = _state(0.0, chunk_index=0, last_idx=0, wallclock=0.0)
    _, outcome = step_chunk(state, Decision(2, 0), trace, video, sim_cfg)
    assert outcome.qoe_smooth_penalty == 0.0


def _random_session(rng, video, sim_cfg, n_chunks=None):
    rates = rng.uniform(1.0, 20.0, size=3)
    trace = make_flat_trace(rates, duration_s=600.0)
    state = initial_state(trace, video, sim_cfg)
    outcomes = []
    n = n_chunks or video.n_chunks
    for _ in range(n):
        idx = int(rng.integers(0, len(video.bitrate_ladder_mbps)))
        sat = int(rng.integers(0, 3))
        handoff = sat != state.current_satellite
        state, outcome = step_chunk(
            state, Decision(idx, sat, handoff), trace, video, sim_cfg
        )
        outcomes.append(outcome)
    return state, outcomes


def test_session_qoe_single_chunk(video, sim_cfg):
    trace = make_flat_trace([10.0], duration_s=60.0)
    state = initial_state(trace, video, sim_cfg)
    state, outcome = step_chunk(state, Decision(0, 0), trace, video, sim_cfg)
    breakdown = session_qoe([outcome], sim_cfg)
    # One chunk at 0.3 Mbps with the startup stall charged.
    assert breakdown.quality_total == pytest.approx(0.3)
    assert breakdown.qoe_total == pytest.approx(
        0.3 - sim_cfg.mu2 * outcome.rebuffer_s
    )


def test_session_qoe_two_chunks_no_smoothness(video, sim_cfg):
    trace = make_flat_trace([50.0], duration_s=60.0)
    state = _state(10.0, chunk_index=0, last_idx=2, wallclock=0.0)
    outcomes = []
    for _ in range(2):
        state, outcome = step_chunk(state, Decision(2, 0), trace, video, sim_cfg)
        outcomes.append(outcome)
    breakdown = session_qoe(outcomes, sim_cfg)
    assert breakdown.qoe_total == pytest.approx(5.7)


def test_handoff_count_counts_handoff_chunks(video, sim_cfg):
    trace = make_flat_trace([10.0, 10.0], duration_s=60.0)
    state = initial_state(trace, video, sim_cfg)
    outcomes = []
    for sat, handoff in ((0, False), (1, True), (1, False), (0, True)):
        state, outcome = step_chunk(state, Decision(1, sat, handoff), trace, video, sim_cfg)
        outcomes.append(outcome)
    assert session_qoe(outcomes, sim_cfg).handoff_count == 2


def test_session_qoe_rejects_gaps(video, sim_cfg):
    rng = np.random.default_rng(0)
    _, outcomes = _random_session(rng, video, sim_cfg, n_chunks=5)
    with pytest.raises(SimulationError):
        session_qoe([outcomes[0], outcomes[2]], sim_cfg)


def test_breakdown_identity_random_sessions(video, sim_cfg):
    rng = np.random.default_rng(42)
    for _ in range(25):
        _, outcomes = _random_session(rng, video, sim_cfg, n_chunks=12)
        b = session_qoe(outcomes, sim_cfg)
        assert abs(
            b.qoe_total - (b.quality_total - b.rebuf_penalty_total - b.smooth_penalty_total)
        ) < 1e-9


def test_buffer_bounds_and_rebuffer_consistency(video, sim_cfg):
    rng = np.random.default_rng(7)
    trace = make_flat_trace([3.0], duration_s=600.0)
    state = initial_state(trace, video, sim_cfg)
    for _ in range(video.n_chunks):
        idx = int(rng.integers(0, 3))
        prev_buffer = state.buffer_s
        state, outcome = step_chunk(state, Decision(idx, 0), trace, video, sim_cfg)
        assert 0.0 <= state.buffer_s <= sim_cfg.max_buffer_s
        if outcome.rebuffer_s > 0:
            wait = outcome.download_time_s
            assert wait > prev_buffer  # the buffer fully drained


def test_time_conservation(video, sim_cfg):
    rng = np.random.default_rng(3)
    state, outcomes = _random_session(rng, video, sim_cfg, n_chunks=20)
    total = sum(
        oc.download_time_s
        + (sim_cfg.handoff_delay_s if oc.handoff_performed else 0.0)
        + oc.drain_s
        for oc in outcomes
    )
    assert state.wallclock_s == pytest.approx(total, abs=1e-9)
    assert state.rebuffer_total_s == pytest.approx(
        sum(oc.rebuffer_s for oc in outcomes), abs=1e-12
    )


def test_qos():
    assert qos([1.0]) == 1.0
    assert qos([1.0, 3.0]) == 2.0
    assert qos([3.0, 1.0, 2.0]) == qos([2.0, 3.0, 1.0])
    with pytest.raises(ValueError):
        qos([])


def test_initial_state_picks_best_visible(video, sim_cfg):
    trace = make_flat_trace([4.0, 9.0, 6.0], duration_s=60.0)
    state = initial_state(trace, video, sim_cfg)
    assert state.current_satellite == 1
    assert state.buffer_s == 0.0
    assert state.last_bitrate_idx == 0


def test_initial_state_breaks_a_rate_tie_on_the_lowest_id(video, sim_cfg):
    # Tracks out of id order: the tie goes to id 1, not to the first track.
    flat = make_flat_trace([5.0, 5.0], duration_s=60.0)
    trace = TraceSet(flat.sample_dt, tuple(
        dataclasses.replace(tr, sat_id=sat) for tr, sat in zip(flat.tracks, (3, 1))
    ))
    assert initial_state(trace, video, sim_cfg).current_satellite == 1


def test_session_json_nine_significant_digits(video, sim_cfg):
    rng = np.random.default_rng(5)
    _, outcomes = _random_session(rng, video, sim_cfg, n_chunks=4)
    payload = session_json(session_qoe(outcomes, sim_cfg), video, sim_cfg)
    value = payload["chunks"][0]["download_time_s"]
    assert value == float(f"{value:.9g}")
    assert payload["totals"]["qoe"] == float(f"{payload['totals']['qoe']:.9g}")
