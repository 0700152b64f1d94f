import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leostream.traces import (
    PassGeometry,
    SatelliteTrack,
    TraceError,
    TraceFormatError,
    TraceGenConfig,
    TraceSet,
    elevation_deg,
    free_space_throughput,
    gen_trace_set,
    inject_obstructions,
    read_trace,
    remaining_visible_time,
    slant_range,
    write_trace,
)

from conftest import (
    make_flat_trace,
    reference_clamped_index,
    reference_rate_at,
    reference_remaining_visible_time,
    reference_visible_at,
)


def test_slant_range_at_closest_approach():
    geom = PassGeometry(closest_approach_time=100.0, altitude_km=550.0, cross_track_km=0.0)
    assert slant_range(geom, 100.0) == pytest.approx(550.0)


def test_slant_range_along_track():
    # Oracle: direct evaluation of the chord distance 100 s after closest
    # approach at 7.6 km/s.
    geom = PassGeometry(closest_approach_time=0.0, altitude_km=550.0,
                        cross_track_km=0.0, speed_kms=7.6)
    expected = math.sqrt(550.0**2 + 760.0**2)
    assert slant_range(geom, 100.0) == pytest.approx(expected, rel=1e-12)


def test_slant_range_symmetry():
    geom = PassGeometry(closest_approach_time=50.0, altitude_km=550.0,
                        cross_track_km=120.0, speed_kms=7.6)
    for dt in (0.5, 3.0, 17.2, 80.0):
        assert slant_range(geom, 50.0 + dt) == pytest.approx(slant_range(geom, 50.0 - dt))


def test_free_space_peak_value():
    cfg = TraceGenConfig(alpha=1.0, b_max_mbps=20.0)
    geom = PassGeometry(closest_approach_time=0.0, altitude_km=550.0)
    assert free_space_throughput(geom, 0.0, cfg, noise=0.0) == pytest.approx(20.0)


def test_free_space_double_distance():
    # d_t = 2 * d_min when the along-track leg is sqrt(3) * d_min.
    cfg = TraceGenConfig(alpha=0.5, b_max_mbps=20.0)
    geom = PassGeometry(closest_approach_time=0.0, altitude_km=550.0, speed_kms=7.6)
    t = math.sqrt(3.0) * 550.0 / 7.6
    assert slant_range(geom, t) == pytest.approx(2 * 550.0)
    assert free_space_throughput(geom, t, cfg, noise=0.0) == pytest.approx(0.5 * 20.0 / 4.0)


def test_free_space_clamps_at_zero():
    cfg = TraceGenConfig(alpha=1.0, b_max_mbps=1.0)
    geom = PassGeometry(closest_approach_time=0.0, altitude_km=550.0)
    assert free_space_throughput(geom, 0.0, cfg, noise=-2.0) == 0.0


def test_elevation_at_closest_approach_overhead():
    geom = PassGeometry(closest_approach_time=0.0, altitude_km=550.0, cross_track_km=0.0)
    assert elevation_deg(geom, 0.0) == pytest.approx(90.0)


def test_gen_coverage_two_satellites():
    trace = gen_trace_set(TraceGenConfig(n_satellites=2, duration_s=240.0, seed=4))
    covered = np.zeros(trace.n_samples, dtype=bool)
    for tr in trace.tracks:
        covered |= tr.visible
    assert covered.all()


def test_gen_determinism_identical_bytes(tmp_path):
    cfg = TraceGenConfig(n_satellites=2, duration_s=120.0, seed=11)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(gen_trace_set(cfg), a)
    write_trace(gen_trace_set(cfg), b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()


def test_gen_seed_changes_noise():
    t1 = gen_trace_set(TraceGenConfig(n_satellites=2, duration_s=120.0, seed=1))
    t2 = gen_trace_set(TraceGenConfig(n_satellites=2, duration_s=120.0, seed=2))
    assert not np.array_equal(t1.tracks[0].throughput_mbps, t2.tracks[0].throughput_mbps)


def test_noiseless_monotone_and_peak_within_pass():
    cfg = TraceGenConfig(n_satellites=2, duration_s=300.0, seed=5,
                         noise_mean=0.0, noise_std=0.0)
    trace = gen_trace_set(cfg)
    mid = (np.arange(trace.n_samples) + 0.5) * trace.sample_dt
    for tr in trace.tracks:
        for geom in tr.passes:
            in_pass = (mid >= geom.pass_start) & (mid <= geom.pass_end)
            idx = np.nonzero(in_pass & tr.visible)[0]
            if len(idx) < 3:
                continue
            thr = tr.throughput_mbps[idx]
            dist = np.abs(mid[idx] - geom.closest_approach_time)
            order = np.argsort(dist)
            # Non-increasing in distance from closest approach.
            assert np.all(np.diff(thr[order]) <= 1e-9)
            # The peak sits at the sample containing the closest approach.
            peak_idx = int(geom.closest_approach_time / trace.sample_dt)
            if 0 <= peak_idx < trace.n_samples and tr.visible[peak_idx]:
                assert tr.throughput_mbps[peak_idx] == thr.max()


def test_visible_implies_elevation_at_least_mask():
    cfg = TraceGenConfig(n_satellites=3, duration_s=300.0, seed=9)
    trace = gen_trace_set(cfg)
    for tr in trace.tracks:
        assert np.all(tr.elevation_deg[tr.visible] >= cfg.min_elevation_deg)
        assert np.all(tr.throughput_mbps[~tr.visible] == 0.0)


def test_gen_rejects_bad_config():
    with pytest.raises(TraceError):
        TraceGenConfig(b_max_mbps=0.0)
    with pytest.raises(TraceError):
        TraceGenConfig(min_elevation_deg=95.0)
    with pytest.raises(TraceError):
        TraceGenConfig(pass_overlap_frac=1.0)
    # Heavy overlap forces a satellite's consecutive passes to collide
    # once the schedule wraps around the constellation.
    with pytest.raises(TraceError, match="self-overlap"):
        gen_trace_set(
            TraceGenConfig(n_satellites=2, duration_s=2000.0, pass_overlap_frac=0.9)
        )


@pytest.mark.parametrize("name, value", [
    *[(name, math.nan) for name in (
        "alpha", "noise_mean", "b_max_mbps", "noise_std", "sample_dt", "duration_s",
        "altitude_km", "speed_kms", "min_elevation_deg", "pass_overlap_frac",
    )],
    ("alpha", math.inf),
    ("b_max_mbps", math.inf),
    ("duration_s", math.inf),
    ("noise_std", -1.0),
])
def test_gen_rejects_non_finite_setting(name, value):
    with pytest.raises(TraceError, match=name):
        TraceGenConfig(**{name: value})


def test_obstruction_empty_windows_is_identity():
    trace = make_flat_trace([20.0], duration_s=60.0)
    assert inject_obstructions(trace, []) == trace


def test_obstruction_clamps_window():
    trace = make_flat_trace([20.0], duration_s=60.0)
    out = inject_obstructions(trace, [(0, 15.0, 40.0)])
    thr = out.tracks[0].throughput_mbps
    starts = np.arange(60) * 1.0
    window = (starts >= 15.0) & (starts < 40.0)
    assert np.all(thr[window] == 0.1)
    assert np.all(thr[~window] == 20.0)


def test_obstruction_flagging_threshold():
    trace = make_flat_trace([20.0], duration_s=60.0)
    out = inject_obstructions(trace, [(0, 5.0, 17.0), (0, 30.0, 35.0)])
    flags = {(o["start_s"], o["end_s"]): o["flagged"] for o in out.meta["obstructions"]}
    assert flags[(5.0, 17.0)] is True   # 12 s
    assert flags[(30.0, 35.0)] is False  # 5 s


def test_obstruction_unknown_satellite():
    trace = make_flat_trace([20.0], duration_s=60.0)
    with pytest.raises(TraceError):
        inject_obstructions(trace, [(7, 0.0, 5.0)])


def test_visible_satellites_and_gaps():
    vis0 = np.zeros(60, dtype=bool)
    vis0[:30] = True
    vis1 = np.zeros(60, dtype=bool)
    vis1[25:55] = True
    trace = make_flat_trace([5.0, 5.0], duration_s=60.0, visible=[vis0, vis1])
    assert trace.visible_at(10.0) == [0]
    assert trace.visible_at(27.0) == [0, 1]
    assert trace.visible_at(57.0) == []
    # Out-of-range times clamp to the first and last sample.
    assert trace.visible_at(60.0) == trace.visible_at(59.0) == []
    assert trace.visible_at(-0.1) == trace.visible_at(0.0) == [0]


def test_visibility_matrix_and_id_rows():
    # Tracks out of id order: the set keeps track order, visible_at lists
    # ids ascending.
    tracks = make_flat_trace([5.0, 6.0, 7.0], duration_s=4.0, visible=[
        [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0],
    ]).tracks
    ids = (7, 2, 4)
    trace = TraceSet(1.0, tuple(
        SatelliteTrack(sat, tr.passes, tr.throughput_mbps, tr.elevation_deg, tr.visible)
        for sat, tr in zip(ids, tracks)
    ))
    assert trace.sat_ids == ids
    assert [trace.visible_at(i) for i in range(4)] == [[4, 7], [2, 7], [2, 4], []]
    assert all(type(sat) is int for sat in trace.visible_at(0))
    assert [trace.track(sat).sat_id for sat in (2, 4, 7)] == [2, 4, 7]
    assert trace.track(4) is trace.tracks[2]
    with pytest.raises(TraceError, match="unknown satellite id 3"):
        trace.track(3)
    with pytest.raises(TraceError, match="duplicate satellite id 7"):
        TraceSet(1.0, (trace.tracks[0], trace.tracks[0]))


def test_remaining_visible_time():
    vis = np.zeros(60, dtype=bool)
    vis[:30] = True
    trace = make_flat_trace([5.0], duration_s=60.0, visible=[vis])
    assert remaining_visible_time(trace, 0, 10.0) == pytest.approx(20.0)
    assert remaining_visible_time(trace, 0, 40.0) == 0.0
    full = make_flat_trace([5.0], duration_s=60.0)
    assert remaining_visible_time(full, 0, 10.0) == math.inf
    # Measured from the start of the sample containing t.
    assert remaining_visible_time(trace, 0, 10.5) == 20.0
    dt = 0.05
    tenth = make_flat_trace(
        [5.0], duration_s=100 * dt, sample_dt=dt, visible=[[i < 30 for i in range(100)]]
    )
    assert remaining_visible_time(tenth, 0, 10.5 * dt) == 30 * dt - 10 * dt


def test_roundtrip_generated_trace(tmp_path):
    trace = gen_trace_set(TraceGenConfig(n_satellites=2, duration_s=180.0, seed=3))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    assert read_trace(path) == trace


def test_roundtrip_with_obstructions(tmp_path):
    trace = gen_trace_set(TraceGenConfig(n_satellites=2, duration_s=180.0, seed=3))
    obstructed = inject_obstructions(trace, [(0, 20.0, 45.0)])
    path = tmp_path / "trace.csv"
    write_trace(obstructed, path)
    assert read_trace(path) == obstructed


@st.composite
def _generated_traces(draw):
    """1-3 satellite traces over the sample steps a config may use, noisy
    or noiseless, with up to two obstruction windows (short ones and
    flagged ones of 10 s or more)."""
    noisy = draw(st.booleans())
    cfg = TraceGenConfig(
        n_satellites=draw(st.integers(1, 3)),
        sample_dt=draw(st.sampled_from((0.1, 0.25, 0.5, 1.0, 2.0))),
        duration_s=draw(st.sampled_from((20.0, 60.0, 150.0))),
        noise_mean=-2.0 if noisy else 0.0,
        noise_std=1.0 if noisy else 0.0,
        seed=draw(st.integers(0, 10_000)),
    )
    trace = gen_trace_set(cfg)
    windows = []
    for _ in range(draw(st.integers(0, 2))):
        begin = draw(st.floats(0.0, cfg.duration_s - 1.0))
        end = min(cfg.duration_s, begin + draw(st.sampled_from((1.0, 4.5, 10.0, 25.0))))
        windows.append((draw(st.sampled_from(trace.sat_ids)), begin, end))
    return inject_obstructions(trace, windows) if windows else trace


@settings(max_examples=100)
@given(_generated_traces())
def test_roundtrip_property(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace(trace, path)
        assert read_trace(path) == trace


@st.composite
def _relabelled_traces(draw):
    """Generated 1-3 satellite traces under distinct ids in any track order,
    with rates floored to a drawn step so that visible rates tie exactly
    (a huge step floors every visible rate to 0). Short, overlapping passes
    keep several satellites visible at once."""
    n = draw(st.integers(1, 3))
    trace = gen_trace_set(TraceGenConfig(
        n_satellites=n,
        sample_dt=draw(st.floats(0.25, 2.0)),
        duration_s=draw(st.sampled_from((60.0, 150.0))),
        min_elevation_deg=45.0,
        altitude_km=250.0,
        seed=draw(st.integers(0, 10_000)),
    ))
    ids = draw(st.permutations(sorted(draw(
        st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True)
    ))))
    step = draw(st.sampled_from((None, 0.5, 4.0, 1e9)))
    tracks = tuple(
        dataclasses.replace(
            tr, sat_id=sat,
            throughput_mbps=tr.throughput_mbps if step is None
            else np.floor(tr.throughput_mbps / step) * step,
        )
        for tr, sat in zip(trace.tracks, ids)
    )
    return TraceSet(trace.sample_dt, tracks, trace.meta)


@settings(max_examples=100)
@given(_relabelled_traces(), st.data())
def test_sample_queries_match_a_scan_of_the_tracks(trace, data):
    n = trace.n_samples
    for _ in range(8):
        # A time inside sample k, up to three samples outside the trace.
        k = data.draw(st.integers(-3, n + 2))
        t = (k + data.draw(st.floats(0.01, 0.99))) * trace.sample_dt
        i = min(max(k, 0), n - 1)
        assert trace.clamped_index(t) == i
        assert trace.visible_at(t) == sorted(tr.sat_id for tr in trace.tracks if tr.visible[i])
        best = None
        for tr in trace.tracks:
            rate = tr.throughput_mbps[i]
            assert trace.rate_at(tr.sat_id, t) == rate
            if tr.visible[i] and (
                best is None or (rate, -tr.sat_id) > (best.throughput_mbps[i], -best.sat_id)
            ):
                best = tr
        assert trace.strongest_visible(t) == (None if best is None else best.sat_id)


@st.composite
def _obstructed_relabelled_traces(draw):
    """Generated 1-3 satellite traces at sample_dt 0.1, 1 or 2 s, with up
    to two obstruction windows, under distinct ids in any track order.
    Short passes leave each satellite invisible between them."""
    n = draw(st.integers(1, 3))
    cfg = TraceGenConfig(
        n_satellites=n,
        sample_dt=draw(st.sampled_from((0.1, 1.0, 2.0))),
        duration_s=draw(st.sampled_from((30.0, 150.0))),
        min_elevation_deg=45.0,
        altitude_km=250.0,
        seed=draw(st.integers(0, 10_000)),
    )
    trace = gen_trace_set(cfg)
    windows = []
    for _ in range(draw(st.integers(0, 2))):
        begin = draw(st.floats(0.0, cfg.duration_s - 1.0))
        end = min(cfg.duration_s, begin + draw(st.sampled_from((1.0, 12.0))))
        windows.append((draw(st.sampled_from(trace.sat_ids)), begin, end))
    if windows:
        trace = inject_obstructions(trace, windows)
    ids = draw(st.permutations(sorted(draw(
        st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True)
    ))))
    tracks = tuple(dataclasses.replace(tr, sat_id=sat) for tr, sat in zip(trace.tracks, ids))
    return TraceSet(trace.sample_dt, tracks, trace.meta)


@settings(max_examples=40)
@given(_obstructed_relabelled_traces())
def test_sample_tables_match_the_numpy_queries(trace):
    # Every sample edge and midpoint, and times before 0 and past the end.
    dt, n = trace.sample_dt, trace.n_samples
    times = [-2.5 * dt, -dt, -0.5 * dt, -1e-9, (n + 0.5) * dt, (n + 3) * dt]
    times += [k * dt for k in range(n + 1)] + [(k + 0.5) * dt for k in range(n)]
    for t in times:
        idx = trace.clamped_index(t)
        assert type(idx) is int and idx == reference_clamped_index(trace, t)
        visible = trace.visible_at(t)
        assert type(visible) is list and visible == reference_visible_at(trace, t)
        assert all(type(sat) is int for sat in visible)
        for sat in trace.sat_ids:
            rate = trace.rate_at(sat, t)
            assert type(rate) is float and rate == reference_rate_at(trace, sat, t)
            remaining = remaining_visible_time(trace, sat, t)
            assert type(remaining) is float
            assert remaining == reference_remaining_visible_time(trace, sat, t)
            assert (remaining == math.inf) == (remaining is math.inf)


def test_sample_tables_are_small_and_stay_out_of_equality(tmp_path):
    trace = gen_trace_set(TraceGenConfig(duration_s=400.0, n_satellites=2, seed=5))
    write_trace(trace, tmp_path / "trace.csv")
    built = [
        trace,
        make_flat_trace([5.0, 6.0], duration_s=40.0),
        inject_obstructions(trace, [(0, 10.0, 30.0)]),
        read_trace(tmp_path / "trace.csv"),
    ]
    for fresh in built:
        assert fresh._visible_ids is None and not fresh._run_ends and not fresh.rate_series

    # The visible-id and run-end tables of 400 samples and 2 satellites;
    # equal visible sets share one tuple. Another trace's tables are built
    # first, so that no one-time allocation of the process is counted.
    assert trace.n_samples == 400
    built[1].visible_at(0.0)
    remaining_visible_time(built[1], 0, 0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace.visible_at(0.0)
        for sat in trace.sat_ids:
            remaining_visible_time(trace, sat, 0.0)
        table_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table_bytes < 10_000
    assert len({id(ids) for ids in trace._visible_ids}) == len(set(trace._visible_ids))
    trace.rate_at(0, 0.0)
    assert trace._visible_ids and len(trace._run_ends) == 2 and trace.rate_series

    twin = gen_trace_set(TraceGenConfig(duration_s=400.0, n_satellites=2, seed=5))
    assert twin == trace and trace == twin
    copy = dataclasses.replace(trace)
    assert copy == trace
    assert copy._visible_ids is None and not copy._run_ends and not copy.rate_series


def test_read_rejects_negative_throughput(tmp_path):
    trace = make_flat_trace([5.0], duration_s=4.0)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace("5.000000", "-5.000000")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 3
    assert err.value.column == "throughput_mbps"


def test_read_rejects_mismatched_time_axes(tmp_path):
    trace = make_flat_trace([5.0, 6.0], duration_s=4.0)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    del lines[2]  # drop one satellite's sample
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceError, match="time axis"):
        read_trace(path)


def test_read_missing_sidecar(tmp_path):
    trace = make_flat_trace([5.0], duration_s=4.0)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    (tmp_path / "trace.meta.json").unlink()
    with pytest.raises(TraceFormatError, match="sidecar"):
        read_trace(path)


def _set_line(index, text):
    def edit(lines):
        lines[index] = text
        return lines

    return edit


@pytest.mark.parametrize(
    "edit, message, line, column",
    [
        (_set_line(1, "x,0,5.000000,90.000000,1"), "bad time", 2, "t_s"),
        (_set_line(1, "0.000,a,5.000000,90.000000,1"), "bad id", 2, "sat_id"),
        (_set_line(1, "0.000,0,fast,90.000000,1"), "bad throughput", 2, "throughput_mbps"),
        (_set_line(1, "0.000,0,-5.000000,90.000000,1"), "negative throughput -5.0", 2,
         "throughput_mbps"),
        (_set_line(1, "0.000,0,5.000000,high,1"), "bad elevation", 2, "elevation_deg"),
        # Two faults in one row: the throughput's is reported, as before.
        (_set_line(1, "0.000,0,-5.000000,high,1"), "negative throughput -5.0", 2,
         "throughput_mbps"),
        (_set_line(1, "0.000,0,5.000000,90.000000"), "expected 5 fields, got 4", 2, None),
        (_set_line(1, "0.000,0,5.000000,90.000000,1,1"), "expected 5 fields, got 6", 2, None),
        (_set_line(1, "0.000,0,5.000000,90.000000,yes"), "bad visibility flag 'yes'", 2,
         "visible"),
        (_set_line(2, "0.500,0,5.000000,90.000000,1"), "time 0.5 off the 1.0-s grid", 3, "t_s"),
        (_set_line(2, "9.000,0,5.000000,90.000000,1"), "time 9.0 off the 1.0-s grid", 3, "t_s"),
        (_set_line(2, "0.000,0,5.000000,90.000000,1"), "duplicate sample for satellite 0", 3,
         None),
        (_set_line(0, "t_s,sat_id,throughput_mbps"),
         "unexpected header 't_s,sat_id,throughput_mbps'", 1, None),
        (lambda lines: lines[:1], "empty trace file", None, None),
        (lambda lines: [], "unexpected header ''", 1, None),
    ],
)
def test_read_rejects_each_malformed_row(tmp_path, edit, message, line, column):
    trace = make_flat_trace([5.0], duration_s=4.0)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = edit(path.read_text().splitlines())
    path.write_text("".join(f"{text}\n" for text in lines))
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    prefix = "" if line is None else f"line {line}: "
    suffix = "" if column is None else f" (column {column!r})"
    assert str(err.value) == f"{prefix}{message}{suffix}"
    assert (err.value.line, err.value.column) == (line, column)
