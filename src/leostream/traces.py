"""Synthetic multi-satellite throughput traces from pass geometry.

A scenario is a set of satellites flying straight-line passes over a fixed
ground client. Per-sample link throughput follows an inverse-square
free-space falloff from the slant range, plus Gaussian noise. Traces are
sampled on a shared time grid; each sample covers ``[i*dt, (i+1)*dt)`` and
is evaluated at the interval midpoint, so the peak sample of a noiseless
pass is always the sample containing the closest approach.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_ALTITUDE_KM = 550.0
DEFAULT_SPEED_KMS = 7.6
DEFAULT_MIN_ELEVATION_DEG = 25.0
OBSTRUCTED_RATE_MBPS = 0.1
OBSTRUCTION_FLAG_MIN_S = 10.0

TRACE_CSV_HEADER = "t_s,sat_id,throughput_mbps,elevation_deg,visible"


class TraceError(ValueError):
    """Invalid trace structure or generation config."""


class TraceFormatError(TraceError):
    """Malformed trace file; carries the offending line and column."""

    def __init__(self, message: str, line: int | None = None, column: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if column is not None:
            message = f"{message} (column {column!r})"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class PassGeometry:
    """One straight-line satellite pass in the 3D chord model.

    The satellite moves at ``speed_kms`` along a line at height
    ``altitude_km``, offset laterally from the client by
    ``cross_track_km``; the slant range is minimized at
    ``closest_approach_time``.
    """

    closest_approach_time: float
    altitude_km: float = DEFAULT_ALTITUDE_KM
    cross_track_km: float = 0.0
    speed_kms: float = DEFAULT_SPEED_KMS
    pass_start: float = -math.inf
    pass_end: float = math.inf

    def __post_init__(self):
        if self.altitude_km <= 0:
            raise TraceError(f"altitude_km must be > 0, got {self.altitude_km}")
        if self.speed_kms <= 0:
            raise TraceError(f"speed_kms must be > 0, got {self.speed_kms}")
        if not self.pass_start < self.pass_end:
            raise TraceError("pass_start must precede pass_end")

    @property
    def d_min_km(self) -> float:
        """Slant range at closest approach."""
        return math.hypot(self.altitude_km, self.cross_track_km)


@dataclass(frozen=True)
class TraceGenConfig:
    """Parameters of the synthetic trace generator."""

    alpha: float = 1.0
    b_max_mbps: float = 20.0
    noise_mean: float = -2.0
    noise_std: float = 1.0
    sample_dt: float = 1.0
    duration_s: float = 240.0
    n_satellites: int = 2
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG
    seed: int = 0
    altitude_km: float = DEFAULT_ALTITUDE_KM
    speed_kms: float = DEFAULT_SPEED_KMS
    pass_overlap_frac: float = 0.25

    def __post_init__(self):
        # Written so that NaN fails every check.
        for name in ("alpha", "noise_mean"):
            if not math.isfinite(getattr(self, name)):
                raise TraceError(f"{name} must be finite")
        for name in ("b_max_mbps", "sample_dt", "duration_s", "altitude_km", "speed_kms"):
            if not 0 < getattr(self, name) < math.inf:
                raise TraceError(f"{name} must be finite and > 0")
        if not 0 <= self.noise_std < math.inf:
            raise TraceError("noise_std must be finite and >= 0")
        if not self.n_satellites >= 1:
            raise TraceError("n_satellites must be >= 1")
        if not 0.0 < self.min_elevation_deg < 90.0:
            raise TraceError("min_elevation_deg must be in (0, 90)")
        if not 0.0 <= self.pass_overlap_frac < 1.0:
            raise TraceError("pass_overlap_frac must be in [0, 1)")


@dataclass(frozen=True, eq=False)
class SatelliteTrack:
    """Sampled time series for one satellite."""

    sat_id: int
    passes: tuple[PassGeometry, ...]
    throughput_mbps: np.ndarray
    elevation_deg: np.ndarray
    visible: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, SatelliteTrack):
            return NotImplemented
        return (
            self.sat_id == other.sat_id
            and self.passes == other.passes
            and np.array_equal(self.throughput_mbps, other.throughput_mbps)
            and np.array_equal(self.elevation_deg, other.elevation_deg)
            and np.array_equal(self.visible, other.visible)
        )


@dataclass(frozen=True, eq=False)
class TraceSet:
    """Per-satellite throughput/elevation/visibility on one shared time axis.

    The set is treated as immutable: construction caches the visibility
    of every track as one (satellites x samples) matrix, in track order,
    and a satellite id -> track row map. rate_series holds each
    satellite's throughput as a simcore.RateSeries, built on first use by
    RateSeries.for_satellite.
    """

    sample_dt: float
    tracks: tuple[SatelliteTrack, ...]
    meta: dict = field(default_factory=dict)
    visibility: np.ndarray = field(init=False, repr=False)
    _rows: dict = field(init=False, repr=False)
    rate_series: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.tracks:
            raise TraceError("TraceSet needs at least one satellite")
        rows = {}
        for row, tr in enumerate(self.tracks):
            if tr.sat_id in rows:
                raise TraceError(f"duplicate satellite id {tr.sat_id}")
            rows[tr.sat_id] = row
        n = len(self.tracks[0].throughput_mbps)
        for tr in self.tracks:
            if (
                len(tr.throughput_mbps) != n
                or len(tr.elevation_deg) != n
                or len(tr.visible) != n
            ):
                raise TraceError(
                    f"satellite {tr.sat_id}: time axis length mismatch"
                )
            if np.any(tr.throughput_mbps < 0):
                raise TraceError(f"satellite {tr.sat_id}: negative throughput")
            if np.any(tr.throughput_mbps[~tr.visible] != 0.0):
                raise TraceError(
                    f"satellite {tr.sat_id}: nonzero throughput while invisible"
                )
        visibility = np.array([np.asarray(tr.visible, dtype=bool) for tr in self.tracks])
        object.__setattr__(self, "visibility", visibility)
        object.__setattr__(self, "_rows", rows)

    def __eq__(self, other):
        if not isinstance(other, TraceSet):
            return NotImplemented
        return (
            self.sample_dt == other.sample_dt
            and self.tracks == other.tracks
            and self.meta == other.meta
        )

    @property
    def n_samples(self) -> int:
        return len(self.tracks[0].throughput_mbps)

    @property
    def duration_s(self) -> float:
        return self.n_samples * self.sample_dt

    @property
    def sat_ids(self) -> tuple[int, ...]:
        return tuple(tr.sat_id for tr in self.tracks)

    def track(self, sat_id: int) -> SatelliteTrack:
        row = self._rows.get(sat_id)
        if row is None:
            raise TraceError(f"unknown satellite id {sat_id}")
        return self.tracks[row]

    def clamped_index(self, t: float) -> int:
        """The sample containing t, out-of-range times clamped to the ends."""
        return max(0, min(int(t / self.sample_dt), self.n_samples - 1))

    def visible_at(self, t: float) -> list[int]:
        """Ids visible at the sample containing t, in ascending id order."""
        column = self.visibility[:, self.clamped_index(t)]
        return sorted(sat for sat, row in self._rows.items() if column[row])

    def rate_at(self, sat_id: int, t: float) -> float:
        """The satellite's throughput at the sample containing t."""
        return float(self.track(sat_id).throughput_mbps[self.clamped_index(t)])

    def strongest_visible(self, t: float) -> int | None:
        """The visible satellite with the highest rate at t, the lowest id on
        ties; None when no satellite is visible."""
        visible = self.visible_at(t)
        if not visible:
            return None
        return min(visible, key=lambda sat: (-self.rate_at(sat, t), sat))


def slant_range(pass_geom: PassGeometry, t: float) -> float:
    """Client-to-satellite distance (km) at time t under the chord model."""
    along = pass_geom.speed_kms * (t - pass_geom.closest_approach_time)
    return math.sqrt(
        pass_geom.altitude_km**2 + pass_geom.cross_track_km**2 + along**2
    )


def elevation_deg(pass_geom: PassGeometry, t):
    """Elevation angle (degrees) seen from the client at time t (a float
    or an array of times)."""
    along = pass_geom.speed_kms * (t - pass_geom.closest_approach_time)
    return np.degrees(np.arctan2(pass_geom.altitude_km, np.hypot(pass_geom.cross_track_km, along)))


def free_space_throughput(pass_geom: PassGeometry, t, cfg: TraceGenConfig, noise=0.0):
    """Inverse-square throughput (Mbps) at time t (a float or an array of
    times): scale * peak * d_min^2 / d_t^2 + noise, clamped at zero; with
    zero noise at closest approach this returns ``alpha * b_max``.
    """
    along = pass_geom.speed_kms * (t - pass_geom.closest_approach_time)
    d_sq = pass_geom.altitude_km**2 + pass_geom.cross_track_km**2 + along**2
    return np.maximum(0.0, cfg.alpha * cfg.b_max_mbps * (pass_geom.d_min_km**2) / d_sq + noise)


def _pass_half_duration(cfg: TraceGenConfig, cross_track_km: float) -> float:
    # Visible while hypot(cross, along) <= altitude / tan(min_elevation).
    horiz_max = cfg.altitude_km / math.tan(math.radians(cfg.min_elevation_deg))
    if cross_track_km >= horiz_max:
        raise TraceError(
            f"cross-track offset {cross_track_km:.1f} km exceeds visibility "
            f"footprint {horiz_max:.1f} km"
        )
    return math.sqrt(horiz_max * horiz_max - cross_track_km * cross_track_km) / cfg.speed_kms


def _schedule_passes(cfg: TraceGenConfig, rng: np.random.Generator) -> list[list[PassGeometry]]:
    """Lay out staggered passes round-robin over the satellites.

    Consecutive passes overlap by ``pass_overlap_frac`` of the incoming
    pass so a handoff target exists at every seam. With a single
    satellite, passes are laid back to back instead.
    """
    horiz_max = cfg.altitude_km / math.tan(math.radians(cfg.min_elevation_deg))
    overlap = cfg.pass_overlap_frac if cfg.n_satellites > 1 else 0.0
    per_sat: list[list[PassGeometry]] = [[] for _ in range(cfg.n_satellites)]

    k = 0
    cover_end = -math.inf
    while cover_end < cfg.duration_s or k < cfg.n_satellites:
        cross = float(rng.uniform(0.0, 0.5 * horiz_max))
        half = _pass_half_duration(cfg, cross)
        length = 2.0 * half
        if k == 0:
            lead = float(rng.uniform(0.05, 0.25)) * length
            start = -lead
        else:
            start = cover_end - overlap * length
        geom = PassGeometry(
            closest_approach_time=start + half,
            altitude_km=cfg.altitude_km,
            cross_track_km=cross,
            speed_kms=cfg.speed_kms,
            pass_start=start,
            pass_end=start + length,
        )
        sat = k % cfg.n_satellites
        if per_sat[sat] and geom.pass_start < per_sat[sat][-1].pass_end:
            raise TraceError(
                f"pass schedule self-overlaps satellite {sat}; lower "
                "pass_overlap_frac or add satellites"
            )
        per_sat[sat].append(geom)
        cover_end = geom.pass_end
        k += 1
        if k > 10_000:
            raise TraceError("pass scheduling did not converge")
    return per_sat


def gen_trace_set(cfg: TraceGenConfig) -> TraceSet:
    """Generate a TraceSet; a pure function of cfg (seed included).

    Raises TraceError, naming the first uncovered gap, if scheduling
    cannot keep at least one satellite visible at every sample.
    """
    rng = np.random.default_rng(cfg.seed)
    per_sat = _schedule_passes(cfg, rng)

    n = int(round(cfg.duration_s / cfg.sample_dt))
    if n < 1:
        raise TraceError("duration_s shorter than one sample")
    mid_t = (np.arange(n) + 0.5) * cfg.sample_dt

    tracks = []
    for sat_id in range(cfg.n_satellites):
        passes = per_sat[sat_id]
        elev = np.zeros(n)
        fs = np.zeros(n)
        for geom in passes:
            elev = np.maximum(elev, elevation_deg(geom, mid_t))
            fs = np.maximum(fs, free_space_throughput(geom, mid_t, cfg))
        elev = np.round(elev, 6)
        visible = elev >= cfg.min_elevation_deg
        noise = rng.normal(cfg.noise_mean, cfg.noise_std, size=n)
        thr = np.round(np.maximum(fs + noise, 0.0), 6)
        thr = np.where(visible, thr, 0.0)
        tracks.append(
            SatelliteTrack(
                sat_id=sat_id,
                passes=tuple(passes),
                throughput_mbps=thr,
                elevation_deg=elev,
                visible=visible,
            )
        )

    covered = np.zeros(n, dtype=bool)
    for tr in tracks:
        covered |= tr.visible
    if not covered.all():
        gap = int(np.argmin(covered))
        raise TraceError(
            f"coverage gap: no satellite visible at t={gap * cfg.sample_dt:.3f} s"
        )

    meta = {"config": dataclasses.asdict(cfg), "obstructions": []}
    return TraceSet(sample_dt=cfg.sample_dt, tracks=tuple(tracks), meta=meta)


def inject_obstructions(
    trace: TraceSet, windows: list[tuple[int, float, float]]
) -> TraceSet:
    """Clamp throughput to 0.1 Mbps inside each (sat_id, start_s, end_s) window.

    Window membership is by sample start time, half-open on the right.
    Windows lasting >= 10 s are flagged as obstruction periods in the
    returned trace's metadata.
    """
    known = set(trace.sat_ids)
    for sat_id, start_s, end_s in windows:
        if sat_id not in known:
            raise TraceError(f"unknown satellite id {sat_id}")
        if not 0.0 <= start_s < end_s <= trace.duration_s + 1e-9:
            raise TraceError(
                f"obstruction window [{start_s}, {end_s}) outside trace duration"
            )

    starts = np.arange(trace.n_samples) * trace.sample_dt
    new_tracks = []
    for tr in trace.tracks:
        thr = tr.throughput_mbps.copy()
        for sat_id, start_s, end_s in windows:
            if sat_id != tr.sat_id:
                continue
            mask = (starts >= start_s) & (starts < end_s)
            thr[mask] = np.minimum(thr[mask], OBSTRUCTED_RATE_MBPS)
        thr = np.where(tr.visible, thr, 0.0)
        new_tracks.append(dataclasses.replace(tr, throughput_mbps=thr))

    meta = dict(trace.meta)
    records = list(meta.get("obstructions", []))
    for sat_id, start_s, end_s in windows:
        records.append(
            {
                "sat_id": sat_id,
                "start_s": start_s,
                "end_s": end_s,
                "flagged": (end_s - start_s) >= OBSTRUCTION_FLAG_MIN_S,
            }
        )
    if records or "obstructions" in meta:
        meta["obstructions"] = records
    return TraceSet(sample_dt=trace.sample_dt, tracks=tuple(new_tracks), meta=meta)


def remaining_visible_time(trace: TraceSet, sat_id: int, t: float) -> float:
    """Seconds from the start of the sample containing t until the
    satellite's current visibility run ends.

    Returns 0 if invisible at t, and +inf when visibility extends through
    the end of the trace (no known horizon exit).
    """
    tr = trace.track(sat_id)
    idx = trace.clamped_index(t)
    if not tr.visible[idx]:
        return 0.0
    invisible_after = np.nonzero(~tr.visible[idx:])[0]
    if len(invisible_after) == 0:
        return math.inf
    end_t = (idx + int(invisible_after[0])) * trace.sample_dt
    return end_t - idx * trace.sample_dt


def _meta_sidecar(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def write_trace(trace: TraceSet, path: str | Path) -> None:
    """Write the trace CSV plus a .meta.json sidecar next to it."""
    path = Path(path)
    lines = [TRACE_CSV_HEADER]
    for i in range(trace.n_samples):
        t = i * trace.sample_dt
        for tr in trace.tracks:
            lines.append(
                f"{t:.3f},{tr.sat_id},{tr.throughput_mbps[i]:.6f},"
                f"{tr.elevation_deg[i]:.6f},{int(tr.visible[i])}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    sidecar = {
        "sample_dt": trace.sample_dt,
        "n_samples": trace.n_samples,
        "meta": trace.meta,
        "passes": {
            str(tr.sat_id): [dataclasses.asdict(p) for p in tr.passes]
            for tr in trace.tracks
        },
    }
    _meta_sidecar(path).write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def read_trace(path: str | Path) -> TraceSet:
    """Read a trace written by write_trace; the inverse, field for field."""
    path = Path(path)
    sidecar_path = _meta_sidecar(path)
    if not sidecar_path.exists():
        raise TraceFormatError(f"missing metadata sidecar {sidecar_path}")
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    sample_dt = float(sidecar["sample_dt"])
    n_samples = int(sidecar["n_samples"])

    # One parse rule per numeric column, in TRACE_CSV_HEADER's order.
    rules = tuple(zip(
        TRACE_CSV_HEADER.split(","),
        (float, int, float, float),
        ("bad time", "bad id", "bad throughput", "bad elevation"),
    ))
    per_sat: dict[int, dict[int, tuple[float, float, bool]]] = {}
    with path.open(encoding="utf-8") as f:
        header = f.readline().strip()
        if header != TRACE_CSV_HEADER:
            raise TraceFormatError(f"unexpected header {header!r}", line=1)
        for lineno, raw in enumerate(f, start=2):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(",")
            if len(parts) != 5:
                raise TraceFormatError(
                    f"expected 5 fields, got {len(parts)}", line=lineno
                )
            values = []
            for part, (column, parse, message) in zip(parts, rules):
                try:
                    value = parse(part)
                except ValueError:
                    raise TraceFormatError(message, line=lineno, column=column) from None
                # A negative throughput is reported before the elevation is read.
                if column == "throughput_mbps" and value < 0:
                    raise TraceFormatError(
                        f"negative throughput {value}", line=lineno, column=column
                    )
                values.append(value)
            t, sat_id, thr, elev = values
            if parts[4] not in ("0", "1"):
                raise TraceFormatError(
                    f"bad visibility flag {parts[4]!r}", line=lineno, column="visible"
                )
            idx = int(round(t / sample_dt))
            if not 0 <= idx < n_samples or abs(idx * sample_dt - t) > 1e-6:
                raise TraceFormatError(
                    f"time {t} off the {sample_dt}-s grid", line=lineno, column="t_s"
                )
            row = per_sat.setdefault(sat_id, {})
            if idx in row:
                raise TraceFormatError(
                    f"duplicate sample for satellite {sat_id}", line=lineno
                )
            row[idx] = (thr, elev, parts[4] == "1")

    if not per_sat:
        raise TraceFormatError("empty trace file")
    expected = set(range(n_samples))
    for sat_id, rows in per_sat.items():
        if set(rows) != expected:
            raise TraceError(
                f"satellite {sat_id}: time axis mismatch "
                f"({len(rows)} of {n_samples} samples)"
            )

    passes_meta = sidecar.get("passes", {})
    tracks = []
    for sat_id in sorted(per_sat):
        rows = per_sat[sat_id]
        thr = np.array([rows[i][0] for i in range(n_samples)])
        elev = np.array([rows[i][1] for i in range(n_samples)])
        vis = np.array([rows[i][2] for i in range(n_samples)], dtype=bool)
        passes = tuple(
            PassGeometry(**p) for p in passes_meta.get(str(sat_id), [])
        )
        tracks.append(
            SatelliteTrack(
                sat_id=sat_id,
                passes=passes,
                throughput_mbps=thr,
                elevation_deg=elev,
                visible=vis,
            )
        )
    return TraceSet(
        sample_dt=sample_dt, tracks=tuple(tracks), meta=sidecar.get("meta", {})
    )
