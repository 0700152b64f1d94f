"""Playback state, chunk settlement and QoE accounting.

One session downloads a fixed ladder video chunk by chunk over a
time-varying satellite link. Each chunk charges an optional handoff delay,
one link RTT, and the transfer time obtained by integrating the
piecewise-constant trace, then updates the playback buffer and the three
QoE terms (quality reward, rebuffer penalty, smoothness penalty).

The event loop in multiuser.simulate_multi is the one loop that settles
chunks: run_session is its one-user, no-background case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .traces import TraceSet

DEFAULT_LADDER_MBPS = (0.3, 1.2, 2.85)
EXTENDED_LADDER_MBPS = (0.3, 0.75, 1.2, 1.85, 2.85, 4.3)


class SimulationError(RuntimeError):
    pass


class UnboundedDownloadError(SimulationError):
    """A download can never finish: zero throughput past the end of the trace."""

    @classmethod
    def starting_at(cls, start_t: float) -> "UnboundedDownloadError":
        return cls(f"zero throughput beyond the end of the trace (download from t={start_t:.3f})")


@dataclass(frozen=True)
class VideoSpec:
    n_chunks: int = 49
    chunk_duration_s: float = 2.0
    bitrate_ladder_mbps: tuple[float, ...] = DEFAULT_LADDER_MBPS
    # Chunk size of every rung, ascending: the size list piecewise_downloads takes.
    chunk_sizes_mb: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.n_chunks >= 1:
            raise ValueError("n_chunks must be >= 1")
        if not 0 < self.chunk_duration_s < math.inf:
            raise ValueError("chunk_duration_s must be finite and > 0")
        ladder = tuple(self.bitrate_ladder_mbps)
        if not ladder or not all(0 < b < math.inf for b in ladder):
            raise ValueError("bitrate ladder entries must be finite and > 0")
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            raise ValueError("bitrate ladder must be strictly ascending")
        # A tuple of floats: the planners hash it (solve memo, score tables).
        object.__setattr__(self, "bitrate_ladder_mbps", tuple(map(float, ladder)))
        sizes = tuple(b * self.chunk_duration_s for b in self.bitrate_ladder_mbps)
        object.__setattr__(self, "chunk_sizes_mb", sizes)

    def chunk_mb(self, bitrate_idx: int) -> float:
        """Chunk size in megabits (CBR: bitrate times duration, exactly)."""
        return self.chunk_sizes_mb[bitrate_idx]


@dataclass(frozen=True)
class SimConfig:
    mu1: float = 1.0
    mu2: float = 4.3
    mu3: float = 1.0
    rtt_s: float = 0.08
    handoff_delay_s: float = 0.2
    max_buffer_s: float = 60.0
    dt_s: float = 1.0

    def __post_init__(self):
        # Written so that NaN fails every check. An infinite weight or
        # delay turns a 0 * inf term into NaN; only the buffer cap may be
        # unbounded.
        for name in ("mu1", "mu2", "mu3", "rtt_s", "handoff_delay_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not self.max_buffer_s >= 0:
            raise ValueError("max_buffer_s must be >= 0")
        # dt_s is the one (time, buffer) grid step of the online and the
        # offline DP.
        if not 0 < self.dt_s < math.inf:
            raise ValueError("dt_s must be finite and > 0")


@dataclass(frozen=True)
class PlayerState:
    chunk_index: int
    wallclock_s: float
    buffer_s: float
    last_bitrate_idx: int
    current_satellite: int
    rebuffer_total_s: float = 0.0


@dataclass(frozen=True)
class Decision:
    bitrate_idx: int
    target_satellite: int
    handoff_now: bool = False


@dataclass(frozen=True)
class ChunkOutcome:
    chunk_index: int
    bitrate_mbps: float
    satellite_id: int
    download_time_s: float
    rebuffer_s: float
    handoff_performed: bool
    drain_s: float
    qoe_quality: float
    qoe_rebuf_penalty: float
    qoe_smooth_penalty: float


@dataclass(frozen=True)
class QoEBreakdown:
    quality_total: float
    rebuf_penalty_total: float
    smooth_penalty_total: float
    qoe_total: float
    per_chunk: tuple[ChunkOutcome, ...] = field(repr=False, default=())

    @property
    def handoff_count(self) -> int:
        return sum(1 for oc in self.per_chunk if oc.handoff_performed)


class RateSeries:
    """Piecewise-constant Mbps: value i holds on [anchor + i*dt, anchor + (i+1)*dt).

    The final value extends past the end of the series, so lookups never
    run out of data. Used both for trace playback and for predicted
    throughput handed to the planners.

    The series is treated as immutable: lookups read a Python-float copy
    of `rates` taken at construction, which avoids boxing a numpy scalar
    on every segment of the planners' inner loop. Two series are equal
    when their anchor, sample step and rate bits are, so a PlanInstance
    can key a memo of solves; the key and its hash are built on first use.
    """

    __slots__ = (
        "anchor_t", "sample_dt", "rates", "_values", "_last", "_key", "_hash",
    )

    def __init__(self, anchor_t: float, sample_dt: float, rates):
        self.anchor_t = anchor_t
        self.sample_dt = sample_dt
        self.rates = np.asarray(rates, dtype=float)
        if len(self.rates) == 0:
            raise ValueError("RateSeries needs at least one sample")
        self._values = self.rates.tolist()
        self._last = len(self._values) - 1
        self._key = None
        self._hash = None

    def _value_key(self) -> tuple:
        key = self._key
        if key is None:
            key = self._key = (self.anchor_t, self.sample_dt, self.rates.tobytes())
        return key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RateSeries):
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self._value_key())
        return h

    @classmethod
    def constant(cls, rate_mbps: float) -> "RateSeries":
        return cls(0.0, 1.0, [rate_mbps])

    @classmethod
    def for_satellite(cls, trace: TraceSet, sat_id: int) -> "RateSeries":
        """The satellite's trace throughput from t = 0, built once per trace."""
        series = trace.rate_series.get(sat_id)
        if series is None:
            series = cls(0.0, trace.sample_dt, trace.track(sat_id).throughput_mbps)
            trace.rate_series[sat_id] = series
        return series

    def rate_and_edge(self, t: float) -> tuple[float, float]:
        """Rate at time t and the end of its constant segment (inf on the last).

        The returned edge is always later than t. When the anchor is not
        a multiple of sample_dt, rounding can place t exactly on an edge
        yet index the segment that edge closes; the lookup then moves on
        to the next segment, so a caller walking segments always advances.
        """
        idx = int((t - self.anchor_t) / self.sample_dt)
        if idx < 0:
            idx = 0
        last = self._last
        while idx < last:
            edge = self.anchor_t + (idx + 1) * self.sample_dt
            if edge > t:
                return self._values[idx], edge
            idx += 1
        return self._values[last], math.inf

    def scaled(self, factor: float) -> "RateSeries":
        return RateSeries(self.anchor_t, self.sample_dt, self.rates * factor)


def piecewise_downloads(
    series: RateSeries, start_t: float, sizes_mb, rtt_s: float
) -> list[float | None]:
    """piecewise_download for each of an ascending list of sizes > 0, in one walk.

    Entry k is bit-identical to piecewise_download(series, start_t,
    sizes_mb[k], rtt_s), or None where that call raises
    UnboundedDownloadError. The segment times do not depend on the size
    and every size subtracts the same per-segment transfer, so
    remainders stay in ascending order (IEEE rounding is monotone) and
    sizes finish in order: each segment retires a prefix of the sizes.

    So the walk carries only the smallest unfinished size's remainder: a
    segment costs one rate_and_edge lookup, one finish test and one
    subtraction, whatever the number of sizes. Each positive segment's
    transfer is logged; when a size finishes, the next one catches up by
    subtracting the logged transfers in order. Its remainder then has the
    bits the per-size walk would give it, from the same subtractions in
    the same order, and the walk looks up exactly the segments the
    per-size walk of the largest size does.
    """
    n = len(sizes_mb)
    waits: list[float | None] = []
    if not n:
        return waits
    lookup = series.rate_and_edge
    transfers: list[float] = []  # each positive segment's transfer, in walk order
    remaining = sizes_mb[0]  # of the smallest unfinished size
    t = start_t + rtt_s
    while True:
        rate, seg_end = lookup(t)
        if rate > 0:
            finish = t + remaining / rate
            while finish <= seg_end:
                waits.append(finish - start_t)
                done = len(waits)
                if done == n:
                    return waits
                remaining = sizes_mb[done]
                for used in transfers:
                    remaining = remaining - used
                finish = t + remaining / rate
            used = rate * (seg_end - t)
            transfers.append(used)
            remaining = remaining - used
        elif seg_end == math.inf:
            return waits + [None] * (n - len(waits))
        t = seg_end


def piecewise_download(
    series: RateSeries, start_t: float, size_mb: float, rtt_s: float
) -> float:
    """Seconds to fetch size_mb starting at start_t: one RTT plus transfer.

    Transfer time is the smallest tau whose rate integral over
    [start_t + rtt, start_t + rtt + tau] reaches size_mb.
    """
    if size_mb <= 0:
        return rtt_s
    wait = piecewise_downloads(series, start_t, (size_mb,), rtt_s)[0]
    if wait is None:
        raise UnboundedDownloadError.starting_at(start_t)
    return wait


def settle_chunk(
    buffer_s: float, wait_s: float, chunk_duration_s: float, max_buffer_s: float
) -> tuple[float, float, float]:
    """Buffer update for one chunk: returns (rebuffer_s, new_buffer_s, drain_s).

    If adding the chunk would exceed the buffer cap the player idles for
    the excess (drain_s) before requesting the next chunk.
    """
    rebuffer = max(0.0, wait_s - buffer_s)
    buf = max(0.0, buffer_s - wait_s) + chunk_duration_s
    drain = 0.0
    if buf > max_buffer_s:
        drain = buf - max_buffer_s
        buf = max_buffer_s
    return rebuffer, buf, drain


def chunk_qoe(
    prev_bitrate_mbps: float, bitrate_mbps: float, rebuffer_s: float, cfg: SimConfig
) -> float:
    """Per-chunk score: weighted quality (the bitrate itself, in Mbps)
    minus rebuffer and switch penalties."""
    return (
        cfg.mu1 * bitrate_mbps
        - cfg.mu2 * rebuffer_s
        - cfg.mu3 * abs(bitrate_mbps - prev_bitrate_mbps)
    )


def validate_decision(state: PlayerState, decision: Decision, video: VideoSpec) -> None:
    if state.chunk_index >= video.n_chunks:
        raise SimulationError("session already complete")
    if not 0 <= decision.bitrate_idx < len(video.bitrate_ladder_mbps):
        raise SimulationError(f"bitrate index {decision.bitrate_idx} off the ladder")
    if decision.handoff_now != (decision.target_satellite != state.current_satellite):
        raise SimulationError("handoff_now must be set exactly when the satellite changes")


def apply_chunk(
    state: PlayerState,
    decision: Decision,
    download_time_s: float,
    video: VideoSpec,
    cfg: SimConfig,
) -> tuple[PlayerState, ChunkOutcome]:
    """Buffer, wallclock and QoE bookkeeping once the download time is known.

    Shared by the event loop of multiuser.simulate_multi and its one-chunk
    reference, so both settle a chunk with identical arithmetic.
    """
    handoff = decision.handoff_now
    wait = cfg.handoff_delay_s + download_time_s if handoff else download_time_s
    rebuffer, new_buffer, drain = settle_chunk(
        state.buffer_s, wait, video.chunk_duration_s, cfg.max_buffer_s
    )

    bitrate = video.bitrate_ladder_mbps[decision.bitrate_idx]
    prev_bitrate = video.bitrate_ladder_mbps[state.last_bitrate_idx]
    smooth = 0.0 if state.chunk_index == 0 else abs(bitrate - prev_bitrate)
    outcome = ChunkOutcome(
        chunk_index=state.chunk_index,
        bitrate_mbps=bitrate,
        satellite_id=decision.target_satellite,
        download_time_s=download_time_s,
        rebuffer_s=rebuffer,
        handoff_performed=handoff,
        drain_s=drain,
        qoe_quality=cfg.mu1 * bitrate,
        qoe_rebuf_penalty=cfg.mu2 * rebuffer,
        qoe_smooth_penalty=cfg.mu3 * smooth,
    )
    new_wall = state.wallclock_s + wait
    if drain > 0.0:
        new_wall += drain
    new_state = PlayerState(
        chunk_index=state.chunk_index + 1,
        wallclock_s=new_wall,
        buffer_s=new_buffer,
        last_bitrate_idx=decision.bitrate_idx,
        current_satellite=decision.target_satellite,
        rebuffer_total_s=state.rebuffer_total_s + rebuffer,
    )
    return new_state, outcome


def step_chunk(
    state: PlayerState,
    decision: Decision,
    trace: TraceSet,
    video: VideoSpec,
    cfg: SimConfig,
) -> tuple[PlayerState, ChunkOutcome]:
    """Download one chunk and advance the player state: the one-chunk
    reference the event loop of multiuser.simulate_multi is tested against."""
    validate_decision(state, decision, video)
    if decision.handoff_now:
        start_t = state.wallclock_s + cfg.handoff_delay_s
    else:
        start_t = state.wallclock_s
    series = RateSeries.for_satellite(trace, decision.target_satellite)
    dl = piecewise_download(series, start_t, video.chunk_mb(decision.bitrate_idx), cfg.rtt_s)
    return apply_chunk(state, decision, dl, video, cfg)


def session_qoe(outcomes, cfg: SimConfig) -> QoEBreakdown:
    """Sum per-chunk terms into a session breakdown.

    qoe_total is accumulated per chunk independently of the three totals so
    the breakdown identity is an actual check, not a tautology.
    """
    outcomes = tuple(outcomes)
    if not outcomes:
        raise SimulationError("no chunk outcomes")
    for prev, cur in zip(outcomes, outcomes[1:]):
        if cur.chunk_index != prev.chunk_index + 1:
            raise SimulationError(
                f"gap in chunk indices: {prev.chunk_index} -> {cur.chunk_index}"
            )
    q = r = s = total = 0.0
    for oc in outcomes:
        q += oc.qoe_quality
        r += oc.qoe_rebuf_penalty
        s += oc.qoe_smooth_penalty
        total += oc.qoe_quality - oc.qoe_rebuf_penalty - oc.qoe_smooth_penalty
    return QoEBreakdown(
        quality_total=q,
        rebuf_penalty_total=r,
        smooth_penalty_total=s,
        qoe_total=total,
        per_chunk=outcomes,
    )


def qos(per_user_qoe) -> float:
    """Mean QoE across users."""
    values = list(per_user_qoe)
    if not values:
        raise ValueError("qos of an empty user list")
    return sum(values) / len(values)


def initial_state(trace: TraceSet, video: VideoSpec, cfg: SimConfig) -> PlayerState:
    """Session start: empty buffer, lowest ladder entry, best visible satellite."""
    best_sat = trace.strongest_visible(0.0)
    if best_sat is None:
        raise SimulationError("no satellite visible at t=0")
    return PlayerState(
        chunk_index=0,
        wallclock_s=0.0,
        buffer_s=0.0,
        last_bitrate_idx=0,
        current_satellite=best_sat,
        rebuffer_total_s=0.0,
    )


@dataclass
class SessionResult:
    breakdown: QoEBreakdown
    decisions: tuple[Decision, ...]
    decision_latencies_s: tuple[float, ...]

    @property
    def handoff_count(self) -> int:
        return self.breakdown.handoff_count


def run_session(
    trace: TraceSet, controller, video: VideoSpec, cfg: SimConfig
) -> SessionResult:
    """Drive one client session: simulate_multi with this controller as its
    only user and no background load.

    The controller must provide decide(state, trace) -> Decision plus the
    observe_start / observe_chunk hooks used to feed its predictors. A
    failed session raises multiuser.MultiUserError, chained to the
    controller's or the simulator's exception.
    """
    # Imported here: multiuser imports planners, which imports this module.
    from .multiuser import MultiUserScenario, simulate_multi

    result = simulate_multi(MultiUserScenario(trace, [controller]), video, cfg)
    return SessionResult(
        breakdown=result.per_user[0],
        decisions=result.decisions[0],
        decision_latencies_s=result.decision_latencies_s[0],
    )


def _fmt9(x: float) -> float:
    return float(f"{x:.9g}")


def session_json(breakdown: QoEBreakdown, video: VideoSpec, cfg: SimConfig) -> dict:
    """Session result payload with floats trimmed to 9 significant digits."""
    return {
        "config": {
            "video": {
                "n_chunks": video.n_chunks,
                "chunk_duration_s": _fmt9(video.chunk_duration_s),
                "bitrate_ladder_mbps": [_fmt9(b) for b in video.bitrate_ladder_mbps],
            },
            "sim": {
                "mu1": _fmt9(cfg.mu1),
                "mu2": _fmt9(cfg.mu2),
                "mu3": _fmt9(cfg.mu3),
                "rtt_s": _fmt9(cfg.rtt_s),
                "handoff_delay_s": _fmt9(cfg.handoff_delay_s),
                "max_buffer_s": _fmt9(cfg.max_buffer_s),
                "dt_s": _fmt9(cfg.dt_s),
            },
        },
        "chunks": [
            {
                "chunk_index": oc.chunk_index,
                "bitrate_mbps": _fmt9(oc.bitrate_mbps),
                "satellite_id": oc.satellite_id,
                "download_time_s": _fmt9(oc.download_time_s),
                "rebuffer_s": _fmt9(oc.rebuffer_s),
                "handoff_performed": oc.handoff_performed,
                "drain_s": _fmt9(oc.drain_s),
                "qoe_quality": _fmt9(oc.qoe_quality),
                "qoe_rebuf_penalty": _fmt9(oc.qoe_rebuf_penalty),
                "qoe_smooth_penalty": _fmt9(oc.qoe_smooth_penalty),
            }
            for oc in breakdown.per_chunk
        ],
        "totals": {
            "quality": _fmt9(breakdown.quality_total),
            "rebuf_penalty": _fmt9(breakdown.rebuf_penalty_total),
            "smooth_penalty": _fmt9(breakdown.smooth_penalty_total),
            "qoe": _fmt9(breakdown.qoe_total),
        },
    }


__all__ = [
    "VideoSpec",
    "SimConfig",
    "PlayerState",
    "Decision",
    "ChunkOutcome",
    "QoEBreakdown",
    "RateSeries",
    "SessionResult",
    "SimulationError",
    "UnboundedDownloadError",
    "DEFAULT_LADDER_MBPS",
    "EXTENDED_LADDER_MBPS",
    "piecewise_download",
    "piecewise_downloads",
    "settle_chunk",
    "chunk_qoe",
    "validate_decision",
    "apply_chunk",
    "step_chunk",
    "session_qoe",
    "qos",
    "initial_state",
    "run_session",
    "session_json",
]
