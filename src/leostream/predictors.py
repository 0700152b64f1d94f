"""Future-throughput estimators feeding the planners.

Three flavors: plain harmonic mean over a short history window, the
error-corrected conservative variant (harmonic mean divided by one plus
the worst recent relative error), and a perfect-foresight oracle that
reads the true trace.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .simcore import RateSeries
from .traces import TraceSet

HISTORY_WINDOW = 5
ERROR_WINDOW = 5
MIN_OBSERVED_MBPS = 0.01


class ThroughputHistory:
    """Ring buffer of the last HISTORY_WINDOW (timestamp_s, observed_mbps) pairs."""

    def __init__(self):
        self._items: deque[tuple[float, float]] = deque(maxlen=HISTORY_WINDOW)

    def append(self, observed_mbps: float, timestamp_s: float | None = None) -> None:
        if observed_mbps < 0:
            raise ValueError("observations must be >= 0")
        if timestamp_s is None:
            timestamp_s = self._items[-1][0] + 1.0 if self._items else 0.0
        if self._items and timestamp_s <= self._items[-1][0]:
            raise ValueError("timestamps must be strictly increasing")
        self._items.append((timestamp_s, observed_mbps))

    def values(self) -> list[float]:
        return [v for _, v in self._items]

    def __len__(self) -> int:
        return len(self._items)


class ErrorTracker:
    """The last ERROR_WINDOW relative prediction errors, oldest evicted first."""

    def __init__(self):
        self._errors: deque[float] = deque(maxlen=ERROR_WINDOW)

    def record(self, error: float) -> None:
        if error < 0:
            raise ValueError("errors must be >= 0")
        self._errors.append(error)

    def max_error(self) -> float:
        return max(self._errors) if self._errors else 0.0

    def values(self) -> list[float]:
        return list(self._errors)

    def __len__(self) -> int:
        return len(self._errors)


def harmonic_mean(history) -> float:
    """n / sum(1/C_i) over the window; zero samples floored at 0.01 Mbps."""
    values = history.values() if isinstance(history, ThroughputHistory) else list(history)
    if not values:
        raise ValueError("harmonic mean of an empty history")
    inv = sum(1.0 / max(v, MIN_OBSERVED_MBPS) for v in values)
    return len(values) / inv


def robust_predict(history, errors: ErrorTracker) -> float:
    """Harmonic mean discounted by the worst recent relative error."""
    return harmonic_mean(history) / (1.0 + errors.max_error())


def observe(
    history: ThroughputHistory,
    errors: ErrorTracker,
    predicted_mbps: float,
    actual_mbps: float,
    timestamp_s: float | None = None,
) -> None:
    """Record a realized throughput and its prediction error."""
    if actual_mbps <= 0:
        raise ValueError("actual throughput must be > 0")
    history.append(actual_mbps, timestamp_s)
    errors.record(abs(predicted_mbps - actual_mbps) / actual_mbps)


class PredictorBank:
    """Per-satellite robust estimator state for one session.

    The serving satellite is observed through its realized chunk transfer
    rate; other visible satellites are observed through the instantaneous
    trace sample at the decision epoch. Nothing resets on handoff.
    """

    def __init__(self):
        self._history: dict[int, ThroughputHistory] = {}
        self._errors: dict[int, ErrorTracker] = {}
        self._last_prediction: dict[int, float] = {}

    def _slot(self, sat_id: int) -> tuple[ThroughputHistory, ErrorTracker]:
        if sat_id not in self._history:
            self._history[sat_id] = ThroughputHistory()
            self._errors[sat_id] = ErrorTracker()
        return self._history[sat_id], self._errors[sat_id]

    def record(self, sat_id: int, actual_mbps: float, timestamp_s: float) -> None:
        history, errors = self._slot(sat_id)
        actual = max(actual_mbps, MIN_OBSERVED_MBPS)
        predicted = self._last_prediction.get(sat_id)
        if predicted is None:
            # First sighting: seed the history without a paired error.
            history.append(actual, timestamp_s)
        else:
            observe(history, errors, predicted, actual, timestamp_s)

    def observe_epoch(
        self,
        trace: TraceSet,
        t: float,
        serving_sat: int | None = None,
        serving_actual_mbps: float | None = None,
    ) -> None:
        """Feed one decision epoch's measurements for every visible satellite.

        The serving satellite is scored by the conservative of its two
        available measurements: the realized transfer rate of the chunk
        just fetched (which reflects sharing) and the instantaneous link
        sample (which reflects a fresh obstruction before the next chunk
        commits to it).
        """
        visible = trace.visible_at(t)
        serving = [] if serving_sat is None or serving_sat in visible else [serving_sat]
        for sat in visible + serving:
            actual = trace.rate_at(sat, t)
            if sat == serving_sat and serving_actual_mbps is not None:
                actual = min(serving_actual_mbps, actual) if sat in visible else serving_actual_mbps
            self.record(sat, actual, t)

    def has_history(self, sat_id: int) -> bool:
        return sat_id in self._history and len(self._history[sat_id]) > 0

    def predict(self, sat_id: int) -> float:
        """Conservative scalar forecast; remembered for error tracking.

        A window that still contains floor-level samples (the satellite
        rose from its pass edge moments ago) would let the harmonic mean
        collapse toward the floor for the whole window; in that case the
        latest observation is used as the base estimate instead, with the
        same error discount.
        """
        history, errors = self._slot(sat_id)
        values = history.values()
        if not values:
            raise ValueError(f"no observations yet for satellite {sat_id}")
        if min(values) <= MIN_OBSERVED_MBPS:
            value = values[-1] / (1.0 + errors.max_error())
        else:
            value = robust_predict(history, errors)
        self._last_prediction[sat_id] = value
        return value


class OracleProvider:
    """Perfect-foresight predictions backed by the trace itself."""

    def __init__(self, trace: TraceSet):
        self.trace = trace

    def link(self, sat_id: int, t: float, horizon_s: float) -> RateSeries:
        """True future throughput as a rate series anchored on the trace grid."""
        i0 = self.trace.clamped_index(t)
        end = min(
            self.trace.n_samples,
            max(i0 + 1, int(np.ceil((t + horizon_s) / self.trace.sample_dt))),
        )
        return RateSeries(
            i0 * self.trace.sample_dt,
            self.trace.sample_dt,
            self.trace.track(sat_id).throughput_mbps[i0:end],
        )

    def scalar(self, sat_id: int, t: float, horizon_s: float) -> float:
        """Mean of the oracle window, used only to rank candidates."""
        return float(np.mean(self.link(sat_id, t, horizon_s).rates))
