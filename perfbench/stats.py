"""Summary statistics: medians, tail percentiles with enough samples."""

from __future__ import annotations

import math
import statistics

__all__ = [
    "TAIL_CANDIDATES",
    "MIN_BEYOND",
    "percentile",
    "samples_beyond",
    "tail",
    "median",
    "geomean",
    "best_of",
    "best_window_median",
]

#: A tail percentile is reported only with at least this many samples
#: ranked beyond it; fewer make the "tail" one or two unlucky requests.
MIN_BEYOND = 10

#: Tail percentiles tried from the highest down.
TAIL_CANDIDATES = (99.0, 90.0, 75.0)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % of the
    samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail(
    samples: list[float], candidates: tuple[float, ...] = TAIL_CANDIDATES
) -> tuple[float, float] | None:
    """``(pct, value)`` for the highest candidate percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` when none has."""
    for pct in candidates:
        if samples_beyond(len(samples), pct) >= MIN_BEYOND:
            return pct, percentile(samples, pct)
    return None


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values (ratios average this way)."""
    return math.exp(statistics.fmean(math.log(v) for v in values))


def best_of(samples_by_op: dict) -> float:
    """Median over operations of each operation's fastest repetition.

    A shared host's speed drifts by a fifth within seconds; the fastest
    of several repetitions of one operation is the least drifted
    measurement of it (best-of-N).
    """
    return median([min(samples) for samples in samples_by_op.values()])


def best_window_median(stamped: list[tuple[float, float]], window: float) -> float:
    """The lowest median among fixed windows of ``(time, sample)`` pairs.

    Best-of-N for a stream of many short operations: each ``window``
    seconds of the run is one repetition of the traffic mix.  The last
    window is cut short by the end of the run and is left out.
    """
    if not stamped:
        raise ValueError("no samples")
    start = min(t for t, _ in stamped)
    windows: dict[int, list[float]] = {}
    for t, sample in stamped:
        windows.setdefault(int((t - start) // window), []).append(sample)
    complete = [windows[k] for k in sorted(windows)[:-1]] or list(windows.values())
    return min(median(samples) for samples in complete)

