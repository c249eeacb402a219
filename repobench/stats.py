"""Order statistics over one run's samples.

Every timing the benchmark prints is a median over many samples, printed
with its sample count and quartiles.  A tail percentile is only emitted
when at least ten samples lie beyond it, so it is never a single sample.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: Minimum number of samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def summary(values: Sequence[float]) -> Tuple[int, float, float, float]:
    """``(count, median, first quartile, third quartile)`` of ``values``."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return 1, values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return len(values), statistics.median(values), q1, q3


def tail(values: Sequence[float], quantile: float) -> Optional[float]:
    """Nearest-rank ``quantile`` of ``values``, or ``None`` when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    count = len(values)
    rank = math.ceil(quantile * count)
    if count - rank < TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def histogram_delta(after: Mapping[str, int], before: Mapping[str, int]) -> Dict[str, int]:
    """Bucket counts added between two snapshots of one log2 histogram."""
    return {
        label: count - before.get(label, 0)
        for label, count in after.items()
        if count - before.get(label, 0) > 0
    }
