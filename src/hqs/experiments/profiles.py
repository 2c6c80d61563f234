"""Shared result containers for the canned experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fringe_visibility(values, interior: bool = True) -> float:
    """(max - min) / (max + min) over a sampled fringe.

    interior=True drops the first and last sample, the convention for
    screen profiles whose edge bins sit on partial fringes.  A flat curve
    has visibility zero.
    """
    vals = np.asarray(values, dtype=float)
    if interior:
        if len(vals) < 3:
            raise ValueError("need at least 3 samples for interior visibility")
        vals = vals[1:-1]
    elif len(vals) < 1:
        raise ValueError("need at least 1 sample")
    hi = float(vals.max())
    lo = float(vals.min())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class IntensityProfile:
    """Normalized detection probabilities across screen bins."""

    bin_centers: tuple
    probabilities: tuple
    visibility: float

    def __post_init__(self):
        if len(self.bin_centers) != len(self.probabilities):
            raise ValueError("bin/probability length mismatch")
