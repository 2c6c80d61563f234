"""Jones-calculus conventions shared by the whole engine.

* a path amplitude is a two-component Jones vector (h, v) of complex numbers;
* a 50:50 splitter transmits with factor 1/sqrt(2) and reflects with factor
  i/sqrt(2), so reflection runs 90 degrees out of phase;
* propagation lengths are measured in wavelengths and only the fractional
  part carries phase;
* interfaces take angles in degrees, internals work in radians, and
  multiples of 45 degrees convert exactly.

What each element does to an amplitude, and the echo of an absorber (the
squared modulus of the coherent sum of what reaches it, per Jones component,
so orthogonally polarized paths add by intensity with no cross term), is
network's one sweep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

SQRT_HALF = math.sqrt(0.5)
TRANSMIT_FACTOR = complex(SQRT_HALF, 0.0)
REFLECT_FACTOR = complex(0.0, SQRT_HALF)

# exact values at multiples of 45 degrees, so axis-aligned projections
# extinguish exactly instead of leaving 1e-17 residue
_EXACT_COS = {
    0: 1.0,
    45: SQRT_HALF,
    90: 0.0,
    135: -SQRT_HALF,
    180: -1.0,
    225: -SQRT_HALF,
    270: 0.0,
    315: SQRT_HALF,
}


def cos_deg(angle: float) -> float:
    r = angle % 360.0
    exact = _EXACT_COS.get(r)
    if exact is not None:
        return exact
    return math.cos(math.radians(angle))


def sin_deg(angle: float) -> float:
    return cos_deg(angle - 90.0)


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class PolarizedAmplitude:
    """Jones vector; h and v are the horizontal and vertical components."""

    h: complex = 0j
    v: complex = 0j

    def __post_init__(self):
        if not (_finite(complex(self.h)) and _finite(complex(self.v))):
            raise ValueError("non-finite amplitude component")

    def __mul__(self, factor: complex) -> "PolarizedAmplitude":
        return PolarizedAmplitude(self.h * factor, self.v * factor)


VERTICAL = PolarizedAmplitude(v=1.0 + 0j)


def path_phase(length: float) -> complex:
    """Propagation factor exp(2*pi*i*length) for a length in wavelengths."""
    if length < 0:
        raise ValueError("negative path length")
    return cmath.rect(1.0, math.tau * (length % 1.0))

