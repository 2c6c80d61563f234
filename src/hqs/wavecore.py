"""Jones-calculus primitives and the detection-weight functional.

Conventions fixed here for the whole engine:

* a path amplitude is a two-component Jones vector (h, v) of complex numbers;
* a 50:50 splitter transmits with factor 1/sqrt(2) and reflects with factor
  i/sqrt(2), so reflection runs 90 degrees out of phase;
* propagation lengths are measured in wavelengths and only the fractional
  part carries phase;
* interfaces take angles in degrees, internals work in radians, and
  multiples of 45 degrees convert exactly.

The detection weight of an absorber is the squared modulus of the coherent
sum of every path amplitude arriving there, taken per Jones component, so
orthogonally polarized paths add by intensity with no cross term.
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

    def __add__(self, other: "PolarizedAmplitude") -> "PolarizedAmplitude":
        return PolarizedAmplitude(self.h + other.h, self.v + other.v)

    def __mul__(self, factor: complex) -> "PolarizedAmplitude":
        return PolarizedAmplitude(self.h * factor, self.v * factor)

    __rmul__ = __mul__

    def conj(self) -> "PolarizedAmplitude":
        return PolarizedAmplitude(
            complex(self.h).conjugate(), complex(self.v).conjugate()
        )

    def norm_sq(self) -> float:
        h, v = complex(self.h), complex(self.v)
        return h.real * h.real + h.imag * h.imag + v.real * v.real + v.imag * v.imag


VERTICAL = PolarizedAmplitude(v=1.0 + 0j)
HORIZONTAL = PolarizedAmplitude(h=1.0 + 0j)


def born_echo(amplitudes) -> float:
    """Detection weight of one absorber: the squared modulus of the coherent
    sum of the amplitudes that reach it."""
    if not amplitudes:
        raise ValueError("no paths")
    return sum(amplitudes, PolarizedAmplitude()).norm_sq()


def path_phase(length: float) -> complex:
    """Propagation factor exp(2*pi*i*length) for a length in wavelengths."""
    if length < 0:
        raise ValueError("negative path length")
    return cmath.rect(1.0, math.tau * (length % 1.0))


def polarizer_project(amp: PolarizedAmplitude, axis_deg: float) -> PolarizedAmplitude:
    """Project onto the pass axis (cos a, sin a); Malus attenuation included."""
    c, s = cos_deg(axis_deg), sin_deg(axis_deg)
    coef = amp.h * c + amp.v * s
    return PolarizedAmplitude(coef * c, coef * s)


def polarizer_reject(amp: PolarizedAmplitude, axis_deg: float) -> PolarizedAmplitude:
    """Component a polarizer at axis_deg absorbs (projection on axis + 90)."""
    c, s = cos_deg(axis_deg), sin_deg(axis_deg)
    coef = -amp.h * s + amp.v * c
    return PolarizedAmplitude(-coef * s, coef * c)


def waveplate_apply(amp: PolarizedAmplitude, axis_deg: float) -> PolarizedAmplitude:
    """Apply a half-wave plate with its fast axis at axis_deg.

    The plate reflects the Jones vector about the axis; at 45 degrees it
    swaps h and v.  A quarter-wave plate traversed out and back (mirror
    behind it) acts the same way.
    """
    c2, s2 = cos_deg(2.0 * axis_deg), sin_deg(2.0 * axis_deg)
    return PolarizedAmplitude(c2 * amp.h + s2 * amp.v, s2 * amp.h - c2 * amp.v)
