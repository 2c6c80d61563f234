"""Hand-built optics: the element operators and tables the network sweep replaced.

Not a test module: tests import it as the reference that network._sweep
and the network-built experiment tables are checked against.  Each
operator acts on one Jones vector, and the echo of an absorber is
born_echo of the amplitudes of its routes.  hardy_amplitudes, hardy_table
and eraser_rates are the hand tables the Hardy and eraser experiments
computed before they became networks, kept as they were.
"""

from __future__ import annotations

import math

from hqs import wavecore
from hqs.network import EchoTable
from hqs.wavecore import REFLECT_FACTOR, SQRT_HALF, TRANSMIT_FACTOR, cos_deg, sin_deg


class PolarizedAmplitude(wavecore.PolarizedAmplitude):
    """hqs's Jones vector with the algebra of a route reference: sums,
    scaling from either side, conjugation and the squared norm."""

    def __add__(self, other: wavecore.PolarizedAmplitude) -> "PolarizedAmplitude":
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


X_PLUS = (SQRT_HALF, SQRT_HALF)  # atom (z+, z-) amplitudes


def hardy_amplitudes(atom_state: tuple = X_PLUS) -> dict:
    """Joint amplitudes after the full traversal.

    Keys: ("absorbed", None) and (detector, box) for detector in D1/D2,
    box in z+/z-.  atom_state gives the initial (z+, z-) amplitudes.
    """
    az_plus, az_minus = atom_state
    if abs(abs(az_plus) ** 2 + abs(az_minus) ** 2 - 1.0) > 1e-9:
        raise ValueError("atom_state must be normalized")
    # after the first splitter: arm v reflects (i factor), arm w transmits
    arm = {"v": REFLECT_FACTOR, "w": TRANSMIT_FACTOR}
    joint = {("v", "z+"): arm["v"] * az_plus, ("v", "z-"): arm["v"] * az_minus,
             ("w", "z+"): arm["w"] * az_plus, ("w", "z-"): arm["w"] * az_minus}

    amps: dict = {("absorbed", None): joint.pop(("v", "z+"))}

    # second splitter: v transmits to D1 / reflects to D2, w the reverse
    s2 = {
        "v": {"D1": TRANSMIT_FACTOR, "D2": REFLECT_FACTOR},
        "w": {"D1": REFLECT_FACTOR, "D2": TRANSMIT_FACTOR},
    }
    for (arm_label, box), amp in joint.items():
        for det, factor in s2[arm_label].items():
            key = (det, box)
            amps[key] = amps.get(key, 0j) + amp * factor
    return amps


def hardy_table(atom_state: tuple = X_PLUS) -> EchoTable:
    """Five-way outcome probabilities, x-basis atom readout in D branches."""
    amps = hardy_amplitudes(atom_state)
    out = {}  # filled in sorted key order
    for det in ("D1", "D2"):
        plus = amps.get((det, "z+"), 0j)
        minus = amps.get((det, "z-"), 0j)
        # x+- = (z+ +- z-)/sqrt(2)
        out[f"{det}.x+"] = abs((plus + minus) * SQRT_HALF) ** 2
        out[f"{det}.x-"] = abs((plus - minus) * SQRT_HALF) ** 2
    out["absorbed"] = abs(amps[("absorbed", None)]) ** 2
    return EchoTable(out)


ERASER_AXIS = 45.0


def eraser_rates(qwp_in: bool, eraser_in: bool, phase: float) -> dict:
    """Outcome probabilities at one pump-mirror phase.

    Each history carries production amplitude 1/2; the first-pass history
    reaches the idler detector as H when the plate is in, V otherwise, and
    the second-pass history is always V with the scanned phase attached.
    """
    first = (HORIZONTAL if qwp_in else VERTICAL) * 0.5
    second = VERTICAL * (0.5 * complex(math.cos(phase), math.sin(phase)))
    histories = [first, second]

    if eraser_in:
        passed = [polarizer_project(a, ERASER_AXIS) for a in histories]
        blocked = [polarizer_reject(a, ERASER_AXIS) for a in histories]
        p_coinc = born_echo(passed)
        p_blocked = born_echo(blocked)
    else:
        p_coinc = born_echo(histories)
        p_blocked = 0.0
    return {
        "coincidence": p_coinc,
        "idler_blocked": p_blocked,
        "no_pair": max(0.0, 1.0 - p_coinc - p_blocked),
    }
