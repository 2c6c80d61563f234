"""One-atom interaction-free measurement with a superposed blocker.

A Mach-Zehnder carries the photon; an atom prepared in x+ (an equal
superposition of box states z+ and z-) sits with its z+ box in arm v.
If the atom is actually in z+ it absorbs any arm-v photon; in z- the arm
is clear.  Joint amplitudes over (photon route, atom box) are enumerated
exactly; detection at D2, the dark port, certifies which-way blocking
without absorption, leaving the atom in z+.  A D1 click leaves the atom
in (|z+> + 2|z->)/sqrt(5).

Outcome classes carry the atom's subsequent x-basis measurement for the
detector branches: D1.x+, D1.x-, D2.x+, D2.x-, plus "absorbed".
"""

from __future__ import annotations

import math

from ..network import EchoTable, sample_counts
from ..wavecore import REFLECT_FACTOR, SQRT_HALF, TRANSMIT_FACTOR

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


def detector_probabilities(atom_state: tuple = X_PLUS) -> dict:
    t = hardy_table(atom_state).entries
    return {
        "absorbed": t["absorbed"],
        "D1": t["D1.x+"] + t["D1.x-"],
        "D2": t["D2.x+"] + t["D2.x-"],
    }


def x_minus_conditionals(atom_state: tuple = X_PLUS) -> dict:
    """P(atom reads x- | detector clicked)."""
    t = hardy_table(atom_state).entries
    out = {}
    for det in ("D1", "D2"):
        total = t[f"{det}.x+"] + t[f"{det}.x-"]
        out[det] = t[f"{det}.x-"] / total if total > 0 else math.nan
    return out


def run_hardy(n: int, seed: int, atom_state: tuple = X_PLUS):
    table = hardy_table(atom_state)
    counts = sample_counts(table, n, seed)
    return table, counts
