"""Polarization-entangled pair measured by two linear analyzers.

The pair state is (|HH> + |VV>)/sqrt(2).  Each side resolves onto its
analyzer basis {e(theta), e(theta+90)}; the four joint outcomes carry the
squared joint amplitudes, and one outcome completes per event.  The
correlation E(tL, tR) = cos 2(tL - tR), which drives the CHSH sum to
2*sqrt(2) at the standard angle set.
"""

from __future__ import annotations

import math

from ..network import EchoTable, sample_counts
from ..wavecore import cos_deg, sin_deg

CHSH_ANGLES = (0.0, 45.0, 22.5, 67.5)  # a, a', b, b'


def _analyzer_basis(theta_deg: float):
    c, s = cos_deg(theta_deg), sin_deg(theta_deg)
    return {"H": (c, s), "V": (-s, c)}


def epr_table(theta_l: float, theta_r: float) -> EchoTable:
    """Joint outcome probabilities from the four projected amplitudes."""
    left = _analyzer_basis(theta_l)
    right = _analyzer_basis(theta_r)
    probs = {}  # filled in sorted key order: HH, HV, VH, VV
    for ol, el in left.items():
        for orr, er in right.items():
            # <e_l (x) e_r | (|HH> + |VV>)/sqrt(2)>
            amp = (el[0] * er[0] + el[1] * er[1]) / math.sqrt(2.0)
            probs[ol + orr] = amp * amp
    return EchoTable(probs)


def correlation(theta_l: float, theta_r: float) -> float:
    t = epr_table(theta_l, theta_r).entries
    return t["HH"] + t["VV"] - t["HV"] - t["VH"]


def chsh_analytic(angles=CHSH_ANGLES) -> float:
    a, ap, b, bp = angles
    return (
        correlation(a, b) - correlation(a, bp) + correlation(ap, b) + correlation(ap, bp)
    )


def chsh(n_per_setting: int, seed: int, angles=CHSH_ANGLES) -> dict:
    """CHSH sum from four measured settings.

    Setting s samples events with indices offset by s * n_per_setting so
    every draw stays keyed to (seed, event) alone.
    """
    a, ap, b, bp = angles
    settings = [(a, b, +1), (a, bp, -1), (ap, b, +1), (ap, bp, +1)]
    S = 0.0
    variance = 0.0
    per_setting = {}
    for s_index, (tl, tr, sign) in enumerate(settings):
        counts = sample_counts(epr_table(tl, tr), n_per_setting, seed, s_index * n_per_setting)
        same = counts["HH"] + counts["VV"]
        diff = counts["HV"] + counts["VH"]
        e_hat = (same - diff) / n_per_setting
        S += sign * e_hat
        variance += (1.0 - e_hat**2) / n_per_setting
        per_setting[f"E({tl:g},{tr:g})"] = e_hat
    return {
        "S": S,
        "stderr": math.sqrt(variance),
        "analytic_S": chsh_analytic(angles),
        "per_setting": per_setting,
    }

