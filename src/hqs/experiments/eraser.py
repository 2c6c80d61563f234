"""Two-history pair interference with a polarization marker and eraser.

A pair can be produced on the pump's first pass (that history's idler
retraces through a quarter-wave plate twice) or on the second pass after
the pump mirror, whose position sets the scanned relative phase.  The two
production histories interfere in the coincidence rate.

* qwp_in=True flips the first-pass idler to horizontal, labeling the
  histories and flattening the fringe.
* eraser_in=True puts a 45-degree polarizer before the idler detector,
  making the projected histories indistinguishable again; fringes return
  at half the total rate, the rest landing on the filter.
* delayed=True records that the eraser sits farther from the crystal than
  the signal detector.  Nothing reads it; statistics are bit-identical.

Nominal bench scale (13 cm arms, 702 nm pairs from a 351 nm pump) sets no
observable here; only the scanned phase matters.
"""

from __future__ import annotations

import math

import numpy as np

from ..network import EchoTable, sample_counts
from ..wavecore import (
    HORIZONTAL,
    VERTICAL,
    born_echo,
    polarizer_project,
    polarizer_reject,
)
from .profiles import fringe_visibility

ERASER_AXIS = 45.0
OUTCOMES = ("coincidence", "idler_blocked", "no_pair")


def default_phase_scan(points: int = 32) -> tuple:
    return tuple(np.linspace(0.0, 2.0 * math.pi, points, endpoint=False))


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


def eraser_scan(
    qwp_in: bool,
    eraser_in: bool,
    delayed: bool = False,
    phase_scan=None,
    n: int | None = None,
    seed: int = 0,
) -> dict:
    """Coincidence rate across the phase scan, analytic and sampled.

    Returns phases, analytic rates, empirical rates (None without n) and
    the fringe visibility of whichever rate curve is most direct: sampled
    when Monte Carlo ran, analytic otherwise.
    """
    del delayed  # label only; the physics never sees it
    if phase_scan is None:
        phase_scan = default_phase_scan()
    phase_scan = tuple(float(p) for p in phase_scan)
    if len(phase_scan) < 8:
        raise ValueError("phase_scan needs at least 8 points")

    analytic = [eraser_rates(qwp_in, eraser_in, p)["coincidence"] for p in phase_scan]
    empirical = None
    if n is not None:
        if n < 1:
            raise ValueError("n must be >= 1")
        empirical = []
        for k, phase in enumerate(phase_scan):
            probs = eraser_rates(qwp_in, eraser_in, phase)
            counts = sample_counts(
                EchoTable({o: probs[o] for o in OUTCOMES}), n, seed, base_event_index=k * n
            )
            empirical.append(counts["coincidence"] / n)
    curve = empirical if empirical is not None else analytic
    return {
        "phases": phase_scan,
        "analytic": analytic,
        "empirical": empirical,
        "visibility": fringe_visibility(curve, interior=False),
    }


def eraser_visibility(
    qwp_in: bool,
    eraser_in: bool,
    delayed: bool = False,
    phase_scan=None,
    n: int | None = None,
    seed: int = 0,
) -> float:
    """Fringe visibility of the coincidence rate over the phase scan."""
    return eraser_scan(qwp_in, eraser_in, delayed, phase_scan, n, seed)["visibility"]
