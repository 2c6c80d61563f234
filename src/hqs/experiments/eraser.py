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
* The registry's delayed=True records that the eraser sits farther from
  the crystal than the signal detector.  It is echoed in the run's spec
  and nothing else reads it; statistics are bit-identical.

Each phase's rates are the echoes of one network sweep (eraser_network):
the two histories are the two arms between a pair of splitters.  Nominal
bench scale (13 cm arms, 702 nm pairs from a 351 nm pump) sets no
observable here; only the scanned phase matters.
"""

from __future__ import annotations

import math

import numpy as np

from ..network import Element, OpticalNetwork, network_echo_table, sample_counts
from .profiles import fringe_visibility

ERASER_AXIS = 45.0


def default_phase_scan(points: int = 32) -> tuple:
    return tuple(np.linspace(0.0, 2.0 * math.pi, points, endpoint=False))


def eraser_network(qwp_in: bool, eraser_in: bool, phase: float) -> OpticalNetwork:
    """The two production histories as the arms of a splitter pair.

    The vertical pump enters S1:a.  Arm first (S1.out1 -> S2:a) is a mirror,
    or a half-wave plate at 45 degrees that turns the idler horizontal when
    qwp_in is set; arm second (S1.out2 -> S2:b) is a phase segment of
    phase/2pi wavelengths, taken mod 1 so that a negative phase is a length.  Each history reflects once on its way to S2.out2,
    the coincidence detector, so the fringe there is (1 + cos phase)/2; S2.out1
    is no_pair.  With eraser_in, a polarizer idler at ERASER_AXIS stands
    before the coincidence detector, and its idler.absorbed port is the
    blocked idler.
    """
    if qwp_in:
        first = Element("first", "halfwave_plate", {"axis": 45.0}, {"out": "S2:a"})
    else:
        first = Element("first", "mirror", outputs={"out": "S2:a"})
    elements = [
        Element("pump", "source", outputs={"out": "S1:a"}),
        Element("S1", "beamsplitter", outputs={"out1": "first", "out2": "second"}),
        first,
        Element("second", "phase_segment", {"length": phase / math.tau % 1.0}, {"out": "S2:b"}),
        Element("S2", "beamsplitter", outputs={"out1": "no_pair", "out2": "idler" if eraser_in else "coincidence"}),
        Element("no_pair", "detector"),
        Element("coincidence", "detector"),
    ]
    if eraser_in:
        elements.append(Element("idler", "polarizer", {"axis": ERASER_AXIS}, {"out": "coincidence"}))
    return OpticalNetwork(tuple(elements), "pump")


def eraser_scan(
    qwp_in: bool,
    eraser_in: bool,
    phase_scan=None,
    n: int | None = None,
    seed: int = 0,
) -> dict:
    """Coincidence rate across the phase scan, analytic and sampled.

    Returns phases, analytic rates, empirical rates (None without n) and
    the fringe visibility of whichever rate curve is most direct: sampled
    when Monte Carlo ran, analytic otherwise.  Each phase's counts are
    drawn from the very table its analytic rate is read from.
    """
    if phase_scan is None:
        phase_scan = default_phase_scan()
    phase_scan = tuple(float(p) for p in phase_scan)
    if len(phase_scan) < 8:
        raise ValueError("phase_scan needs at least 8 points")
    if n is not None and n < 1:
        raise ValueError("n must be >= 1")

    tables = [network_echo_table(eraser_network(qwp_in, eraser_in, p)) for p in phase_scan]
    analytic = [t.entries["coincidence"] for t in tables]
    empirical = None
    if n is not None:
        empirical = [
            sample_counts(t, n, seed, base_event_index=k * n)["coincidence"] / n
            for k, t in enumerate(tables)
        ]
    curve = empirical if empirical is not None else analytic
    return {
        "phases": phase_scan,
        "analytic": analytic,
        "empirical": empirical,
        "visibility": fringe_visibility(curve, interior=False),
    }
