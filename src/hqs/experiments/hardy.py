"""One-atom interaction-free measurement with a superposed blocker.

A Mach-Zehnder carries the photon; an atom prepared in x+ (an equal
superposition of box states z+ and z-) sits with its z+ box in arm v.
If the atom is actually in z+ it absorbs any arm-v photon; in z- the arm
is clear.  Detection at D2, the dark port, certifies which-way blocking
without absorption, leaving the atom in z+.  A D1 click leaves the atom
in (|z+> + 2|z->)/sqrt(5).

The joint (photon route, atom box) amplitudes are one network sweep: the
atom's box rides on the photon's polarization, so the atom is a polarizer
in arm v and each detector's x-basis atom readout is a polarizer before
it.  Outcome classes are D1.x+, D1.x-, D2.x+, D2.x-, plus "absorbed".
"""

from __future__ import annotations

import math

from ..network import EchoTable, Element, OpticalNetwork, network_echo_table
from ..wavecore import SQRT_HALF, PolarizedAmplitude

X_PLUS = (SQRT_HALF, SQRT_HALF)  # atom (z+, z-) amplitudes
# the polarizers' absorbed ports, as outcome classes
_OUTCOMES = {"atom.absorbed": "absorbed", "D1.absorbed": "D1.x-", "D2.absorbed": "D2.x-"}


def hardy_network(atom_state: tuple = X_PLUS) -> OpticalNetwork:
    """The apparatus with the atom's (z+, z-) box as the emission's (h, v).

    S1 transmits to arm w (mirror w) and reflects to arm v, where the
    polarizer atom at 90 degrees passes z- and absorbs z+.  S2 recombines
    them (v on input a), and behind each of its ports a polarizer at 45
    degrees passes the atom's x+ on to detector D1.x+ or D2.x+ and absorbs
    its x- as D1.absorbed or D2.absorbed.  An atom_state that is not
    normalized leaves the echo sum off one, which validation refuses.
    """
    elements = (
        Element("L", "source", outputs={"out": "S1:a"}),
        Element("S1", "beamsplitter", outputs={"out1": "w", "out2": "atom"}),
        Element("w", "mirror", outputs={"out": "S2:b"}),
        Element("atom", "polarizer", {"axis": 90.0}, {"out": "S2:a"}),
        Element("S2", "beamsplitter", outputs={"out1": "D1", "out2": "D2"}),
        Element("D1", "polarizer", {"axis": 45.0}, {"out": "D1.x+"}),
        Element("D2", "polarizer", {"axis": 45.0}, {"out": "D2.x+"}),
        Element("D1.x+", "detector"),
        Element("D2.x+", "detector"),
    )
    return OpticalNetwork(elements, "L", PolarizedAmplitude(*atom_state))


def hardy_table(atom_state: tuple = X_PLUS) -> EchoTable:
    """Five-way outcome probabilities, x-basis atom readout in D branches."""
    echoes = network_echo_table(hardy_network(atom_state)).entries
    return EchoTable(dict(sorted((_OUTCOMES.get(a, a), echo) for a, echo in echoes.items())))


def x_minus_conditionals(table: EchoTable | None = None) -> dict:
    """P(atom reads x- | detector clicked), from table (default: hardy_table())."""
    t = (hardy_table() if table is None else table).entries
    out = {}
    for det in ("D1", "D2"):
        total = t[f"{det}.x+"] + t[f"{det}.x-"]
        out[det] = t[f"{det}.x-"] / total if total > 0 else math.nan
    return out
