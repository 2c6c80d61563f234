"""Isotropic emission into a detector ring.

The offer wave expands equally toward every detector; each event collapses
onto exactly one of them, uniformly.  The ring discretizes an isotropic
shell into n equal solid-angle patches; 64 is the default resolution.
"""

from __future__ import annotations

from ..network import Element, OpticalNetwork

DEFAULT_DETECTORS = 64


def bubble_network(n_detectors: int = DEFAULT_DETECTORS) -> OpticalNetwork:
    if n_detectors < 2:
        raise ValueError("n_detectors must be >= 2")
    pad = len(str(n_detectors - 1))
    det_ids = ["D" + str(k).zfill(pad) for k in range(n_detectors)]
    elements = [Element("src", "source", outputs={"out" + d[1:]: d for d in det_ids})]  # port outK feeds DK
    elements += [Element(d, "detector") for d in det_ids]
    return OpticalNetwork(tuple(elements), "src")
