"""Isotropic emission into a detector ring.

The offer wave expands equally toward every detector; each event collapses
onto exactly one of them, uniformly.  The ring discretizes an isotropic
shell into n equal solid-angle patches; 64 is the default resolution.
"""

from __future__ import annotations

from ..network import Element, OpticalNetwork, network_echo_table, sample_counts

DEFAULT_DETECTORS = 64


def bubble_network(n_detectors: int = DEFAULT_DETECTORS) -> OpticalNetwork:
    if n_detectors < 2:
        raise ValueError("n_detectors must be >= 2")
    pad = len(str(n_detectors - 1))
    det_ids = [f"D{k:0{pad}d}" for k in range(n_detectors)]
    elements = [
        Element("src", "source", outputs={f"out{k:0{pad}d}": d for k, d in enumerate(det_ids)})
    ]
    elements += [Element(d, "detector") for d in det_ids]
    return OpticalNetwork(tuple(elements), "src")


def einstein_bubble(n_detectors: int, n_events: int | None, seed: int):
    """Counts over the ring; echo table is uniform at 1/n per detector."""
    table = network_echo_table(bubble_network(n_detectors))
    return table, sample_counts(table, n_events, seed) if n_events else None
