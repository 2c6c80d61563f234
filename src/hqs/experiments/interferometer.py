"""Mach-Zehnder interferometer, open or blocked, and the
interaction-free bomb-test recursion built on the blocked variant."""

from __future__ import annotations

from ..network import (
    EchoTable,
    Element,
    OpticalNetwork,
    network_echo_table,
    sample_counts,
    select_transaction,
)
from ..rng import RandomStream


def mz_network(blocked: bool = False) -> OpticalNetwork:
    """Balanced Mach-Zehnder: source L, splitters S1/S2, mirrors A/B,
    detectors D1/D2.  blocked=True parks an opaque object Obj on path A
    after mirror A, which kills the interference at S2."""
    elements = [
        Element("L", "source", outputs={"out": "S1:a"}),
        Element("S1", "beamsplitter", outputs={"out1": "A", "out2": "B"}),
        Element("A", "mirror", outputs={"out": "Obj" if blocked else "S2:a"}),
        Element("B", "mirror", outputs={"out": "S2:b"}),
        Element("S2", "beamsplitter", outputs={"out1": "D2", "out2": "D1"}),
        Element("D1", "detector"),
        Element("D2", "detector"),
    ]
    if blocked:
        elements.append(Element("Obj", "blocker"))
    return OpticalNetwork(tuple(elements), "L")


def mach_zehnder(blocked: bool = False) -> EchoTable:
    return network_echo_table(mz_network(blocked))


def run_mach_zehnder(blocked: bool, n: int, seed: int):
    """Echo table plus Monte Carlo counts over the interferometer ports."""
    table = mach_zehnder(blocked)
    return table, sample_counts(table, n, seed)


def ev_recursive(n_trials: int, seed: int) -> dict:
    """Repeat blocked-MZ shots until the photon is detected at D2 or
    absorbed by the object; a D1 click just sends another photon.

    D2 certifies the object without touching it.  Returns the detected and
    absorbed fractions plus mean photons per trial (expected 1/3, 2/3, 4/3).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    table = mach_zehnder(blocked=True)
    detected = 0
    shots_total = 0
    for trial in range(n_trials):
        stream = RandomStream(seed, trial)
        while True:
            shots_total += 1
            outcome = select_transaction(table, stream)
            if outcome == "D1":
                continue
            if outcome == "D2":
                detected += 1
            break
    return {
        "detected_at_d2": detected / n_trials,
        "absorbed": (n_trials - detected) / n_trials,
        "mean_photons_per_trial": shots_total / n_trials,
        "detected_count": detected,
        "absorbed_count": n_trials - detected,
        "trials": n_trials,
    }
