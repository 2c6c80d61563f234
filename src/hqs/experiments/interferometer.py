"""Mach-Zehnder interferometer, open or blocked, and the
interaction-free bomb-test recursion built on the blocked variant."""

from __future__ import annotations

import numpy as np

from ..network import (
    EchoTable,
    Element,
    OpticalNetwork,
    network_echo_table,
    replay,
)

# trials per ev_recursive block: each round pays its numpy calls once per
# block, so its blocks stay larger than the samplers' network._CHUNK
_EV_BLOCK = 1 << 16
# rounds after which ev_recursive gives up: a trial is still live after 64
# rounds with probability P(D1)^64 = 4^-64, so reaching the cap means the
# draws repeat across rounds, and the loop would otherwise never end
_EV_MAX_ROUNDS = 64


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


def ev_recursive(n_trials: int, seed: int) -> dict:
    """Repeat blocked-MZ shots until the photon is detected at D2 or
    absorbed by the object; a D1 click just sends another photon.

    D2 certifies the object without touching it.  Returns the detected and
    absorbed fractions plus mean photons per trial (expected 1/3, 2/3, 4/3).
    Vectorised by rounds; shot j of trial i draws (seed, i, j).  Trials run
    in blocks of _EV_BLOCK, and in round j every trial still live after j D1
    clicks fires its next shot; a block still live after _EV_MAX_ROUNDS
    rounds raises RuntimeError.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    table = mach_zehnder(blocked=True)
    ids = sorted(table.entries)
    d1, d2 = ids.index("D1"), ids.index("D2")
    detected = 0
    shots_total = 0
    for start in range(0, n_trials, _EV_BLOCK):
        live = np.arange(start, min(start + _EV_BLOCK, n_trials), dtype=np.uint64)
        draw = 0
        while live.size:
            if draw == _EV_MAX_ROUNDS:
                raise RuntimeError(f"ev_recursive: {live.size} trials still live after {draw} rounds")
            idx = replay(table, seed, live, draw)
            shots_total += live.size
            detected += int(np.count_nonzero(idx == d2))
            live = live[idx == d1]
            draw += 1
    return {
        "detected_at_d2": detected / n_trials,
        "absorbed": (n_trials - detected) / n_trials,
        "mean_photons_per_trial": shots_total / n_trials,
        "detected_count": detected,
        "absorbed_count": n_trials - detected,
        "trials": n_trials,
    }
