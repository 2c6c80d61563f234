"""One-atom interaction-free measurement with a superposed blocker."""

import math

import numpy as np
import pytest

from hqs.experiments import EXPERIMENTS, hardy_table, x_minus_conditionals
from hqs.experiments.hardy import X_PLUS, hardy_network


def detector_probabilities(atom_state: tuple = X_PLUS) -> dict:
    t = hardy_table(atom_state).entries
    return {
        "absorbed": t["absorbed"],
        "D1": t["D1.x+"] + t["D1.x-"],
        "D2": t["D2.x+"] + t["D2.x-"],
    }


def matrix_oracle() -> dict:
    """Independent route: full joint state in a fixed product basis.

    Basis order: atom z+/z- (x) photon mode, modes = (v-arm, w-arm,
    absorbed, D1, D2).  The blocking interaction and the recombining
    splitter are explicit matrices on the joint space; outcome
    probabilities come from projector norms, not per-history sums.
    """
    sqrt_half = math.sqrt(0.5)
    # joint state after the first splitter: atom in x+ = (z+ + z-)/sqrt 2,
    # photon v with amplitude i/sqrt2, w with 1/sqrt2
    atom = np.array([sqrt_half, sqrt_half])
    photon = np.array([1j * sqrt_half, sqrt_half, 0.0, 0.0, 0.0])
    state = np.kron(atom, photon).astype(complex)  # shape (10,)

    def idx(a, m):
        return a * 5 + m

    # blocking: the z+ atom absorbs the v-arm photon into mode 2
    blocked = np.zeros_like(state)
    for a in (0, 1):
        for m in range(5):
            amp = state[idx(a, m)]
            if amp == 0:
                continue
            if a == 0 and m == 0:
                blocked[idx(a, 2)] += amp
            else:
                blocked[idx(a, m)] += amp

    # recombiner: v -> (i D2 + D1)/sqrt2 ... careful: transmit v->D1? No:
    # convention t = 1/sqrt2 straight through, r = i/sqrt2 on reflection.
    # Geometry: v transmits to D1, reflects to D2; w transmits to D2,
    # reflects to D1.
    final = np.zeros_like(blocked)
    for a in (0, 1):
        final[idx(a, 3)] += blocked[idx(a, 0)] * sqrt_half          # v -t-> D1
        final[idx(a, 4)] += blocked[idx(a, 0)] * 1j * sqrt_half     # v -r-> D2
        final[idx(a, 4)] += blocked[idx(a, 1)] * sqrt_half          # w -t-> D2
        final[idx(a, 3)] += blocked[idx(a, 1)] * 1j * sqrt_half     # w -r-> D1
        final[idx(a, 2)] += blocked[idx(a, 2)]

    probs = {}
    probs["absorbed"] = float(sum(abs(final[idx(a, 2)]) ** 2 for a in (0, 1)))
    # detector clicks resolved in the atom x basis: x+- = (z+ +- z-)/sqrt2
    for det, m in (("D1", 3), ("D2", 4)):
        plus = (final[idx(0, m)] + final[idx(1, m)]) * sqrt_half
        minus = (final[idx(0, m)] - final[idx(1, m)]) * sqrt_half
        probs[f"{det}.x+"] = float(abs(plus) ** 2)
        probs[f"{det}.x-"] = float(abs(minus) ** 2)
    return probs


def test_outcome_table_matches_matrix_oracle():
    oracle = matrix_oracle()
    table = hardy_table().entries
    assert set(table) == set(oracle)
    for key, value in oracle.items():
        assert table[key] == pytest.approx(value, abs=1e-12), key
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_headline_probabilities():
    dets = detector_probabilities()
    assert dets["absorbed"] == pytest.approx(0.25, abs=1e-12)
    assert dets["D1"] == pytest.approx(0.625, abs=1e-12)
    assert dets["D2"] == pytest.approx(0.125, abs=1e-12)


def test_dark_port_conditionals():
    conds = x_minus_conditionals()
    # a D2 click leaves the atom half x-minus; a D1 click only 10%
    assert conds["D2"] == pytest.approx(0.5, abs=1e-12)
    assert conds["D1"] == pytest.approx(0.1, abs=1e-12)


def test_transparent_atom_restores_the_bright_port():
    # forcing the atom into z- removes the blocker; D2 goes dark
    network = hardy_network(atom_state=(0.0, 1.0))
    table = hardy_table(atom_state=(0.0, 1.0)).entries
    assert table["absorbed"] == pytest.approx(0.0, abs=1e-15)
    d2 = table["D2.x+"] + table["D2.x-"]
    d1 = table["D1.x+"] + table["D1.x-"]
    assert d2 == pytest.approx(0.0, abs=1e-15)
    assert d1 == pytest.approx(1.0, abs=1e-12)
    assert network  # the network is exposed for inspection


def test_monte_carlo_outcomes():
    n = 100_000
    result = EXPERIMENTS["hardy"].run({}, n, 4)
    counts = result.counts
    assert sum(counts.values()) == n
    for key, p in result.analytic.items():
        bound = 4.0 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[key] / n - p) <= bound, key
    # conditional statistics at the dark port
    d2_events = counts["D2.x+"] + counts["D2.x-"]
    assert d2_events >= 10_000
    assert counts["D2.x-"] / d2_events == pytest.approx(0.5, abs=0.02)


def test_atom_state_must_be_normalized():
    with pytest.raises(ValueError):
        hardy_table(atom_state=(1.0, 1.0))
    assert math.fsum(hardy_table(atom_state=X_PLUS).entries.values()) == pytest.approx(1.0)
