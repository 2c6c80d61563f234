"""Entangled-pair correlations and the CHSH sum."""

import math

import numpy as np
import pytest

from hqs.experiments import EXPERIMENTS, chsh, chsh_analytic, epr_table
from hqs.experiments.entangled import CHSH_ANGLES, correlation
from hqs.network import sample_counts


def p_different(theta_l: float, theta_r: float) -> float:
    t = epr_table(theta_l, theta_r).entries
    return t["HV"] + t["VH"]


def tensor_oracle(theta_l: float, theta_r: float) -> dict:
    """Independent route: 4-dim state vector and explicit projectors.

    Builds |HH> + |VV> (normalized) in the product basis and projects on
    kron(e_l, e_r) for each analyzer outcome, instead of the module's
    per-outcome amplitude arithmetic.
    """
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)  # HH, HV, VH, VV
    tl, tr = math.radians(theta_l), math.radians(theta_r)
    basis_l = {"H": np.array([math.cos(tl), math.sin(tl)]),
               "V": np.array([-math.sin(tl), math.cos(tl)])}
    basis_r = {"H": np.array([math.cos(tr), math.sin(tr)]),
               "V": np.array([-math.sin(tr), math.cos(tr)])}
    out = {}
    for ol, el in basis_l.items():
        for orr, er in basis_r.items():
            amp = np.kron(el, er) @ psi
            out[ol + orr] = float(amp * amp)
    return out


@pytest.mark.parametrize("tl,tr", [(0, 0), (0, 22.5), (30, 75), (10, 100), (45, 0)])
def test_joint_table_matches_tensor_oracle(tl, tr):
    table = epr_table(tl, tr).entries
    oracle = tensor_oracle(tl, tr)
    for key in ("HH", "HV", "VH", "VV"):
        assert table[key] == pytest.approx(oracle[key], abs=1e-12)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_aligned_analyzers_always_agree():
    for theta in (0.0, 17.0, 45.0, 88.5):
        assert p_different(theta, theta) == pytest.approx(0.0, abs=1e-12)


def test_mismatch_follows_sin_squared():
    for delta in (0.0, 10.0, 22.5, 45.0, 60.0, 90.0):
        expected = math.sin(math.radians(delta)) ** 2
        assert p_different(delta, 0.0) == pytest.approx(expected, abs=1e-12)


def test_correlation_is_cosine_of_twice_the_mismatch():
    for tl, tr in ((0, 22.5), (15, 60), (90, 45)):
        assert correlation(tl, tr) == pytest.approx(
            math.cos(math.radians(2 * (tl - tr))), abs=1e-12
        )


def test_sampled_mismatch_curve_fits_sin_squared():
    n = 20_000
    deltas = np.linspace(0.0, 90.0, 19)
    residuals = []
    for i, delta in enumerate(deltas):
        counts = sample_counts(epr_table(float(delta), 0.0), n, 42, i * n)
        p_hat = (counts["HV"] + counts["VH"]) / n
        residuals.append(p_hat - math.sin(math.radians(delta)) ** 2)
    rms = math.sqrt(float(np.mean(np.square(residuals))))
    assert rms < 0.01, rms


def test_chsh_analytic_reaches_the_quantum_bound():
    assert chsh_analytic(CHSH_ANGLES) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def chsh_grid_max(step_deg: float = 15.0) -> float:
    """Largest analytic |S| over all four angles on a grid; stays at or
    below the 2*sqrt(2) bound."""
    grid = np.arange(0.0, 180.0, step_deg)
    # E depends only on angle differences; evaluate cos(2 delta) directly
    e = lambda x, y: math.cos(math.radians(2.0 * (x - y)))
    best = 0.0
    for a in grid:
        for ap in grid:
            for b in grid:
                for bp in grid:
                    s = e(a, b) - e(a, bp) + e(ap, b) + e(ap, bp)
                    best = max(best, abs(s))
    return best


def test_chsh_grid_never_exceeds_the_quantum_bound():
    # a grid missing the optimal geometry stays strictly below the bound
    assert chsh_grid_max(step_deg=15.0) <= 2.0 * math.sqrt(2.0) + 1e-9
    # one containing the 22.5-degree geometry attains it
    best = chsh_grid_max(step_deg=22.5)
    assert best <= 2.0 * math.sqrt(2.0) + 1e-9
    assert best == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_chsh_sampled():
    out = chsh(200_000, seed=6)
    assert out["analytic_S"] == pytest.approx(2.828, abs=0.001)
    assert abs(out["S"] - out["analytic_S"]) <= 4.0 * out["stderr"]
    assert len(out["per_setting"]) == 4


def test_epr_counts_reproducible():
    params = {"theta_l": 22.5, "theta_r": 0.0, "delta": None}
    a = EXPERIMENTS["epr"].run(params, 5_000, 3).counts
    b = EXPERIMENTS["epr"].run(params, 5_000, 3).counts
    assert a == b
