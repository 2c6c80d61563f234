"""Entangled-pair correlations, the CHSH sum, and the constraints that keep
that nonlocality from signalling: no-signalling, Tsirelson's bound and
Freedman's inequality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqs.experiments import EXPERIMENTS, chsh, chsh_analytic, epr_table
from hqs.experiments.entangled import CHSH_ANGLES, correlation
from hqs.network import EchoTable, sample_counts
from hqs.wavecore import sin_deg

# one turn of an analyzer: past 360, cos_deg converts the unreduced angle to
# radians, and the marginals then move by up to ~2e-15
angles = st.floats(0.0, 360.0, exclude_max=True)


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


def marginals(table) -> tuple:
    """Alice's P(H), P(V), then Bob's, of a joint table."""
    t = table.entries
    return t["HH"] + t["HV"], t["VH"] + t["VV"], t["HH"] + t["VH"], t["HV"] + t["VV"]


def assert_no_signalling(table, theta, other, other2):
    """Neither side's marginal moves by more than 1e-15 when the far analyzer
    turns from other to other2, the near one held at theta."""
    alice = [marginals(table(theta, r))[:2] for r in (other, other2)]
    bob = [marginals(table(l, theta))[2:] for l in (other, other2)]
    for before, after in (alice, bob):
        assert max(abs(x - y) for x, y in zip(before, after)) <= 1e-15, (before, after)


@given(angles, angles, angles)
@settings(max_examples=100, deadline=None)
def test_neither_marginal_depends_on_the_far_analyzer(theta, other, other2):
    # Popescu & Rohrlich, Found. Phys. 24, 379 (1994)
    assert_no_signalling(epr_table, theta, other, other2)


def leaky_table(theta_l: float, theta_r: float) -> EchoTable:
    """epr_table with 1e-3 sin^2(theta_r) moved from VH to HH: Alice's marginal reads Bob's analyzer."""
    t = dict(epr_table(theta_l, theta_r).entries)
    leak = 1e-3 * sin_deg(theta_r) ** 2
    t["HH"], t["VH"] = t["HH"] + leak, t["VH"] - leak
    return EchoTable(t)


def test_a_table_that_signals_fails_the_no_signalling_check():
    with pytest.raises(AssertionError):
        assert_no_signalling(leaky_table, 10.0, 0.0, 90.0)


@given(angles, angles, angles, angles)
@settings(max_examples=100, deadline=None)
def test_no_analyzer_quadruple_passes_tsirelsons_bound(a, ap, b, bp):
    # Cirel'son, Lett. Math. Phys. 4, 93 (1980)
    assert abs(chsh_analytic((a, ap, b, bp))) <= 2.0 * math.sqrt(2.0) + 1e-12


def test_freedmans_inequality_is_violated_by_a_quarter_of_root_two_less_one():
    # Freedman & Clauser, PRL 28, 938 (1972): local hidden variables keep
    # delta = |P_HH(22.5) - P_HH(67.5)| - 1/4 at or below 0
    settings_deg = (22.5, 67.5)
    p = [epr_table(theta, 0.0).entries["HH"] for theta in settings_deg]
    assert abs(p[0] - p[1]) - 0.25 == pytest.approx((math.sqrt(2.0) - 1.0) / 4.0, abs=1e-12)
    n = 10**6
    # each setting on its own event range, as chsh keys them
    hat = [sample_counts(epr_table(theta, 0.0), n, 0, s * n)["HH"] / n for s, theta in enumerate(settings_deg)]
    sigma = math.sqrt(sum(q * (1.0 - q) / n for q in hat))
    assert abs(hat[0] - hat[1]) - 0.25 > 4.0 * sigma
