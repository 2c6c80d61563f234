"""Balanced interferometer and the interaction-free detection protocol."""

import math

import pytest

from hqs.experiments import EXPERIMENTS, ev_recursive, mach_zehnder


def test_open_interferometer_sends_everything_to_the_bright_port():
    table = mach_zehnder(blocked=False)
    assert table.entries["D1"] == pytest.approx(1.0)
    assert table.entries["D2"] == pytest.approx(0.0, abs=1e-15)


def test_blocked_interferometer_redistributes():
    table = mach_zehnder(blocked=True)
    assert table.entries["D1"] == pytest.approx(0.25)
    assert table.entries["D2"] == pytest.approx(0.25)
    assert table.entries["Obj"] == pytest.approx(0.5)


def test_monte_carlo_matches_the_analytic_split():
    n = 20_000
    result = EXPERIMENTS["mz"].run({"blocked": True}, n, 11)
    counts = result.counts
    for name, p in result.analytic.items():
        bound = 4.0 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[name] / n - p) <= bound, name
    assert sum(counts.values()) == n


def test_open_interferometer_never_clicks_dark_port():
    counts = EXPERIMENTS["mz"].run({"blocked": False}, 10_000, 2).counts
    assert counts["D2"] == 0


def geometric_protocol_oracle(max_shots: int = 200):
    """Independent closed forms for the retry protocol.

    Per shot: D1 with 1/4 (inconclusive, try again), D2 with 1/4
    (certified), absorbed with 1/2.  Summing the geometric series:
    P(D2) = (1/4)/(3/4), P(absorbed) = (1/2)/(3/4), and the shot count
    distribution is geometric with mean 1/(3/4).
    """
    p_d2 = sum((0.25**m) * 0.25 for m in range(max_shots))
    p_abs = sum((0.25**m) * 0.5 for m in range(max_shots))
    mean_shots = sum((m + 1) * (0.25**m) * 0.75 for m in range(max_shots))
    return p_d2, p_abs, mean_shots


def test_recursive_protocol_statistics():
    p_d2, p_abs, mean_shots = geometric_protocol_oracle()
    assert p_d2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert p_abs == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert mean_shots == pytest.approx(4.0 / 3.0, abs=1e-12)

    out = ev_recursive(100_000, seed=7)
    assert out["detected_count"] + out["absorbed_count"] == out["trials"] == 100_000
    assert out["detected_at_d2"] == pytest.approx(p_d2, abs=0.012)
    assert out["absorbed"] == pytest.approx(p_abs, abs=0.012)
    assert out["mean_photons_per_trial"] == pytest.approx(mean_shots, abs=0.01)


def test_recursion_is_seed_reproducible():
    a = ev_recursive(2_000, seed=3)
    b = ev_recursive(2_000, seed=3)
    assert a == b
    c = ev_recursive(2_000, seed=4)
    assert c != a
