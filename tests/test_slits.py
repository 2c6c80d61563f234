"""Screen interference: fringes, which-way labels, wire-grid interception."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hqs.experiments import EXPERIMENTS, afshar, fringe_visibility
from hqs.experiments.slits import default_half_width, first_minimum_position, path_difference, two_slit


def test_path_difference_oracle():
    # brute geometry: distances from both slits to the screen point
    d, L, x = 20.0, 2000.0, 37.5
    upper = math.sqrt(L * L + (x + d / 2) ** 2)
    lower = math.sqrt(L * L + (x - d / 2) ** 2)
    assert path_difference(x, d, L) == pytest.approx(upper - lower, rel=1e-15)


def test_first_minimum_sits_at_half_wavelength_difference():
    x1 = first_minimum_position(20.0, 2000.0)
    assert path_difference(x1, 20.0, 2000.0) == pytest.approx(0.5, abs=1e-10)
    # small-angle estimate L/(2 d) lands nearby but not exactly
    assert x1 == pytest.approx(2000.0 / 40.0, rel=0.01)


@given(d=st.floats(0.6, 200.0), L=st.floats(0.5, 1e4))
@example(d=0.6, L=3.0)  # the minimum lies beyond x = L, at x ~ 4.53
@example(d=0.6, L=1e4)
@example(d=200.0, L=0.5)
@settings(max_examples=200, deadline=None)
def test_first_minimum_is_half_a_wave_for_any_geometry(d, L):
    x1 = first_minimum_position(d, L)
    assert abs(path_difference(x1, d, L) - 0.5) <= 1e-9


@pytest.mark.parametrize("d", [0.5, 0.4, 0.0, -20.0, math.nan])
def test_no_first_minimum_when_slits_are_half_a_wave_apart_or_less(d):
    with pytest.raises(ValueError, match="half_width"):
        first_minimum_position(d, 2000.0)


def test_default_screen_width_places_a_bin_on_the_minimum():
    half_width = default_half_width()
    x1 = first_minimum_position(20.0, 2000.0)
    centers = np.linspace(-half_width, half_width, 201)
    assert np.min(np.abs(centers - x1)) < 1e-9


def test_unlabeled_fringes_reach_full_visibility():
    profile = two_slit()
    assert len(profile.bin_centers) == 201
    assert math.fsum(profile.probabilities) == pytest.approx(1.0, abs=1e-9)
    assert profile.visibility >= 1.0 - 1e-9


def test_minima_land_on_half_integer_path_differences():
    profile = two_slit()
    probs = np.array(profile.probabilities)
    centers = np.array(profile.bin_centers)
    # all interior local minima of the profile
    interior = (probs[1:-1] < probs[:-2]) & (probs[1:-1] < probs[2:])
    for x in centers[1:-1][interior]:
        delta = path_difference(float(x), 20.0, 2000.0)
        assert abs(delta - round(delta) - 0.5) < 0.02 or abs(delta - round(delta) + 0.5) < 0.02


def test_profile_is_symmetric_about_the_axis():
    profile = two_slit()
    probs = np.array(profile.probabilities)
    assert np.allclose(probs, probs[::-1], atol=1e-12)


def test_labeled_profile_is_flat_and_incoherent():
    labeled = two_slit(labeled=True)
    assert labeled.visibility <= 1e-9
    # oracle: labeling makes the pattern the mean of the two one-slit profiles
    only1 = two_slit(slits=(True, False))
    only2 = two_slit(slits=(False, True))
    mean = 0.5 * (np.array(only1.probabilities) + np.array(only2.probabilities))
    assert np.allclose(np.array(labeled.probabilities), mean, atol=1e-12)


def test_monte_carlo_histogram_matches_profile():
    n = 100_000
    params = {k: p.default for k, p in EXPERIMENTS["two_slit"].params.items()}
    curve = EXPERIMENTS["two_slit"].run(params, n, 3).curve
    bins = curve["count"]
    assert sum(bins) == n
    expected = np.array(curve["probability"]) * n
    observed = np.array(bins, dtype=float)
    # pool low-expectation bins so the chi-square approximation holds
    order = np.argsort(expected)
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for idx in order:
        acc_o += observed[idx]
        acc_e += expected[idx]
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    pooled_obs[-1] += acc_o
    pooled_exp[-1] += acc_e
    pooled_exp = np.array(pooled_exp) * (np.sum(pooled_obs) / np.sum(pooled_exp))
    chi2 = float(np.sum((np.array(pooled_obs) - pooled_exp) ** 2 / pooled_exp))
    dof = len(pooled_obs) - 1
    p = float(stats.chi2.sf(chi2, dof))
    assert p > 1e-3, (chi2, dof, p)


def test_delayed_choice_timing_label_changes_nothing():
    run = EXPERIMENTS["delayed_choice"].run
    for screen_up in (True, False):
        before = run({"screen_up": screen_up, "decision_time": "before_slits"}, 5_000, 13)
        after = run({"screen_up": screen_up, "decision_time": "after_slits"}, 5_000, 13)
        assert before.counts == after.counts  # bit-exact


def test_delayed_choice_modes():
    run = EXPERIMENTS["delayed_choice"].run
    up = run({"screen_up": True, "decision_time": "before_slits"}, 2_000, 1)
    # screen mode: every outcome is a screen bin
    assert all(a.startswith("scr[") for a in up.counts)
    assert up.extras["visibility"] >= 1.0 - 1e-9
    down = run({"screen_up": False, "decision_time": "before_slits"}, 2_000, 1)
    # image mode: the lens images each slit onto its own detector
    assert set(down.counts) == {"img1", "img2"}
    # the lens restores a clean 50/50 which-way split
    total = sum(down.counts.values())
    assert abs(down.counts["img1"] / total - 0.5) <= 4.0 * math.sqrt(0.25 / total)


def test_delayed_choice_rejects_unknown_timing():
    with pytest.raises(ValueError):
        EXPERIMENTS["delayed_choice"].run({"screen_up": True, "decision_time": "later"}, 10, 0)


def test_wire_grid_interception_oracle():
    """Independent quadrature for the intercepted fraction.

    Normalized both-slit intensity over one fringe period is
    (1 + cos 2 pi x); wires of width w cover [m - w/2, m + w/2] around
    each half-integer minimum.  Dense trapezoid integration is the
    oracle for the closed-form module value.
    """
    w = 0.06
    xs = np.linspace(0.5 - w / 2, 0.5 + w / 2, 20_001)
    covered = np.trapezoid(1.0 + np.cos(2 * np.pi * xs), xs) / 1.0  # per unit period
    both = afshar(wire_count=6, wire_width=w, both_slits=True)
    assert both["intercepted_fraction"] == pytest.approx(covered, rel=1e-6)
    assert both["intercepted_fraction"] < 0.002

    one = afshar(wire_count=6, wire_width=w, both_slits=False)
    assert one["intercepted_fraction"] == pytest.approx(w, abs=3e-3)


def _simpson(f, a, b, intervals=2000):
    xs = np.linspace(a, b, intervals + 1)
    weights = np.ones(intervals + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return float(np.sum(weights * f(xs)) * (b - a) / (3.0 * intervals))


@pytest.mark.parametrize("wire_count", [1, 6])
@pytest.mark.parametrize("both_slits", [True, False])
@pytest.mark.parametrize("w", [0.01, 0.06, 0.25, 0.5, 0.9, 0.999])
def test_wire_grid_matches_simpson_integration(w, wire_count, both_slits):
    if both_slits:
        intensity = lambda x: 1.0 + np.cos(2 * np.pi * x)
    else:
        intensity = lambda x: np.full_like(x, 0.5)
    total = _simpson(intensity, 0.0, float(wire_count), 2000 * wire_count)
    intercepted = sum(_simpson(intensity, m + 0.5 - w / 2, m + 0.5 + w / 2) for m in range(wire_count))
    result = afshar(wire_count=wire_count, wire_width=w, both_slits=both_slits)
    assert abs(result["intercepted_fraction"] - intercepted / total) <= 1e-10


def test_wire_grid_scales_with_width_cubed():
    # near a minimum, 1 + cos(2 pi x) is quadratic, so coverage ~ w^3
    small = afshar(wire_width=0.01)["intercepted_fraction"]
    large = afshar(wire_width=0.02)["intercepted_fraction"]
    assert large / small == pytest.approx(8.0, rel=0.01)


def test_wire_grid_input_validation():
    with pytest.raises(ValueError):
        afshar(wire_count=0)
    with pytest.raises(ValueError):
        afshar(wire_width=0.0)
    with pytest.raises(ValueError):
        afshar(wire_width=1.5)


def test_visibility_helper():
    assert fringe_visibility([1.0, 0.0, 1.0, 0.0], interior=False) == pytest.approx(1.0)
    assert fringe_visibility([0.5, 0.5, 0.5], interior=False) == pytest.approx(0.0)
    # interior mode trims the partial edge fringes
    assert fringe_visibility([9.0, 1.0, 1.0, 9.0]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fringe_visibility([1.0, 2.0], interior=True)
    with pytest.raises(ValueError):
        fringe_visibility([], interior=False)
