"""Marker/eraser interference: fringes lost to labeling, recovered by projection."""

import math

import numpy as np
import pytest

from hqs.experiments import EXPERIMENTS, eraser_scan
from hqs.experiments.eraser import default_phase_scan, eraser_network
from hqs.network import network_echo_table


def eraser_rates(qwp_in: bool, eraser_in: bool, phase: float) -> dict:
    """The swept table at one phase under the oracle's names: idler.absorbed
    is idler_blocked, which is zero without the eraser."""
    echoes = network_echo_table(eraser_network(qwp_in, eraser_in, phase)).entries
    return {
        "coincidence": echoes["coincidence"],
        "idler_blocked": echoes.get("idler.absorbed", 0.0),
        "no_pair": echoes["no_pair"],
    }


def closed_form_rates(qwp_in: bool, eraser_in: bool, phase: float) -> dict:
    """Oracle from direct two-history algebra, independent of the module.

    Histories: amplitude 1/2 each, polarizations (H if marked else V) and
    V e^{i phi}.  Coincidence intensity is the squared modulus of the sum
    (projected onto the 45-degree axis when the eraser is in).
    """
    a1 = np.array([1.0, 0.0]) if qwp_in else np.array([0.0, 1.0])
    a1 = a1 * 0.5 + 0j
    a2 = np.array([0.0, 0.5]) * np.exp(1j * phase)
    if eraser_in:
        axis = np.array([1.0, 1.0]) / math.sqrt(2.0)
        keep = axis * (axis @ (a1 + a2))
        ortho = np.array([1.0, -1.0]) / math.sqrt(2.0)
        drop = ortho * (ortho @ (a1 + a2))
        coinc = float(np.abs(keep) @ np.abs(keep))
        blocked = float(np.abs(drop) @ np.abs(drop))
    else:
        total = a1 + a2
        coinc = float(np.vdot(total, total).real)
        blocked = 0.0
    return {
        "coincidence": coinc,
        "idler_blocked": blocked,
        "no_pair": 1.0 - coinc - blocked,
    }


@pytest.mark.parametrize("qwp_in,eraser_in", [(False, False), (True, False), (True, True)])
def test_rates_match_the_two_history_oracle(qwp_in, eraser_in):
    for phase in np.linspace(0.0, 2.0 * math.pi, 17):
        got = eraser_rates(qwp_in, eraser_in, float(phase))
        want = closed_form_rates(qwp_in, eraser_in, float(phase))
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12), (key, phase)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)


def test_rate_formulas():
    # unmarked: (1 + cos phi)/2; marked: flat 1/2; erased: (1 + cos phi)/4
    for phi in (0.0, 0.7, math.pi / 2, math.pi, 4.0):
        assert eraser_rates(False, False, phi)["coincidence"] == pytest.approx(
            (1 + math.cos(phi)) / 2, abs=1e-12
        )
        assert eraser_rates(True, False, phi)["coincidence"] == pytest.approx(0.5, abs=1e-12)
        assert eraser_rates(True, True, phi)["coincidence"] == pytest.approx(
            (1 + math.cos(phi)) / 4, abs=1e-12
        )


def test_erased_fringe_runs_at_half_the_unmarked_rate():
    phases = default_phase_scan(32)
    unmarked = np.array([eraser_rates(False, False, p)["coincidence"] for p in phases])
    erased = np.array([eraser_rates(True, True, p)["coincidence"] for p in phases])
    assert np.allclose(erased, unmarked / 2.0, atol=1e-12)


def _eraser(qwp_in, eraser_in, delayed=False):
    return {"qwp_in": qwp_in, "eraser_in": eraser_in, "delayed": delayed, "points": 32}


def test_analytic_visibilities():
    run = EXPERIMENTS["eraser"].run
    assert run(_eraser(False, False), None, 0).extras["visibility"] == pytest.approx(1.0, abs=1e-12)
    assert run(_eraser(True, False), None, 0).extras["visibility"] == pytest.approx(0.0, abs=1e-12)
    assert run(_eraser(True, True), None, 0).extras["visibility"] == pytest.approx(1.0, abs=1e-12)


def test_sampled_visibilities_meet_the_gates():
    n = 20_000
    run = EXPERIMENTS["eraser"].run
    assert run(_eraser(False, False), n, 5).extras["visibility"] >= 0.98
    assert run(_eraser(True, False), n, 5).extras["visibility"] <= 0.02
    assert run(_eraser(True, True), n, 5).extras["visibility"] >= 0.98


def test_delayed_label_gives_bit_identical_statistics():
    now = EXPERIMENTS["eraser"].run(_eraser(True, True, delayed=False), 4_000, 9)
    later = EXPERIMENTS["eraser"].run(_eraser(True, True, delayed=True), 4_000, 9)
    assert now.curve["rate"] == later.curve["rate"]
    assert now.extras["visibility"] == later.extras["visibility"]


def test_scan_needs_enough_phase_points():
    with pytest.raises(ValueError):
        eraser_scan(False, False, phase_scan=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        eraser_scan(False, False, n=0)
