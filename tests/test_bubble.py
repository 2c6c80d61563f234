"""Collapse of an isotropic offer wave onto exactly one detector."""

import math

import pytest
from scipy import stats

from hqs.experiments import EXPERIMENTS, bubble_network
from hqs.network import EchoTable, run_events, validate


def test_ring_echoes_are_uniform():
    table = EchoTable(EXPERIMENTS["bubble"].run({"n_detectors": 64}, None, 0).analytic)
    assert len(table.entries) == 64
    for p in table.entries.values():
        assert p == pytest.approx(1.0 / 64.0)
    assert math.fsum(table.entries.values()) == pytest.approx(1.0)


def test_exactly_one_detection_per_event():
    network = bubble_network(16)
    assert validate(network).ok
    counts, records = run_events(network, 5_000, seed=9)
    assert sum(counts.values()) == 5_000
    assert len(records) == 5_000
    # each record names exactly one absorber
    assert all(r.selected_absorber.startswith("D") for r in records)


def test_uniformity_chi_square():
    n = 100_000
    result = EXPERIMENTS["bubble"].run({"n_detectors": 64}, n, 21)
    observed = [result.counts[name] for name in sorted(result.analytic)]
    assert sum(observed) == n
    chi2, p = stats.chisquare(observed)
    assert p > 1e-3, (chi2, p)


def test_small_ring_needs_at_least_two_detectors():
    with pytest.raises(ValueError):
        bubble_network(1)
