"""Every registered experiment runs through the uniform entry point."""

import math

import pytest

from hqs.experiments.registry import EXPERIMENTS


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_analytic_mode(name):
    entry = EXPERIMENTS[name]
    params = {k: p.default for k, p in entry.params.items()}
    result = entry.run(params, None, 0)
    assert result.counts is None
    assert result.analytic or result.curve or result.extras
    # analytic is always a probability table; diagnostics live in extras
    for value in result.analytic.values():
        assert math.isfinite(value)
        assert -1e-12 <= value <= 1.0 + 1e-12


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_sampled_mode(name):
    entry = EXPERIMENTS[name]
    params = {k: p.default for k, p in entry.params.items()}
    result = entry.run(params, 400, 1)
    if result.counts is not None:
        assert sum(result.counts.values()) == 400
    # runs are reproducible through the registry layer
    again = entry.run(params, 400, 1)
    assert again.counts == result.counts
    assert again.analytic == result.analytic


def test_every_entry_documents_itself():
    for name, entry in EXPERIMENTS.items():
        assert entry.name == name
        assert entry.description
        for key, p in entry.params.items():
            assert p.help, (name, key)
            assert p.kind in (bool, int, float, str), (name, key)


@pytest.mark.parametrize("n, sweeps", [(None, 2), (400, 2)])
def test_delayed_choice_sweeps_the_screen_once_per_table(monkeypatch, n, sweeps):
    # calibrating the slit network is one sweep, its echo table another;
    # the sampled run reads its analytic values from the table it drew from
    from hqs import network

    calls = []
    real = network._sweep
    monkeypatch.setattr(network, "_sweep", lambda net: calls.append(net) or real(net))
    entry = EXPERIMENTS["delayed_choice"]
    params = {k: p.default for k, p in entry.params.items()}
    assert params["screen_up"] is True
    result = entry.run(params, n, 1)
    assert len(calls) == sweeps
    if n:
        assert set(result.analytic) == set(result.counts)
