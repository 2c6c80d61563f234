"""Every registered experiment runs through the uniform entry point."""

import itertools
import math

import pytest

from hqs.experiments import slits
from hqs.experiments.registry import EXPERIMENTS
from hqs.network import EchoTable, network_echo_table, sample_counts

# the runners whose analytic values are one echo table that their counts are drawn from
TABLE_BACKED = ("bubble", "delayed_choice", "epr", "hardy", "mz", "two_slit")


def _bool_settings(name):
    """The default params with every bool param set both ways."""
    params = EXPERIMENTS[name].params
    defaults = {k: p.default for k, p in params.items()}
    flags = sorted(k for k, p in params.items() if p.kind is bool)
    for values in itertools.product((False, True), repeat=len(flags)):
        yield {**defaults, **dict(zip(flags, values))}


TABLE_CASES = [(name, params) for name in TABLE_BACKED for params in _bool_settings(name)]


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


@pytest.mark.parametrize(
    "name, params", TABLE_CASES,
    ids=[name + "".join(f"-{k}={v}" for k, v in p.items() if isinstance(v, bool)) for name, p in TABLE_CASES],
)
def test_counts_are_drawn_from_the_analytic_table(name, params):
    run = EXPERIMENTS[name].run
    analytic_only = run(params, None, 3)
    sampled = run(params, 2_000, 3)
    assert sampled.analytic == analytic_only.analytic
    assert sampled.counts == sample_counts(EchoTable(sampled.analytic), 2_000, 3)


@pytest.mark.parametrize("n", [None, 2_000])
def test_screen_down_analytic_is_the_lens_network_sweep(n):
    # the lens network's sweep gives 0.5000000000000001 per image, not 0.5
    lens = network_echo_table(slits._lens_network()).entries
    result = EXPERIMENTS["delayed_choice"].run({"screen_up": False, "decision_time": "before_slits"}, n, 3)
    assert result.analytic == lens


def test_screen_up_reports_the_fringe_visibility_with_or_without_events():
    # the visibility is read from the analytic table alone, as two_slit's is
    params = {"screen_up": True, "decision_time": "before_slits"}
    analytic_only = EXPERIMENTS["delayed_choice"].run(params, None, 3).extras
    sampled = EXPERIMENTS["delayed_choice"].run(params, 2_000, 3).extras
    two_slit = EXPERIMENTS["two_slit"].run({k: p.default for k, p in EXPERIMENTS["two_slit"].params.items()}, None, 3)
    assert analytic_only == sampled == {"visibility": two_slit.extras["visibility"]}
