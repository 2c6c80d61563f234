"""The Hardy and eraser networks against the hand tables they replaced.

optics_reference keeps the hand tables, which summed each history's
amplitude through the element operators one at a time.  The experiments now
sweep networks instead.  Table entries are probabilities that sum to one and
are rounded on that scale: an entry near zero that is formed by cancellation
carries an absolute error, and the hand no_pair is the residual
1 - coincidence - idler_blocked.  So each network entry must lie within
4 ulp of one (4 * 2**-52) of the hand entry.
"""

import dataclasses
import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import optics_reference as hand
from hqs.cli import RunSpec, run_spec
from hqs.experiments import eraser, hardy
from hqs.network import EchoTable, OpticalNetwork, network_echo_table, sample_counts

TOL = 4 * math.ulp(1.0)
PAIRS = [(False, False), (False, True), (True, False), (True, True)]

turns = st.floats(0.0, math.tau, exclude_max=True)
# (z+, z-) = (cos t, sin t), real or with a relative phase e^{ia} on z-
atom_states = st.builds(
    lambda t, a: (math.cos(t), math.sin(t) * (1.0 if a is None else complex(math.cos(a), math.sin(a)))),
    turns, st.none() | turns,
)


def assert_within_tol(net: dict, ref: dict):
    assert list(net) == list(ref)
    for outcome, p in ref.items():
        assert abs(net[outcome] - p) <= TOL, (outcome, net[outcome], p)


# generation only: a table mismatch needs no shrinking, which keeps the mutation checks below cheap
@settings(max_examples=40, deadline=None, phases=[Phase.generate])
@given(atom_states)
def test_hardy_network_matches_the_hand_table(state):
    assert_within_tol(hardy.hardy_table(state).entries, hand.hardy_table(state).entries)


@pytest.mark.parametrize("qwp_in, eraser_in", PAIRS)
@settings(max_examples=15, deadline=None, phases=[Phase.generate])
@given(turns)
def test_eraser_network_matches_the_hand_rates(qwp_in, eraser_in, phase):
    echoes = network_echo_table(eraser.eraser_network(qwp_in, eraser_in, phase)).entries
    net = {"coincidence": echoes["coincidence"], "idler_blocked": echoes.get("idler.absorbed", 0.0),
           "no_pair": echoes["no_pair"]}
    assert_within_tol(net, hand.eraser_rates(qwp_in, eraser_in, phase))


def test_sampled_counts_are_those_of_the_hand_tables():
    n = 2000
    for seed in range(20):
        doc = run_spec(RunSpec("hardy", {}, n, seed))
        assert doc["empirical"]["counts"] == sample_counts(hand.hardy_table(), n, seed), seed
        qwp_in, eraser_in = PAIRS[seed % 4]
        doc = run_spec(RunSpec("eraser", {"qwp_in": qwp_in, "eraser_in": eraser_in}, n, seed))
        rates = [hand.eraser_rates(qwp_in, eraser_in, p) for p in doc["curve"]["phase"]]
        counts = [sample_counts(EchoTable(r), n, seed, base_event_index=k * n) for k, r in enumerate(rates)]
        assert doc["curve"]["rate"] == [c["coincidence"] / n for c in counts], seed


def _mutated(build, eid: str, change):
    """build, with element eid replaced by change(element)."""
    def mutated(*args):
        net = build(*args)
        elements = tuple(change(e) if e.id == eid else e for e in net.elements)
        return OpticalNetwork(elements, net.source_id, net.emission)

    return mutated


def test_the_hardy_property_fails_with_the_atom_polarizer_at_0_degrees(monkeypatch):
    at_0 = _mutated(hardy.hardy_network, "atom", lambda e: dataclasses.replace(e, params={"axis": 0.0}))
    monkeypatch.setattr(hardy, "hardy_network", at_0)
    with pytest.raises(AssertionError):
        test_hardy_network_matches_the_hand_table()


def test_the_eraser_property_fails_with_the_coincidence_detector_on_s2_out1(monkeypatch):
    swapped = _mutated(eraser.eraser_network, "S2",
                       lambda e: dataclasses.replace(e, outputs={"out1": e.outputs["out2"], "out2": e.outputs["out1"]}))
    monkeypatch.setattr(eraser, "eraser_network", swapped)
    # a marked idler without the eraser gives a flat half on both ports, so swapping them shows nowhere
    for qwp_in, eraser_in in [(False, False), (False, True), (True, True)]:
        with pytest.raises(AssertionError):
            test_eraser_network_matches_the_hand_rates(qwp_in, eraser_in)
