"""Vectorised samplers against their event-by-event definitions: the
threshold tally behind sample_counts, replay's picks, and ev_recursive
by rounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqs.experiments import ev_recursive, interferometer, mach_zehnder
from hqs.experiments.interferometer import _EV_BLOCK
from hqs.network import _CHUNK, _COUNT_MAX, EchoTable, _pick, _tally, replay, sample_counts
from hqs.rng import uniform_block
from scalar_reference import event_for_word, select


def scalar_ev(n_trials: int, seed: int) -> dict:
    """The bomb-test recursion one photon at a time: draws keyed by the
    trial, one scalar selection per shot at the next draw index."""
    table = mach_zehnder(blocked=True)
    detected = 0
    shots_total = 0
    for trial in range(n_trials):
        draw = 0
        while True:
            shots_total += 1
            outcome = select(table, seed, trial, draw)
            draw += 1
            if outcome == "D1":
                continue
            if outcome == "D2":
                detected += 1
            break
    return {
        "detected_at_d2": detected / n_trials,
        "absorbed": (n_trials - detected) / n_trials,
        "mean_photons_per_trial": shots_total / n_trials,
        "detected_count": detected,
        "absorbed_count": n_trials - detected,
        "trials": n_trials,
    }


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 5])
def test_ev_rounds_match_the_scalar_loop(seed):
    assert ev_recursive(10_000, seed) == scalar_ev(10_000, seed)


@pytest.mark.parametrize("n", [1, _EV_BLOCK, _EV_BLOCK + 1])
def test_ev_rounds_match_the_scalar_loop_across_block_edges(n):
    assert ev_recursive(n, 3) == scalar_ev(n, 3)


def test_ev_rounds_that_repeat_their_draws_raise(monkeypatch):
    # replay at draw 0 every round: the trials that click D1 once click it
    # forever, and the round cap must end the loop
    def first_draw(table, seed, events, draw):
        return replay(table, seed, events)

    monkeypatch.setattr(interferometer, "replay", first_draw)
    with pytest.raises(RuntimeError, match="still live after 64 rounds"):
        ev_recursive(1_000, 0)


def _table(weights) -> EchoTable:
    w = np.asarray(weights, dtype=float)
    return EchoTable({f"a{i:05d}": float(x) for i, x in enumerate(w / w.sum())})


@st.composite
def tables(draw):
    # as many short tables, tallied per threshold, as long ones, sorted
    k = draw(st.one_of(st.integers(1, _COUNT_MAX), st.integers(_COUNT_MAX + 1, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(k) * (rng.random(k) >= draw(st.sampled_from([0.0, 0.3, 0.9])))
    if k > 1:
        if draw(st.booleans()):
            weights[0] = 0.0
        if draw(st.booleans()):
            weights[-1] = 0.0
    if not weights.any():
        weights[rng.integers(k)] = 1.0
    return _table(weights)


# the word 2**64 - 1 draws exactly 1.0, which must land on the last nonzero entry, below the zero top ones
_ONE = event_for_word(7, 2**64 - 1)
_ONE_AT_3 = event_for_word(7, 2**64 - 1, 3)


@settings(max_examples=40, deadline=None)
@given(
    tables(),
    st.integers(0, 3 * _CHUNK),
    st.integers(0, 2**63 - 1),
    st.integers(0, 2**40),
    st.integers(0, 7),
)
@example(_table([1.0, 0.0, 0.0]), 3, 7, _ONE - 1, 0)
@example(_table([1.0] * _COUNT_MAX + [0.0, 0.0]), 3, 7, _ONE - 1, 0)
@example(_table([1.0, 0.0, 0.0]), 3, 7, _ONE_AT_3 - 1, 3)
def test_threshold_tally_equals_per_event_picks(table, n, seed, base, draw):
    ids, probs, cum = table._selection
    events = np.arange(base, base + n, dtype=np.uint64)
    picks = _pick(cum, probs, uniform_block(seed, events))
    want = np.bincount(picks, minlength=len(ids))
    assert sample_counts(table, n, seed, base) == dict(zip(ids, want.tolist()))
    assert replay(table, seed, events).tolist() == picks.tolist()
    # and each pick is the scalar definition's, event by event, at draw 0
    # and at a later draw index, as ev_recursive's rounds replay them
    later = replay(table, seed, events[:256], draw)
    for event, i, j in zip(range(base, base + min(n, 256)), picks.tolist(), later.tolist()):
        assert ids[i] == select(table, seed, event), event
        assert ids[j] == select(table, seed, event, draw), (event, draw)


def test_tally_handles_draws_on_the_edges_of_the_table():
    # zero first entry, zero last ones: the clamped top bucket must walk down
    # to the last nonzero entry, and a draw on a threshold belongs above it;
    # on a table short enough to count per threshold and one long enough to sort
    for weights in ([0.0, 0.25, 0.75, 0.0, 0.0], [0.0, 0.25, 0.75, *[0.0] * _COUNT_MAX]):
        ids, probs, cum = _table(weights)._selection
        edges = [0.0, 1.0, np.nextafter(1.0, 0.0), 0.25]
        for u in [*([x] for x in edges), edges, edges * 3]:
            u = np.array(u)
            want = np.bincount(_pick(cum, probs, u), minlength=len(ids))
            assert _tally(cum, probs, u).tolist() == want.tolist(), (len(ids), u)


def test_tally_of_no_draws_is_all_zero():
    _, probs, cum = _table([0.0, 1.0, 0.0])._selection
    assert _tally(cum, probs, np.array([])).tolist() == [0, 0, 0]
