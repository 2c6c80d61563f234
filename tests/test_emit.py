"""The envelope writer: cli._dumps is json.dumps(obj, sort_keys=True,
indent=2), character for character, and emit_results writes its bytes.
build_envelope's arrays write the bytes of the per-outcome loop kept here."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqs.cli import SIGMA_FACTOR, RunSpec, _dumps, build_envelope, emit_results, run_spec, spec_to_dict
from hqs.experiments.registry import RunResult


class Tag(str):
    pass


class Level(float):
    pass


class Count(int):
    pass


class Flag(enum.IntEnum):
    ON = 1


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def assert_same(obj):
    """_dumps matches json.dumps, or both raise TypeError."""
    try:
        want = reference(obj)
    except TypeError:
        with pytest.raises(TypeError):
            _dumps(obj)
        return
    assert _dumps(obj) == want


strings = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é☃𝄞", " ", ""])
floats = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1e308, float("nan"), float("inf"), -float("inf")]
)
leaves = (
    strings
    | floats
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**300)
    | st.booleans()
    | st.none()
    | floats.map(np.float64)
    | strings.map(Tag)
    | floats.map(Level)
    | st.integers().map(Count)
    | st.just(Flag.ON)
)
trees = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    # json sorts keys, so each dict draws keys that compare with each other
    | st.dictionaries(strings | strings.map(Tag), kids, max_size=4)
    | st.dictionaries(st.integers() | st.booleans() | floats | floats.map(np.float64), kids, max_size=4)
    | st.dictionaries(st.none(), kids, max_size=1),
    max_leaves=25,
)


@given(trees)
@settings(max_examples=400, deadline=None)
@example([0.0, -0.0, 0.0])  # equal and hashed alike, printed apart
@example({"a": -0.0, "b": 0.0, "c": [0.0, -0.0]})
@example([np.float64(0.1), True, False, None, (1, 2.5), Tag("x"), Level(-0.0), Count(7)])
@example({1.5: 1, 2: 2, True: 3, float("nan"): 4, float("-inf"): 5})
@example([[], {}, [[]], {"": {}}, ()])
@example([math.nan, math.inf, 0.0, -math.inf, -0.0, math.nan, 1.5, -0.0, math.inf, 0.0])  # seeded, missed, unstored
def test_writer_matches_json_dumps(tree):
    assert_same(tree)


def _table(keys, columns, orders, extra):
    rows = [{k: columns[k][i] for k in order} for i, order in enumerate(orders)]
    if extra is not None:
        rows[extra[0] % len(rows)][extra[1]] = extra[2]
    return rows


# one draw per column: a column of one exact type, or a mix that must not take its fast path
column_values = st.sampled_from([
    floats,
    floats | floats.map(np.float64) | floats.map(Level),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.booleans(),
    st.booleans() | st.integers() | st.integers().map(Count) | st.just(Flag.ON),
    st.integers(),
    strings,
    strings | strings.map(Tag),
    st.none(),
    st.lists(leaves, max_size=2) | st.dictionaries(strings, leaves, max_size=2),
])


@st.composite
def tables(draw):
    """Lists of 2-40 dicts sharing one key set, each row in its own insertion order."""
    keys = draw(st.lists(strings, min_size=1, max_size=6, unique=True)
                | st.lists(strings | strings.map(Tag), min_size=1, max_size=3, unique=True)
                | st.lists(st.integers() | floats | st.booleans() | st.none(), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(2, 40))
    columns = {k: draw(st.lists(draw(column_values), min_size=n, max_size=n)) for k in keys}
    orders = [draw(st.permutations(keys)) for _ in range(n)]
    extra = draw(st.none() | st.tuples(st.integers(0, 39), strings, leaves))
    return _table(keys, columns, orders, extra)


@given(tables())
@settings(max_examples=150, deadline=None)
@example(_table(["a", "b"], {"a": [0.0, -0.0, 0.0], "b": [True, False, True]}, [["a", "b"], ["b", "a"], ["a", "b"]], None))
@example(_table(["x"], {"x": [1.5, np.float64(1.5), Level(2.5)]}, [["x"]] * 3, (1, "y", 0)))
@example(_table(["t"], {"t": [True, 1, Count(0), Flag.ON, False]}, [["t"]] * 5, None))
@example(_table(["f"], {"f": [float("nan"), float("inf"), -float("inf"), float("nan")]}, [["f"]] * 4, None))
@example(_table(["f"], {"f": [math.nan, 0.0, math.inf, -0.0, -math.inf, 0.0, math.nan, -0.0]}, [["f"]] * 8, None))
@example(_table(["s", "%s"], {"s": ["%s", Tag("q")], "%s": ["%%", "%d"]}, [["s", "%s"], ["%s", "s"]], None))
@example(_table([1, 2], {1: [1.0, 2.0], 2: ["a", "b"]}, [[1, 2], [2, 1]], None))
@example(_table(["k"], {"k": [1, 2]}, [["k"]] * 2, (0, "j", 3)))
def test_tables_match_json_dumps(table):
    assert_same(table)


def loop_envelope(spec: RunSpec, result: RunResult) -> dict:
    """build_envelope as one loop over the outcomes, value by value: the reference."""
    entries = []
    empirical = None
    if result.counts is not None and result.n:
        n = result.n
        freqs = {k: c / n for k, c in result.counts.items()}
        empirical = {"counts": dict(sorted(result.counts.items())), "frequencies": dict(sorted(freqs.items()))}
        for outcome in sorted(set(result.analytic) | set(result.counts)):
            # raw echoes can graze 1 by float roundoff; clamp for the bound
            p = min(1.0, max(0.0, result.analytic.get(outcome, 0.0)))
            c = result.counts.get(outcome, 0)
            sigma = math.sqrt(p * (1.0 - p) / n)
            bound = SIGMA_FACTOR * sigma
            entries.append(
                {
                    "outcome": outcome,
                    "analytic": p,
                    "count": c,
                    "freq": c / n,
                    "sigma_bound": bound,
                    "pass": abs(c / n - p) <= bound,
                }
            )
    envelope = {
        "spec": spec_to_dict(spec),
        "analytic": dict(sorted(result.analytic.items())),
        "empirical": empirical,
        "entries": entries or None,
        "extras": dict(sorted(result.extras.items())) or None,
        "curve": result.curve,
    }
    return envelope


probabilities = (
    st.floats(0.0, 1.0)
    | st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-300, -1e-17, float("nan"), 1.0 - 2**-53])
    | st.integers(1, 4).map(lambda ulps: 1.0 + ulps * 2**-52)  # echoes that graze 1 by roundoff
)


@st.composite
def run_results(draw):
    """Outcomes in analytic only, in counts only, or in both; n from 1 to 2**40."""
    outcomes = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=12, unique=True))
    where = [draw(st.sampled_from(["both", "both", "analytic", "counts"])) for _ in outcomes]
    n = draw(st.integers(1, 2**40) | st.sampled_from([1, 2, 3, 10, 2**40]))
    count = st.integers(0, n) | st.sampled_from([0, n])
    analytic = {o: draw(probabilities) for o, w in zip(outcomes, where) if w != "counts"}
    counts = {o: draw(count) for o, w in zip(outcomes, where) if w != "analytic"}
    return RunResult(analytic, counts, n, draw(st.sampled_from([{}, {"visibility": 0.5}])))


@given(run_results())
@settings(max_examples=150, deadline=None)
@example(RunResult({"a": 0.0, "b": -0.0, "c": 1.0 + 3 * 2**-52}, {"a": 0, "b": 0, "c": 7}, 7))
@example(RunResult({"a": 0.25, "z": float("nan")}, {"a": 1, "c": 0}, 1))
@example(RunResult({"a": 1e-6}, {"a": 2**40}, 2**40))
def test_envelope_arrays_write_the_loops_bytes(result):
    spec = RunSpec("custom", {}, result.n, 0)
    for output_format in ("json", "csv"):
        want = emit_results(loop_envelope(spec, result), output_format)
        assert emit_results(build_envelope(spec, result), output_format) == want


unsupported = st.sampled_from([object(), 1j, {1, 2}, b"bytes", np.int64(3), np.bool_(True), bytearray(b"x")])


@given(st.recursive(leaves | unsupported, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(strings, kids, max_size=3), max_leaves=8))
@settings(max_examples=200, deadline=None)
@example([1, object()])
@example({"k": np.int64(3)})
def test_unsupported_values_raise_type_error_as_json_does(tree):
    assert_same(tree)


@pytest.mark.parametrize("key", [(1, 2), b"k", np.int64(1), frozenset()])
def test_unsupported_keys_raise_type_error_as_json_does(key):
    with pytest.raises(TypeError):
        reference({key: 1})
    with pytest.raises(TypeError):
        _dumps({key: 1})


def test_mixed_key_types_raise_type_error_as_json_does():
    # json sorts the items before it looks at a key
    for obj in ({"a": 1, 2: 2}, {None: 1, 0: 2}):
        with pytest.raises(TypeError):
            reference(obj)
        with pytest.raises(TypeError):
            _dumps(obj)


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("bubble", {"n_detectors": 4096}),
        ("two_slit", {"bin_count": 2001, "labeled": False}),
        ("two_slit", {"bin_count": 2001, "labeled": True}),
    ],
    ids=["bubble-4096", "two_slit-2001", "two_slit-2001-labeled"],
)
def test_wide_envelopes_are_the_bytes_json_dumps_writes(experiment, params):
    envelope = run_spec(RunSpec(experiment, params, 50_000, 3))
    assert emit_results(envelope) == (reference(envelope) + "\n").encode()
