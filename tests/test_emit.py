"""The envelope writer: cli._dumps is json.dumps(obj, sort_keys=True,
indent=2), character for character, and emit_results writes its bytes."""

import enum
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqs.cli import RunSpec, _dumps, emit_results, run_spec


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
def test_writer_matches_json_dumps(tree):
    assert_same(tree)


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
