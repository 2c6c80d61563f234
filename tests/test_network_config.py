"""Mutated network documents through `hqs run custom`: never an internal
error, and every offset printed points at the named element's own "id"."""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hqs import cli
from test_network import lossless_networks

MZ = {
    "source": "L",
    "elements": [
        {"id": "L", "kind": "source", "outputs": {"out": "S1:a"}},
        {"id": "S1", "kind": "beamsplitter", "outputs": {"out1": "A", "out2": "B"}},
        {"id": "A", "kind": "mirror", "outputs": {"out": "S2:a"}},
        {"id": "B", "kind": "mirror", "outputs": {"out": "S2:b"}},
        {"id": "S2", "kind": "beamsplitter", "outputs": {"out1": "D2", "out2": "D1"}},
        {"id": "D1", "kind": "detector"},
        {"id": "D2", "kind": "detector"},
    ],
}
SCREEN = {
    "source": "L",
    "calibrate_emission": True,
    "elements": [
        {"id": "L", "kind": "source", "outputs": {"out": "P"}},
        {"id": "P", "kind": "phase_segment", "params": {"length": 0.25}, "outputs": {"out": "H"}},
        {"id": "H", "kind": "halfwave_plate", "params": {"axis": 22.5}, "outputs": {"out": "pol"}},
        {"id": "pol", "kind": "polarizer", "params": {"axis": 0.0}, "outputs": {"out": "scr"}},
        {"id": "scr", "kind": "screen",
         "params": {"bin_count": 5, "half_width": 2.0, "distance": 50.0, "offsets": {"in": 0.0}}},
    ],
}
IDS = sorted({e["id"] for doc in (MZ, SCREEN) for e in doc["elements"]})
WORDS = IDS + ["ghost", "S2:b", "S2:c", "scr:in", "", "id", "in", "out", "out1", "a",
               "mirror", "detector", "screen", "source", "beamsplitter", "length", "axis", "offsets"]
# ids that json.dumps escapes, or that need escaping or are not ASCII
ODD_IDS = ['S"1', "D\\2", "Dü", "☃", "a b", "id"]
NUMBERS = [0, 1, 2, 3, -1, 7, 0.5, -2.0, 1e-160, 1e154, 1e308, float("nan"), float("inf"), True, False, None]
# keys an element entry does not have
TYPOS = ["parms", "output", "kinds", "ID"]
# the params each kind takes; the other kinds take none
TAKES = {"phase_segment": {"length"}, "screen": {"bin_count", "half_width", "distance", "offsets"},
         **dict.fromkeys(["halfwave_plate", "quarterwave_double", "polarizer"], {"axis"})}
# small values only: a screen's bin_count sets how many bins it lays out
junk = st.recursive(
    st.sampled_from(NUMBERS) | st.sampled_from(WORDS),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(WORDS), kids, max_size=3),
    max_leaves=6,
)


def _mutate(draw, doc):
    elements = doc["elements"]
    i = draw(st.integers(0, len(elements) - 1)) if elements else None
    entry = elements[i] if elements else None
    op = draw(st.sampled_from(["entry", "key", "drop_key", "param", "output", "decoy", "rename",
                               "duplicate", "drop", "top", "typo"]))
    if op == "top":
        doc[draw(st.sampled_from(["source", "emission", "calibrate_emission", "id"]))] = draw(
            junk | st.fixed_dictionaries({"v": st.lists(st.sampled_from(NUMBERS), max_size=3)}))
    elif entry is None:
        elements.append(draw(junk))
    elif op == "entry":
        elements[i] = draw(junk)
    elif op == "duplicate":
        elements.insert(draw(st.integers(0, len(elements))), copy.deepcopy(entry))
    elif op == "drop":
        del elements[i]
    elif not isinstance(entry, dict):
        elements[i] = {"id": draw(st.sampled_from(IDS)), "kind": draw(st.sampled_from(WORDS))}
    elif op == "key":
        entry[draw(st.sampled_from(["id", "kind", "params", "outputs"]))] = draw(junk)
    elif op == "typo":
        entry[draw(st.sampled_from(TYPOS))] = draw(junk)
    elif op == "drop_key":
        entry.pop(draw(st.sampled_from(["id", "kind", "params", "outputs"])), None)
    elif op == "rename" and isinstance(entry.get("id"), str):
        old, new = entry["id"], draw(st.sampled_from(ODD_IDS))
        entry["id"] = new
        for other in elements:
            outputs = other.get("outputs") if isinstance(other, dict) else None
            if isinstance(outputs, dict):
                for port, target in outputs.items():
                    if isinstance(target, str) and target.partition(":")[0] == old:
                        outputs[port] = new + target[len(old):]
        if doc.get("source") == old:
            doc["source"] = new
    else:
        # "param", "output", "decoy" (and "rename" of an element whose id is
        # not a string) write into params or outputs; a decoy is an "id" key
        # there naming another element
        key = "outputs" if op == "output" else draw(st.sampled_from(["params", "outputs"]))
        box = entry.setdefault(key, {})
        if isinstance(box, dict):
            name = "id" if op == "decoy" else draw(st.sampled_from(WORDS))
            box[name] = draw(st.sampled_from(IDS)) if op == "decoy" else draw(junk)


def _layout(doc, item_sep=", ", key_sep=": ", ascii_only=True, order=list):
    """(text, own) for doc: own[i] is the byte offset of element i's own
    "id" key, or None where element i has none.  order permutes each
    object's keys."""
    dump = lambda value: json.dumps(value, separators=(item_sep, key_sep), ensure_ascii=ascii_only)
    text, own = "{", []
    for n, key in enumerate(order(list(doc))):
        text += (item_sep if n else "") + dump(key) + key_sep
        if key != "elements" or not isinstance(doc[key], list):
            text += dump(doc[key])
            continue
        text += "["
        for m, entry in enumerate(doc[key]):
            text += item_sep if m else ""
            if not isinstance(entry, dict):
                text += dump(entry)
                own.append(None)
                continue
            at = None
            text += "{"
            for k, name in enumerate(order(list(entry))):
                text += item_sep if k else ""
                if name == "id":
                    at = len(text.encode())
                text += dump(name) + key_sep + dump(entry[name])
            text += "}"
            own.append(at)
        text += "]"
    return text + "}", own


@st.composite
def network_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from([MZ, SCREEN])))
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, doc)
    return _layout(
        doc,
        item_sep=draw(st.sampled_from([", ", ",", ",\n  "])),
        key_sep=draw(st.sampled_from([": ", ":", " :\t"])),
        ascii_only=draw(st.booleans()),
        order=lambda keys: draw(st.permutations(keys)),
    )


def _run(text: str):
    """Exit code, stderr, and the reports validate returned."""
    reports = []
    real = cli.validate
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with mock.patch.object(cli, "validate", lambda net: reports.append(real(net)) or reports[-1]), \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "custom", "--param", f"config={path}", "--events", "50"])
    return code, err.getvalue(), reports


def _foreign_params(entry: dict) -> bool:
    kind, params = entry.get("kind"), entry.get("params")
    takes = TAKES.get(kind, set()) if isinstance(kind, str) else set()
    return isinstance(params, dict) and bool(set(params) - takes)


def _check(text: str, own: list) -> int:
    raw = text.encode()
    doc = json.loads(text)
    code, err, reports = _run(text)
    assert code in (0, 2), err
    elements = doc["elements"] if isinstance(doc.get("elements"), list) else []
    if any(isinstance(e, dict) and set(e) - {"id", "kind", "params", "outputs"} for e in elements):
        assert code == 2, err  # an entry with an unknown key never runs
    if any(isinstance(e, dict) and _foreign_params(e) for e in elements):
        assert code == 2, err  # nor one whose params hold a name its kind does not take
    if code == 0:
        return code
    ids = [e.get("id") if isinstance(e, dict) else None for e in elements]

    def owned_by(elem_id) -> set:
        return {own[i] for i, e in enumerate(ids) if e == elem_id}

    # an error about one element names it by repr, then gives the offset
    # of that element's own "id" key
    named = re.match(r"config error: element (.*?) at byte (\d+): ", err)
    if named:
        offset = int(named.group(2))
        assert raw[offset:].startswith(b'"id"'), err
        assert offset in {own[i] for i, e in enumerate(ids) if repr(e) == named.group(1)}, err
    # and every defect about an element of the document carries one
    for report in reports:
        for defect in report.defects:
            if defect.element in ids and str(defect) in err:
                found = re.findall(re.escape(f"{defect} (element at byte ") + r"(\d+)\)", err)
                assert found and {int(o) for o in found} <= owned_by(defect.element), err
    return code


@given(network_documents())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_networks_exit_0_or_2_and_point_at_their_element(document):
    _check(*document)


# -- one structural defect in a valid network: each kind the compile finds ----------


def _document(net) -> dict:
    h, v = complex(net.emission.h), complex(net.emission.v)
    elements = [{"id": e.id, "kind": e.kind, **({"params": dict(e.params)} if e.params else {}),
                 **({"outputs": dict(e.outputs)} if e.outputs else {})} for e in net.elements]
    return {"source": net.source_id, "emission": {"h": [h.real, h.imag], "v": [v.real, v.imag]},
            "elements": elements}


@st.composite
def structural_defects(draw, defect):
    """(document, the defect's text up to its detail's end or a stable prefix,
    the index of the element it names) for a lossless network with one defect."""
    doc = _document(draw(lossless_networks()))
    elements = doc["elements"]
    wired = [(i, port) for i, e in enumerate(elements) for port in sorted(e.get("outputs", {}))]
    index = {e["id"]: i for i, e in enumerate(elements)}
    if defect == "cycle":  # a back edge from an element to its own input
        inner = [i for i, e in enumerate(elements) if e["kind"] not in ("source", "detector")]
        assume(inner)
        i = draw(st.sampled_from(inner))
        elements[i]["outputs"][draw(st.sampled_from(sorted(elements[i]["outputs"])))] = elements[i]["id"]
        return doc, "cycle: network graph contains a cycle", i
    if defect == "duplicate id":
        j, k = draw(st.integers(0, len(elements) - 1)), draw(st.integers(0, len(elements)))
        elements.insert(k, copy.deepcopy(elements[j]))
        return doc, f"duplicate id: {elements[k]['id']}", min(k, j + (k <= j))
    if defect == "detector source":
        i = draw(st.sampled_from([i for i, e in enumerate(elements) if e["kind"] == "detector"]))
        doc["source"] = elements[i]["id"]
        return doc, f"missing source: {elements[i]['id']} has kind detector", i
    i, port = draw(st.sampled_from(wired))
    outputs, eid = elements[i]["outputs"], elements[i]["id"]
    if defect == "target is a source":
        outputs[port] = doc["source"]
        return doc, f"bad wiring: {eid}.{port} feeds source {doc['source']}", i
    if defect == "beamsplitter port":
        splitters = [e["id"] for e in elements if e["kind"] == "beamsplitter"]
        assume(splitters)
        target = f"{draw(st.sampled_from(splitters))}:{draw(st.sampled_from(['c', 'in', 'out1']))}"
        outputs[port] = target
        return doc, f"bad wiring: {eid}.{port} -> unknown input {target}", i
    # two outputs into one input
    others = [w for w in wired if w != (i, port)]
    assume(others)
    j, other = draw(st.sampled_from(others))
    outputs[port] = elements[j]["outputs"][other]
    tid = outputs[port].partition(":")[0]
    return doc, f"input collision: {tid}:", index[tid]


@pytest.mark.parametrize("defect", ["cycle", "target is a source", "beamsplitter port", "duplicate id",
                                    "detector source", "two outputs into one input"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_structural_defect_exits_2_naming_its_kind_and_element(defect, data):
    doc, said, i = data.draw(structural_defects(defect))
    text, own = _layout(doc)
    code, err, _ = _run(text)
    assert code == 2, err
    found = re.search(re.escape(said) + r"[^;]* \(element at byte (\d+)\)", err)
    assert found and int(found.group(1)) == own[i], (said, own[i], err)
    assert text.encode()[own[i]:].startswith(b'"id"')


# -- typed fields: the network document's own keys, run descriptions and
# dynamics parameters, each read through the config tables ----------------------

VALUES = [0, 1, -1, 2, 0.5, 2.5, 1e-3, float("nan"), float("inf"), True, False, None, "x", "1,2", "",
          [1, 2], [[1], [2]], [0.5, "a"], {}, {"h": [1, 0]}]
# a cheap run of each model, so one mutated value cannot make it long
DYNAMICS_BASE = {"avalanche": {"t_end": 2}, "compete": {"trials": 20}, "field": {"nx": 21, "ny": 21}}


def _wrong_type(p, value) -> bool:
    """value is plainly not of p's JSON type, so it must be refused."""
    if value is None:
        return p.default is not None
    if p.shape:  # arrays, and the --param form a,b,c, may still be refused for their shape
        return not isinstance(value, (list, str))
    if p.kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return True
        return not math.isfinite(value) or p.kind is int and not float(value).is_integer()
    return not isinstance(value, p.kind)


def _run_description(doc: dict) -> tuple:
    """Exit code and message of parsing, running and emitting a run description."""
    try:
        spec = cli.parse_config(json.dumps(doc))
        cli.emit_results(cli.run_spec(spec), spec.output_format)
    except cli.ConfigError as exc:
        return 2, str(exc)
    return 0, ""


def _run_dynamics(model: str, params: dict) -> tuple:
    argv = ["dynamics", model]
    for key, value in params.items():
        argv += ["--param", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@given(st.sampled_from(["network", "emission", "run", *sorted(cli.DYNAMICS)]), st.data())
@settings(max_examples=150, deadline=None)
def test_every_typed_field_exits_0_or_2_and_a_wrong_type_names_it(target, data):
    value = data.draw(st.sampled_from(VALUES))
    if target == "network":
        key = data.draw(st.sampled_from(["source", "emission", "calibrate_emission"]))
        p = cli.NETWORK_FIELDS[key]
        code, err, _ = _run(json.dumps(dict(MZ, **{key: value})))
    elif target == "emission":
        key = data.draw(st.sampled_from(sorted(cli.EMISSION_FIELDS)))
        p = cli.EMISSION_FIELDS[key]
        code, err, _ = _run(json.dumps(dict(MZ, emission={"v": [1, 0], key: value})))
    elif target == "run":
        key = data.draw(st.sampled_from(["n", "seed", "output_format", "parameters"]))
        p = cli.RUN_FIELDS[key]
        code, err = _run_description({"experiment": "mz", "n": 20, key: value})
    else:
        key = data.draw(st.sampled_from(sorted(cli.DYNAMICS[target].params)))
        p = cli.DYNAMICS[target].params[key]
        code, err = _run_dynamics(target, dict(DYNAMICS_BASE[target], **{key: value}))
    assert code in (0, 2), err
    if _wrong_type(p, value):
        assert code == 2 and f"bad value for {key!r}" in err, (key, value, err)


# -- the order of "elements" never reaches the envelope ---------------------------

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
README_NETWORK = json.loads(re.search(r"### Custom networks.*?```json\n(.*?)```", README, re.S).group(1))
# five slits fed by a splitter tree, one arm trimmed, onto one screen
FIVE_SLITS = {
    "source": "L",
    "calibrate_emission": True,
    "elements": [
        {"id": "L", "kind": "source", "outputs": {"out": "S0:a"}},
        {"id": "S0", "kind": "beamsplitter", "outputs": {"out1": "S1:a", "out2": "S2:a"}},
        {"id": "S1", "kind": "beamsplitter", "outputs": {"out1": "scr:s1", "out2": "T"}},
        {"id": "T", "kind": "phase_segment", "params": {"length": 0.3}, "outputs": {"out": "scr:s2"}},
        {"id": "S2", "kind": "beamsplitter", "outputs": {"out1": "S3:a", "out2": "scr:s3"}},
        {"id": "S3", "kind": "beamsplitter", "outputs": {"out1": "scr:s4", "out2": "scr:s5"}},
        {"id": "scr", "kind": "screen", "params": {
            "bin_count": 41, "half_width": 30.0, "distance": 200.0,
            "offsets": {"s1": -4.0, "s2": -2.0, "s3": 0.0, "s4": 2.0, "s5": 4.0}}},
    ],
}


def _envelopes(*docs) -> list:
    """The `hqs run custom` envelope of each doc, all read from one path,
    since the envelope echoes the config path."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path, result = os.path.join(tmp, "net.json"), os.path.join(tmp, "out.json")
        for doc in docs:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(["run", "custom", "--param", f"config={path}", "--events", "2000",
                                 "--seed", "3", "--out", result]) == 0
            with open(result, "rb") as fh:
                out.append(fh.read())
    return out


@given(st.sampled_from([README_NETWORK, FIVE_SLITS]), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_shuffling_the_elements_leaves_the_envelope_bytes_unchanged(doc, rng):
    elements = list(doc["elements"])
    rng.shuffle(elements)
    original, shuffled = _envelopes(doc, dict(doc, elements=elements))
    assert shuffled == original


def test_offsets_encode_each_character_of_the_document_once(monkeypatch):
    # ids with a two-byte character, so byte and character offsets differ; the bad element comes last
    n = 2000
    elements = [{"id": "L", "kind": "source", "outputs": {"out": "é0"}}]
    elements += [{"id": f"é{k}", "kind": "mirror", "outputs": {"out": f"é{k + 1}"}} for k in range(n)]
    elements += [{"id": f"é{n}", "kind": "phase_segment", "params": {"length": -1.0}, "outputs": {"out": "D"}},
                 {"id": "D", "kind": "detector"}]
    text = json.dumps({"source": "L", "elements": elements}, ensure_ascii=False)
    scanned, byte_offset = [], cli._byte_offset
    monkeypatch.setattr(cli, "_byte_offset", lambda s, i, start=0: scanned.append(i - start) or byte_offset(s, i, start))
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(text)
    at = len(text[:text.index(f'"id": "é{n}"')].encode())
    assert str(exc.value) == f"invalid network: bad params: é{n}: negative length (element at byte {at})"
    assert 0 < sum(scanned) <= 2 * len(text)
