"""Command line front end and result serialization.

Subcommands:

* run <experiment>       one experiment, JSON envelope (or CSV table)
* scan <experiment>      sweep one parameter over start:stop:count, CSV rows
* dynamics <model>       avalanche trajectory, absorber competition, field map
* list                   experiments, dynamics models and their parameter tables

Exit codes: 0 success, 2 configuration error, 1 internal error.

Identical argv (plus seed) produces byte-identical output files; wall time
goes to stderr, never into the payload.  Runs tally their samples on one
thread; the HQS_THREADS environment variable sets nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from collections import ChainMap
from dataclasses import dataclass, field
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import mead
from .experiments.registry import EXPERIMENTS, Experiment, Param, RunResult
from .network import Element, OpticalNetwork, calibrated, network_echo_table, sample_counts, validate
from .wavecore import PolarizedAmplitude

SIGMA_FACTOR = 4.0


class ConfigError(ValueError):
    """Bad run description; maps to exit code 2."""


# the fields of a JSON run description, each a RunSpec field
RUN_FIELDS = {
    "experiment": Param(str, None, "a registered experiment, or custom"),
    "parameters": Param(dict, {}, "the experiment's parameters"),
    "n": Param(int, None, "Monte Carlo events; null for analytic only"),
    "seed": Param(int, 0, "run seed"),
    "output_format": Param(str, "json", "json or csv"),
    "output_path": Param(str, None, "output file; never part of the payload"),
}


@dataclass(frozen=True)
class RunSpec:
    experiment: str
    parameters: dict = field(default_factory=dict)
    n: int | None = None
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self):
        # a JSON run description can carry any JSON value in these fields
        for name, value in _read(RUN_FIELDS, vars(self), "the run description").items():
            object.__setattr__(self, name, value)
        if self.experiment not in RUNS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        params = _read(RUNS[self.experiment].params, self.parameters, self.experiment)
        object.__setattr__(self, "parameters", params)


_KIND_TEXT = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
              dict: "a JSON object", list: "a JSON array"}


def _kind_name(p: Param) -> str:
    return p.kind.__name__ + "".join(f"[{n or ''}]" for n in p.shape)


def _read(schema: dict, given: dict, owner: str) -> dict:
    """given, checked against schema, with every absent key at its default.

    The one reader of config values.  Each key must be in schema and each
    value of its Param's JSON type: bool only for bool, an int or integral
    float for int, a finite number other than a bool for float, and for a
    Param with a shape, nested arrays of that shape or the --param form
    a,b,c filled row by row.  null is taken only where the default is
    null.  Ranges are checked by the code that uses the values.
    """
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown parameter {key!r} for {owner}")
    out = {}
    for key, p in schema.items():
        value = given.get(key, p.default)
        if key not in given or value is None and p.default is None:
            out[key] = value
            continue
        try:
            if p.shape and isinstance(value, str):
                value = [float(v) for v in value.split(",")]
                for size in reversed(p.shape[1:]):
                    value = [value[i:i + size] for i in range(0, len(value), size)]
            out[key] = _nested(p.kind, p.shape, value) if p.shape else _typed(p.kind, value)
        except (ValueError, OverflowError):
            what = f"{_kind_name(p)} (a JSON array, or a,b,c)" if p.shape else _KIND_TEXT[p.kind]
            raise ConfigError(f"bad value for {key!r} of {owner}: {key} must be {what}, not {given[key]!r}") from None
    return out


def _typed(kind: type, value):
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value)
        if math.isfinite(value):
            return value
    elif kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ValueError(value)


def _nested(kind: type, shape: tuple, value) -> tuple:
    if not isinstance(value, (list, tuple)) or shape[0] not in (None, len(value)):
        raise ValueError(value)
    return tuple(_nested(kind, shape[1:], v) if shape[1:] else _typed(kind, v) for v in value)


def spec_to_dict(spec: RunSpec) -> dict:
    # output_path stays out: the payload must not depend on where it lands
    fields = {name: getattr(spec, name) for name in RUN_FIELDS if name != "output_path"}
    return dict(fields, parameters=dict(spec.parameters))


def parse_config(text: str):
    """Parse a JSON run description or optical-network description.

    Returns a RunSpec or an OpticalNetwork.  Errors carry the offending
    element id and, when locatable, the byte offset in the input.
    """
    try:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON at byte {_byte_offset(text, exc.pos)}: {exc.msg}") from None
        if not isinstance(doc, dict):
            raise ConfigError("top-level JSON must be an object")
        if "elements" in doc:
            return _parse_network(doc, text)
        if "experiment" in doc:
            return RunSpec(**_read(RUN_FIELDS, doc, "the run description"))
    except RecursionError:  # from json.loads, or the re-decoding and repr that name an error in a deep value
        raise ConfigError("malformed JSON: it nests too deeply") from None
    raise ConfigError("JSON must contain either 'experiment' or 'elements'")


_WS = re.compile(r"[ \t\n\r]*")


def _byte_offset(text: str, i: int, start: int = 0) -> int:
    """The UTF-8 length of text[start:i]."""
    return len(text[start:i].encode("utf-8", "surrogatepass"))


def _id_offsets(text: str) -> list:
    """Byte offset of the "id" key of each entry of a network document's
    "elements" array, or None for an entry without one.

    Walks the document's own structure, so an "id" key inside params or
    outputs, or at the top level, is never taken for an element's.  Only
    error messages read these offsets, so a valid network never pays for
    this second pass over the text.
    """
    skip = lambda i: _WS.match(text, i).end()
    value_end = lambda i: json.JSONDecoder().raw_decode(text, i)[1]

    def members(i):
        # text[i] opens an object or array; yields (key, key offset, value offset)
        close = "}" if text[i] == "{" else "]"
        i = skip(i + 1)
        while text[i] != close:
            key, at = None, i
            if close == "}":
                key, i = scanstring(text, i + 1)
                i = skip(skip(i) + 1)  # past the colon
            yield key, at, i
            i = skip(value_end(i))
            if text[i] == ",":
                i = skip(i + 1)

    # json.loads keeps the last of repeated keys, and so does this
    elements = [at for key, _, at in members(skip(0)) if key == "elements"][-1]
    own, done, count = [], 0, 0  # count: the bytes of text[:done]; the ids come in order, so each gap is encoded once
    for _, _, at in members(elements):
        ids = [key_at for key, key_at, _ in members(at) if key == "id"] if text[at] == "{" else []
        if ids:
            done, count = ids[-1], count + _byte_offset(text, ids[-1], done)
        own.append(count if ids else None)
    return own


# the keys of a network document, and of its emission
NETWORK_FIELDS = {
    "source": Param(str, None, "id of the source element"),
    "elements": Param(list, [], "the elements, each with an id, a kind, params and outputs"),
    "emission": Param(dict, {"v": (1.0, 0.0)}, "source amplitude {h, v}"),
    "calibrate_emission": Param(bool, False, "rescale the emission to a unit echo total"),
}
EMISSION_FIELDS = {
    "h": Param(float, (0.0, 0.0), "horizontal component [re, im]", shape=(2,)),
    "v": Param(float, (0.0, 0.0), "vertical component [re, im]", shape=(2,)),
}
_ELEMENT_FIELDS = {
    "id": Param(str, None, "the element's id, unique in the network"),
    "kind": Param(str, None, "one of the element kinds"),
    "params": Param(dict, {}, "the kind's parameters"),
    "outputs": Param(dict, {}, "output port -> target id, or id:port"),
}


def _parse_network(doc: dict, text: str) -> OpticalNetwork:
    from .network import KINDS

    top = _read(NETWORK_FIELDS, doc, "the network document")
    entries = top["elements"]

    def where(i: int) -> str:
        return f"element {entries[i]['id']!r} at byte {_id_offsets(text)[i]}"

    elements, fields = [], _ELEMENT_FIELDS.keys()
    for i, entry in enumerate(entries):
        # the common entry, each value of its JSON type, is built in one check; the
        # checks and _read below run only to name what is wrong with another entry
        if type(entry) is dict and entry.keys() <= fields:
            eid, kind = entry.get("id"), entry.get("kind")
            params, outputs = entry.get("params", {}), entry.get("outputs", {})
            if (type(eid) is str and type(kind) is str and kind in KINDS and type(params) is dict
                    and type(outputs) is dict and all(type(t) is str for t in outputs.values())):
                elements.append(Element(eid, kind, params, outputs))
                continue
        if not isinstance(entry, dict) or "id" not in entry or "kind" not in entry:
            raise ConfigError(f"every element needs an id and a kind; elements[{i}] does not")
        if not isinstance(entry["id"], str):
            raise ConfigError(f"{where(i)}: id must be a JSON string")
        if not isinstance(entry["kind"], str) or entry["kind"] not in KINDS:
            raise ConfigError(f"{where(i)}: unknown kind {entry['kind']!r}")
        try:
            entry = _read(_ELEMENT_FIELDS, entry, "this element")
        except ConfigError as exc:
            raise ConfigError(f"{where(i)}: {exc}") from None
        for port, target in entry["outputs"].items():
            if not isinstance(target, str):
                raise ConfigError(f"{where(i)}: output {port!r} must be a JSON string naming its target")
        elements.append(Element(entry["id"], entry["kind"], dict(entry["params"]), dict(entry["outputs"])))
    if top["source"] is None:
        raise ConfigError("network JSON needs a 'source' id")
    emission = _read(EMISSION_FIELDS, top["emission"], "emission")
    amplitude = PolarizedAmplitude(complex(*emission["h"]), complex(*emission["v"]))
    network = OpticalNetwork(tuple(elements), top["source"], amplitude)
    calibrate = top["calibrate_emission"]
    try:
        hard = [d for d in validate(network).defects if d.kind != "echo-sum" or not calibrate]
        if hard:
            offset_of = {}  # a repeated id points at its first element
            for elem, offset in zip(elements, _id_offsets(text)):
                offset_of.setdefault(elem.id, offset)
            details = "; ".join(
                f"{d} (element at byte {offset_of[d.element]})" if d.element in offset_of else str(d)
                for d in hard
            )
            raise ConfigError(f"invalid network: {details}")
        if calibrate:
            try:
                network = calibrated(network)
            except ValueError as exc:
                raise ConfigError(f"cannot calibrate emission: {exc}") from None
    except OverflowError as exc:
        raise ConfigError(f"bad emission: its echoes overflow ({exc})") from None
    return network


def build_envelope(spec: RunSpec, result: RunResult) -> dict:
    """Self-checking result record: analytic values, sampled frequencies,
    and a per-outcome Gaussian screen: a 4-sigma bound and pass flag.
    numpy's / and sqrt round as Python's do: the arrays write the loop's bytes."""
    entries = empirical = None
    if result.counts is not None and result.n:
        n = result.n
        outcomes = sorted({**result.analytic, **result.counts})
        # raw echoes can graze 1 by float roundoff; clamp for the bound (np.clip keeps -0.0 and NaN)
        p = [min(1.0, max(0.0, result.analytic.get(o, 0.0))) for o in outcomes]
        c = [result.counts.get(o, 0) for o in outcomes]
        pa, freq = np.array(p, dtype=float), np.array(c, dtype=float) / n
        bound = SIGMA_FACTOR * np.sqrt(pa * (1.0 - pa) / n)
        freqs, ok = freq.tolist(), (np.abs(freq - pa) <= bound).tolist()
        entries = [
            {"outcome": o, "analytic": a, "count": k, "freq": f, "sigma_bound": b, "pass": q}
            for o, a, k, f, b, q in zip(outcomes, p, c, freqs, bound.tolist(), ok)
        ]
        empirical = {"counts": dict(sorted(result.counts.items())),
                     "frequencies": {o: f for o, f in zip(outcomes, freqs) if o in result.counts}}
    envelope = {
        "spec": spec_to_dict(spec),
        "analytic": dict(sorted(result.analytic.items())),
        "empirical": empirical,
        "entries": entries or None,
        "extras": dict(sorted(result.extras.items())) or None,
        "curve": result.curve,
    }
    return envelope


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    # json's key rules, in json's order
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return f'"{_float_text(key)}"'
    if key is True or key is False or key is None:
        return {True: '"true"', False: '"false"', None: '"null"'}[key]
    if isinstance(key, int):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


class _FloatTexts(dict):
    """float -> JSON text; _dumps seeds ±inf.  Zeros are never stored: 0.0 and -0.0 hash alike, print apart."""

    def __missing__(self, x):  # only exact floats are looked up, so repr is float.__repr__
        if x != x:
            return "NaN"
        s = repr(x)
        if x:
            self[x] = s
        return s


def _columns(rows) -> dict | None:
    """A list of dicts sharing one set of str keys, as its columns by sorted key; else None."""
    first = rows[0]
    if type(first) is dict and set(map(type, first)) == {str} and set(map(type, rows)) == {dict}:
        try:  # rows of first's size holding all its keys hold only its keys
            return {k: [r[k] for r in rows] for k in sorted(first)} if set(map(len, rows)) == {len(first)} else None
        except KeyError:
            pass
    return None


def _weave(first: str, heads, cols, n: int, last: str) -> str:
    """n rows of heads[j] + cols[j][i] over j, by one str.join; first replaces the first head."""
    parts = [x for h in heads for x in (h, None)] * n
    for j, col in enumerate(cols):
        parts[2 * j + 1::2 * len(heads)] = col
    parts[0] = first
    parts.append(last)
    return "".join(parts)


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), character for character.

    Exact types are dispatched first; anything else falls back to json's
    isinstance order, so float and str subclasses (np.float64 among them)
    encode as json encodes them, and unsupported types raise TypeError.
    Envelopes are tables, so they are written by column with one str.join
    per container: a dict with str keys sorts them once, a list of dicts
    sharing one str key set sorts and quotes its keys once, and a column of
    one exact type is one map.  Nonzero float texts are memoised per call.
    """
    floats = _FloatTexts({math.inf: "Infinity", -math.inf: "-Infinity"})
    writers = {float: floats.__getitem__, str: _quote, int: int.__repr__, bool: ("false", "true").__getitem__}

    def column(values, pad):
        kinds = set(map(type, values))
        if len(kinds) == 1 and (write := writers.get(kinds.pop())):
            return map(write, values)
        return [text(v, pad) for v in values]

    def text(o, pad):
        t = type(o)
        if t is float:
            return floats[o]
        if t is str:
            return _quote(o)
        if t is int:
            return int.__repr__(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if t is not dict and t is not list:
            if isinstance(o, str):
                return _quote(o)
            if isinstance(o, int):
                return int.__repr__(o)
            if isinstance(o, float):
                return _float_text(o)
            if isinstance(o, (list, tuple)):
                t = list
            elif isinstance(o, dict):
                t = dict
            else:
                raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if not o:
            return "[]" if t is list else "{}"
        inner = pad + "  "
        if t is list:
            cols = _columns(o)
            if cols is None:
                return "[" + inner + ("," + inner).join(column(o, inner)) + pad + "]"
            cell = inner + "  "
            names = [_quote(k) + ": " for k in cols]
            heads = [inner + "}," + inner + "{" + cell + names[0]] + ["," + cell + k for k in names[1:]]
            return _weave("[" + inner + "{" + cell + names[0], heads, [column(c, cell) for c in cols.values()],
                          len(o), inner + "}" + pad + "]")
        keys = sorted(o)  # keys are distinct, so json's sort of the items is this sort
        quoted = map(_quote if set(map(type, keys)) == {str} else _key_text, keys)
        return _weave("{" + inner, ("," + inner, ": "), (quoted, column(list(map(o.__getitem__, keys)), inner)),
                      len(keys), pad + "}")

    return text(obj, "\n")


def emit_results(envelope: dict, output_format: str = "json") -> bytes:
    """Serialize an envelope deterministically.

    JSON comes out stable-key-ordered; CSV is the per-outcome check table.
    Wall-clock timing never enters the byte stream, so re-emitting the
    same envelope is byte-identical.

    JSON is written by _dumps, not json.dumps: before Python 3.13,
    json.dumps with indent runs its pure-Python encoder, which took as long
    as the run itself on envelopes of thousands of absorbers.  _dumps
    writes the same bytes by column, in an eighth to a half of its time.
    """
    if output_format == "json":
        return (_dumps(envelope) + "\n").encode()
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["outcome", "analytic", "count", "freq", "sigma_bound", "pass"])
        if envelope.get("entries"):
            for e in envelope["entries"]:
                writer.writerow(
                    [e["outcome"], repr(e["analytic"]), e["count"], repr(e["freq"]),
                     repr(e["sigma_bound"]), e["pass"]]
                )
        else:
            for outcome, p in envelope["analytic"].items():
                writer.writerow([outcome, repr(p), "", "", "", ""])
        return buf.getvalue().encode()
    raise ConfigError(f"unknown output format {output_format!r}")


def _write_output(payload: bytes, path: str | None) -> None:
    if path:
        with open(path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())


def _run_custom(p, n, seed) -> RunResult:
    path = p["config"]
    if not path:
        raise ConfigError("custom runs need --param config=<network.json>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    network = parse_config(text)
    if not isinstance(network, OpticalNetwork):
        raise ConfigError(f"{path} does not describe an optical network")
    table = network_echo_table(network)
    counts = sample_counts(table, n, seed) if n else None
    return RunResult(dict(table.entries), counts, n)


# a live view: an entry swapped into the registry is the one run_spec calls
RUNS = ChainMap(EXPERIMENTS, {
    "custom": Experiment(
        "custom",
        "run an optical network from JSON (--param config=<path>)",
        {"config": Param(str, None, "path to a network description")},
        _run_custom,
    ),
})


def run_spec(spec: RunSpec) -> dict:
    try:
        result = RUNS[spec.experiment].run(spec.parameters, spec.n, spec.seed)
    except ValueError as exc:  # ConfigError included
        raise ConfigError(str(exc)) from None
    return build_envelope(spec, result)


def _cmd_run(args) -> int:
    params = _parse_param_args(args.param)
    spec = RunSpec(
        experiment=args.experiment,
        parameters=params,
        n=args.events,
        seed=args.seed,
        output_format=args.format,
        output_path=args.out,
    )
    started = time.perf_counter()
    envelope = run_spec(spec)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    _write_output(emit_results(envelope, spec.output_format), spec.output_path)
    print(f"{spec.experiment}: wall_time_ms={elapsed_ms:.1f}", file=sys.stderr)
    return 0


def _parse_param_args(pairs) -> dict:
    params = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise ConfigError(f"--param wants key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
        except RecursionError:
            raise ConfigError(f"bad value for --param {key}: its JSON nests too deeply") from None
    return params


def _parse_range(raw: str):
    parts = raw.split(":")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {raw!r}: {exc}") from None
    if count < 2:
        raise ConfigError("range count must be >= 2")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _cmd_scan(args) -> int:
    params = _parse_param_args(args.param)
    ranged = [key for key, value in params.items() if isinstance(value, str) and value.count(":") == 2]
    if len(ranged) != 1:
        raise ConfigError("scan needs exactly one parameter with a start:stop:count range")
    key = ranged[0]

    started = time.perf_counter()
    rows = []
    for value in _parse_range(params[key]):
        spec = RunSpec(args.experiment, {**params, key: value}, args.events, args.seed)
        envelope = run_spec(spec)
        row = {key: value}
        for outcome, p in envelope["analytic"].items():
            row[f"{outcome}_exact"] = p
        if envelope["empirical"]:
            for outcome, f in envelope["empirical"]["frequencies"].items():
                row[f"{outcome}_freq"] = f
        for name, v in (envelope["extras"] or {}).items():
            if isinstance(v, (int, float)):
                row[name] = v
        rows.append(row)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)

    header = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in header])
    _write_output(buf.getvalue().encode(), args.out)
    print(f"scan {args.experiment} over {key}: wall_time_ms={elapsed_ms:.1f}", file=sys.stderr)
    return 0


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _dynamics_avalanche(p, args) -> int:
    states = mead.integrate_pair(mead.AvalancheConfig(**p))
    mead.write_trajectory_csv(args.out or sys.stdout, states)
    print(f"avalanche: {len(states)} steps", file=sys.stderr)
    return 0


def _dynamics_compete(p, args) -> int:
    seed = 0 if args.seed is None else args.seed
    result = mead.compete(p["k_list"], p["x0_max"], p["trials"], seed)
    payload = dict({key: result[key] for key in ("k_list", "trials", "win_counts", "win_fractions")}, seed=seed)
    _write_output((_dumps(payload) + "\n").encode(), args.out)
    return 0


def _dynamics_field(p, args) -> int:
    grid = mead.FieldGrid(p["nx"], p["ny"], p["extent"])
    state = mead.AtomPairState(p["t"], p["x_emitter"], p["x_absorber"])
    field_matrix = mead.field_snapshot(state, p["omega"], state.t, grid, p["positions"])
    mead.write_field_csv(args.out or sys.stdout, field_matrix, grid)
    return 0


DYNAMICS = {
    "avalanche": Experiment(
        "avalanche",
        "one quantum passing from an emitter to an absorber; trajectory CSV",
        {
            "k": Param(float, 1.0, "coupling rate"),
            "x0": Param(float, 0.01, "initial transfer"),
            "t_end": Param(float, None, "end of the trajectory; default 20/k"),
            "dt": Param(float, None, "sample spacing; default 0.005/k; t_end/dt at most 10**6"),
            "omega": Param(float, None, "beat frequency whose period dt must resolve"),
        },
        _dynamics_avalanche,
    ),
    "compete": Experiment(
        "compete",
        "absorbers racing for one quantum from random initial transfers, solved exactly; win counts JSON",
        {
            "k_list": Param(float, (1.0, 1.0), "coupling rate of each absorber", shape=(None,)),
            "x0_max": Param(float, 0.01, "largest initial transfer"),
            "trials": Param(int, 1000, "races run"),
        },
        _dynamics_compete,
    ),
    "field": Experiment(
        "field",
        "the pair's superposed dipole field on a square grid; CSV",
        {
            "x_emitter": Param(float, 0.5, "emitter excitation"),
            "x_absorber": Param(float, 0.5, "absorber excitation"),
            "omega": Param(float, 1.0e9, "dipole angular frequency"),
            "t": Param(float, 0.0, "snapshot time"),
            "nx": Param(int, 81, "grid points along x"),
            "ny": Param(int, 81, "grid points along y"),
            "extent": Param(float, 10.0, "grid half-width (m)"),
            "positions": Param(float, ((-2.0, 0.0), (2.0, 0.0)), "emitter and absorber (x, y) in m",
                               shape=(2, 2)),
        },
        _dynamics_field,
    ),
}


def _cmd_dynamics(args) -> int:
    model = DYNAMICS[args.model]
    params = _read(model.params, _parse_param_args(args.param), f"dynamics {args.model}")
    if args.seed is not None and args.model != "compete":
        raise ConfigError(f"dynamics {args.model} is deterministic and takes no --seed")
    try:
        return model.run(params, args)
    except ValueError as exc:
        # model-level validation failures are user configuration errors
        raise ConfigError(str(exc)) from None


def _cmd_list(args) -> int:
    del args
    for prefix, table in (("", RUNS), ("dynamics ", DYNAMICS)):
        for name, entry in sorted(table.items()):
            print(f"{prefix}{name}: {entry.description}")
            for pname, p in entry.params.items():
                print(f"    {pname} ({_kind_name(p)}, default {p.default!r}): {p.help}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hqs",
        description="Stochastic transaction simulator for single-photon optics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment")
    p_run.add_argument("--param", action="append", metavar="KEY=VALUE")
    p_run.add_argument("--events", type=int, default=None, help="Monte Carlo events; omit for analytic only")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out", default=None, help="output path (default stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="sweep one parameter over start:stop:count")
    p_scan.add_argument("experiment")
    p_scan.add_argument("--param", action="append", metavar="KEY=VALUE|KEY=A:B:N")
    p_scan.add_argument("--events", type=int, default=None)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=_cmd_scan)

    p_dyn = sub.add_parser("dynamics", help="avalanche, compete, or field")
    p_dyn.add_argument("model", choices=tuple(DYNAMICS))
    p_dyn.add_argument("--param", action="append", metavar="KEY=VALUE")
    p_dyn.add_argument("--seed", type=int, default=None, help="compete only (default 0)")
    p_dyn.add_argument("--out", default=None)
    p_dyn.set_defaults(func=_cmd_dynamics)

    p_list = sub.add_parser("list", help="registered experiments and parameters")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
