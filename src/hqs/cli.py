"""Command line front end and result serialization.

Subcommands:

* run <experiment>       one experiment, JSON envelope (or CSV table)
* scan <experiment>      sweep one parameter over start:stop:count, CSV rows
* dynamics <model>       avalanche trajectory, absorber competition, field map
* list                   registered experiments and their parameter schemas

Exit codes: 0 success, 2 configuration error, 1 internal error.

Identical argv (plus seed) produces byte-identical output files; wall time
goes to stderr, never into the payload.  Runs tally their samples on one
thread, so HQS_THREADS, which sets the workers of the library's per-record
run_events, changes no byte here either.
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
from dataclasses import asdict, dataclass, field
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _quote

from . import mead
from .experiments.registry import EXPERIMENTS, Param, RunResult
from .network import Element, OpticalNetwork, calibrated, network_echo_table, sample_counts, validate
from .wavecore import PolarizedAmplitude

SIGMA_FACTOR = 4.0


class ConfigError(ValueError):
    """Bad run description; maps to exit code 2."""


@dataclass(frozen=True)
class RunSpec:
    experiment: str
    parameters: dict = field(default_factory=dict)
    n: int | None = None
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in (*EXPERIMENTS, "custom"):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        # a JSON run description can carry any JSON value in these fields
        if self.n is not None and not _is_int(self.n):
            raise ConfigError(f"n must be an integer, not {self.n!r}")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, not {self.seed!r}")
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be >= 1")
        if not isinstance(self.parameters, dict):
            raise ConfigError("parameters must be a JSON object")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        object.__setattr__(self, "parameters", _coerced_params(self.experiment, self.parameters))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerced_params(experiment: str, given: dict) -> dict:
    if experiment == "custom":
        known = {"config": Param(str, None, "network JSON path")}
    else:
        known = EXPERIMENTS[experiment].params
    out = {}
    for key, value in given.items():
        if key not in known:
            raise ConfigError(f"unknown parameter {key!r} for {experiment}")
        out[key] = _coerce(known[key], key, value)
    for key, spec in known.items():
        out.setdefault(key, spec.default)
    return out


def _coerce(spec: Param, key: str, value):
    if value is None:
        return None
    try:
        if spec.kind is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
                return value.lower() in ("true", "1")
            raise ValueError(value)
        value = spec.kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None
    if spec.kind is float and not math.isfinite(value):
        raise ConfigError(f"bad value for {key!r}: {value} is not finite")
    return value


def spec_to_dict(spec: RunSpec) -> dict:
    # output_path stays out: the payload must not depend on where it lands
    return {
        "experiment": spec.experiment,
        "parameters": dict(spec.parameters),
        "n": spec.n,
        "seed": spec.seed,
        "output_format": spec.output_format,
    }


def parse_config(text: str):
    """Parse a JSON run description or optical-network description.

    Returns a RunSpec or an OpticalNetwork.  Errors carry the offending
    element id and, when locatable, the byte offset in the input.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at byte {_byte_offset(text, exc.pos)}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("top-level JSON must be an object")
    if "elements" in doc:
        return _parse_network(doc, text)
    if "experiment" in doc:
        return RunSpec(
            experiment=doc["experiment"],
            parameters=doc.get("parameters", {}),
            n=doc.get("n"),
            seed=doc.get("seed", 0),
            output_format=doc.get("output_format", "json"),
            output_path=doc.get("output_path"),
        )
    raise ConfigError("JSON must contain either 'experiment' or 'elements'")


_WS = re.compile(r"[ \t\n\r]*")


def _byte_offset(text: str, i: int) -> int:
    return len(text[:i].encode("utf-8", "surrogatepass"))


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
    own = []
    for _, _, at in members(elements):
        ids = [key_at for key, key_at, _ in members(at) if key == "id"] if text[at] == "{" else []
        own.append(_byte_offset(text, ids[-1]) if ids else None)
    return own


def _parse_network(doc: dict, text: str) -> OpticalNetwork:
    from .network import KINDS

    entries = doc["elements"]
    if not isinstance(entries, list):
        raise ConfigError("'elements' must be a JSON array")

    def where(i: int) -> str:
        return f"element {entries[i]['id']!r} at byte {_id_offsets(text)[i]}"

    elements = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "kind" not in entry:
            raise ConfigError(f"every element needs an id and a kind; elements[{i}] does not")
        elem_id, kind = entry["id"], entry["kind"]
        params, outputs = entry.get("params", {}), entry.get("outputs", {})
        if not isinstance(elem_id, str):
            raise ConfigError(f"{where(i)}: id must be a JSON string")
        if not isinstance(kind, str) or kind not in KINDS:
            raise ConfigError(f"{where(i)}: unknown kind {kind!r}")
        for key, value in (("params", params), ("outputs", outputs)):
            if not isinstance(value, dict):
                raise ConfigError(f"{where(i)}: {key} must be a JSON object")
        for port, target in outputs.items():
            if not isinstance(target, str):
                raise ConfigError(f"{where(i)}: output {port!r} must be a JSON string naming its target")
        elements.append(Element(elem_id, kind, dict(params), dict(outputs)))
    try:
        source = doc["source"]
    except KeyError:
        raise ConfigError("network JSON needs a 'source' id") from None
    network = OpticalNetwork(tuple(elements), str(source), _parse_emission(doc.get("emission")))
    calibrate = doc.get("calibrate_emission")
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


def _parse_emission(raw) -> PolarizedAmplitude:
    if raw is None:
        return PolarizedAmplitude(v=1.0 + 0j)
    try:
        h = complex(*raw["h"]) if "h" in raw else 0j
        v = complex(*raw["v"]) if "v" in raw else 0j
        return PolarizedAmplitude(h, v)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad emission: {exc!r}") from None


def build_envelope(spec: RunSpec, result: RunResult) -> dict:
    """Self-checking result record: analytic values, sampled frequencies,
    and a 4-sigma binomial pass flag per outcome."""
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


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), character for character.

    Each container is built by one str.join.  Exact types are dispatched
    first; anything else falls back to json's isinstance order, so float
    and str subclasses (np.float64 among them) encode as json encodes them,
    and unsupported types raise TypeError.  Nonzero float reprs are
    memoised for this call: envelopes repeat their values many times.
    """
    floats = {}

    def text(o, pad):
        t = type(o)
        if t is float:
            s = floats.get(o)
            if s is None:
                s = _float_text(o)
                if o:  # 0.0 and -0.0 hash alike but print differently
                    floats[o] = s
            return s
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
            return "[" + inner + ("," + inner).join([text(v, inner) for v in o]) + pad + "]"
        items = [(_quote(k) if type(k) is str else _key_text(k)) + ": " + text(v, inner)
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"

    return text(obj, "\n")


def emit_results(envelope: dict, output_format: str = "json") -> bytes:
    """Serialize an envelope deterministically.

    JSON comes out stable-key-ordered; CSV is the per-outcome check table.
    Wall-clock timing never enters the byte stream, so re-emitting the
    same envelope is byte-identical.

    JSON is written by _dumps, not json.dumps: before Python 3.13,
    json.dumps with indent runs its pure-Python encoder, which took as long
    as the run itself on envelopes of thousands of absorbers.  _dumps
    writes the same bytes in about half the time.
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


def _run_custom(spec: RunSpec) -> RunResult:
    path = spec.parameters.get("config")
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
    counts = sample_counts(table, spec.n, spec.seed) if spec.n else None
    return RunResult(dict(table.entries), counts, spec.n)


def run_spec(spec: RunSpec) -> dict:
    if spec.experiment == "custom":
        result = _run_custom(spec)
    else:
        entry = EXPERIMENTS[spec.experiment]
        try:
            result = entry.run(spec.parameters, spec.n, spec.seed)
        except ValueError as exc:
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
    return params


def _parse_range(raw: str):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range wants start:stop:count, got {raw!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {raw!r}: {exc}") from None
    if count < 2:
        raise ConfigError("range count must be >= 2")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _cmd_scan(args) -> int:
    raw_params = {}
    scanned = None
    for raw in args.param or []:
        if "=" not in raw:
            raise ConfigError(f"--param wants key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        if value.count(":") == 2:
            if scanned is not None:
                raise ConfigError("exactly one parameter may carry a start:stop:count range")
            scanned = (key, _parse_range(value))
        else:
            try:
                raw_params[key] = json.loads(value)
            except json.JSONDecodeError:
                raw_params[key] = value
    if scanned is None:
        raise ConfigError("scan needs one parameter with a start:stop:count range")
    key, grid = scanned

    started = time.perf_counter()
    rows = []
    for value in grid:
        params = dict(raw_params)
        params[key] = value
        spec = RunSpec(args.experiment, params, args.events, args.seed)
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


def _cmd_dynamics(args) -> int:
    params = _parse_param_args(args.param)
    handlers = {
        "avalanche": _dynamics_avalanche,
        "compete": _dynamics_compete,
        "field": _dynamics_field,
    }
    if args.model not in handlers:
        raise ConfigError(f"unknown dynamics model {args.model!r}")
    if args.seed is not None and args.model != "compete":
        raise ConfigError(f"dynamics {args.model} is deterministic and takes no --seed")
    try:
        return handlers[args.model](params, args)
    except (ValueError, TypeError) as exc:
        # model-level validation failures are user configuration errors
        raise ConfigError(str(exc)) from None


def _dynamics_avalanche(params, args) -> int:
    allowed = {"k", "x0", "t_end", "dt", "omega"}
    _reject_unknown(params, allowed, "avalanche")
    k = float(params.get("k", 1.0))
    config = mead.AvalancheConfig(
        k=k,
        x0=float(params.get("x0", 0.01)),
        t_end=float(params.get("t_end", 20.0 / k)),
        dt=float(params.get("dt", 0.005 / k)),
        omega=float(params["omega"]) if "omega" in params else None,
    )
    states = mead.integrate_pair(config)
    mead.write_trajectory_csv(args.out or sys.stdout, states)
    print(f"avalanche: {len(states)} steps", file=sys.stderr)
    return 0


def _dynamics_compete(params, args) -> int:
    allowed = {"k_list", "x0_max", "trials", "dt"}
    _reject_unknown(params, allowed, "compete")
    seed = 0 if args.seed is None else args.seed
    k_list = params.get("k_list", [1.0, 1.0])
    if isinstance(k_list, str):
        k_list = [float(v) for v in k_list.split(",")]
    result = mead.compete(
        k_list,
        float(params.get("x0_max", 0.01)),
        int(params.get("trials", 1000)),
        seed,
        dt=float(params["dt"]) if "dt" in params else None,
    )
    payload = {
        "k_list": result["k_list"],
        "trials": result["trials"],
        "win_counts": result["win_counts"],
        "win_fractions": result["win_fractions"],
        "seed": seed,
    }
    _write_output((_dumps(payload) + "\n").encode(), args.out)
    return 0


def _dynamics_field(params, args) -> int:
    allowed = {"x_emitter", "x_absorber", "omega", "t", "nx", "ny", "extent", "positions"}
    _reject_unknown(params, allowed, "field")
    grid = mead.FieldGrid(
        nx=int(params.get("nx", 81)),
        ny=int(params.get("ny", 81)),
        extent=float(params.get("extent", 10.0)),
    )
    state = mead.AtomPairState(
        t=float(params.get("t", 0.0)),
        x_emitter=float(params.get("x_emitter", 0.5)),
        x_absorber=float(params.get("x_absorber", 0.5)),
    )
    positions = params.get("positions", ((-2.0, 0.0), (2.0, 0.0)))
    if isinstance(positions, str):
        vals = [float(v) for v in positions.split(",")]
        positions = ((vals[0], vals[1]), (vals[2], vals[3]))
    elif isinstance(positions, list):
        positions = ((positions[0][0], positions[0][1]), (positions[1][0], positions[1][1]))
    field_matrix = mead.field_snapshot(
        state, float(params.get("omega", 1.0e9)), state.t, grid, positions
    )
    mead.write_field_csv(args.out or sys.stdout, field_matrix, grid)
    return 0


def _reject_unknown(params, allowed, model) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown parameter {sorted(unknown)[0]!r} for dynamics {model}")


def _cmd_list(args) -> int:
    del args
    for name in sorted(EXPERIMENTS):
        entry = EXPERIMENTS[name]
        print(f"{name}: {entry.description}")
        for pname, p in entry.params.items():
            print(f"    {pname} ({p.kind.__name__}, default {p.default!r}): {p.help}")
    print("custom: run an optical network from JSON (--param config=<path>)")
    print("    config (str): path to a network description")
    print("dynamics models: avalanche (k, x0, t_end, dt, omega), "
          "compete (k_list, x0_max, trials, dt), "
          "field (x_emitter, x_absorber, omega, t, nx, ny, extent, positions)")
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
    p_dyn.add_argument("model", choices=("avalanche", "compete", "field"))
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
