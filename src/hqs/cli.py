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
import sys
import time
from dataclasses import asdict, dataclass, field

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
        if self.experiment not in EXPERIMENTS and self.experiment != "custom":
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        object.__setattr__(self, "parameters", _coerced_params(self.experiment, self.parameters))


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
        return spec.kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


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
        raise ConfigError(f"malformed JSON at byte {exc.pos}: {exc.msg}") from None
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


def _offset_of(text: str, needle: str) -> int:
    pos = text.find(f'"{needle}"')
    return pos if pos >= 0 else -1


def _parse_network(doc: dict, text: str) -> OpticalNetwork:
    from .network import KINDS

    elements = []
    for entry in doc["elements"]:
        try:
            elem_id = entry["id"]
            kind = entry["kind"]
        except (KeyError, TypeError):
            raise ConfigError("every element needs an id and a kind") from None
        if kind not in KINDS:
            raise ConfigError(
                f"element {elem_id!r} at byte {_offset_of(text, elem_id)}: unknown kind {kind!r}"
            )
        elements.append(
            Element(
                str(elem_id),
                str(kind),
                dict(entry.get("params", {})),
                {str(k): str(v) for k, v in entry.get("outputs", {}).items()},
            )
        )
    try:
        source = doc["source"]
    except KeyError:
        raise ConfigError("network JSON needs a 'source' id") from None
    emission = _parse_emission(doc.get("emission"))
    network = OpticalNetwork(tuple(elements), str(source), emission)
    report = validate(network)
    hard = [d for d in report.defects if d.kind != "echo-sum" or not doc.get("calibrate_emission")]
    if hard:
        details = "; ".join(
            f"{d} (element at byte {_offset_of(text, d.detail.split(':')[0].split('.')[0].split(' ')[0])})"
            for d in hard
        )
        raise ConfigError(f"invalid network: {details}")
    if doc.get("calibrate_emission"):
        try:
            network = calibrated(network)
        except ValueError as exc:
            raise ConfigError(f"cannot calibrate emission: {exc}") from None
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


def emit_results(envelope: dict, output_format: str = "json") -> bytes:
    """Serialize an envelope deterministically.

    JSON comes out stable-key-ordered; CSV is the per-outcome check table.
    Wall-clock timing never enters the byte stream, so re-emitting the
    same envelope is byte-identical.
    """
    if output_format == "json":
        return (json.dumps(envelope, sort_keys=True, indent=2) + "\n").encode()
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
    except OSError as exc:
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
    _write_output((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(), args.out)
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
