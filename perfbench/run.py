"""hqs benchmark: one workload per run, or all four with --workload all.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hqs is imported from ./src, and
nothing outside the checkout is read or written.  A closed loop: one
client sends operations back to back in this process.  The untraced run
(--trace 0) prints the end-to-end metrics; the traced run (--trace 1)
prints the per-layer metrics.  Every operation's output is checked against
the references in reference.py; the last stdout line is one JSON object
with "correct", "attempted", "failed" and "metrics", and the exit code is
1 if any check failed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference as ref
import tracing as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_OPS = 100  # so p90 has at least ten samples beyond it
MAX_STRETCH = 6  # a run that cannot reach MIN_OPS stops at this many times --seconds
TRACE_ROUNDS = {"sample": 6, "wide": 14, "propagate": 25, "dynamics": 25}
SCALING_EVENTS = 1_000_000

END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")  # the final JSON line
EVENT_WORKLOADS = ("sample", "wide")
LAYER_UNITS = {
    "rng.uniform_block.calls": "count",
    "rng.uniform_block.self_s": "s",
    "rng.uniform_block.words_per_s": "1/s",
    "network.sample_counts.self_s": "s",
    "network.sample_counts.events_per_s": "1/s",
    "network.run_events.self_s": "s",
    "network.run_events.events_per_s": "1/s",
    "network.run_events.records_built": "count",
    "network.run_events.scaling_eff": "ratio",
    "network.select_transaction.calls": "count",
    "experiments.ev_recursive.trials_per_s": "1/s",
    "network.validate.calls_per_op": "calls/op",
    "network.validate.self_s": "s",
    "network.propagate_offers.self_s": "s",
    "network.propagate_offers.paths": "count",
    "network.propagate_offers.failed": "count",
    "network.echo_table.self_s": "s",
    "network.echo_table.absorbers": "count",
    "network.calibrated.self_s": "s",
    "wavecore.born_echo.calls": "count",
    "wavecore.born_echo.self_s": "s",
    "experiments.run.self_s": "s",
    "cli.parse_config.self_s": "s",
    "cli.build_envelope.self_s": "s",
    "cli.emit_results.self_s": "s",
    "cli.emit_results.bytes_per_s": "B/s",
    "mead.compete.self_s": "s",
    "mead.compete.trials_per_s": "1/s",
    "mead.integrate_pair.self_s": "s",
    "mead.integrate_pair.steps_per_s": "1/s",
    "process.import_s": "s",
    "process.import_scipy_s": "s",
    "trace.overhead_frac": "ratio",
}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HQS_THREADS"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _require_sources() -> None:
    if not (SRC / "hqs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hqs sources at {SRC.relative_to(ROOT)}/hqs; run from a source checkout")


def _import_program():
    """Import hqs from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import hqs

    if Path(hqs.__file__).resolve().parent != SRC / "hqs":
        sys.exit(f"perfbench: imported hqs from {hqs.__file__}, not from {SRC}")


def machine_block(inherited_threads) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            names = re.findall(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HQS_THREADS": "unset",
        "HQS_THREADS_inherited": "unset" if inherited_threads is None else inherited_threads,
    }


# -- one operation ----------------------------------------------------------------

def run_one(op, tracer=None, index=-1) -> dict:
    """Time one operation, then check its output outside the timed region."""
    error, events, output = None, 0, None
    t0 = time.perf_counter()
    try:
        output = op.call() if tracer is None else tracer.run_op(index, op.call)
    except Exception:  # noqa: BLE001 - an operation that raises is a counted failure
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            events = op.check(output)
        except (ref.CheckFailed, KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return {"label": op.label, "params": op.params, "s": elapsed, "events": events, "error": error}


def timed_loop(rounds, seconds: float) -> list[dict]:
    """Whole rounds until --seconds of operation time and MIN_OPS have passed."""
    recs, busy, r = [], 0.0, 0
    while not ((busy >= seconds and len(recs) >= MIN_OPS) or busy >= MAX_STRETCH * seconds):
        for op in rounds[r % len(rounds)]:
            recs.append(run_one(op))
            busy += recs[-1]["s"]
        r += 1
    return recs


# -- set-up and probes ----------------------------------------------------------------

def setup_times(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import hqs.cli, build inputs and run the warm-up."""
    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=170)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return out


def import_times() -> dict:
    """-X importtime split of `import hqs.cli`: total and scipy's part, medians of repeats."""
    totals, scipy_parts = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hqs.cli"], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True, timeout=120, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                rows.append((int(m[2]), len(m[3]), m[4]))
        # importtime lists a module after everything it imported; its parent is
        # the next row with a smaller indent
        total = scipy_part = 0
        for i, (cum, depth, name) in enumerate(rows):
            parent = next((r[2] for r in rows[i + 1:] if r[1] < depth), None)
            if name.split(".")[0] == "hqs" and parent is None:
                total += cum
            if name.split(".")[0] == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
                scipy_part += cum
        totals.append(total / 1e6)
        scipy_parts.append(scipy_part / 1e6)
    return {"process.import_s": statistics.median(totals),
            "process.import_scipy_s": statistics.median(scipy_parts)}


def scaling_probe(seed: int) -> dict:
    """The same 1e6 mz events through run_events at one worker and at nproc."""
    from hqs import network
    from hqs.experiments import interferometer

    net = interferometer.mz_network(False)
    nproc = os.cpu_count() or 1
    times, counts = {}, {}
    for workers in (1, nproc):
        gc.collect()
        t0 = time.perf_counter()
        counts[workers], records = network.run_events(net, SCALING_EVENTS, seed, workers=workers)
        times[workers] = time.perf_counter() - t0
        del records
    want = ref.Table(network.network_echo_table(net).entries).counts(SCALING_EVENTS, seed)
    ok = counts[1] == counts[nproc] == want
    return {"eff": times[1] / (nproc * times[nproc]), "ok": ok, "times": times}


def route_cap_probe() -> dict:
    """A 20-splitter chain, which is valid and lossless; today it is rejected for size.

    Run with the tracer installed and outside any operation, so only the
    rejection (a raised propagate_offers span) enters the layer metrics.
    """
    import workloads
    from hqs import network
    from hqs.network import Element, OpticalNetwork

    doc, routes = workloads.chain_network(workloads.PROBE_CHAIN_SPLITTERS, np.random.default_rng(0), mixed=False)
    net = OpticalNetwork(tuple(Element(e["id"], e["kind"], e["params"], e["outputs"]) for e in doc["elements"]),
                         doc["source"])
    t0 = time.perf_counter()
    try:
        table = network.network_echo_table(net)
    except ValueError as exc:
        return {"routes": routes, "s": time.perf_counter() - t0, "rejected": str(exc)[:200], "ok": True}
    got, want = table.entries, ref.sweep(doc)
    ok = sorted(got) == sorted(want) and all(abs(got[k] - want[k]) <= ref.ANALYTIC_TOL for k in want)
    return {"routes": routes, "s": time.perf_counter() - t0, "rejected": None, "ok": ok}


# -- metrics ---------------------------------------------------------------------------

def _failed(recs) -> int:
    return sum(r["error"] is not None for r in recs)


def layer_metrics(summary: dict, tracer, n_ops: int) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def rate(name, unit):
        incl = get(name, "incl_s")
        return tracer.work.get((name, unit), 0.0) / incl if incl > 0 else 0.0

    return {
        "rng.uniform_block.calls": get("rng.uniform_block", "calls"),
        "rng.uniform_block.self_s": get("rng.uniform_block", "self_s"),
        "rng.uniform_block.words_per_s": rate("rng.uniform_block", "words"),
        "network.sample_counts.self_s": get("network.sample_counts", "self_s"),
        "network.sample_counts.events_per_s": rate("network.sample_counts", "events"),
        "network.run_events.self_s": get("network.run_events", "self_s"),
        "network.run_events.events_per_s": rate("network.run_events", "events"),
        "network.run_events.records_built": int(tracer.work.get(("network.run_events", "records"), 0)),
        "network.select_transaction.calls": tracer.calls.get("network.select_transaction", 0),
        "experiments.ev_recursive.trials_per_s": rate("experiments.ev_recursive", "trials"),
        "network.validate.calls_per_op": get("network.validate", "calls") / n_ops,
        "network.validate.self_s": get("network.validate", "self_s"),
        "network.propagate_offers.self_s": get("network.propagate_offers", "self_s"),
        "network.propagate_offers.paths": int(tracer.work.get(("network.propagate_offers", "paths"), 0)),
        "network.propagate_offers.failed": get("network.propagate_offers", "raised"),
        "network.echo_table.self_s": get("network.echo_table", "self_s"),
        "network.echo_table.absorbers": int(tracer.work.get(("network.echo_table", "absorbers"), 0)),
        "network.calibrated.self_s": get("network.calibrated", "self_s"),
        "wavecore.born_echo.calls": get("wavecore.born_echo", "calls"),
        "wavecore.born_echo.self_s": get("wavecore.born_echo", "self_s"),
        "experiments.run.self_s": get("experiments.run", "self_s"),
        "cli.parse_config.self_s": get("cli.parse_config", "self_s"),
        "cli.build_envelope.self_s": get("cli.build_envelope", "self_s"),
        "cli.emit_results.self_s": get("cli.emit_results", "self_s"),
        "cli.emit_results.bytes_per_s": rate("cli.emit_results", "bytes"),
        "mead.compete.self_s": get("mead.compete", "self_s"),
        "mead.compete.trials_per_s": rate("mead.compete", "trials"),
        "mead.integrate_pair.self_s": get("mead.integrate_pair", "self_s"),
        "mead.integrate_pair.steps_per_s": rate("mead.integrate_pair", "steps"),
    }


# -- runs ----------------------------------------------------------------------------

def run_untraced(workload, seed, seconds, rounds) -> dict:
    setups = setup_times(workload, seed)
    recs = timed_loop(rounds, seconds)
    busy = sum(r["s"] for r in recs)
    ms = [1000.0 * r["s"] for r in recs]
    p50, p90 = np.percentile(ms, [50, 90])
    events = sum(r["events"] for r in recs)
    rows = [  # name, value, unit, samples
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} fresh processes"),
        ("ops_per_s", len(recs) / busy, "1/s", f"{len(recs)} ops in {busy:.2f} s"),
        ("op_ms_p50", float(p50), "ms", f"{len(recs)} ops"),
        ("op_ms_p90", float(p90), "ms", f"{len(recs)} ops, {sum(x > p90 for x in ms)} beyond"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
    ]
    if workload in EVENT_WORKLOADS:
        rows.append(("events_per_s", events / busy, "1/s", f"{events} events in {len(recs)} ops"))
    rows.append(("ops_failed_frac", _failed(recs) / len(recs), "ratio", f"{_failed(recs)} of {len(recs)} ops"))
    return {"records": recs, "metrics": {r[0]: r[1] for r in rows}, "units": {r[0]: r[2] for r in rows},
            "samples": {r[0]: r[3] for r in rows}, "setup_runs_s": setups, "contract": list(END_TO_END)}


def run_traced(workload, seed, rounds) -> dict:
    # each operation runs untraced, then traced, so both see the same heap and machine load
    block = [op for r in range(TRACE_ROUNDS[workload]) for op in rounds[r % len(rounds)]]
    tracer = tr.Tracer()
    plain, traced = [], []
    for op in block:
        plain.append(run_one(op))
        with tr.installed(tracer):
            traced.append(run_one(op, tracer, len(traced)))
    with tr.installed(tracer):
        probe = route_cap_probe() if workload == "propagate" else None
    summary = tracer.summary()
    metrics = layer_metrics(summary, tracer, len(traced))
    scaling = scaling_probe(seed)
    metrics["network.run_events.scaling_eff"] = scaling["eff"]
    metrics.update(import_times())
    metrics["trace.overhead_frac"] = sum(r["s"] for r in traced) / sum(r["s"] for r in plain) - 1.0
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.npz")
    probe_records = [{"label": "probe.thread_scaling", "s": sum(scaling["times"].values()), "events": 0,
                      "error": None if scaling["ok"] else "counts differ across worker counts or from reference"}]
    if probe is not None:
        probe_records.append({"label": "probe.route_cap", "s": probe["s"], "events": 0,
                              "error": None if probe["ok"] else "20-splitter chain echoes differ from the sweep"})
    samples = {name: f"{len(traced)} traced ops" for name in metrics}
    samples.update({"network.run_events.scaling_eff": f"{SCALING_EVENTS} mz events at 1 and {os.cpu_count()} workers",
                    "process.import_s": f"median of {IMPORT_REPEATS} -X importtime runs",
                    "process.import_scipy_s": f"median of {IMPORT_REPEATS} -X importtime runs",
                    "trace.overhead_frac": f"{len(traced)} ops traced vs {len(plain)} untraced"})
    if probe is not None:
        samples["network.propagate_offers.failed"] += f" + route-cap probe ({probe['routes']} routes)"
    return {"records": plain + traced + probe_records, "metrics": metrics, "units": LAYER_UNITS, "samples": samples,
            "spans": len(tracer.start), "layer_summary": summary, "route_cap": probe,
            "thread_scaling": {str(k): v for k, v in scaling["times"].items()}, "contract": list(LAYER_UNITS)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="sample, wide, propagate, dynamics or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_sources()
    if args.workload == "all":
        return run_all(args)

    inherited = os.environ.pop("HQS_THREADS", None)
    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{os.getpid()}"
    inputs.mkdir()
    try:
        rounds = workloads.build(args.workload, args.seed, inputs)
        warm = run_one(workloads.warmup(args.workload, inputs))
        if args.setup_probe:
            return 0  # only timed here; the parent process checks the warm-up's output
        machine = machine_block(inherited)
        if args.trace:
            result = run_traced(args.workload, args.seed, rounds)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, rounds)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    recs = [warm] + result["records"]
    failed = _failed(recs)
    report(args, machine, result, recs, failed)
    return 0 if failed == 0 else 1


def report(args, machine, result, recs, failed) -> None:
    print(f"hqs benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, value in result["metrics"].items():
        unit = result["units"].get(name, "")
        print(f"  {name:42s} {value:>16.6g} {unit:6s} {result['samples'].get(name, '')}")
    for r in recs:
        if r["error"] is not None:
            print(f"FAILED {r['label']}: {r['error']}")
    document = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "machine": machine, **{k: v for k, v in result.items() if k != "records"},
                "operations": recs}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(document, indent=1, default=str))
    line = {"correct": failed == 0, "attempted": len(recs), "failed": failed,
            "metrics": {k: {"value": result["metrics"][k], "unit": result["units"][k]} for k in result["contract"]}}
    print(json.dumps(line))


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows, status = {}, 0
    for workload in ("sample", "wide", "propagate", "dynamics"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        rows[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode or (rows[workload] is None)
    print(json.dumps(rows))
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
