"""Command line plumbing: config parsing, envelopes, exit codes, determinism."""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqs.cli import (
    ConfigError,
    RunSpec,
    build_envelope,
    emit_results,
    main,
    parse_config,
    run_spec,
    spec_to_dict,
)
from hqs.experiments.registry import EXPERIMENTS, RunResult
from hqs.network import OpticalNetwork, network_echo_table

MZ_JSON = """
{
  "source": "L",
  "elements": [
    {"id": "L", "kind": "source", "outputs": {"out": "S1:a"}},
    {"id": "S1", "kind": "beamsplitter", "outputs": {"out1": "A", "out2": "B"}},
    {"id": "A", "kind": "mirror", "outputs": {"out": "S2:a"}},
    {"id": "B", "kind": "mirror", "outputs": {"out": "S2:b"}},
    {"id": "S2", "kind": "beamsplitter", "outputs": {"out1": "D2", "out2": "D1"}},
    {"id": "D1", "kind": "detector"},
    {"id": "D2", "kind": "detector"}
  ]
}
"""


def test_parse_run_spec():
    spec = parse_config('{"experiment":"mz","parameters":{"blocked":true},"n":100000,"seed":42}')
    assert isinstance(spec, RunSpec)
    assert spec.experiment == "mz"
    assert spec.parameters["blocked"] is True
    assert spec.n == 100_000
    assert spec.seed == 42


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment 'warp'"):
        parse_config('{"experiment":"warp"}')


def test_parse_rejects_unknown_parameter():
    with pytest.raises(ConfigError, match="unknown parameter"):
        parse_config('{"experiment":"mz","parameters":{"blocked":true,"tilt":3}}')


def test_parse_reports_byte_offset_for_malformed_json():
    with pytest.raises(ConfigError, match="byte"):
        parse_config('{"experiment": }')


def test_parse_network_reproduces_the_builtin_interferometer():
    network = parse_config(MZ_JSON)
    assert isinstance(network, OpticalNetwork)
    table = network_echo_table(network)
    assert table.entries["D1"] == pytest.approx(1.0)
    assert table.entries["D2"] == pytest.approx(0.0, abs=1e-15)


def test_parse_network_unknown_kind_names_element_and_offset():
    bad = MZ_JSON.replace('"kind": "mirror"', '"kind": "mirrorball"', 1)
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "A" in str(err.value)
    assert "byte" in str(err.value)


def test_parse_network_dangling_port_is_a_config_error():
    bad = MZ_JSON.replace('{"id": "D2", "kind": "detector"}', '{"id": "D9", "kind": "detector"}')
    with pytest.raises(ConfigError, match="dangling|unreachable"):
        parse_config(bad)


def _param_value(kind):
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(min_value=1, max_value=64)
    if kind is float:
        return st.floats(min_value=0.01, max_value=90.0, allow_nan=False)
    return st.sampled_from(["before_slits", "after_slits"])


@st.composite
def valid_specs(draw):
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    schema = EXPERIMENTS[name].params
    params = {}
    for key, p in schema.items():
        if draw(st.booleans()):
            params[key] = draw(_param_value(p.kind))
    n = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=1000)))
    seed = draw(st.integers(min_value=0, max_value=2**63 - 1))
    fmt = draw(st.sampled_from(["json", "csv"]))
    return RunSpec(name, params, n, seed, fmt)


@given(valid_specs())
@settings(max_examples=40, deadline=None)
def test_spec_round_trips_through_json(spec):
    text = json.dumps(spec_to_dict(spec))
    back = parse_config(text)
    assert back == spec


def test_envelope_four_sigma_bound_accepts_healthy_counts():
    # a known-good 1e5-event split lands inside every 4-sigma bound
    result = RunResult(
        analytic={"D1": 0.25, "D2": 0.25, "Obj": 0.5},
        counts={"D1": 25061, "D2": 24980, "Obj": 49959},
        n=100_000,
    )
    envelope = build_envelope(RunSpec("mz", {"blocked": True}, 100_000, 7), result)
    assert envelope["empirical"]["counts"]["D1"] == 25061
    assert all(e["pass"] for e in envelope["entries"])
    for e in envelope["entries"]:
        p = e["analytic"]
        assert e["sigma_bound"] == pytest.approx(4.0 * math.sqrt(p * (1 - p) / 100_000))


def test_envelope_flags_a_bad_count():
    result = RunResult(analytic={"A": 0.5, "B": 0.5}, counts={"A": 5900, "B": 4100}, n=10_000)
    envelope = build_envelope(RunSpec("mz", {}, 10_000, 0), result)
    assert not any(e["pass"] for e in envelope["entries"])


def test_envelope_analytic_only_run():
    envelope = run_spec(RunSpec("mz", {"blocked": False}, None, 0))
    assert envelope["empirical"] is None
    assert envelope["entries"] is None
    assert envelope["analytic"]["D1"] == pytest.approx(1.0)


def test_run_spec_calls_the_registry_entry_it_finds_at_run_time(monkeypatch):
    # an entry swapped into the registry after import, as a tracer does, is the one that runs
    import dataclasses

    calls = []
    entry = EXPERIMENTS["mz"]
    monkeypatch.setitem(EXPERIMENTS, "mz", dataclasses.replace(
        entry, run=lambda *args: calls.append(args) or entry.run(*args)))
    envelope = run_spec(RunSpec("mz", {"blocked": True}, 1000, 3))
    assert len(calls) == 1
    assert sum(e["count"] for e in envelope["entries"]) == 1000


def test_emitted_json_is_stable_and_sorted():
    envelope = run_spec(RunSpec("mz", {"blocked": True}, 1000, 3))
    blob1 = emit_results(envelope, "json")
    blob2 = emit_results(envelope, "json")
    assert blob1 == blob2
    doc = json.loads(blob1)
    assert list(doc) == sorted(doc)
    assert "wall_time" not in blob1.decode()


def test_emitted_csv_has_the_documented_header():
    envelope = run_spec(RunSpec("mz", {"blocked": True}, 1000, 3))
    rows = list(csv.reader(io.StringIO(emit_results(envelope, "csv").decode())))
    assert rows[0] == ["outcome", "analytic", "count", "freq", "sigma_bound", "pass"]
    assert len(rows) == 4
    counts = {r[0]: int(r[2]) for r in rows[1:]}
    assert sum(counts.values()) == 1000


def test_main_run_exit_codes(tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["run", "mz", "--events", "1000", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sum(doc["empirical"]["counts"].values()) == 1000
    assert main(["run", "nosuch"]) == 2
    assert main(["run", "mz", "--param", "bogus=1"]) == 2
    assert main(["run", "mz", "--param", "blocked"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_main_scan_writes_one_row_per_grid_point(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", "epr", "--param", "delta=0:90:19", "--events", "2000", "--seed", "1",
         "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 20  # header + 19 grid points
    header = rows[0]
    d_col = header.index("delta")
    p_col = header.index("p_different")
    for row in rows[1:]:
        delta = float(row[d_col])
        measured = float(row[p_col])
        assert abs(measured - math.sin(math.radians(delta)) ** 2) < 0.05
    assert main(["scan", "epr", "--events", "10"]) == 2  # no range given
    assert main(["scan", "epr", "--param", "delta=0:90:1"]) == 2  # count < 2


def test_main_custom_network_run(tmp_path):
    config = tmp_path / "mz.json"
    config.write_text(MZ_JSON)
    out = tmp_path / "result.json"
    code = main(
        ["run", "custom", "--param", f"config={config}", "--events", "2000", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["empirical"]["counts"]["D1"] == 2000
    assert main(["run", "custom"]) == 2  # config path required


def test_main_dynamics_models(tmp_path):
    traj = tmp_path / "trajectory.csv"
    assert main(["dynamics", "avalanche", "--param", "k=2.0", "--out", str(traj)]) == 0
    rows = list(csv.reader(traj.read_text().splitlines()))
    assert rows[0][:3] == ["t", "x_emitter", "x_absorber"]
    assert float(rows[-1][2]) > 0.99

    comp = tmp_path / "compete.json"
    assert main(
        ["dynamics", "compete", "--param", "k_list=1.0,2.0", "--param", "trials=200",
         "--seed", "5", "--out", str(comp)]
    ) == 0
    doc = json.loads(comp.read_text())
    assert sum(doc["win_counts"]) == 200
    assert doc["win_fractions"][1] > doc["win_fractions"][0]

    field = tmp_path / "field.csv"
    assert main(["dynamics", "field", "--param", "nx=21", "--param", "ny=21",
                 "--out", str(field)]) == 0
    rows = list(csv.reader(field.read_text().splitlines()))
    assert rows[0][0] == "21"
    assert len(rows) == 22

    assert main(["dynamics", "avalanche", "--param", "k=-1"]) == 2
    assert main(["dynamics", "compete", "--param", "k_list=1.0"]) == 2


def test_avalanche_rejects_the_removed_noise_knob(capsys):
    assert main(["dynamics", "avalanche", "--param", "noise_amplitude=0.1"]) == 2
    assert "unknown parameter 'noise_amplitude'" in capsys.readouterr().err


def test_compete_rejects_the_removed_step_knob(capsys):
    # compete solves the race exactly, so it has no RK4 step to choose
    assert main(["dynamics", "compete", "--param", "dt=0.01"]) == 2
    assert "unknown parameter 'dt'" in capsys.readouterr().err
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("dynamics compete: ")) + 1
    listed = list(itertools.takewhile(lambda line: line.startswith("    "), lines[start:]))
    assert [line.split()[0] for line in listed] == ["k_list", "x0_max", "trials"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "avalanche", "--param", "k=2.0", "--param", "t_end=1.0"],
        ["dynamics", "field", "--param", "nx=21", "--param", "ny=17"],
    ],
    ids=["avalanche", "field"],
)
def test_dynamics_csv_bytes_match_between_out_and_stdout(tmp_path, capsysbinary, argv):
    out = tmp_path / "model.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert b"\r" not in printed
    assert out.read_bytes() == printed


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"{name}:" in out
    assert "custom:" in out


def test_output_files_are_identical_across_thread_counts(tmp_path):
    # same argv and seed, different worker counts: byte-identical files
    paths = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads_{threads}.json"
        env = dict(os.environ, HQS_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "hqs", "run", "mz", "--param", "blocked=true",
             "--events", "20000", "--seed", "9", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wall_time_ms" in proc.stderr  # timing goes to stderr only
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


NON_FINITE = {
    "P1": {"kind": "phase_segment", "params": {"length": float("nan")}, "outputs": {"out": "D"}},
    "H1": {"kind": "halfwave_plate", "params": {"axis": float("inf")}, "outputs": {"out": "D"}},
    "scr": {"kind": "screen", "params": {"bin_count": 5, "half_width": 2.0, "distance": float("inf"),
                                         "offsets": {"in": 0.0}}},
}


@pytest.mark.parametrize("elem_id", sorted(NON_FINITE))
def test_non_finite_params_are_config_errors_naming_the_element(tmp_path, capsys, elem_id):
    elements = [{"id": "L", "kind": "source", "outputs": {"out": elem_id}},
                {"id": elem_id, **NON_FINITE[elem_id]}]
    if elem_id != "scr":
        elements.append({"id": "D", "kind": "detector"})
    config = tmp_path / "net.json"
    config.write_text(json.dumps({"source": "L", "elements": elements}))  # NaN / Infinity literals
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    err = capsys.readouterr().err
    assert f"bad params: {elem_id}: non-finite" in err
    assert "element at byte" in err and "path explosion" not in err


SCREEN_PARAMS = {"bin_count": 5, "half_width": 2.0, "distance": 50.0, "offsets": {"in": 0.0}}
# an element whose params its kind does not take, or does not take in that form,
# and the params the error must name
MALFORMED_PARAMS = {
    "unknown-on-mirror": ({"id": "M", "kind": "mirror", "params": {"length": 0.3, "axis": "x"},
                           "outputs": {"out": "D"}}, ["length", "axis"]),
    "unknown-on-detector": ({"id": "D", "kind": "detector", "params": {"bin_count": "many"}}, ["bin_count"]),
    "bool-length": ({"id": "P", "kind": "phase_segment", "params": {"length": True}, "outputs": {"out": "D"}},
                    ["length"]),
    "fractional-bin_count-string-half_width": (
        {"id": "scr", "kind": "screen", "params": dict(SCREEN_PARAMS, bin_count=2.5, half_width="3")},
        ["bin_count", "half_width"]),
    "number-offsets": ({"id": "scr", "kind": "screen", "params": dict(SCREEN_PARAMS, offsets=5)}, ["offsets"]),
    "misspelt-length": ({"id": "P", "kind": "phase_segment", "params": {"lenght": 0.3}, "outputs": {"out": "D"}},
                        ["lenght", "missing length"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PARAMS))
def test_malformed_element_params_are_config_errors_naming_them(tmp_path, capsys, case):
    entry, names = MALFORMED_PARAMS[case]
    elements = [{"id": "L", "kind": "source", "outputs": {"out": entry["id"]}}, entry]
    if entry["id"] != "D" and entry["kind"] != "screen":
        elements.append({"id": "D", "kind": "detector"})
    err = _run_network(tmp_path, capsys, {"source": "L", "elements": elements})
    assert f"bad params: {entry['id']}: " in err and "element at byte" in err
    assert "Error(" not in err
    for name in names:
        assert name in err, (name, err)


def test_calibrating_a_dark_emission_is_a_config_error(tmp_path, capsys):
    doc = json.loads(MZ_JSON)
    doc.update(emission={"v": [0, 0]}, calibrate_emission=True)
    config = tmp_path / "dark.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    assert "cannot calibrate emission" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["avalanche", "field"])
def test_seed_is_refused_where_nothing_reads_it(capsys, model):
    assert main(["dynamics", model, "--seed", "3", "--param", "t_end=1.0" if model == "avalanche" else "nx=5"]) == 2
    assert "takes no --seed" in capsys.readouterr().err


def test_compete_seed_defaults_to_zero(tmp_path):
    argv = ["dynamics", "compete", "--param", "trials=50"]
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    assert main(argv + ["--out", str(default)]) == 0
    assert main(argv + ["--seed", "0", "--out", str(explicit)]) == 0
    assert json.loads(default.read_text())["seed"] == 0
    assert default.read_bytes() == explicit.read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows laying out the bins
def test_overflowing_screen_geometry_is_a_config_error(tmp_path, capsys):
    screen = {"bin_count": 3, "half_width": 1e308, "distance": 1e308, "offsets": {"in": 0.0}}
    doc = {"source": "L", "elements": [{"id": "L", "kind": "source", "outputs": {"out": "scr"}},
                                       {"id": "scr", "kind": "screen", "params": screen}]}
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    assert "bad params: scr: non-finite amplitude" in capsys.readouterr().err


@pytest.mark.parametrize(
    "elem_id, key, value",
    [("D1", "params", [1, 2]), ("S1", "outputs", ["D1"])],
    ids=["params-list", "outputs-list"],
)
def test_non_object_params_or_outputs_are_config_errors(tmp_path, capsys, elem_id, key, value):
    doc = json.loads(MZ_JSON)
    next(e for e in doc["elements"] if e["id"] == elem_id)[key] = value
    config = tmp_path / "net.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    err = capsys.readouterr().err
    assert f"element {elem_id!r} at byte" in err
    assert f"{key} must be a JSON object" in err
    assert "internal error" not in err


def test_non_string_output_target_is_a_config_error(tmp_path, capsys):
    doc = json.loads(MZ_JSON)
    next(e for e in doc["elements"] if e["id"] == "S1")["outputs"]["out1"] = {"x": 1}
    config = tmp_path / "net.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    err = capsys.readouterr().err
    assert "element 'S1' at byte" in err
    assert "output 'out1' must be a JSON string" in err
    assert "dangling port" not in err and "echo-sum" not in err


def _run_network(tmp_path, capsys, doc) -> str:
    config = tmp_path / "net.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    return capsys.readouterr().err


def _offset_of_defect(err: str, defect: str) -> int:
    # defects are joined by "; ", each followed by "(element at byte N)"
    (part,) = [p for p in err.split("; ") if defect in p]
    return int(part.split("(element at byte ")[1].split(")")[0])


def test_defect_offsets_point_at_the_elements_own_id_entry(tmp_path, capsys):
    # the source's id also appears as the "source" value, which comes first
    doc = json.loads(MZ_JSON)
    doc["elements"][0]["outputs"]["out"] = "ghost"
    text = json.dumps(doc)
    err = _run_network(tmp_path, capsys, doc)
    offset = _offset_of_defect(err, "dangling port: L.out -> ghost")
    assert text[offset:].startswith('"id": "L"')


def test_cycle_defect_names_an_element_on_the_cycle(tmp_path, capsys):
    doc = {"source": "L", "elements": [
        {"id": "L", "kind": "source", "outputs": {"out": "D"}},
        {"id": "D", "kind": "detector"},
        {"id": "A", "kind": "mirror", "outputs": {"out": "B"}},
        {"id": "B", "kind": "mirror", "outputs": {"out": "A"}},
    ]}
    text = json.dumps(doc)
    err = _run_network(tmp_path, capsys, doc)
    offset = _offset_of_defect(err, "cycle: network graph contains a cycle")
    assert offset >= 0
    assert text[offset:].startswith(('"id": "A"', '"id": "B"'))


def test_network_wide_defect_prints_no_offset(tmp_path, capsys):
    screen = {"bin_count": 5, "half_width": 2.0, "distance": 50.0, "offsets": {"in": 0.0}}
    doc = {"source": "L", "elements": [{"id": "L", "kind": "source", "outputs": {"out": "scr"}},
                                       {"id": "scr", "kind": "screen", "params": screen}]}
    err = _run_network(tmp_path, capsys, doc)
    assert "echo-sum: " in err
    assert "byte" not in err


@pytest.mark.parametrize("calibrate, sweeps", [(False, 1), (True, 2)])
def test_custom_run_sweeps_each_network_once(tmp_path, monkeypatch, calibrate, sweeps):
    # parse_config validates; the echo table reuses that report, and a
    # calibrated network is a new object with one sweep of its own
    from hqs import network

    calls = []
    real = network._sweep
    monkeypatch.setattr(network, "_sweep", lambda net: calls.append(net) or real(net))
    doc = dict(json.loads(MZ_JSON), calibrate_emission=calibrate)
    config = tmp_path / "net.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "custom", "--param", f"config={config}", "--events", "100",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == sweeps


NON_FINITE_RUNS = [("afshar", "wire_width", "nan"), ("two_slit", "d", "inf"), ("two_slit", "bin_count", "Infinity")]


@pytest.mark.parametrize("experiment, key, value", NON_FINITE_RUNS)
def test_non_finite_run_parameters_are_config_errors(tmp_path, capsys, experiment, key, value):
    assert main(["run", experiment, "--param", f"{key}={value}"]) == 2
    assert f"bad value for {key!r}" in capsys.readouterr().err
    # the same value from a JSON run description
    literal = {"nan": "NaN", "inf": "Infinity"}.get(value, value)
    with pytest.raises(ConfigError, match=f"bad value for {key!r}"):
        parse_config(f'{{"experiment": "{experiment}", "parameters": {{"{key}": {literal}}}}}')


@pytest.mark.parametrize(
    "params, code",
    [(["d=0.6", "L=3"], 0), (["d=0.4"], 2), (["d=-20"], 2), (["d=-20", "half_width=30"], 0)],
    ids=["minimum-beyond-L", "slits-too-close", "negative-d", "explicit-half-width"],
)
def test_two_slit_geometry_exit_codes(capsys, params, code):
    argv = ["run", "two_slit", "--events", "1000"]
    for p in params:
        argv += ["--param", p]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "d=" in err and "half_width" in err
        assert "f(a) and f(b)" not in err


NO_SCIPY_CHILD = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from hqs.cli import main
from hqs.experiments.registry import EXPERIMENTS

runs = [["list"], ["dynamics", "compete", "--param", "trials=50"]]
for name in EXPERIMENTS:
    runs += [["run", name], ["run", name, "--events", "2000"]]
for argv in runs:
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_runtime_never_imports_scipy():
    # every registered run, the listing and the dynamics run with scipy unimportable
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize(
    "field, value", [("n", '"5"'), ("n", "5.5"), ("n", "true"), ("seed", '"5"'), ("seed", "1.5")]
)
def test_non_integer_n_or_seed_is_a_config_error_naming_it(tmp_path, capsys, field, value):
    config = tmp_path / "spec.json"
    config.write_text(f'{{"experiment": "mz", "{field}": {value}}}')
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be an integer" in err and "internal error" not in err


@pytest.mark.parametrize("doc", ['{"experiment": ["mz"]}', '{"experiment": "mz", "parameters": [1]}'])
def test_run_description_field_types_are_config_errors(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_kind_that_is_not_a_string_is_a_config_error(tmp_path, capsys):
    doc = json.loads(MZ_JSON)
    doc["elements"][2]["kind"] = ["mirror"]
    err = _run_network(tmp_path, capsys, doc)
    assert "element 'A' at byte" in err and "unknown kind ['mirror']" in err


def test_id_that_is_not_a_string_is_a_config_error(tmp_path, capsys):
    doc = json.loads(MZ_JSON)
    doc["elements"][5]["id"] = 5
    text = json.dumps(doc)
    err = _run_network(tmp_path, capsys, doc)
    assert "id must be a JSON string" in err
    offset = int(err.split("at byte ")[1].split(":")[0])
    assert text[offset:].startswith('"id": 5')


def test_an_unknown_key_in_an_element_is_a_config_error_naming_it(tmp_path, capsys):
    doc = json.loads(MZ_JSON)
    doc["elements"][2]["parms"] = {"length": 0.25}  # a misspelled "params" on mirror A
    text = json.dumps(doc)
    err = _run_network(tmp_path, capsys, doc)
    assert "unknown parameter 'parms'" in err and "element 'A' at byte" in err
    offset = int(err.split("at byte ")[1].split(":")[0])
    assert text.encode()[offset:].startswith(b'"id": "A"')


def test_a_valid_network_never_locates_its_elements(tmp_path, monkeypatch):
    # byte offsets are only for error messages
    from hqs import cli

    def refuse(text):
        raise AssertionError("_id_offsets called for a valid network")

    monkeypatch.setattr(cli, "_id_offsets", refuse)
    config = tmp_path / "net.json"
    config.write_text(MZ_JSON)
    assert main(["run", "custom", "--param", f"config={config}", "--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("box", ["params", "outputs"])
def test_an_id_key_inside_params_or_outputs_is_not_the_elements_own(tmp_path, capsys, box):
    # L's params or outputs carry "id": "S1" ahead of S1's own entry
    doc = json.loads(MZ_JSON)
    doc["elements"][0][box] = dict(doc["elements"][0].get(box, {}), id="S1")
    doc["elements"][1]["outputs"]["out1"] = "ghost"
    text = json.dumps(doc)
    err = _run_network(tmp_path, capsys, doc)
    offset = _offset_of_defect(err, "S1.out1 -> ghost")
    assert text[offset:].startswith('"id": "S1", "kind": "beamsplitter"')


def test_offsets_count_bytes_not_characters(tmp_path, capsys):
    doc = json.loads(MZ_JSON.replace('"B"', '"Bü"').replace('"D2"', '"D☃"'))
    doc["elements"][-1]["outputs"] = {"out": "D1"}
    config = tmp_path / "net.json"
    config.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    offset = _offset_of_defect(capsys.readouterr().err, "terminal D☃ has outputs")
    assert config.read_bytes()[offset:].startswith('"id": "D☃"'.encode())


@pytest.mark.parametrize("emission", [1e-160, 3e-162], ids=["1e-160", "3e-162"])
def test_an_emission_too_weak_to_calibrate_is_a_config_error(tmp_path, capsys, emission):
    doc = dict(json.loads(MZ_JSON), emission={"v": [emission, 0]}, calibrate_emission=True)
    err = _run_network(tmp_path, capsys, doc)
    assert "cannot calibrate emission" in err and "internal error" not in err


def test_an_emission_whose_echoes_overflow_is_a_config_error(tmp_path, capsys):
    screen = {"bin_count": 5, "half_width": 2.0, "distance": 50.0, "offsets": {"in": 0.0}}
    doc = {"source": "L", "emission": {"v": [1e154, 0]}, "calibrate_emission": True, "elements": [
        {"id": "L", "kind": "source", "outputs": {"out": "scr"}},
        {"id": "scr", "kind": "screen", "params": screen}]}
    err = _run_network(tmp_path, capsys, doc)
    assert "bad emission: its echoes overflow" in err


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "net.json"
    config.write_bytes(MZ_JSON.replace('"A"', '"\xff"').encode("latin-1"))
    assert main(["run", "custom", "--param", f"config={config}"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [1000, 100_000])
@pytest.mark.parametrize("where", ["params", "top", "--param"])
def test_json_nested_too_deeply_is_a_config_error(tmp_path, capsys, depth, where):
    deep = "[" * depth + "]" * depth
    if where == "--param":
        assert main(["run", "bubble", "--param", f"n_detectors={deep}"]) == 2
    else:
        if where == "params":
            deep = MZ_JSON.replace('"kind": "mirror"', f'"kind": "mirror", "params": {{"x": {deep}}}', 1)
            assert deep != MZ_JSON
        config = tmp_path / "net.json"
        config.write_text(deep)
        assert main(["run", "custom", "--param", f"config={config}"]) == 2
    assert "nests too deeply" in capsys.readouterr().err


WRONG_TYPES = [
    (["dynamics", "field", "--param", "positions=1,2"], "positions"),
    (["dynamics", "field", "--param", "positions=[[1],[2]]"], "positions"),
    (["run", "bubble", "--param", "n_detectors=64.7"], "n_detectors"),
    (["dynamics", "compete", "--param", "trials=true"], "trials"),
    (["run", "epr", "--param", "delta=true"], "delta"),
    (["dynamics", "field", "--param", "extent=nan"], "extent"),
    (["dynamics", "avalanche", "--param", "omega=nan"], "omega"),
    (["scan", "bubble", "--param", "n_detectors=8:9:3"], "n_detectors"),
]


@pytest.mark.parametrize("argv, field", WRONG_TYPES, ids=[" ".join(a[:2] + a[-1:]) for a, _ in WRONG_TYPES])
def test_a_param_of_the_wrong_type_is_a_config_error_naming_it(capsys, argv, field):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"bad value for {field!r}" in err and "internal error" not in err


@pytest.mark.parametrize(
    "key, value, field",
    [("emission", {"v": "1"}, "v"), ("calibrate_emission", [1], "calibrate_emission"),
     ("calibrate_emission", "no", "calibrate_emission")],
    ids=["emission-string", "calibrate-list", "calibrate-string"],
)
def test_a_network_value_of_the_wrong_type_is_a_config_error_naming_it(tmp_path, capsys, key, value, field):
    err = _run_network(tmp_path, capsys, dict(json.loads(MZ_JSON), **{key: value}))
    assert f"bad value for {field!r}" in err


@pytest.mark.parametrize(
    "params, message",
    [(["k=0"], "k must be positive"), (["omega=0"], "omega must be positive"),
     (["k=1e-300", "dt=1e-300"], "t_end / dt must be a finite number of steps"),
     (["dt=1e-300"], "t_end / dt = 2e+301 steps is over the cap of 1000000")],
    ids=["k=0", "omega=0", "step-count-overflows", "step-count-over-the-cap"],
)
def test_avalanche_values_that_divide_by_zero_or_overflow_are_config_errors(capsys, params, message):
    # t_end = 20/k and the dt bound of omega divide by them; t_end/dt counts the steps,
    # which are refused before any is taken when there are more than 10**6
    argv = ["dynamics", "avalanche"]
    for p in params:
        argv += ["--param", p]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_a_detector_on_an_unfed_absorbed_port_reads_the_polarizers_echo(tmp_path):
    # no edge feeds P0.absorbed: the polarizer's absorber is what makes it reachable
    doc = {"source": "L", "elements": [
        {"id": "L", "kind": "source", "outputs": {"out": "P0"}},
        {"id": "P0", "kind": "polarizer", "params": {"axis": 30.0}, "outputs": {"out": "D"}},
        {"id": "D", "kind": "detector"},
        {"id": "P0.absorbed", "kind": "detector"}]}
    config, out = tmp_path / "net.json", tmp_path / "result.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "custom", "--param", f"config={config}", "--out", str(out)]) == 0
    analytic = json.loads(out.read_text())["analytic"]
    assert analytic == {"D": pytest.approx(0.25), "P0.absorbed": pytest.approx(0.75)}


def test_list_prints_every_dynamics_parameter_from_the_table(capsys, monkeypatch):
    from hqs.cli import DYNAMICS
    from hqs.experiments.registry import Param

    # a parameter only the table knows must be listed too
    monkeypatch.setitem(DYNAMICS["field"].params, "knob", Param(int, 7, "declared by this test only"))
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name, model in DYNAMICS.items():
        start = lines.index(f"dynamics {name}: {model.description}") + 1
        listed = lines[start:start + len(model.params)]
        assert len(listed) == len(model.params)
        for line, (key, p) in zip(listed, model.params.items()):
            assert line.startswith(f"    {key} ({p.kind.__name__}")
            assert line.endswith(f", default {p.default!r}): {p.help}")
