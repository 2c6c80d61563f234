"""Command line plumbing: config parsing, envelopes, exit codes, determinism."""

import csv
import io
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
