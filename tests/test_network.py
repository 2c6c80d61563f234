"""Network validation, offer propagation, echo bookkeeping, event sampling."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqs.network import (
    DEFAULT_PATH_CAP,
    ECHO_SUM_TOL,
    EchoTable,
    Element,
    OpticalNetwork,
    calibrated,
    echo_table,
    network_echo_table,
    propagate_offers,
    run_events,
    sample_counts,
    select_transaction,
    validate,
)
from hqs.rng import RandomStream
from hqs.wavecore import VERTICAL, PolarizedAmplitude, born_echo


def balanced_mz(blocked: bool = False) -> OpticalNetwork:
    elements = [
        Element("L", "source", outputs={"out": "S1:a"}),
        Element("S1", "beamsplitter", outputs={"out1": "A", "out2": "B"}),
        Element("A", "mirror", outputs={"out": "Obj" if blocked else "S2:a"}),
        Element("B", "mirror", outputs={"out": "S2:b"}),
        Element("S2", "beamsplitter", outputs={"out1": "D2", "out2": "D1"}),
        Element("D1", "detector"),
        Element("D2", "detector"),
    ]
    if blocked:
        elements.append(Element("Obj", "blocker"))
        # S2:a is now unfed; the dark-port split comes from one arm only
    return OpticalNetwork(tuple(elements), "L")


def test_valid_mz_reports_clean():
    report = validate(balanced_mz())
    assert report.ok
    assert report.defects == ()
    assert report.echo_sum == pytest.approx(1.0, abs=1e-12)


def test_offer_paths_carry_the_expected_amplitudes():
    paths = propagate_offers(balanced_mz())
    by_absorber = {}
    for p in paths:
        by_absorber.setdefault(p.absorber, []).append(p)
    # two routes to each detector, i/2 each toward D1, +-1/2 toward D2
    d1 = [p.amplitude.v for p in by_absorber["D1"]]
    assert len(d1) == 2
    for v in d1:
        assert v == pytest.approx(0.5j)
    d2 = sorted(p.amplitude.v.real for p in by_absorber["D2"])
    assert d2[0] == pytest.approx(-0.5)
    assert d2[1] == pytest.approx(0.5)


def test_echo_table_interferes_paths():
    table = network_echo_table(balanced_mz())
    assert table.entries["D1"] == pytest.approx(1.0)
    assert table.entries["D2"] == pytest.approx(0.0, abs=1e-15)
    assert table.total == pytest.approx(1.0)


def test_blocked_mz_splits_quarter_quarter_half():
    table = network_echo_table(balanced_mz(blocked=True))
    assert table.entries["D1"] == pytest.approx(0.25)
    assert table.entries["D2"] == pytest.approx(0.25)
    assert table.entries["Obj"] == pytest.approx(0.5)


def _defect_kinds(network) -> set:
    return {d.kind for d in validate(network).defects}


def test_duplicate_id_detected():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "D"}),
            Element("D", "detector"),
            Element("D", "detector"),
        ),
        "L",
    )
    assert "duplicate id" in _defect_kinds(net)


def test_missing_source_detected():
    net = OpticalNetwork((Element("D", "detector"),), "L")
    assert "missing source" in _defect_kinds(net)


def test_unknown_kind_detected():
    net = OpticalNetwork(
        (Element("L", "source", outputs={"out": "X"}), Element("X", "prism")), "L"
    )
    assert "unknown kind" in _defect_kinds(net)


def test_dangling_port_detected():
    net = OpticalNetwork(
        (Element("L", "source", outputs={"out": "ghost"}),), "L"
    )
    assert "dangling port" in _defect_kinds(net)


def test_input_collision_detected():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "S:a"}),
            Element("S", "beamsplitter", outputs={"out1": "D", "out2": "D"}),
            Element("D", "detector"),
        ),
        "L",
    )
    assert "input collision" in _defect_kinds(net)


def test_cycle_detected():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "M1"}),
            Element("M1", "mirror", outputs={"out": "M2"}),
            Element("M2", "mirror", outputs={"out": "M1"}),
        ),
        "L",
    )
    assert "cycle" in _defect_kinds(net)


def test_unreachable_absorber_detected():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "D1"}),
            Element("D1", "detector"),
            Element("D2", "detector"),
        ),
        "L",
    )
    assert "unreachable absorber" in _defect_kinds(net)


def test_wiring_into_a_source_rejected():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "M"}),
            Element("M", "mirror", outputs={"out": "L"}),
        ),
        "L",
    )
    assert "bad wiring" in _defect_kinds(net)


def test_terminal_with_outputs_rejected():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "D"}),
            Element("D", "detector", outputs={"out": "L2"}),
            Element("L2", "detector"),
        ),
        "L",
    )
    assert "bad wiring" in _defect_kinds(net)


def test_uncalibrated_screen_flagged_as_echo_sum_defect():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "scr"}),
            Element(
                "scr",
                "screen",
                params={
                    "bin_count": 11,
                    "half_width": 5.0,
                    "distance": 100.0,
                    "offsets": {"in": 0.0},
                },
            ),
        ),
        "L",
    )
    kinds = _defect_kinds(net)
    assert "echo-sum" in kinds
    fixed = calibrated(net)
    report = validate(fixed)
    assert report.ok
    assert report.echo_sum == pytest.approx(1.0, abs=1e-9)


def test_path_cap_overflow_raises():
    with pytest.raises(ValueError, match="path explosion"):
        propagate_offers(balanced_mz(), path_cap=3)
    # and the default cap is untroubled by a 4-path interferometer
    assert len(propagate_offers(balanced_mz(), path_cap=DEFAULT_PATH_CAP)) == 4


def test_echo_table_keeps_zero_entries_and_sorts_ids():
    table = network_echo_table(balanced_mz())
    assert list(table.entries) == sorted(table.entries)
    assert "D2" in table.entries


def test_select_transaction_follows_the_echo_weights():
    table = EchoTable({"A": 0.2, "B": 0.3, "C": 0.5})
    n = 20_000
    counts = sample_counts(table, n, seed=101)
    for name, p in (("A", 0.2), ("B", 0.3), ("C", 0.5)):
        bound = 4.0 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[name] / n - p) <= bound, name


def test_zero_probability_absorber_is_never_selected():
    table = EchoTable({"A": 0.5, "B": 0.0, "C": 0.5})
    counts = sample_counts(table, 10_000, seed=7)
    assert counts["B"] == 0
    assert counts["A"] + counts["C"] == 10_000
    # scalar route agrees
    stream = RandomStream(seed=7, event_index=0)
    for _ in range(200):
        assert select_transaction(table, stream) != "B"


def test_select_transaction_requires_a_complete_table():
    with pytest.raises(ValueError, match="incomplete absorber set"):
        select_transaction(EchoTable({"A": 0.2, "B": 0.2}), RandomStream(0, 0))


def test_scalar_and_vector_selection_agree():
    table = EchoTable({"A": 0.25, "B": 0.25, "C": 0.5})
    counts = sample_counts(table, 500, seed=33)
    scalar = {"A": 0, "B": 0, "C": 0}
    for event in range(500):
        name = select_transaction(table, RandomStream(seed=33, event_index=event))
        scalar[name] += 1
    assert counts == scalar


def test_run_events_is_schedule_independent():
    net = balanced_mz(blocked=True)
    counts1, recs1 = run_events(net, 5000, seed=5, workers=1)
    counts4, recs4 = run_events(net, 5000, seed=5, workers=4)
    assert counts1 == counts4
    assert [r.selected_absorber for r in recs1] == [r.selected_absorber for r in recs4]
    assert [r.rng_draw for r in recs1] == [r.rng_draw for r in recs4]
    assert sum(counts1.values()) == 5000
    assert [r.event_index for r in recs1] == list(range(5000))


def test_thread_env_var_is_validated(monkeypatch):
    net = balanced_mz()
    monkeypatch.setenv("HQS_THREADS", "2")
    counts, _ = run_events(net, 1000, seed=1)
    assert sum(counts.values()) == 1000
    monkeypatch.setenv("HQS_THREADS", "0")
    with pytest.raises(ValueError, match="HQS_THREADS"):
        run_events(net, 10, seed=1)
    monkeypatch.setenv("HQS_THREADS", "soon")
    with pytest.raises(ValueError, match="HQS_THREADS"):
        run_events(net, 10, seed=1)


def test_multi_output_source_splits_evenly():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out1": "Da", "out2": "Db", "out3": "Dc"}),
            Element("Da", "detector"),
            Element("Db", "detector"),
            Element("Dc", "detector"),
        ),
        "L",
    )
    table = network_echo_table(net)
    for name in ("Da", "Db", "Dc"):
        assert table.entries[name] == pytest.approx(1.0 / 3.0)


def test_polarizer_routes_rejected_light_to_implicit_absorber():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "P"}),
            Element("P", "polarizer", params={"axis": 45.0}, outputs={"out": "D"}),
            Element("D", "detector"),
        ),
        "L",
    )
    table = network_echo_table(net)
    assert table.entries["D"] == pytest.approx(0.5)
    assert table.entries["P.absorbed"] == pytest.approx(0.5)
    assert table.total == pytest.approx(1.0)


def test_phase_segment_changes_nothing_but_phase():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "seg"}),
            Element("seg", "phase_segment", params={"length": 0.37}, outputs={"out": "D"}),
            Element("D", "detector"),
        ),
        "L",
    )
    paths = propagate_offers(net)
    assert len(paths) == 1
    assert paths[0].amplitude.norm_sq() == pytest.approx(1.0)
    assert paths[0].accumulated_length == pytest.approx(0.37)
    assert network_echo_table(net).entries["D"] == pytest.approx(1.0)


def test_emission_polarization_is_respected():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "P"}),
            Element("P", "polarizer", params={"axis": 0.0}, outputs={"out": "D"}),
            Element("D", "detector"),
        ),
        "L",
        emission=PolarizedAmplitude(h=1.0),
    )
    # axis 0 is horizontal: everything passes
    assert network_echo_table(net).entries["D"] == pytest.approx(1.0)


def test_calibration_refuses_a_network_with_nothing_absorbed():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "ghost"}),
        ),
        "L",
    )
    with pytest.raises(ValueError):
        calibrated(net)


def test_event_records_replay_their_draws():
    net = balanced_mz(blocked=True)
    table = network_echo_table(net)
    _, records = run_events(net, 64, seed=17)
    for rec in records:
        stream = RandomStream(seed=17, event_index=rec.event_index)
        assert select_transaction(table, stream) == rec.selected_absorber


_OPS = ("beamsplitter", "merge", "mirror", "phase_segment", "halfwave_plate",
        "quarterwave_double", "polarizer")


@st.composite
def lossless_networks(draw):
    """Random DAGs grown from the source's open ports; every port left open
    at the end gets its own detector, so no amplitude can leak."""
    outputs = {"src": {}}
    elements = {}
    open_ports = [("src", f"out{k}") for k in range(draw(st.integers(1, 3)))]

    def attach(target):
        owner, port = open_ports.pop(draw(st.integers(0, len(open_ports) - 1)))
        outputs[owner][port] = target

    for i in range(draw(st.integers(0, 8))):
        eid = f"E{i}"
        op = draw(st.sampled_from(_OPS))
        params = {}
        if op == "merge" and len(open_ports) >= 2:
            attach(f"{eid}:a")
            attach(f"{eid}:b")
        else:
            attach(f"{eid}:{draw(st.sampled_from('ab'))}" if op in ("beamsplitter", "merge") else eid)
        kind = "beamsplitter" if op == "merge" else op
        if kind == "phase_segment":
            params["length"] = draw(st.floats(0.0, 3.0))
        elif kind not in ("beamsplitter", "mirror"):
            params["axis"] = draw(st.floats(-180.0, 180.0))
        elements[eid] = (kind, params)
        outputs[eid] = {}
        open_ports += [(eid, p) for p in (("out1", "out2") if kind == "beamsplitter" else ("out",))]
    for j in range(len(open_ports)):
        attach(f"D{j}")
        elements[f"D{j}"] = ("detector", {})
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2 * math.pi))
    emission = PolarizedAmplitude(h=math.cos(theta), v=math.sin(theta) * complex(math.cos(phi), math.sin(phi)))
    net = [Element("src", "source", outputs=outputs["src"])]
    net += [Element(eid, kind, params, outputs.get(eid, {})) for eid, (kind, params) in elements.items()]
    return OpticalNetwork(tuple(net), "src", emission)


@given(lossless_networks())
@settings(max_examples=40, deadline=None)
def test_sweep_conserves_echo_and_matches_the_route_sum(net):
    report = validate(net)
    assert report.ok, report.defects
    assert abs(report.echo_sum - 1.0) <= ECHO_SUM_TOL
    routes = {}
    for p in propagate_offers(net):
        routes.setdefault(p.absorber, []).append(p)
    table = network_echo_table(net).entries
    assert sorted(table) == sorted(routes)
    for aid, paths in routes.items():
        assert abs(table[aid] - born_echo(paths)) <= 1e-12, aid


def test_twenty_splitter_chain_is_accepted_quickly():
    # 2**20 routes; each splitter's out2 arm carries its own phase
    n, lengths = 20, [(0.137 * k) % 1.0 for k in range(19)]
    elements = [Element("L", "source", outputs={"out": "S0:a"})]
    for k in range(n):
        last = k == n - 1
        elements.append(Element(f"S{k}", "beamsplitter",
                                outputs={"out1": "D1" if last else f"S{k + 1}:a",
                                         "out2": "D2" if last else f"P{k}"}))
        if not last:
            elements.append(Element(f"P{k}", "phase_segment", {"length": lengths[k]},
                                    {"out": f"S{k + 1}:b"}))
    elements += [Element("D1", "detector"), Element("D2", "detector")]
    net = OpticalNetwork(tuple(elements), "L")

    t = 1 / math.sqrt(2)
    splitter = np.array([[t, 1j * t], [1j * t, t]])
    state = np.array([1.0, 0.0], dtype=complex)
    for k in range(n):
        state = splitter @ state
        if k < n - 1:
            state[1] *= np.exp(2j * np.pi * lengths[k])
    started = time.perf_counter()
    table = network_echo_table(net)
    elapsed = time.perf_counter() - started
    assert validate(net).ok
    assert table.entries["D1"] == pytest.approx(abs(state[0]) ** 2, abs=1e-12)
    assert table.entries["D2"] == pytest.approx(abs(state[1]) ** 2, abs=1e-12)
    assert elapsed < 1.0


def test_sample_counts_refuses_a_negative_event_count():
    table = EchoTable({"A": 0.5, "B": 0.5})
    assert sample_counts(table, 0, seed=1) == {"A": 0, "B": 0}
    with pytest.raises(ValueError, match="n must be"):
        sample_counts(table, -5, seed=1)
