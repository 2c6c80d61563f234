"""Network validation, offer propagation, echo bookkeeping, event sampling."""

import dataclasses
import gc
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqs.experiments.bubble import bubble_network
from hqs.experiments.slits import slit_network
from hqs.network import (
    ECHO_SUM_TOL,
    EchoTable,
    Element,
    OpticalNetwork,
    _screen_bins,
    _sweep,
    calibrated,
    network_echo_table,
    run_events,
    sample_counts,
    validate,
)
from hqs.wavecore import REFLECT_FACTOR, TRANSMIT_FACTOR, path_phase
from optics_reference import (
    PolarizedAmplitude,
    born_echo,
    polarizer_project,
    polarizer_reject,
    waveplate_apply,
)
from scalar_reference import select


def _parse_target(target: str) -> tuple[str, str]:
    # "S2:b" addresses input port b; a bare id leaves the port empty, meaning
    # the target's default input
    elem, _, port = target.partition(":")
    return elem, port


def _default_in_port(kind: str) -> str:
    return "a" if kind == "beamsplitter" else "in"


def _scatter(elem: Element, in_port: str, amp: PolarizedAmplitude):
    """What one element does to the amplitude arriving on one input port.

    Yields (target, amplitude).  target is an absorber id, or an (element
    id, input port) pair read from the wiring, where an empty port means the
    target's default input.  Unwired outputs and screen ports without an
    offset yield nothing; validate reports them.
    """
    kind = elem.kind
    if kind in ("blocker", "detector"):
        yield elem.id, amp
        return
    if kind == "screen":
        x0 = elem.params["offsets"].get(in_port)
        if x0 is None:
            return
        L, x0 = float(elem.params["distance"]), float(x0)
        bins = _screen_bins(elem.params).tolist()
        pad = len(str(len(bins) - 1))
        for k, x in enumerate(bins):
            yield f"{elem.id}[{k:0{pad}d}]", amp * path_phase(math.hypot(L, x - x0))
        return

    if kind == "source":
        ports = sorted(elem.outputs)
        split = 1.0 / math.sqrt(len(ports)) if ports else 0.0
        branches = [(port, amp * split) for port in ports]
    elif kind == "mirror":
        branches = [("out", amp)]
    elif kind == "phase_segment":
        branches = [("out", amp * path_phase(float(elem.params["length"])))]
    elif kind in ("halfwave_plate", "quarterwave_double"):
        branches = [("out", waveplate_apply(amp, float(elem.params["axis"])))]
    elif kind == "polarizer":
        axis = float(elem.params["axis"])
        yield f"{elem.id}.absorbed", polarizer_reject(amp, axis)
        branches = [("out", polarizer_project(amp, axis))]
    elif in_port == "a":  # beamsplitter
        branches = [("out1", amp * TRANSMIT_FACTOR), ("out2", amp * REFLECT_FACTOR)]
    else:
        branches = [("out1", amp * REFLECT_FACTOR), ("out2", amp * TRANSMIT_FACTOR)]
    for out_port, new_amp in branches:
        target = elem.outputs.get(out_port)
        if target is not None:
            yield _parse_target(target), new_amp


def list_routes(network: OpticalNetwork) -> dict:
    """Absorber id -> the amplitude of every source-to-absorber route of a
    valid network, listed depth first through the element physics alone:
    the reference the one-pass sweep is checked against."""
    routes: dict = {}
    # the reference amplitude type, so that each route amplitude has its algebra
    emission = PolarizedAmplitude(network.emission.h, network.emission.v)
    stack = [(network.element(network.source_id), "", emission)]
    while stack:
        elem, in_port, amp = stack.pop()
        for target, out in _scatter(elem, in_port, amp):
            if isinstance(target, str):
                routes.setdefault(target, []).append(out)
            else:
                nxt = network.element(target[0])
                stack.append((nxt, target[1] or _default_in_port(nxt.kind), out))
    return routes


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
    by_absorber = list_routes(balanced_mz())
    # two routes to each detector, i/2 each toward D1, +-1/2 toward D2
    d1 = [amp.v for amp in by_absorber["D1"]]
    assert len(d1) == 2
    for v in d1:
        assert v == pytest.approx(0.5j)
    d2 = sorted(amp.v.real for amp in by_absorber["D2"])
    assert d2[0] == pytest.approx(-0.5)
    assert d2[1] == pytest.approx(0.5)


def test_echo_table_interferes_paths():
    table = network_echo_table(balanced_mz())
    assert table.entries["D1"] == pytest.approx(1.0)
    assert table.entries["D2"] == pytest.approx(0.0, abs=1e-15)
    assert math.fsum(table.entries.values()) == pytest.approx(1.0)


def test_blocked_mz_splits_quarter_quarter_half():
    table = network_echo_table(balanced_mz(blocked=True))
    assert table.entries["D1"] == pytest.approx(0.25)
    assert table.entries["D2"] == pytest.approx(0.25)
    assert table.entries["Obj"] == pytest.approx(0.5)


def test_element_keeps_the_frozen_dataclass_api():
    params, outputs = {"length": 0.25}, {"out": "D"}
    by_position = Element("seg", "phase_segment", params, outputs)
    by_keyword = Element(outputs=outputs, kind="phase_segment", id="seg", params=params)
    assert by_position == by_keyword
    assert by_position.params is params and by_keyword.outputs is outputs  # stored as given, not copied
    assert repr(by_keyword) == "Element(id='seg', kind='phase_segment', params={'length': 0.25}, outputs={'out': 'D'})"
    # built the old way: the generated __init__ stores each field through object.__setattr__
    old = object.__new__(Element)
    for name, value in (("id", "seg"), ("kind", "phase_segment"), ("params", params), ("outputs", outputs)):
        object.__setattr__(old, name, value)
    assert old == by_position and by_position == old and repr(old) == repr(by_position)
    assert [f.name for f in dataclasses.fields(Element)] == ["id", "kind", "params", "outputs"]
    moved = dataclasses.replace(by_position, id="seg2", outputs={"out": "E"})
    assert moved == Element("seg2", "phase_segment", params, {"out": "E"}) and moved.params is params
    for change in (lambda e: setattr(e, "id", "x"), lambda e: setattr(e, "extra", 1), lambda e: delattr(e, "kind")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change(by_position)
    assert by_position.id == "seg" and by_position.kind == "phase_segment"
    a, b = Element("D0", "detector"), Element("D1", "detector")
    assert a == Element("D0", "detector", {}, {}) and a.params == a.outputs == {}
    assert a.params is not b.params and a.outputs is not b.outputs and a.params is not a.outputs
    a.params["x"] = 1  # a default dict is the element's own
    assert b.params == {} and Element("D2", "detector").params == {}
    with pytest.raises(TypeError):
        Element("D0")
    with pytest.raises(TypeError):
        Element("D0", "detector", {}, {}, {})


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


def test_defects_name_their_element():
    # D is never visited either: it waits on the S-M loop without being on it
    cycle = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "S:a"}),
            Element("S", "beamsplitter", outputs={"out1": "D", "out2": "M"}),
            Element("M", "mirror", outputs={"out": "S:b"}),
            Element("D", "detector"),
        ),
        "L",
    )
    named = {d.kind: d.element for d in validate(cycle).defects}
    assert list(named) == ["cycle"] and named["cycle"] in ("S", "M")
    dangling = OpticalNetwork((Element("L", "source", outputs={"out": "ghost"}),), "L")
    named = {d.kind: d.element for d in validate(dangling).defects}
    assert named == {"dangling port": "L", "echo-sum": None}


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


def test_balanced_mz_has_four_routes():
    assert sum(len(amps) for amps in list_routes(balanced_mz()).values()) == 4


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
    for draw in range(200):
        assert select(table, 7, 0, draw) != "B"


def test_select_transaction_requires_a_complete_table():
    with pytest.raises(ValueError, match="incomplete absorber set"):
        sample_counts(EchoTable({"A": 0.2, "B": 0.2}), 1, seed=0)


def test_scalar_and_vector_selection_agree():
    table = EchoTable({"A": 0.25, "B": 0.25, "C": 0.5})
    counts = sample_counts(table, 500, seed=33)
    scalar = {"A": 0, "B": 0, "C": 0}
    for event in range(500):
        name = select(table, 33, event)
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
    assert math.fsum(table.entries.values()) == pytest.approx(1.0)


def test_phase_segment_changes_nothing_but_phase():
    net = OpticalNetwork(
        (
            Element("L", "source", outputs={"out": "seg"}),
            Element("seg", "phase_segment", params={"length": 0.37}, outputs={"out": "D"}),
            Element("D", "detector"),
        ),
        "L",
    )
    routes = list_routes(net)
    assert list(routes) == ["D"] and len(routes["D"]) == 1
    assert routes["D"][0].norm_sq() == pytest.approx(1.0)
    assert routes["D"][0].v == pytest.approx(complex(math.cos(math.tau * 0.37), math.sin(math.tau * 0.37)))
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
        assert select(table, 17, rec.event_index) == rec.selected_absorber


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
    routes = list_routes(net)
    table = network_echo_table(net).entries
    assert sorted(table) == sorted(routes)
    for aid, amps in routes.items():
        assert abs(table[aid] - born_echo(amps)) <= 1e-12, aid


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


def _growth(build, n: int = 500) -> float:
    """validate's time on build(8n) over its time on build(n), each the best
    of 3 with the GC off, so it times the compile's own work: about 8 when
    that work is linear, 64 when it is quadratic."""
    def best(size):
        times = []
        for _ in range(3):
            net = build(size)
            gc.disable()
            try:
                started = time.perf_counter()
                validate(net)
                times.append(time.perf_counter() - started)
            finally:
                gc.enable()
        return min(times)

    return best(8 * n) / best(n)


def _collisions(n: int) -> OpticalNetwork:
    # every detector is fed twice, by two of the source's ports
    outputs = {f"out{k:05d}": f"D{k // 2}" for k in range(2 * n)}
    return OpticalNetwork((Element("L", "source", outputs=outputs),
                           *(Element(f"D{k}", "detector") for k in range(n))), "L")


def _absorbed_port_detectors(n: int) -> OpticalNetwork:
    # a chain of polarizers, each with a detector named for its absorbed port
    elements = [Element("L", "source", outputs={"out": "P0"}), Element("D", "detector")]
    for k in range(n):
        elements += [Element(f"P{k}", "polarizer", {"axis": 30.0}, {"out": f"P{k + 1}" if k + 1 < n else "D"}),
                     Element(f"P{k}.absorbed", "detector")]
    return OpticalNetwork(tuple(elements), "L")


def test_input_collisions_are_reported_in_linear_time():
    collisions = [str(d) for d in validate(_collisions(3)).defects if d.kind == "input collision"]
    assert collisions == [f"input collision: D{k}:in fed by L, L" for k in range(3)]
    assert _growth(_collisions) <= 20


def test_detectors_on_absorbed_ports_compile_in_linear_time():
    report = validate(_absorbed_port_detectors(3))
    assert report.ok  # no edge feeds the detectors on absorbed ports, yet their absorbers are reached
    echoes = report.echoes  # each detector shares its polarizer's absorber
    assert list(echoes) == ["D", "P0.absorbed", "P1.absorbed", "P2.absorbed"]
    assert echoes["P0.absorbed"] == pytest.approx(0.75)  # the vertical emission off a 30-degree axis
    assert _growth(_absorbed_port_detectors) <= 20


def test_sample_counts_refuses_a_negative_event_count():
    table = EchoTable({"A": 0.5, "B": 0.5})
    assert sample_counts(table, 0, seed=1) == {"A": 0, "B": 0}
    with pytest.raises(ValueError, match="n must be"):
        sample_counts(table, -5, seed=1)


def test_a_nan_echo_makes_the_table_incomplete():
    # abs(nan - 1) > tol is False, so the test must be written the other way round
    with pytest.raises(ValueError, match="incomplete absorber set"):
        sample_counts(EchoTable({"A": float("nan"), "B": 1.0}), 1000, seed=0)


@st.composite
def absorber_networks(draw):
    """lossless_networks with each detector turned into one of the absorbers
    the sweep reads out as arrays: a detector or blocker of its own, one of
    the two named ports of a shared detector, or an offset port of a
    screen."""
    net = draw(lossless_networks())
    outputs = {e.id: dict(e.outputs) for e in net.elements}
    terminals, offsets, waiting = [], {}, None
    for owner in outputs:
        for port, target in sorted(outputs[owner].items()):
            if not target.startswith("D"):
                continue
            fate = draw(st.sampled_from(["detector", "blocker", "shared", "screen"]))
            if fate == "screen":
                outputs[owner][port] = f"scr:{target}"
                offsets[target] = draw(st.floats(-5.0, 5.0))
            elif fate == "shared" and waiting is not None:
                outputs[owner][port], waiting = f"{waiting}:y", None
            elif fate == "shared":
                outputs[owner][port], waiting = f"{target}:x", target
                terminals.append(Element(target, "detector"))
            else:
                terminals.append(Element(target, fate))
    if offsets:
        terminals.append(Element("scr", "screen", {
            "bin_count": draw(st.integers(1, 41)), "half_width": draw(st.floats(0.5, 20.0)),
            "distance": draw(st.floats(5.0, 500.0)), "offsets": offsets}))
    kept = [Element(e.id, e.kind, e.params, outputs[e.id]) for e in net.elements if e.kind != "detector"]
    return OpticalNetwork(tuple(kept + terminals), "src", net.emission)


@given(absorber_networks())
@settings(max_examples=40, deadline=None)
def test_absorbers_read_out_as_arrays_match_the_route_sum(net):
    report = validate(net)
    assert {d.kind for d in report.defects} <= {"echo-sum"}, report.defects  # screens are not calibrated
    routes = list_routes(net)
    assert sorted(report.echoes) == sorted(routes)
    for aid, amps in routes.items():
        assert abs(report.echoes[aid] - born_echo(amps)) <= 1e-12, aid


def test_wide_tables_read_out_exactly():
    table = network_echo_table(bubble_network(4096)).entries
    assert len(table) == 4096 and set(table.values()) == {1.0 / 4096}
    for labeled in (False, True):
        net = slit_network(bin_count=2001, labeled=labeled)
        table, routes = network_echo_table(net).entries, list_routes(net)
        assert sorted(table) == sorted(routes)
        assert max(abs(table[aid] - born_echo(amps)) for aid, amps in routes.items()) <= 1e-12


@st.composite
def mesh_columns(draw):
    """Splitter positions of an N-mode mesh (N <= 8), each the upper of the
    two modes it mixes: Clements' rectangle of N alternating columns, or
    Reck's triangle of diagonals."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        return n, [i for col in range(n) for i in range(col % 2, n - 1, 2)]
    return n, [i for d in range(1, n) for i in reversed(range(d))]


@given(mesh_columns(), st.data())
@settings(max_examples=20, deadline=None)
def test_splitter_meshes_are_unitary(mesh, data):
    # mode m enters through mirror Mm and leaves on detector Dm; every
    # splitter has a phase segment on its upper input
    n, uppers = mesh
    outputs = {f"M{m}": {} for m in range(n)}
    tail = {m: (f"M{m}", "out") for m in range(n)}
    params = {}
    for k, i in enumerate(uppers):
        outputs[tail[i][0]][tail[i][1]] = f"P{k}"
        outputs[f"P{k}"], params[f"P{k}"] = {"out": f"B{k}:a"}, {"length": data.draw(st.floats(0.0, 1.0))}
        outputs[tail[i + 1][0]][tail[i + 1][1]] = f"B{k}:b"
        outputs[f"B{k}"] = {}
        tail[i], tail[i + 1] = (f"B{k}", "out1"), (f"B{k}", "out2")
    for m, (owner, port) in tail.items():
        outputs[owner][port] = f"D{m}"
    kind = {"M": "mirror", "P": "phase_segment", "B": "beamsplitter"}
    mesh_elements = [Element(e, kind[e[0]], params.get(e, {}), out) for e, out in outputs.items()]
    mesh_elements += [Element(f"D{m}", "detector") for m in range(n)]
    u = np.zeros((n, n), dtype=complex)
    for j in range(n):  # one run per input mode: column j of the transfer matrix
        net = OpticalNetwork((Element("L", "source", outputs={"out": f"M{j}"}), *mesh_elements), "L")
        validate(net)  # compiles; detectors outside mode j's light cone are unreachable
        amps = _sweep(net)
        for m in range(n):
            if f"D{m}" in net._plan.ids:
                col = net._plan.ids.index(f"D{m}")
                u[m, j] = complex(amps[2, col], amps[3, col])  # the emission is vertical
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12
