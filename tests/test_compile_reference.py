"""The network compile, checked against the compile it replaced.

_compile and _on_cycle below are the string-keyed compile that
network._compile replaced, kept verbatim as the reference, and
_reference_validate is the validate that read its plan.  The property
runs both on the same networks: those that mutated network documents
hand to validate, lossless DAGs, the same DAGs with outputs dropped or
rewired, splitter merges with odd params and an unfed feeder, and wide
fan-outs into bare terminals.  The defects must match in kind, text,
element and order, and so must the absorber ids, each step's element,
kind and factors, the screen bin factors and the echoes, bit for bit.
Slot numbers may differ.
"""

import math
from collections import Counter, namedtuple
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hqs import cli
from hqs.network import (
    ECHO_SUM_TOL,
    KINDS,
    TERMINAL_KINDS,
    Defect,
    Element,
    OpticalNetwork,
    ValidationReport,
    _check_params,
    _screen_bins,
    _sweep,
    validate,
)
from hqs.wavecore import REFLECT_FACTOR, TRANSMIT_FACTOR, cos_deg, path_phase, sin_deg
from test_network import _default_in_port, _parse_target, lossless_networks
from test_network_config import network_documents

# the output ports each kind sends on, in the order the reference compile wires them
_OUT_PORTS = {"beamsplitter": ("out1", "out2"), **dict.fromkeys(
    ("mirror", "phase_segment", "halfwave_plate", "quarterwave_double", "polarizer"), ("out",))}

# a compiled network (see the module docstring); steps is None when a defect keeps it from being swept
_Plan = namedtuple("_Plan", "defects steps slots reached ids points screens", defaults=(None,) * 6)


def _compile(network: OpticalNetwork) -> _Plan:
    defects: list[Defect] = []
    add = lambda kind, detail, element: defects.append(Defect(kind, detail, element))

    by_id = network._by_id
    dups = sorted(i for i, n in Counter(e.id for e in network.elements).items() if n > 1)
    if dups:
        add("duplicate id", ", ".join(dups), dups[0])
    src = by_id.get(network.source_id)
    if src is None or src.kind != "source":
        add("missing source", network.source_id if src is None else f"{src.id} has kind {src.kind}", network.source_id)
    indegree = dict.fromkeys(by_id, 0)
    successors: dict[str, list[str]] = {eid: [] for eid in by_id}
    in_edges: dict[tuple[str, str], list[str]] = {(network.source_id, ""): []}  # input -> feeders, in slot order
    wires: dict[tuple[str, str], tuple[str, str]] = {}  # (element, output port) -> in_edges key
    for elem in network.elements:
        if elem.kind in ("blocker", "detector") and not elem.outputs and not elem.params:
            continue  # nothing to check
        if elem.kind not in KINDS:
            add("unknown kind", f"{elem.id}: {elem.kind}", elem.id)
            continue
        defects.extend(_check_params(elem))
        ports, want = set(elem.outputs), set(_OUT_PORTS.get(elem.kind, ()))
        if elem.kind in TERMINAL_KINDS and ports:
            add("bad wiring", f"terminal {elem.id} has outputs", elem.id)
        elif elem.kind == "source" and not ports:
            add("dangling port", f"source {elem.id} has no outputs", elem.id)
        elif want and ports != want:
            add("dangling port", f"{elem.id} needs {' and '.join(sorted(want))}, has {sorted(ports)}", elem.id)
        for port, target in sorted(elem.outputs.items()):
            tid, tport = _parse_target(target)
            if tid not in by_id:
                add("dangling port", f"{elem.id}.{port} -> {target}", elem.id)
                continue
            successors[elem.id].append(tid)
            indegree[tid] += 1
            tkind = by_id[tid].kind
            if tkind == "source":
                add("bad wiring", f"{elem.id}.{port} feeds source {tid}", elem.id)
            tport = tport or _default_in_port(tkind)
            if tkind == "beamsplitter" and tport not in ("a", "b"):
                add("bad wiring", f"{elem.id}.{port} -> unknown input {tid}:{tport}", elem.id)
            offsets = by_id[tid].params.get("offsets") if tkind == "screen" else None
            if tkind == "screen" and not (isinstance(offsets, dict) and tport in offsets):
                add("bad wiring", f"{elem.id}.{port} -> screen {tid} has no offset for port {tport}", elem.id)
            in_edges.setdefault((tid, tport), []).append(elem.id)
            wires[elem.id, port] = (tid, tport)
    for tid, tport in sorted(key for key, feeders in in_edges.items() if len(feeders) > 1):
        add("input collision", f"{tid}:{tport} fed by {', '.join(sorted(in_edges[tid, tport]))}", tid)

    # the sweep needs unique ids, known kinds, a source and usable params
    if any(d.kind in ("unknown kind", "missing source", "duplicate id", "bad params") for d in defects):
        return _Plan(tuple(defects))

    order, ready = [], [eid for eid, d in indegree.items() if d == 0]
    while ready:
        order.append(ready.pop())
        for tid in successors[order[-1]]:
            indegree[tid] -= 1
            if indegree[tid] == 0:
                ready.append(tid)
    stuck = {eid for eid, d in indegree.items() if d}
    if stuck:
        add("cycle", "network graph contains a cycle", _on_cycle(stuck, successors))
        return _Plan(tuple(defects))
    slot, inputs = {key: k for k, key in enumerate(in_edges)}, {}  # slot 0 holds the emission
    for (tid, tport), k in slot.items():
        inputs.setdefault(tid, []).append((tport, k))
    reached, steps, points, screens = {network.source_id}, [], {}, []

    def out(eid: str, port: str) -> int:
        # the slot an output port feeds: its target's input, or a sink of its own
        wire = wires.get((eid, port))
        if wire is None:
            return slot.setdefault((eid, port, None), len(slot))
        reached.add(wire[0])
        return slot[wire]

    # reached grows as the walk goes; an unreached input of a reached element holds zero
    for elem in (by_id[eid] for eid in order if eid in reached):
        eid, kind, p, fed = elem.id, elem.kind, elem.params, sorted(inputs[elem.id])
        if kind in ("blocker", "detector"):
            points.setdefault(eid, []).extend([k for _, k in fed])
            continue
        try:
            if kind == "screen":
                fed = [(k, float(p["offsets"][port])) for port, k in fed if port in p["offsets"]]
                bins, L = _screen_bins(p).tolist() if fed else [], float(p["distance"])
                factors = [(k, np.array([path_phase(math.hypot(L, x - x0)) for x in bins])) for k, x0 in fed]
                if not all(np.isfinite(f).all() for _, f in factors):
                    raise ValueError("non-finite amplitude component")
                pad = len(str(len(bins) - 1))
                screens.append((eid, [f"{eid}[{i:0{pad}d}]" for i in range(len(bins))],
                                tuple((k, f.real, f.imag) for k, f in factors)))
                continue
            ts = tuple(out(eid, q) for q in (sorted(elem.outputs) if kind == "source" else _OUT_PORTS[kind]))
            if kind == "polarizer":
                ts += (slot.setdefault((eid, "absorbed", None), len(slot)),)
                points.setdefault(f"{eid}.absorbed", []).append(ts[1])
                op = ("polarizer", ts, (cos_deg(float(p["axis"])), sin_deg(float(p["axis"]))))
            elif kind in ("halfwave_plate", "quarterwave_double"):
                op = ("plate", ts, (cos_deg(2.0 * float(p["axis"])), sin_deg(2.0 * float(p["axis"]))))
            elif kind == "phase_segment":
                op = ("scale", ts, (path_phase(float(p["length"])),))
            else:  # source, mirror; a beamsplitter's factors depend on the input
                op = ("scale", ts, tuple(1.0 / math.sqrt(len(ts)) for _ in ts) if kind == "source" else (1.0,))
        except ValueError as exc:  # finite params whose geometry overflows
            add("bad params", f"{eid}: {exc}", eid)
            return _Plan(tuple(defects))
        for port, k in fed:
            if kind == "beamsplitter":  # a transmits to out1 and reflects to out2, b the reverse
                op = ("scale", ts, (TRANSMIT_FACTOR, REFLECT_FACTOR) if port == "a" else (REFLECT_FACTOR, TRANSMIT_FACTOR))
            steps.append((eid, k, *op))

    absorbers = sorted({*points, *(b for _, bins, _ in screens for b in bins)})
    at = {aid: i for i, aid in enumerate(absorbers)}
    return _Plan(tuple(defects), tuple(steps), len(slot), frozenset(reached), tuple(absorbers),
                 (np.array([at[aid] for aid, ks in points.items() for _ in ks], dtype=np.intp),
                  np.array([k for ks in points.values() for k in ks], dtype=np.intp)),
                 tuple((np.array([at[b] for b in bins], dtype=np.intp), ports) for _, bins, ports in screens))


def _on_cycle(stuck: set, successors: dict) -> str:
    """One element on a cycle, given the elements the Kahn order never
    reached: each still waits on one of them, so walking back through them
    must repeat an element, and that element lies on a cycle."""
    preds: dict[str, list[str]] = {eid: [] for eid in stuck}
    for eid in stuck:
        for tid in successors[eid]:
            if tid in preds:
                preds[tid].append(eid)
    seen: set[str] = set()
    eid = min(stuck)
    while eid not in seen:
        seen.add(eid)
        eid = min(preds[eid])
    return eid


def _reference_validate(network: OpticalNetwork) -> ValidationReport:
    network._by_id = {e.id: e for e in network.elements}  # what the reference compile reads
    plan = network._plan = _compile(network)
    defects = list(plan.defects)
    add = lambda kind, detail, element: defects.append(Defect(kind, detail, element))
    if plan.steps is None:
        return ValidationReport(False, tuple(defects))
    try:
        amps = _sweep(network)
    except ValueError as exc:
        eid, why = exc.args
        add("bad params", f"{eid}: {why}", eid)
        return ValidationReport(False, tuple(defects))
    with np.errstate(over="ignore"):  # summed as norm_sq sums; an echo that overflows is refused
        echo = amps[0] * amps[0] + amps[1] * amps[1] + amps[2] * amps[2] + amps[3] * amps[3]
    if not np.isfinite(echo).all():
        raise OverflowError("echo out of range")
    echoes = dict(zip(plan.ids, echo.tolist()))
    for elem in network.elements:
        if elem.kind in TERMINAL_KINDS and elem.id not in plan.reached and elem.id not in plan.ids:
            add("unreachable absorber", elem.id, elem.id)
    echo_sum = math.fsum(echoes.values())
    if not abs(echo_sum - 1.0) <= ECHO_SUM_TOL:
        add("echo-sum", f"{echo_sum:.6g}", None)
    return ValidationReport(not defects, tuple(defects), echo_sum, echoes)


def _outcome(check, net: OpticalNetwork):
    """(report, plan) of a fresh copy of net, or the error that check raised."""
    fresh = OpticalNetwork(net.elements, net.source_id, net.emission)
    try:
        return check(fresh), fresh._plan
    except (OverflowError, ValueError) as exc:
        return repr(exc), None


def _same_compile(net: OpticalNetwork) -> None:
    (want, old), (got, new) = _outcome(_reference_validate, net), _outcome(validate, net)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.defects == want.defects
    assert (new.steps is None) == (old.steps is None)
    if old.steps is not None:
        assert new.ids == old.ids
        assert [(eid, kind, repr(fs)) for eid, _, kind, _, fs in new.steps] == \
               [(eid, kind, repr(fs)) for eid, _, kind, _, fs in old.steps]
        assert [[(c.tobytes(), s.tobytes()) for _, c, s in ports] for _, ports in new.screens] == \
               [[(c.tobytes(), s.tobytes()) for _, c, s in ports] for _, ports in old.screens]
    assert (got.echoes is None) == (want.echoes is None)
    if want.echoes is not None:
        assert {a: e.hex() for a, e in got.echoes.items()} == {a: e.hex() for a, e in want.echoes.items()}
        assert got.echo_sum.hex() == want.echo_sum.hex()


def _networks_of(text: str) -> list:
    """The networks that parsing the document text hands to validate."""
    seen, real = [], cli.validate
    with mock.patch.object(cli, "validate", lambda net: seen.append(net) or real(net)):
        try:
            cli.parse_config(text)
        except (cli.ConfigError, ValueError, OverflowError):
            pass
    return seen


# params that _check_params rejects, or passes, at and around the compile's fast path
ODD_PARAMS = [-1, 2**1100, -0.0, -0.5, 1e308, math.nan, math.inf, -math.inf, True, None, "x", [1.0]]


@st.composite
def merge_networks(draw):
    """A phase segment and up to two more elements, their params often odd,
    into a splitter whose out1 feeds a mirror and whose out2 feeds input a
    or b of a second splitter, which an unfed mirror feeds on its other
    input.  So two elements start the Kahn order, and the mirror steps
    before the second splitter only if the unfed mirror starts first."""
    kinds = ["phase_segment", "halfwave_plate", "polarizer", "quarterwave_double", "mirror"]
    kinds = ["phase_segment", *draw(st.lists(st.sampled_from(kinds), max_size=2))]
    value = st.floats(0.0, 360.0) | st.integers(-3, 3) | st.sampled_from(ODD_PARAMS)
    params = [{} if kind == "mirror" else {"length" if kind == "phase_segment" else "axis": draw(value)}
              for kind in kinds]
    ids, port = [f"C{j}" for j in range(len(kinds))] + ["S"], draw(st.sampled_from("ab"))
    elements = [Element("L", "source", outputs={"out": ids[0]}),
                *(Element(ids[j], kind, p, {"out": ids[j + 1]}) for j, (kind, p) in enumerate(zip(kinds, params))),
                Element("S", "beamsplitter", outputs={"out1": "M", "out2": f"Y:{port}"}),
                Element("M", "mirror", outputs={"out": "D0"}),
                Element("X", "mirror", outputs={"out": f"Y:{'b' if port == 'a' else 'a'}"}),
                Element("Y", "beamsplitter", outputs={"out1": "D1", "out2": "D2"}),
                *(Element(f"D{j}", "detector") for j in range(3))]
    return OpticalNetwork(tuple(draw(st.permutations(elements))), "L")


@st.composite
def rewired_networks(draw):
    """A lossless DAG with a few outputs dropped or rewired anywhere: into
    another input, the source, an unknown port or id, or from a port the
    kind lacks.  Cycles, collisions and unreachable absorbers follow."""
    net = draw(lossless_networks())
    elements, ids = list(net.elements), [e.id for e in net.elements]
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, len(elements) - 1))
        outputs = dict(elements[j].outputs)
        port = draw(st.sampled_from([*outputs, "out", "out1", "x"]))
        if draw(st.booleans()):
            target = draw(st.sampled_from([*ids, "ghost"]))
            outputs[port] = target + draw(st.sampled_from(["", ":a", ":b", ":in", ":x"]))
        else:
            outputs.pop(port, None)
        elements[j] = Element(elements[j].id, elements[j].kind, elements[j].params, outputs)
    return OpticalNetwork(tuple(draw(st.permutations(elements))), net.source_id, net.emission)


@given(network_documents().map(lambda doc: _networks_of(doc[0])), lossless_networks(), merge_networks(),
       rewired_networks())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_compile_matches_the_reference_compile(documented, lossless, merge, rewired):
    for net in (*documented, lossless, merge, rewired):
        _same_compile(net)


@st.composite
def fan_outs(draw):
    """A source fanning out over 8-300 ports into bare detectors and
    blockers (no params, no outputs), with one fed at an explicit port, one
    at two ports, a few unfed and one behind an unfed mirror, and often one
    fed twice at one port (an input collision).  Sometimes a polarizer's
    absorbed port names a terminal fed at two ports, so three amplitudes
    sum in one absorber, or one that no edge feeds, reached through that
    absorber alone.  Sometimes a splitter on the fan-out feeds a bare
    terminal whose id sorts first and a mirror that feeds the splitter
    back: a cycle upstream of that terminal, whose two elements' ids sort
    either way."""
    k = draw(st.integers(8, 300))
    ids = [f"T{j}" for j in range(k)]  # unpadded: id, port and index orders differ
    pick = st.integers(0, k - 1)
    outputs = {f"o{j}": t for j, t in enumerate(ids)}
    outputs[f"o{draw(pick)}"] = f"{ids[draw(pick)]}:{draw(st.sampled_from(['in', 'x']))}"
    two = ids[draw(pick)]
    outputs[f"o{draw(pick)}"], outputs["p"] = f"{two}:q", f"{two}:p"
    if draw(st.booleans()):
        outputs["c"] = ids[draw(pick)]  # its default port is taken: a collision, unless that output moved
    for j in draw(st.sets(pick, max_size=3)):
        outputs.pop(f"o{j}", None)
    behind = draw(pick)
    outputs.pop(f"o{behind}", None)
    elements = [Element(t, kind) for t, kind in zip(ids, draw(st.lists(st.sampled_from(["detector", "blocker"]),
                                                                       min_size=k, max_size=k)))]
    elements.append(Element("M", "mirror", outputs={"out": ids[behind]}))
    if draw(st.booleans()):
        outputs["a"] = "P"
        if draw(st.booleans()):
            outputs.update({"pa": "P.absorbed:a", "pb": "P.absorbed:b"})
        elements += [Element("P", "polarizer", {"axis": draw(st.floats(0.0, 360.0))}, {"out": ids[draw(pick)]}),
                     Element("P.absorbed", "detector")]
    if draw(st.booleans()):
        u, v = draw(st.permutations(["K", "W"]))
        outputs["u"] = f"{u}:a"
        elements += [Element(u, "beamsplitter", outputs={"out1": "0first", "out2": v}),
                     Element(v, "mirror", outputs={"out": f"{u}:b"}), Element("0first", "detector")]
    elements.append(Element("src", "source", outputs=outputs))
    return OpticalNetwork(tuple(draw(st.permutations(elements))), "src")


def _absorbed_fan(k: int, axis: float) -> OpticalNetwork:
    """A source on k detectors, a polarizer and, at two ports, the detector
    named for the polarizer's absorbed port: that absorber sums three
    amplitudes, and at k = 8 and axis 20 their sum rounds apart when the
    polarizer's comes first rather than in Kahn order."""
    outputs = {**{f"o{j}": f"T{j}" for j in range(k)}, "a": "P", "pa": "P.absorbed:a", "pb": "P.absorbed:b"}
    return OpticalNetwork((Element("src", "source", outputs=outputs), *(Element(f"T{j}", "detector") for j in range(k)),
                           Element("P", "polarizer", {"axis": axis}, {"out": "T0:z"}),
                           Element("P.absorbed", "detector")), "src")


@given(fan_outs())
@example(_absorbed_fan(8, 20.0))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_wide_fan_outs_match_the_reference_compile(net):
    _same_compile(net)
