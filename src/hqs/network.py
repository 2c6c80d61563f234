"""Directed optical networks and the stochastic transaction engine.

A network is a DAG of elements carrying a single photon's offer wave from
one source to a set of absorbers (detectors, blockers, screen bins, the
absorbed port of a polarizer).  Every element acts linearly on the Jones
vector, so one sweep in topological order sums the amplitude arriving at
each (element, input port) and at each absorber, and an absorber's echo
is the squared modulus of its sum.  The same sweep finds cycles,
unreachable absorbers and lost amplitude, which makes it the validator
too.  Exactly one absorber per event is then selected with probability
proportional to its echo.  Listing routes one by one
(propagate_offers) remains as an explain view for small networks.

Element kinds and their scattering behavior:

* source            emits the network emission amplitude, split 1/sqrt(k)
                    over its k output ports
* beamsplitter      inputs a, b; outputs out1, out2; transmit 1/sqrt(2),
                    reflect i/sqrt(2); a transmits to out1, b to out2
* mirror            redirects, factor 1
* phase_segment     length in wavelengths, factor exp(2*pi*i*length)
* halfwave_plate    Jones reflection about its axis (degrees)
* quarterwave_double  quarter-wave plate traversed twice, same action
* polarizer         projects onto its axis; the rejected component lands
                    on the implicit absorber "<id>.absorbed"
* blocker, detector terminal absorbers
* screen            terminal array of bins; each bin k adds the geometric
                    path factor for the slant distance from the feeding
                    input offset to the bin center

Networks are treated as immutable once validated.
"""

from __future__ import annotations

import bisect
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .rng import RandomStream, uniform_block
from .wavecore import (
    REFLECT_FACTOR,
    TRANSMIT_FACTOR,
    VERTICAL,
    PathRecord,
    PolarizedAmplitude,
    born_echo,
    path_phase,
    polarizer_project,
    polarizer_reject,
    waveplate_apply,
)

ECHO_SUM_TOL = 1e-9
DEFAULT_PATH_CAP = 10**6
_CHUNK = 1 << 16

KINDS = {
    "source",
    "beamsplitter",
    "mirror",
    "phase_segment",
    "halfwave_plate",
    "quarterwave_double",
    "polarizer",
    "blocker",
    "detector",
    "screen",
}
TERMINAL_KINDS = {"blocker", "detector", "screen"}
_SINGLE_OUT = {"mirror", "phase_segment", "halfwave_plate", "quarterwave_double", "polarizer"}


@dataclass(frozen=True)
class Element:
    id: str
    kind: str
    params: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def _parse_target(target: str) -> tuple[str, str]:
    # "S2:b" addresses input port b; a bare id leaves the port empty, meaning
    # the target's default input
    elem, _, port = target.partition(":")
    return elem, port


def _default_in_port(kind: str) -> str:
    return "a" if kind == "beamsplitter" else "in"


def _screen_bins(params: dict) -> np.ndarray:
    n = int(params["bin_count"])
    w = float(params["half_width"])
    if n == 1:
        return np.array([0.0])
    return np.linspace(-w, w, n)


@dataclass
class OpticalNetwork:
    elements: tuple[Element, ...]
    source_id: str
    emission: PolarizedAmplitude = VERTICAL

    def __post_init__(self):
        self.elements = tuple(self.elements)
        self._by_id = {e.id: e for e in self.elements}

    def element(self, elem_id: str) -> Element:
        return self._by_id[elem_id]

    def __contains__(self, elem_id: str) -> bool:
        return elem_id in self._by_id


@dataclass(frozen=True)
class Defect:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """echoes maps absorber id -> echo in sorted-id order; it and echo_sum
    are None when a defect kept the sweep from running."""

    ok: bool
    defects: tuple[Defect, ...]
    echo_sum: float | None = None
    echoes: dict | None = None


@dataclass
class EchoTable:
    """Absorber id -> echo strength, in sorted-id order.

    Treated as immutable; selection arrays are cached on first use.
    """

    entries: dict

    @property
    def total(self) -> float:
        return math.fsum(self.entries.values())

    @cached_property
    def _selection(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        ids = tuple(sorted(self.entries))
        weights = np.array([self.entries[a] for a in ids], dtype=float)
        total = weights.sum()
        if abs(total - 1.0) > ECHO_SUM_TOL:
            raise ValueError(f"incomplete absorber set: echoes sum to {total:.6g}")
        probs = weights / total
        return ids, probs, np.cumsum(probs)


@dataclass(frozen=True)
class EventRecord:
    event_index: int
    selected_absorber: str
    rng_draw: float


def validate(network: OpticalNetwork) -> ValidationReport:
    """Structural checks, then one sweep for cycles, reachability and the
    echo sum; collects every defect found."""
    defects: list[Defect] = []
    add = lambda kind, detail: defects.append(Defect(kind, detail))

    ids = [e.id for e in network.elements]
    if len(set(ids)) != len(ids):
        add("duplicate id", ", ".join(sorted({i for i in ids if ids.count(i) > 1})))
    if network.source_id not in network:
        add("missing source", network.source_id)
    else:
        src = network.element(network.source_id)
        if src.kind != "source":
            add("missing source", f"{network.source_id} has kind {src.kind}")

    in_edges: dict[tuple[str, str], list[str]] = {}
    for elem in network.elements:
        if elem.kind not in KINDS:
            add("unknown kind", f"{elem.id}: {elem.kind}")
            continue
        defects.extend(_check_params(elem))
        defects.extend(_check_ports(elem))
        for port, target in sorted(elem.outputs.items()):
            tid, tport = _parse_target(target)
            if tid not in network:
                add("dangling port", f"{elem.id}.{port} -> {target}")
                continue
            tkind = network.element(tid).kind
            if tkind == "source":
                add("bad wiring", f"{elem.id}.{port} feeds source {tid}")
            tport = tport or _default_in_port(tkind)
            if tkind == "beamsplitter" and tport not in ("a", "b"):
                add("bad wiring", f"{elem.id}.{port} -> unknown input {tid}:{tport}")
            if tkind == "screen":
                offsets = network.element(tid).params.get("offsets", {})
                if tport not in offsets:
                    add("bad wiring", f"{elem.id}.{port} -> screen {tid} has no offset for port {tport}")
            in_edges.setdefault((tid, tport), []).append(elem.id)

    for (tid, tport), feeders in sorted(in_edges.items()):
        if len(feeders) > 1:
            add("input collision", f"{tid}:{tport} fed by {', '.join(sorted(feeders))}")

    # the sweep needs unique ids, known kinds, a source and usable params
    if any(d.kind in ("unknown kind", "missing source", "duplicate id", "bad params") for d in defects):
        return ValidationReport(False, tuple(defects))

    try:
        swept = _sweep(network)
    except ValueError as exc:
        add("bad params", str(exc))
        return ValidationReport(False, tuple(defects))
    if swept is None:
        add("cycle", "network graph contains a cycle")
        return ValidationReport(False, tuple(defects))
    echoes, reached = swept

    for elem in network.elements:
        if elem.kind in TERMINAL_KINDS and elem.id not in reached:
            add("unreachable absorber", elem.id)
    echo_sum = math.fsum(echoes.values())
    if abs(echo_sum - 1.0) > ECHO_SUM_TOL:
        add("echo-sum", f"{echo_sum:.6g}")
    return ValidationReport(not defects, tuple(defects), echo_sum, echoes)


def _check_params(elem: Element) -> list[Defect]:
    out = []
    bad = lambda detail: out.append(Defect("bad params", f"{elem.id}: {detail}"))
    p = elem.params
    try:
        if elem.kind == "phase_segment":
            length = float(p["length"])
            if not math.isfinite(length):
                bad("non-finite length")
            elif length < 0:
                bad("negative length")
        elif elem.kind in ("halfwave_plate", "quarterwave_double", "polarizer"):
            if not math.isfinite(float(p["axis"])):
                bad("non-finite axis")
        elif elem.kind == "screen":
            if int(p["bin_count"]) < 1:
                bad("bin_count < 1")
            for name in ("half_width", "distance"):
                value = float(p[name])
                if not math.isfinite(value):
                    bad(f"non-finite {name}")
                elif value <= 0:
                    bad(f"{name} <= 0")
            if not isinstance(p["offsets"], dict):
                bad("offsets must map input ports to positions")
            for port, offset in dict(p["offsets"]).items():
                if not math.isfinite(float(offset)):
                    bad(f"non-finite offset for port {port}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        bad(repr(exc))
    return out


def _check_ports(elem: Element) -> list[Defect]:
    out = []
    ports = set(elem.outputs)
    if elem.kind in TERMINAL_KINDS:
        if ports:
            out.append(Defect("bad wiring", f"terminal {elem.id} has outputs"))
    elif elem.kind == "source":
        if not ports:
            out.append(Defect("dangling port", f"source {elem.id} has no outputs"))
    elif elem.kind == "beamsplitter":
        if ports != {"out1", "out2"}:
            out.append(Defect("dangling port", f"{elem.id} needs out1 and out2, has {sorted(ports)}"))
    elif elem.kind in _SINGLE_OUT:
        if ports != {"out"}:
            out.append(Defect("dangling port", f"{elem.id} needs out, has {sorted(ports)}"))
    return out


def _scatter(elem: Element, in_port: str, amp: PolarizedAmplitude):
    """What one element does to the amplitude arriving on one input port.

    Yields (target, amplitude, added_length).  target is an absorber id,
    or an (element id, input port) pair read from the wiring, where an
    empty port means the target's default input.  Unwired outputs and
    screen ports without an offset yield nothing; validate reports them.
    """
    kind = elem.kind
    if kind in ("blocker", "detector"):
        yield elem.id, amp, 0.0
        return
    if kind == "screen":
        x0 = elem.params["offsets"].get(in_port)
        if x0 is None:
            return
        L, x0 = float(elem.params["distance"]), float(x0)
        bins = _screen_bins(elem.params).tolist()
        pad = len(str(len(bins) - 1))
        for k, x in enumerate(bins):
            hyp = math.hypot(L, x - x0)
            yield f"{elem.id}[{k:0{pad}d}]", amp * path_phase(hyp), hyp
        return

    if kind == "source":
        ports = sorted(elem.outputs)
        split = 1.0 / math.sqrt(len(ports)) if ports else 0.0
        branches = [(port, amp * split, 0.0) for port in ports]
    elif kind == "mirror":
        branches = [("out", amp, 0.0)]
    elif kind == "phase_segment":
        seg = float(elem.params["length"])
        branches = [("out", amp * path_phase(seg), seg)]
    elif kind in ("halfwave_plate", "quarterwave_double"):
        plate = "half" if kind == "halfwave_plate" else "quarter_double_pass"
        branches = [("out", waveplate_apply(amp, plate, float(elem.params["axis"])), 0.0)]
    elif kind == "polarizer":
        axis = float(elem.params["axis"])
        yield f"{elem.id}.absorbed", polarizer_reject(amp, axis), 0.0
        branches = [("out", polarizer_project(amp, axis), 0.0)]
    elif in_port == "a":  # beamsplitter
        branches = [("out1", amp * TRANSMIT_FACTOR, 0.0), ("out2", amp * REFLECT_FACTOR, 0.0)]
    else:
        branches = [("out1", amp * REFLECT_FACTOR, 0.0), ("out2", amp * TRANSMIT_FACTOR, 0.0)]
    for out_port, new_amp, extra in branches:
        target = elem.outputs.get(out_port)
        if target is not None:
            yield _parse_target(target), new_amp, extra


def _sweep(network: OpticalNetwork):
    """Carry the offer wave through the network once, in topological order.

    Returns (echoes, reached): absorber id -> squared modulus of the summed
    amplitude, in sorted-id order, and the ids of the elements the wave
    arrived at.  Returns None if the graph has a cycle, and raises
    ValueError naming the element whose output is not finite.  Amplitude
    sent to a missing element is dropped, so a wiring defect shows up as a
    short echo sum.  Needs unique ids and checked params.
    """
    by_id = network._by_id
    successors: dict[str, list[str]] = {}
    indegree = dict.fromkeys(by_id, 0)
    for elem in network.elements:
        nxt = [tid for tid, _ in map(_parse_target, elem.outputs.values()) if tid in by_id]
        successors[elem.id] = nxt
        for tid in nxt:
            indegree[tid] += 1
    ready = [eid for eid, d in indegree.items() if d == 0]
    # amplitude waiting at each element, summed per input port
    inbox: dict[str, dict[str, PolarizedAmplitude]] = {network.source_id: {"": network.emission}}
    absorbed: dict[str, PolarizedAmplitude] = {}
    reached = {network.source_id}
    visited = 0
    while ready:
        eid = ready.pop()
        visited += 1
        elem = by_id[eid]
        try:
            for port, amp in sorted(inbox.pop(eid, {}).items()):
                for target, out, _ in _scatter(elem, port, amp):
                    if isinstance(target, str):
                        key, box = target, absorbed
                    else:
                        tid, tport = target
                        if tid not in by_id:
                            continue
                        reached.add(tid)
                        key, box = tport or _default_in_port(by_id[tid].kind), inbox.setdefault(tid, {})
                    box[key] = box[key] + out if key in box else out
        except ValueError as exc:  # finite params whose geometry overflows
            raise ValueError(f"{eid}: {exc}") from None
        for tid in successors[eid]:
            indegree[tid] -= 1
            if indegree[tid] == 0:
                ready.append(tid)
    if visited < len(indegree):
        return None
    return {aid: absorbed[aid].norm_sq() for aid in sorted(absorbed)}, reached


def _enumerate(network: OpticalNetwork, path_cap: int) -> list[PathRecord]:
    """Depth-first listing of every source-to-absorber route of a valid network."""
    done: list[PathRecord] = []
    # stack entries: (element, in_port, amplitude, length, trace so far)
    stack = [(network.element(network.source_id), "", network.emission, 0.0, ())]
    while stack:
        elem, in_port, amp, length, trace = stack.pop()
        trace = trace + (elem.id,)
        for target, new_amp, extra in reversed(list(_scatter(elem, in_port, amp))):
            if isinstance(target, str):
                ids = trace if target == elem.id else trace + (target,)
                done.append(PathRecord(ids, new_amp, length + extra))
            else:
                nxt = network.element(target[0])
                port = target[1] or _default_in_port(nxt.kind)
                stack.append((nxt, port, new_amp, length + extra, trace))
        if len(done) + len(stack) > path_cap:
            raise ValueError("path explosion")
    done.sort(key=lambda p: p.element_ids)
    return done


def _invalid(defects) -> ValueError:
    return ValueError("invalid network: " + "; ".join(str(d) for d in defects))


def propagate_offers(network: OpticalNetwork, path_cap: int = DEFAULT_PATH_CAP) -> tuple[PathRecord, ...]:
    """List every source-to-absorber route of a valid network: the explain
    view of where each absorber's amplitude comes from.

    Paths come back sorted by their element-id sequence, so ordering is
    reproducible.  Raises ValueError on an invalid network or if the route
    count exceeds path_cap; echoes never need the routes (see validate).
    """
    report = validate(network)
    if not report.ok:
        raise _invalid(report.defects)
    return tuple(_enumerate(network, path_cap))


def echo_table(paths) -> EchoTable:
    """Group paths by absorber and take the Born weight of each group.

    Zero-echo absorbers stay in the table so reports always list every
    absorber the offer wave reached.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("no paths")
    groups: dict[str, list[PathRecord]] = {}
    for p in paths:
        groups.setdefault(p.absorber, []).append(p)
    return EchoTable({aid: born_echo(groups[aid]) for aid in sorted(groups)})


def network_echo_table(network: OpticalNetwork) -> EchoTable:
    """Echo of every absorber the offer wave reaches, zero echoes included,
    from the one sweep that validates the network."""
    report = validate(network)
    if not report.ok:
        raise _invalid(report.defects)
    return EchoTable(report.echoes)


def calibrated(network: OpticalNetwork) -> OpticalNetwork:
    """Rescale the emission so the echo over all absorbers sums to one.

    Screen bins sample relative intensity, so screen networks are built and
    then normalized through this explicit step; plain detector networks are
    already lossless and pass through nearly unchanged.
    """
    report = validate(network)
    structural = [d for d in report.defects if d.kind != "echo-sum"]
    if structural:
        raise _invalid(structural)
    total = report.echo_sum
    if total is None or total <= 0:
        raise ValueError("network has no absorbed amplitude to calibrate")
    return replace(network, emission=network.emission * (1.0 / math.sqrt(total)))


def _pick(cum: np.ndarray, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    scaled = u * cum[-1]
    idx = np.searchsorted(cum, scaled, side="right")
    idx = np.minimum(idx, len(cum) - 1)
    # a draw can graze the upper edge in floating point; never let that
    # land on a zero-probability absorber
    bad = probs[idx] == 0.0
    while np.any(bad):
        idx = np.where(bad, idx - 1, idx)
        bad = probs[idx] == 0.0
    return idx


def select_transaction(table: EchoTable, stream: RandomStream) -> str:
    """Choose the single absorber completing this event.

    Echo weights within 1e-9 of total 1 are renormalized; anything further
    off means the network lost amplitude and selection refuses to guess.
    """
    ids, probs, cum = table._selection
    u = stream.next_uniform() * float(cum[-1])
    idx = bisect.bisect_right(cum, u)
    if idx >= len(ids):
        idx = len(ids) - 1
    while probs[idx] == 0.0:
        idx -= 1
    return ids[idx]


def sample_counts(table: EchoTable, n: int, seed: int, base_event_index: int = 0) -> dict[str, int]:
    """Tally n transaction selections without materializing event records."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ids, probs, cum = table._selection
    counts = np.zeros(len(ids), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        ev = np.arange(base_event_index + start, base_event_index + stop, dtype=np.uint64)
        u = uniform_block(seed, ev)
        counts += np.bincount(_pick(cum, probs, u), minlength=len(ids))
    return {aid: int(c) for aid, c in zip(ids, counts)}


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("HQS_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError("HQS_THREADS must be a positive integer") from None
        if value < 1:
            raise ValueError("HQS_THREADS must be a positive integer")
        return value
    return os.cpu_count() or 1


def run_events(
    network: OpticalNetwork,
    n: int,
    seed: int,
    workers: int | None = None,
) -> tuple[dict[str, int], list[EventRecord]]:
    """Run n independent single-photon events through a validated network.

    Event i draws from a random stream keyed by (seed, i) alone, so counts
    and records are bit-identical for any worker count or chunk schedule.
    Worker threads default to HQS_THREADS, then to the available cores.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    table = network_echo_table(network)
    ids, probs, cum = table._selection

    def one_chunk(start: int) -> tuple[np.ndarray, list[EventRecord]]:
        stop = min(start + _CHUNK, n)
        ev = np.arange(start, stop, dtype=np.uint64)
        u = uniform_block(seed, ev)
        idx = _pick(cum, probs, u)
        recs = [
            EventRecord(int(e), ids[int(i)], float(x))
            for e, i, x in zip(ev, idx, u)
        ]
        return np.bincount(idx, minlength=len(ids)), recs

    starts = list(range(0, n, _CHUNK))
    nworkers = min(_worker_count(workers), len(starts))
    if nworkers > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            results = list(pool.map(one_chunk, starts))
    else:
        results = [one_chunk(s) for s in starts]

    counts = np.zeros(len(ids), dtype=np.int64)
    records: list[EventRecord] = []
    for c, recs in results:
        counts += c
        records.extend(recs)
    return {aid: int(c) for aid, c in zip(ids, counts)}, records
