"""Directed optical networks and the stochastic transaction engine.

A network is a DAG of elements carrying a single photon's offer wave from
one source to a set of absorbers (detectors, blockers, screen bins, the
absorbed port of a polarizer).  Every element acts linearly on the Jones
vector, so one sweep in topological order sums the amplitude arriving at
each (element, input port) and at each absorber, and an absorber's echo
is the squared modulus of its sum.  The same sweep finds cycles,
unreachable absorbers and lost amplitude, which makes it the validator
too; validate computes that report once per network object and keeps it
on the network.  Exactly one absorber per event is then selected with
probability proportional to its echo.  Counts-only runs never pick per
event: each chunk of draws is scaled and sorted once, and the count of
every absorber is read off by binary search of the sorted draws at the
cumulative-table thresholds, which gives the same counts as picking event
by event.

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
    PolarizedAmplitude,
    path_phase,
    polarizer_project,
    polarizer_reject,
    waveplate_apply,
)

ECHO_SUM_TOL = 1e-9
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
        self._report = None  # set by validate

    def element(self, elem_id: str) -> Element:
        return self._by_id[elem_id]

    def __contains__(self, elem_id: str) -> bool:
        return elem_id in self._by_id


@dataclass(frozen=True)
class Defect:
    """element names the element the defect is about, or is None when the
    defect belongs to the network as a whole (a short echo sum)."""

    kind: str
    detail: str
    element: str | None

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
    echo sum; collects every defect found.

    The report is computed once per network object and kept on it, so
    every later reader of the same network (network_echo_table,
    calibrated) reuses that one sweep.
    """
    if network._report is None:
        network._report = _validate(network)
    return network._report


def _validate(network: OpticalNetwork) -> ValidationReport:
    defects: list[Defect] = []
    add = lambda kind, detail, element: defects.append(Defect(kind, detail, element))

    ids = [e.id for e in network.elements]
    if len(set(ids)) != len(ids):
        dups = sorted({i for i in ids if ids.count(i) > 1})
        add("duplicate id", ", ".join(dups), dups[0])
    if network.source_id not in network:
        add("missing source", network.source_id, network.source_id)
    else:
        src = network.element(network.source_id)
        if src.kind != "source":
            add("missing source", f"{network.source_id} has kind {src.kind}", src.id)

    in_edges: dict[tuple[str, str], list[str]] = {}
    for elem in network.elements:
        if elem.kind not in KINDS:
            add("unknown kind", f"{elem.id}: {elem.kind}", elem.id)
            continue
        defects.extend(_check_params(elem))
        defects.extend(_check_ports(elem))
        for port, target in sorted(elem.outputs.items()):
            tid, tport = _parse_target(target)
            if tid not in network:
                add("dangling port", f"{elem.id}.{port} -> {target}", elem.id)
                continue
            tkind = network.element(tid).kind
            if tkind == "source":
                add("bad wiring", f"{elem.id}.{port} feeds source {tid}", elem.id)
            tport = tport or _default_in_port(tkind)
            if tkind == "beamsplitter" and tport not in ("a", "b"):
                add("bad wiring", f"{elem.id}.{port} -> unknown input {tid}:{tport}", elem.id)
            if tkind == "screen":
                offsets = network.element(tid).params.get("offsets", {})
                if tport not in offsets:
                    add("bad wiring", f"{elem.id}.{port} -> screen {tid} has no offset for port {tport}", elem.id)
            in_edges.setdefault((tid, tport), []).append(elem.id)

    for (tid, tport), feeders in sorted(in_edges.items()):
        if len(feeders) > 1:
            add("input collision", f"{tid}:{tport} fed by {', '.join(sorted(feeders))}", tid)

    # the sweep needs unique ids, known kinds, a source and usable params
    if any(d.kind in ("unknown kind", "missing source", "duplicate id", "bad params") for d in defects):
        return ValidationReport(False, tuple(defects))

    try:
        echoes, reached = _sweep(network)
    except ValueError as exc:
        eid, why = exc.args
        add("bad params", f"{eid}: {why}", eid)
        return ValidationReport(False, tuple(defects))
    if echoes is None:
        add("cycle", "network graph contains a cycle", _on_cycle(network, reached))
        return ValidationReport(False, tuple(defects))

    for elem in network.elements:
        if elem.kind in TERMINAL_KINDS and elem.id not in reached:
            add("unreachable absorber", elem.id, elem.id)
    echo_sum = math.fsum(echoes.values())
    if abs(echo_sum - 1.0) > ECHO_SUM_TOL:
        add("echo-sum", f"{echo_sum:.6g}", None)
    return ValidationReport(not defects, tuple(defects), echo_sum, echoes)


def _on_cycle(network: OpticalNetwork, stuck: set) -> str:
    """One element on a cycle, given the elements the sweep never visited.

    Each of those still waits on an unvisited predecessor, so walking back
    through them must repeat an element, and that element lies on a cycle.
    """
    preds: dict[str, list[str]] = {eid: [] for eid in stuck}
    for eid in stuck:
        for tid, _ in map(_parse_target, network.element(eid).outputs.values()):
            if tid in preds:
                preds[tid].append(eid)
    seen: set[str] = set()
    eid = min(stuck)
    while eid not in seen:
        seen.add(eid)
        eid = min(preds[eid])
    return eid


def _check_params(elem: Element) -> list[Defect]:
    out = []
    bad = lambda detail: out.append(Defect("bad params", f"{elem.id}: {detail}", elem.id))
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
            out.append(Defect("bad wiring", f"terminal {elem.id} has outputs", elem.id))
    elif elem.kind == "source":
        if not ports:
            out.append(Defect("dangling port", f"source {elem.id} has no outputs", elem.id))
    elif elem.kind == "beamsplitter":
        if ports != {"out1", "out2"}:
            out.append(Defect("dangling port", f"{elem.id} needs out1 and out2, has {sorted(ports)}", elem.id))
    elif elem.kind in _SINGLE_OUT:
        if ports != {"out"}:
            out.append(Defect("dangling port", f"{elem.id} needs out, has {sorted(ports)}", elem.id))
    return out


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


def _sweep(network: OpticalNetwork):
    """Carry the offer wave through the network once, in topological order.

    Returns (echoes, reached): absorber id -> squared modulus of the summed
    amplitude, in sorted-id order, and the ids of the elements the wave
    arrived at.  If the graph has a cycle it returns (None, stuck), the ids
    of the elements the sweep never visited.  Raises ValueError(element id,
    reason) for an element whose output is not finite.  Amplitude sent to a
    missing element is dropped, so a wiring defect shows up as a short echo
    sum.  Needs unique ids and checked params.
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
                for target, out in _scatter(elem, port, amp):
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
            raise ValueError(eid, str(exc)) from None
        for tid in successors[eid]:
            indegree[tid] -= 1
            if indegree[tid] == 0:
                ready.append(tid)
    if visited < len(indegree):
        return None, {tid for tid, d in indegree.items() if d}
    return {aid: absorbed[aid].norm_sq() for aid in sorted(absorbed)}, reached


def _invalid(defects) -> ValueError:
    return ValueError("invalid network: " + "; ".join(str(d) for d in defects))


def network_echo_table(network: OpticalNetwork) -> EchoTable:
    """Echo of every absorber the offer wave reaches, zero echoes included,
    from the one sweep that validates the network."""
    report = validate(network)
    if not report.ok:
        raise _invalid(report.defects)
    return EchoTable(dict(report.echoes))  # a copy: the report stays on the network


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
    out = replace(network, emission=network.emission * (1.0 / math.sqrt(total)))
    # an echo total near the float floor cannot be rescaled to one
    if not validate(out).ok:
        raise _invalid(validate(out).defects)
    return out


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


def _tally(cum: np.ndarray, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-entry counts equal to np.bincount(_pick(cum, probs, u)).

    _pick sends draw u to #{j : cum[j] <= u*cum[-1]}, so the draws at or
    above entry j number those whose scaled value reaches cum[j - 1]: one
    binary search per threshold in the sorted draws, differenced.  A zero-
    probability entry has cum[i] == cum[i - 1] and owns no draws, so the
    walk down off zero entries can only fire on the clamped top bucket.
    """
    scaled = np.sort(u * cum[-1])
    above = scaled.size - np.searchsorted(scaled, cum, side="left")
    counts = -np.diff(above, prepend=scaled.size)
    # draws at or past the last threshold clamp to the last entry, then walk
    # down with any zero entries above the last nonzero one
    top = int(np.flatnonzero(probs)[-1])
    counts[top] += counts[top + 1:].sum() + above[-1]
    counts[top + 1:] = 0
    return counts


def sample_counts(table: EchoTable, n: int, seed: int, base_event_index: int = 0) -> dict[str, int]:
    """Tally n transaction selections without materializing event records.

    Each chunk of draws is tallied by sorted thresholds (_tally), never
    picked event by event; the counts equal those of run_events and of
    select_transaction for the same (seed, event) draws, bit for bit.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ids, probs, cum = table._selection
    counts = np.zeros(len(ids), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        ev = np.arange(base_event_index + start, base_event_index + stop, dtype=np.uint64)
        counts += _tally(cum, probs, uniform_block(seed, ev))
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
