"""Directed optical networks and the stochastic transaction engine.

A network is a DAG of elements carrying a single photon's offer wave
from one source to a set of absorbers (detectors, blockers, screen bins,
the absorbed port of a polarizer).  Every element acts linearly on the
Jones vector, so one sweep in topological order sums the amplitude
arriving at each (element, input port) and at each absorber, and an
absorber's echo is the squared modulus of its sum.  validate compiles
each network object once, over integer element indices: the structural
checks, one slot per (element, input port), and one Kahn-order walk that
makes each input the wave reaches a step (its slot, the slots it feeds,
its factors) and finds the sorted absorber ids, the screen bin factors
and the unreachable absorbers.  Bare detectors and blockers (no params,
no outputs) stay out of the walk.  The sweep carries Python complex
pairs from slot to slot and reads the absorbers out with real ufuncs;
every single-photon echo table comes from it.  Each event selects one
absorber with probability proportional to its echo, from a draw keyed by
(seed, event, draw) alone: replay picks the absorber of each given
event, and counts-only runs tally the draws at the cumulative-table
thresholds (_tally: a short table counts the draws at or above each
threshold, a long one sorts them and bisects), which gives the counts of
replay's picks.  Both run on the calling thread.  Networks are treated
as immutable once validated.

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
"""

from __future__ import annotations

import math
import numbers
from collections import Counter, namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress
from operator import not_

import numpy as np

from .rng import uniform_block
from .wavecore import REFLECT_FACTOR, TRANSMIT_FACTOR, VERTICAL, PolarizedAmplitude, cos_deg, path_phase, sin_deg

ECHO_SUM_TOL = 1e-9
_CHUNK = 1 << 14  # events per block: its uint64 and float64 arrays (128 KiB each) stay in cache
_COUNT_MAX = 16  # _tally counts per threshold up to this many entries and sorts above: K*n against n*log(n)

KINDS = {"source", "beamsplitter", "mirror", "phase_segment", "halfwave_plate", "quarterwave_double", "polarizer",
         "blocker", "detector", "screen"}
TERMINAL_KINDS = {"blocker", "detector", "screen"}
# the output ports each kind sends on; a source sends on all of its own
_OUT_PORTS = {"beamsplitter": frozenset({"out1", "out2"}), **dict.fromkeys(
    ("mirror", "phase_segment", "halfwave_plate", "quarterwave_double", "polarizer"), frozenset({"out"}))}
# the params each kind takes, all of them required; the other kinds take none
_PARAMS = {"phase_segment": ("length",), "screen": ("bin_count", "half_width", "distance", "offsets"),
           **dict.fromkeys(("halfwave_plate", "quarterwave_double", "polarizer"), ("axis",))}
_ONE_PARAM = {k: v[0] for k, v in _PARAMS.items() if len(v) == 1}  # the kinds that take one param, and its name
_SPLIT_A, _SPLIT_B = (TRANSMIT_FACTOR, REFLECT_FACTOR), (REFLECT_FACTOR, TRANSMIT_FACTOR)
_FRESH, _setattr = object(), object.__setattr__  # Element.__init__'s new-dict default and its one store


@dataclass(frozen=True)
class Element:
    id: str
    kind: str
    params: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def __init__(self, id: str, kind: str, params: dict = _FRESH, outputs: dict = _FRESH):
        # object.__setattr__ looked up once; storing into self.__dict__ builds faster but slows every read ~4x
        _setattr(self, "id", id)
        _setattr(self, "kind", kind)
        _setattr(self, "params", {} if params is _FRESH else params)
        _setattr(self, "outputs", {} if outputs is _FRESH else outputs)


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
        self._index = {e.id: i for i, e in enumerate(self.elements)}  # id -> its (last) element's index
        self._report = self._plan = None  # set by validate

    def element(self, elem_id: str) -> Element:
        return self.elements[self._index[elem_id]]


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

    @cached_property
    def _selection(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        ids = tuple(sorted(self.entries))
        weights = np.array([self.entries[a] for a in ids], dtype=float)
        total = weights.sum()
        if not abs(total - 1.0) <= ECHO_SUM_TOL:
            raise ValueError(f"incomplete absorber set: echoes sum to {total:.6g}")
        probs = weights / total
        return ids, probs, np.cumsum(probs)


@dataclass(frozen=True)
class EventRecord:
    event_index: int
    selected_absorber: str
    rng_draw: float


def validate(network: OpticalNetwork) -> ValidationReport:
    """The compile's structural and reachability checks, then one sweep for
    the echo sum; collects every defect found.  The plan and the report stay
    on the network for its later readers (network_echo_table, calibrated)."""
    if network._report is None:
        network._report = _validate(network)
    return network._report


def _validate(network: OpticalNetwork) -> ValidationReport:
    plan = network._plan = network._plan or _compile(network)
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
    defects += [Defect("unreachable absorber", eid, eid) for eid in plan.unreachable]
    echo_sum = math.fsum(echoes.values())
    if not abs(echo_sum - 1.0) <= ECHO_SUM_TOL:
        add("echo-sum", f"{echo_sum:.6g}", None)
    return ValidationReport(not defects, tuple(defects), echo_sum, echoes)


# a compiled network (see the module docstring); steps is None when a defect keeps it from being swept
_Plan = namedtuple("_Plan", "defects steps slots unreachable ids points screens", defaults=(None,) * 6)


def _compile(network: OpticalNetwork) -> _Plan:
    defects: list[Defect] = []
    add = lambda kind, detail, element: defects.append(Defect(kind, detail, element))

    elements, index, n = network.elements, network._index, len(network.elements)
    if len(index) != n:
        dups = sorted(eid for eid, count in Counter(e.id for e in elements).items() if count > 1)
        add("duplicate id", ", ".join(dups), dups[0])
    s0 = index.get(network.source_id)  # an id names the last element that has it
    src = None if s0 is None else elements[s0]
    if src is None or src.kind != "source":
        add("missing source", network.source_id if src is None else f"{src.id} has kind {src.kind}", network.source_id)
    # a bare terminal (a detector or blocker, no params, no outputs) has no checks, no successors and no walk,
    # unless it is named for a polarizer's absorbed port: it shares that absorber, whose sum runs in Kahn order
    absorbed = {f"{e.id}.absorbed" for e in elements if e.kind == "polarizer"}
    bare = [e.kind in ("blocker", "detector") and not e.params and not e.outputs and e.id not in absorbed for e in elements]
    live = list(compress(range(n), map(not_, bare)))
    # wired: per element, (target, slot) for each output port in sorted order, None for an unknown target
    successors, wired = [()] * n, [()] * n
    slot, collided, odd, indegree = {(s0, ""): 0}, set(), set(), [0] * n  # slot: (element, input port) -> slot
    inputs = {i: [("", 0)] if i == s0 else [] for i in live}  # slot 0 holds the emission
    for i in live:
        elem = elements[i]
        kind, p, outs = elem.kind, elem.params, elem.outputs
        want = _OUT_PORTS.get(kind)
        if kind not in KINDS:
            add("unknown kind", f"{elem.id}: {kind}", elem.id)
            continue
        # _check_params finds nothing in no params where none are taken, nor in one finite float param in range
        x = p.get(_ONE_PARAM[kind]) if len(p) == 1 and kind in _ONE_PARAM else None
        if (p or kind in _PARAMS) and not (type(x) is float and math.isfinite(x) and (x >= 0 or kind != "phase_segment")):
            defects.extend(_check_params(elem))
        if want is not None and outs.keys() != want:
            odd.add(i)
            add("dangling port", f"{elem.id} needs {' and '.join(sorted(want))}, has {sorted(outs)}", elem.id)
        elif want is None and outs and kind != "source":
            add("bad wiring", f"terminal {elem.id} has outputs", elem.id)
        elif kind == "source" and not outs:
            add("dangling port", f"source {elem.id} has no outputs", elem.id)
        successors[i], wired[i] = succ, ws = [], []
        for port, target in sorted(outs.items()) if len(outs) > 1 else outs.items():
            tid, _, tport = target.partition(":")
            t = index.get(tid)
            if t is None:
                ws.append(None)
                add("dangling port", f"{elem.id}.{port} -> {target}", elem.id)
                continue
            if not bare[t]:  # an edge into a bare terminal takes its slot only
                succ.append(t)
                indegree[t] += 1
                tkind = elements[t].kind
                tport = tport or ("a" if tkind == "beamsplitter" else "in")
                if tkind == "beamsplitter" and tport != "a" and tport != "b":
                    add("bad wiring", f"{elem.id}.{port} -> unknown input {tid}:{tport}", elem.id)
                elif tkind == "source":
                    add("bad wiring", f"{elem.id}.{port} feeds source {tid}", elem.id)
                elif tkind == "screen" and not (isinstance(o := elements[t].params.get("offsets"), dict) and tport in o):
                    add("bad wiring", f"{elem.id}.{port} -> screen {tid} has no offset for port {tport}", elem.id)
            k = slot.setdefault(key := (t, tport or "in"), nk := len(slot))
            if k != nk:
                collided.add(key)
            elif not bare[t]:  # a bare terminal's inputs are read off the slots after the walk
                inputs[t].append((tport, k))
            ws.append((t, k))
    if collided:  # each collided slot's feeders, from one pass over the edges
        feeders = {slot[key]: [] for key in collided}
        for i, ws in enumerate(wired):
            for w in ws:
                if w and w[1] in feeders:
                    feeders[w[1]].append(elements[i].id)
        for t, tport in sorted(collided, key=lambda key: (elements[key[0]].id, key[1])):
            tid = elements[t].id
            add("input collision", f"{tid}:{tport} fed by {', '.join(sorted(feeders[slot[t, tport]]))}", tid)

    # the sweep needs unique ids, known kinds, a source and usable params
    if any(d.kind in ("unknown kind", "missing source", "duplicate id", "bad params") for d in defects):
        return _Plan(tuple(defects))

    # a bare item on the LIFO stack would push nothing when popped, so leaving them out keeps the order of the rest
    order, ready = [], [i for i in live if not indegree[i]]
    while ready:
        order.append(ready.pop())
        for t in successors[order[-1]]:
            indegree[t] -= 1
            if not indegree[t]:
                ready.append(t)
    if len(order) < len(live):
        add("cycle", "network graph contains a cycle", _on_cycle(indegree, wired, elements))
        return _Plan(tuple(defects))
    # pid, pk: each point's absorber id and slot, each absorber's points in port order
    reached, nslots, steps, screens, pid, pk = [False] * n, len(slot), [], [], [], []
    reached[s0] = True

    # reached grows as the walk goes; an unreached input of a reached element holds zero
    for i in order:
        if not reached[i]:
            continue
        elem, fed = elements[i], inputs[i] if len(inputs[i]) == 1 else sorted(inputs[i])
        eid, kind, p = elem.id, elem.kind, elem.params
        if kind in ("blocker", "detector"):
            pid += [eid] * len(fed)
            pk += [k for _, k in fed]
            continue
        try:
            if kind == "screen":
                fed = [(k, float(p["offsets"][port])) for port, k in fed if port in p["offsets"]]
                bins, L = _screen_bins(p).tolist() if fed else [], float(p["distance"])
                factors = [(k, np.array([path_phase(math.hypot(L, x - x0)) for x in bins])) for k, x0 in fed]
                if not all(np.isfinite(f).all() for _, f in factors):
                    raise ValueError("non-finite amplitude component")
                pad = len(str(len(bins) - 1))
                screens.append((eid, ["%s[%0*d]" % (eid, pad, j) for j in range(len(bins))],
                                tuple((k, f.real, f.imag) for k, f in factors)))
                continue
            ts, ws = [], wired[i]  # the slot each port the kind sends on feeds: its target's input, or a sink
            if i in odd:
                ws = [dict(zip(sorted(elem.outputs), ws)).get(q) for q in sorted(_OUT_PORTS[kind])]
            for w in ws:
                if w is None:
                    ts.append(nslots)
                    nslots += 1
                else:
                    reached[w[0]] = True
                    ts.append(w[1])
            if kind == "polarizer":
                ts, nslots = [*ts, nslots], nslots + 1
                pid.append(f"{eid}.absorbed")
                pk.append(ts[1])
                op = ("polarizer", ts, (cos_deg(float(p["axis"])), sin_deg(float(p["axis"]))))
            elif kind in ("halfwave_plate", "quarterwave_double"):
                op = ("plate", ts, (cos_deg(2.0 * float(p["axis"])), sin_deg(2.0 * float(p["axis"]))))
            elif kind == "phase_segment":
                op = ("scale", ts, (path_phase(float(p["length"])),))
            elif kind != "beamsplitter":  # source, mirror
                op = ("scale", ts, (1.0 / math.sqrt(len(ts) or 1),) * len(ts) if kind == "source" else (1.0,))
        except ValueError as exc:  # finite params whose geometry overflows
            add("bad params", f"{eid}: {exc}", eid)
            return _Plan(tuple(defects))
        for port, k in fed:
            if kind == "beamsplitter":  # a transmits to out1 and reflects to out2, b the reverse
                op = ("scale", ts, _SPLIT_A if port == "a" else _SPLIT_B)
            steps.append((eid, k, *op))
    fed = sorted(key for key in slot if bare[key[0]] and reached[key[0]])  # the reached bare terminals' inputs
    pid += [elements[t].id for t, _ in fed]
    pk += map(slot.__getitem__, fed)

    absorbers = sorted(dict.fromkeys([*pid, *(b for _, bins, _ in screens for b in bins)]))  # no set: in near order
    at = {aid: i for i, aid in enumerate(absorbers)}
    # a terminal named for one of the absorbers (a polarizer's absorbed port) shares it, so it is reached
    unreachable = tuple(e.id for e in compress(elements, map(not_, reached))
                        if e.kind in TERMINAL_KINDS and e.id not in at)
    return _Plan(tuple(defects), tuple(steps), nslots, unreachable, tuple(absorbers),
                 (np.fromiter(map(at.__getitem__, pid), np.intp, len(pid)), np.array(pk, dtype=np.intp)),
                 tuple((np.array([at[b] for b in bins], dtype=np.intp), ports) for _, bins, ports in screens))


def _on_cycle(indegree: list, wired: list, elements: tuple) -> str:
    """The id of one element on a cycle, given the indegrees the Kahn order
    left: each element it never reached waits on another, so walking back
    through them must repeat one, which lies on a cycle (the least id wins;
    the bare terminals a stuck element feeds wait too, uncounted)."""
    stuck = {i for i, d in enumerate(indegree) if d}
    stuck |= {w[0] for i in stuck for w in wired[i] if w}
    preds: dict[int, list[int]] = {i: [] for i in stuck}
    for i in stuck:
        for w in wired[i]:
            if w:
                preds[w[0]].append(i)
    seen: set[int] = set()
    i = min(stuck, key=lambda i: elements[i].id)
    while i not in seen:
        seen.add(i)
        i = min(preds[i], key=lambda i: elements[i].id)
    return elements[i].id


def _check_params(elem: Element) -> list[Defect]:
    out = []
    bad = lambda detail: out.append(Defect("bad params", f"{elem.id}: {detail}", elem.id))
    p, takes = elem.params, _PARAMS.get(elem.kind, ())
    for name in p:
        if name not in takes:
            bad(f"unknown param {name!r}")
    for name in takes:
        if name not in p:
            bad(f"missing {name}")
        elif name == "offsets":
            if not isinstance(p[name], dict):
                bad("offsets must map input ports to positions")
                continue
            for port, offset in p[name].items():
                x = _number(offset)
                if x is None:
                    bad(f"offset for port {port} must be a number, not {offset!r}")
                elif not math.isfinite(x):
                    bad(f"non-finite offset for port {port}")
        elif (x := _number(p[name], integral=name == "bin_count")) is None:
            bad(f"{name} must be {'an integer' if name == 'bin_count' else 'a number'}, not {p[name]!r}")
        elif not math.isfinite(x):
            bad(f"non-finite {name}")
        elif name == "length" and x < 0:
            bad("negative length")
        elif name == "bin_count" and x < 1:
            bad("bin_count < 1")
        elif name in ("half_width", "distance") and x <= 0:
            bad(f"{name} <= 0")
    return out


def _number(value, integral: bool = False) -> float | None:
    """value as a float, or None when it is not a number (a bool or a string
    never is one) or, if integral, not a whole one; as in cli._read."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf if value > 0 else -math.inf
    return None if integral and math.isfinite(x) and not x.is_integer() else x


def _sweep(network: OpticalNetwork) -> np.ndarray:
    """Carry the offer wave through the compiled network once, in Kahn order,
    to the real and imaginary parts of the h and v amplitude summed at each
    absorber: a (4, n) array in sorted-id order.  Steps use Python complex
    operations; sums and bin products use real ufuncs, never numpy's
    complex multiply.  Raises ValueError(element id, reason) for the first
    element whose output is not finite."""
    plan = network._plan
    h, v = [0j] * plan.slots, [0j] * plan.slots
    h[0], v[0] = complex(network.emission.h), complex(network.emission.v)
    for _, k, kind, ts, fs in plan.steps:
        x, y = h[k], v[k]
        if kind == "scale":  # one factor per output
            for t, f in zip(ts, fs):
                h[t] += x * f
                v[t] += y * f
        elif kind == "plate":  # reflect the Jones vector about the axis
            (t,), (c2, s2) = ts, fs
            h[t] += c2 * x + s2 * y
            v[t] += s2 * x - c2 * y
        else:  # the projection on the axis to the output, the rest to the absorber
            (t, absorbed), (c, s) = ts, fs
            coef = x * c + y * s
            h[t] += coef * c
            v[t] += coef * s
            coef = -x * s + y * c
            h[absorbed] += -coef * s
            v[absorbed] += coef * c
    hs, vs = np.array(h), np.array(v)
    slots = np.array([hs.real, hs.imag, vs.real, vs.imag])
    bad = ~np.isfinite(slots).all(axis=0)
    if bad.any():
        raise ValueError(next(eid for eid, _, _, ts, _ in plan.steps if bad[list(ts)].any()),
                         "non-finite amplitude component")
    amps = np.zeros((4, len(plan.ids)))
    with np.errstate(all="ignore"):  # an overflow shows up as an echo out of range
        np.add.at(amps, (slice(None), plan.points[0]), slots[:, plan.points[1]])  # in port order
        for at, ports in plan.screens:
            bins = np.zeros((4, len(at)))
            for k, c, s in ports:  # the slot's amplitude times each bin factor c + i s
                hr, hi, vr, vi = slots[:, k]
                bins += [hr * c - hi * s, hr * s + hi * c, vr * c - vi * s, vr * s + vi * c]
            amps[:, at] += bins
    return amps


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
    if structural := [d for d in report.defects if d.kind != "echo-sum"]:
        raise _invalid(structural)
    total = report.echo_sum
    if total is None or total <= 0:
        raise ValueError("network has no absorbed amplitude to calibrate")
    out = replace(network, emission=network.emission * (1.0 / math.sqrt(total)))
    out._plan = network._plan  # the same elements: only the emission differs
    if not (report := validate(out)).ok:  # an echo total near the float floor cannot be rescaled to one
        raise _invalid(report.defects)
    return out


def _pick(cum: np.ndarray, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The entry each draw selects: the first j with cum[j] > u*cum[-1].

    A zero entry repeats its threshold (x + 0.0 == x), so the first
    threshold above a draw never lies on one.  Only a draw at or past
    cum[-1] gets past every threshold, and it clamps to the last nonzero
    entry, as _tally's top bucket does.
    """
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), np.flatnonzero(probs)[-1])


def _tally(cum: np.ndarray, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-entry counts equal to np.bincount(_pick(cum, probs, u)).

    _pick sends draw u to #{j : cum[j] <= u*cum[-1]}, so the draws at or
    above entry j number those whose scaled value reaches cum[j - 1]:
    counted at each threshold for a table of at most _COUNT_MAX entries,
    else one binary search per threshold in the sorted draws; differenced.
    A zero-probability entry has cum[i] == cum[i - 1] and owns no draws.
    """
    scaled = u * cum[-1]
    if len(cum) <= _COUNT_MAX:
        above = np.array([np.count_nonzero(scaled >= c) for c in cum.tolist()], dtype=np.int64)
    else:
        scaled.sort()
        above = scaled.size - np.searchsorted(scaled, cum, side="left")
    counts = -np.diff(above, prepend=scaled.size)
    # draws at or past the last threshold clamp to the last nonzero entry
    counts[np.flatnonzero(probs)[-1]] += above[-1]
    return counts


def sample_counts(table: EchoTable, n: int, seed: int, base_event_index: int = 0) -> dict[str, int]:
    """Tally n transaction selections without materializing event records.

    Each chunk of draws is tallied at the table's thresholds (_tally),
    never picked event by event; the counts equal the tally of replay's
    picks for the same (seed, event) draws, bit for bit.
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


def replay(table: EchoTable, seed: int, events, draw_index: int = 0) -> np.ndarray:
    """The absorber each event selects, as an index into the table's sorted ids.

    Event i's pick is a pure function of (seed, i, draw_index), so any
    subset of events replays exactly the picks that sample_counts tallies.
    """
    _, probs, cum = table._selection
    return _pick(cum, probs, uniform_block(seed, events, draw_index))


def run_events(
    network: OpticalNetwork,
    n: int,
    seed: int,
    workers: int | None = None,
) -> tuple[dict[str, int], list[EventRecord]]:
    """Run n independent single-photon events through a validated network.

    Event i draws from a random stream keyed by (seed, i) alone.  Every
    event runs on the calling thread; workers is accepted and ignored.
    """
    del workers
    if n < 1:
        raise ValueError("n must be >= 1")
    ids, probs, cum = network_echo_table(network)._selection
    u = uniform_block(seed, np.arange(n, dtype=np.uint64))
    idx = _pick(cum, probs, u)
    records = [EventRecord(e, ids[i], x) for e, i, x in zip(range(n), idx.tolist(), u.tolist())]
    return dict(zip(ids, np.bincount(idx, minlength=len(ids)).tolist())), records
