"""Independent references the benchmark checks every output against.

Nothing here imports hqs.  The counter RNG and the cumulative-table pick
restate the documented sampling rule, so sampled counts can be compared
bit for bit: every draw is a pure function of (seed, event, draw).  The
analytic references are closed forms or a linear sweep of 2x2 splitter,
phase and Jones matrices in numpy, so they do not share the program's
route enumeration and survive a rewrite of it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

ANALYTIC_TOL = 1e-12

_MASK = (1 << 64) - 1
_GAMMA_EVENT = np.uint64(0x9E3779B97F4A7C15)
_GAMMA_DRAW = 0xC2B2AE3D27D4EB4F
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 1 << 16
SQRT_HALF = math.sqrt(0.5)
T = complex(SQRT_HALF, 0.0)  # splitter transmission
R = complex(0.0, SQRT_HALF)  # splitter reflection


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_close(got, want, what: str, tol: float = ANALYTIC_TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    expect(err <= tol, f"{what}: max |error| {err:.3g} > {tol:g}")


# -- counter RNG and selection ------------------------------------------------

def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


def uniforms(seed: int, events: np.ndarray, draw: int = 0) -> np.ndarray:
    """SplitMix64 chain over (seed, event, draw), mapped to [0, 1)."""
    h0 = _mix(np.array([seed & _MASK], dtype=np.uint64))[0]
    h = _mix(h0 + _GAMMA_EVENT * (events.astype(np.uint64) + np.uint64(1)))
    w = _mix(h + np.uint64((_GAMMA_DRAW * (draw + 1)) & _MASK))
    return w.astype(np.float64) / 2.0**64


class Table:
    """Outcome -> weight, selected through the cumulative table in sorted-id order."""

    def __init__(self, weights: dict):
        self.ids = sorted(weights)
        w = np.array([weights[a] for a in self.ids], dtype=float)
        self.probs = w / w.sum()
        self.cum = np.cumsum(self.probs)

    def pick(self, u: np.ndarray) -> np.ndarray:
        idx = np.minimum(np.searchsorted(self.cum, u * self.cum[-1], side="right"), len(self.cum) - 1)
        bad = self.probs[idx] == 0.0
        while np.any(bad):  # never land on a zero-weight outcome
            idx = np.where(bad, idx - 1, idx)
            bad = self.probs[idx] == 0.0
        return idx

    def counts(self, n: int, seed: int, base: int = 0) -> dict:
        tally = np.zeros(len(self.ids), dtype=np.int64)
        for start in range(0, n, _CHUNK):
            ev = np.arange(base + start, base + min(start + _CHUNK, n), dtype=np.uint64)
            tally += np.bincount(self.pick(uniforms(seed, ev)), minlength=len(self.ids))
        return {a: int(c) for a, c in zip(self.ids, tally)}


# -- Jones arithmetic in the program's evaluation order -----------------------
# Sampled tables that an envelope does not carry are rebuilt with the same
# float operations, so the selection boundaries agree to the last bit.

def _cos_deg(angle: float) -> float:
    exact = {0: 1.0, 45: SQRT_HALF, 90: 0.0, 135: -SQRT_HALF, 180: -1.0,
             225: -SQRT_HALF, 270: 0.0, 315: SQRT_HALF}.get(angle % 360.0)
    return exact if exact is not None else math.cos(math.radians(angle))


def _sin_deg(angle: float) -> float:
    return _cos_deg(angle - 90.0)


def _norm_sq(h: complex, v: complex) -> float:
    h, v = 0j + h, 0j + v
    return h.real**2 + h.imag**2 + v.real**2 + v.imag**2


def _phase(length: float) -> complex:
    return cmath.rect(1.0, math.tau * (length % 1.0))


def blocked_mz_table() -> Table:
    v = (1 + 0j) * 1.0
    return Table({"Obj": _norm_sq(0j, v * T), "D1": _norm_sq(0j, v * R * T), "D2": _norm_sq(0j, v * R * R)})


def lens_table() -> Table:
    v = (1 + 0j) * 1.0
    return Table({"img1": _norm_sq(0j, v * T), "img2": _norm_sq(0j, v * R * _phase(0.75))})


def epr_probs(theta_l: float, theta_r: float) -> dict:
    def basis(t):
        c, s = _cos_deg(t), _sin_deg(t)
        return {"H": (c, s), "V": (-s, c)}

    out = {}
    for ol, el in basis(theta_l).items():
        for orr, er in basis(theta_r).items():
            amp = (el[0] * er[0] + el[1] * er[1]) / math.sqrt(2.0)
            out[ol + orr] = amp * amp
    return out


def epr_closed_form(theta_l: float, theta_r: float) -> dict:
    c2 = math.cos(math.radians(theta_l - theta_r)) ** 2
    return {"HH": c2 / 2, "VV": c2 / 2, "HV": (1 - c2) / 2, "VH": (1 - c2) / 2}


HARDY = {"absorbed": 0.25, "D1.x+": 9 / 16, "D1.x-": 1 / 16, "D2.x+": 1 / 16, "D2.x-": 1 / 16}


def eraser_probs(qwp_in: bool, eraser_in: bool, phase: float) -> dict:
    first = (0.5 * (1 + 0j), 0j) if qwp_in else (0j, 0.5 * (1 + 0j))
    second = (0j, (1 + 0j) * (0.5 * complex(math.cos(phase), math.sin(phase))))
    if eraser_in:
        c = s = SQRT_HALF

        def project(a):
            coef = a[0] * c + a[1] * s
            return coef * c, coef * s

        def reject(a):
            coef = -a[0] * s + a[1] * c
            return -coef * s, coef * c

        p1, p2 = project(first), project(second)
        b1, b2 = reject(first), reject(second)
        coinc = _norm_sq(0j + p1[0] + p2[0], 0j + p1[1] + p2[1])
        blocked = _norm_sq(0j + b1[0] + b2[0], 0j + b1[1] + b2[1])
    else:
        coinc = _norm_sq(0j + first[0] + second[0], 0j + first[1] + second[1])
        blocked = 0.0
    return {"coincidence": coinc, "idler_blocked": blocked, "no_pair": max(0.0, 1.0 - coinc - blocked)}


def eraser_closed_form(qwp_in: bool, eraser_in: bool, phase: float) -> float:
    if eraser_in:
        return 0.25 * (1 + math.cos(phase))
    return 0.5 if qwp_in else 0.5 * (1 + math.cos(phase))


def ev_reference(n: int, seed: int) -> tuple[int, int]:
    """(trials certified at D2, shots fired): shot j of trial i draws (seed, i, j)."""
    table = blocked_mz_table()
    d1, d2 = table.ids.index("D1"), table.ids.index("D2")
    active = np.arange(n, dtype=np.uint64)
    detected = shots = draw = 0
    while active.size:
        idx = table.pick(uniforms(seed, active, draw))
        shots += active.size
        detected += int(np.count_nonzero(idx == d2))
        active = active[idx == d1]
        draw += 1
    return detected, shots


# -- screens -----------------------------------------------------------------

def first_minimum(d: float, L: float) -> float:
    """Screen x where the slit distances differ by half a wave: a hyperbola."""
    a, c = 0.25, d / 2.0
    return a * math.sqrt(1.0 + L * L / (c * c - a * a))


def two_slit_probs(d: float, L: float, bin_count: int, labeled: bool):
    """Bin centers and normalized screen probabilities of the slit network."""
    half_width = first_minimum(d, L) * ((bin_count - 1) // 2) / 33
    x = np.linspace(-half_width, half_width, bin_count)
    a1 = T * np.exp(2j * np.pi * np.mod(np.hypot(L, x + d / 2), 1.0))
    a2 = R * _phase(0.75) * np.exp(2j * np.pi * np.mod(np.hypot(L, x - d / 2), 1.0))
    e = np.abs(a1) ** 2 + np.abs(a2) ** 2 if labeled else np.abs(a1 + a2) ** 2
    return x, e / e.sum()


def bin_ids(prefix: str, count: int, bracket: bool) -> list[str]:
    pad = len(str(count - 1))
    return [f"{prefix}[{k:0{pad}d}]" if bracket else f"{prefix}{k:0{pad}d}" for k in range(count)]


# -- generated networks --------------------------------------------------------

def sweep(network: dict) -> dict:
    """Absorber -> echo of a generated network, by one topological sweep.

    Each element is a linear map on the Jones vector arriving at it, so the
    amplitude reaching an absorber is the sum over its inputs.  Works for the
    DAGs the benchmark generates: source, beamsplitter, mirror,
    phase_segment, halfwave_plate, polarizer and detector elements.
    """
    elems = {e["id"]: e for e in network["elements"]}
    emission = network.get("emission") or {"v": [1.0, 0.0]}
    src_amp = np.array([complex(*emission.get("h", (0.0, 0.0))), complex(*emission.get("v", (0.0, 0.0)))])
    inputs: dict = {}  # (element, port) -> Jones vector
    feeds = {}
    for e in network["elements"]:
        for port, target in e.get("outputs", {}).items():
            tid = target.split(":")[0]
            feeds.setdefault(e["id"], []).append(tid)
    order = _topological(network["source"], feeds)
    echoes = {}

    def send(target: str, amp: np.ndarray) -> None:
        tid, _, tport = target.partition(":")
        key = (tid, tport or ("a" if elems[tid]["kind"] == "beamsplitter" else "in"))
        inputs[key] = inputs.get(key, 0) + amp

    for eid in order:
        e = elems[eid]
        kind, out, p = e["kind"], e.get("outputs", {}), e.get("params", {})
        amp = inputs.get((eid, "in"), np.zeros(2, complex))
        if kind == "source":
            for port in out:
                send(out[port], src_amp / math.sqrt(len(out)))
        elif kind == "beamsplitter":
            a = inputs.get((eid, "a"), np.zeros(2, complex))
            b = inputs.get((eid, "b"), np.zeros(2, complex))
            send(out["out1"], T * a + R * b)
            send(out["out2"], R * a + T * b)
        elif kind == "mirror":
            send(out["out"], amp)
        elif kind == "phase_segment":
            send(out["out"], amp * np.exp(2j * np.pi * (float(p["length"]) % 1.0)))
        elif kind == "halfwave_plate":
            c2, s2 = math.cos(math.radians(2 * p["axis"])), math.sin(math.radians(2 * p["axis"]))
            send(out["out"], np.array([c2 * amp[0] + s2 * amp[1], s2 * amp[0] - c2 * amp[1]]))
        elif kind == "polarizer":
            c, s = math.cos(math.radians(p["axis"])), math.sin(math.radians(p["axis"]))
            keep = amp[0] * c + amp[1] * s
            drop = -amp[0] * s + amp[1] * c
            echoes[f"{eid}.absorbed"] = float(abs(drop) ** 2)
            send(out["out"], np.array([keep * c, keep * s]))
        elif kind == "detector":
            echoes[eid] = float(np.sum(np.abs(amp) ** 2))
        else:
            raise ValueError(f"sweep does not model kind {kind!r}")
    return echoes


def _topological(source: str, feeds: dict) -> list[str]:
    seen, order = set(), []

    def visit(node):  # iterative post-order DFS
        stack = [(node, iter(feeds.get(node, ())))]
        seen.add(node)
        while stack:
            cur, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                order.append(cur)
                stack.pop()
            elif nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(feeds.get(nxt, ()))))

    visit(source)
    return order[::-1]
