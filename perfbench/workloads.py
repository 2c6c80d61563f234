"""Operation lists for the four workloads, drawn from the workload seed.

An operation is one ``cli.run_spec`` plus ``cli.emit_results``, or one
``mead`` call.  Operations come in rounds: every round holds one operation
of each class of its workload, so any whole number of rounds has the same
mix.  Sizes (event counts, detector and bin counts, route counts, trials)
are log-uniform over a range, taken from a low-discrepancy sequence: any
prefix of rounds covers each range evenly, which keeps the latency
quantiles from landing in the gap between a few fixed sizes.  The size
schedule is the same for every seed, so runs with different seeds do the
same amount of work; everything else (program seeds, angles, flags,
network phases and layouts, order within a round) comes from a numpy
generator seeded with the workload seed.

Every call goes through module attributes (``cli.run_spec``,
``mead.compete``) at call time, so the traced run sees the wrapped
functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hqs import cli, mead

import reference as ref
from reference import expect, expect_close

WORKLOADS = ("sample", "wide", "propagate", "dynamics")

# rounds generated per run; a run that outpaces them starts over at round 0
ROUNDS = {"sample": 60, "wide": 160, "propagate": 120, "dynamics": 200}

SLIT_D, SLIT_L = 20.0, 2000.0  # the registry's default slit geometry
PROBE_CHAIN_SPLITTERS = 20  # 2**20 routes: over the 1e6 route cap


@dataclass
class Op:
    label: str
    params: dict
    call: Callable[[], object]
    check: Callable[[object], int]  # raises CheckFailed; returns events sampled


def _alphas(dims: int) -> np.ndarray:
    # R_d low-discrepancy steps: powers of 1/g with g the root of x^(d+1) = x + 1
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    return np.array([g ** -(j + 1) for j in range(dims)]) % 1.0


_ALPHA = _alphas(4)


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _odd(x: float) -> int:
    return int(round((x - 1) / 2)) * 2 + 1


def build(workload: str, seed: int, inputs_dir: Path, rounds: int | None = None,
          tag: str = "") -> list[list[Op]]:
    """Rounds of operations for a workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    classes = _CLASSES[workload]
    offsets = (np.arange(1, len(classes) + 1)[:, None] * _ALPHA[::-1]) % 1.0  # per class, seed-free
    rounds = ROUNDS[workload] if rounds is None else rounds
    out = []
    for r in range(rounds):
        ops = []
        for c, make in enumerate(classes):
            u = (offsets[c] + (r + 1) * _ALPHA) % 1.0
            ops.append(make(u, rng, inputs_dir, f"{workload}{tag}-r{r}-c{c}"))
        out.append([ops[i] for i in rng.permutation(len(ops))])
    return out


def warmup(workload: str, inputs_dir: Path) -> Op:
    """The fixed, seed-independent operation every set-up runs once."""
    return build(workload, 0, inputs_dir, rounds=1, tag="-warmup")[0][0]


# -- helpers for run_spec operations --------------------------------------------

def _spec_op(label: str, experiment: str, params: dict, n: int | None, seed: int, check) -> Op:
    def call():
        spec = cli.RunSpec(experiment, params, n, seed)
        return cli.emit_results(cli.run_spec(spec), spec.output_format)

    def checked(payload):
        doc = json.loads(payload)
        expect(doc["spec"]["experiment"] == experiment and doc["spec"]["n"] == n
               and doc["spec"]["seed"] == seed, f"{label}: envelope spec does not echo the request")
        return check(doc)

    return Op(label, {"experiment": experiment, "n": n, "seed": seed, **params}, call, checked)


def _expect_analytic(doc: dict, want: dict, what: str) -> None:
    got = doc["analytic"]
    expect(sorted(got) == sorted(want), f"{what}: outcomes {sorted(got)[:4]}... != {sorted(want)[:4]}...")
    keys = sorted(want)
    expect_close([got[k] for k in keys], [want[k] for k in keys], f"{what} analytic")


def _expect_counts(doc: dict, table: ref.Table, n: int, seed: int, what: str) -> dict:
    want = table.counts(n, seed)
    expect(doc["empirical"]["counts"] == want, f"{what}: sampled counts differ from the reference draws")
    return want


def _program_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


# -- sample: small registered experiments, the sampler does the work -----------

SAMPLE_N = (2e4, 2e5)


def _n(u) -> int:
    return int(_log_uniform(*SAMPLE_N, u[0]))


def _mz(blocked: bool):
    want = {"D1": 0.25, "D2": 0.25, "Obj": 0.5} if blocked else {"D1": 1.0, "D2": 0.0}

    def make(u, rng, _dir, label):
        n, seed = _n(u), _program_seed(rng)

        def check(doc):
            _expect_analytic(doc, want, label)
            _expect_counts(doc, ref.Table(doc["analytic"]), n, seed, label)
            return n

        return _spec_op(label, "mz", {"blocked": blocked}, n, seed, check)

    return make


def _ev(u, rng, _dir, label):
    n, seed = _n(u), _program_seed(rng)

    def check(doc):
        _expect_analytic(doc, {"detected_at_d2": 1 / 3, "absorbed": 2 / 3}, label)
        detected, shots = ref.ev_reference(n, seed)
        expect(doc["empirical"]["counts"] == {"absorbed": n - detected, "detected_at_d2": detected},
               f"{label}: certified/absorbed counts differ from the reference rounds")
        expect(doc["extras"]["mean_photons_per_trial"] == shots / n, f"{label}: photons per trial")
        return shots

    return _spec_op(label, "ev", {}, n, seed, check)


def _hardy(u, rng, _dir, label):
    n, seed = _n(u), _program_seed(rng)

    def check(doc):
        _expect_analytic(doc, ref.HARDY, label)
        counts = _expect_counts(doc, ref.Table(doc["analytic"]), n, seed, label)
        d1 = counts["D1.x+"] + counts["D1.x-"]
        expect(doc["extras"]["p_x_minus_given_d1"] == counts["D1.x-"] / d1, f"{label}: conditional")
        expect_close(doc["extras"]["p_x_minus_given_d1_exact"], 0.1, f"{label} conditional")
        return n

    return _spec_op(label, "hardy", {}, n, seed, check)


def _epr(u, rng, _dir, label):
    n, seed = _n(u), _program_seed(rng)
    theta_l, theta_r = (round(float(a), 3) for a in rng.uniform(0.0, 180.0, 2))

    def check(doc):
        _expect_analytic(doc, ref.epr_closed_form(theta_l, theta_r), label)
        counts = _expect_counts(doc, ref.Table(doc["analytic"]), n, seed, label)
        expect(doc["extras"]["p_same"] == (counts["HH"] + counts["VV"]) / n, f"{label}: p_same")
        return n

    return _spec_op(label, "epr", {"theta_l": theta_l, "theta_r": theta_r}, n, seed, check)


def _chsh(u, rng, _dir, label):
    n, seed = _n(u), _program_seed(rng)
    a, ap, b, bp = 0.0, 45.0, 22.5, 67.5

    def check(doc):
        extras = doc["extras"]
        expect_close(extras["S_exact"], 2 * math.sqrt(2), f"{label} S_exact")
        s_total = 0.0
        for k, (tl, tr, sign) in enumerate([(a, b, 1), (a, bp, -1), (ap, b, 1), (ap, bp, 1)]):
            c = ref.Table(ref.epr_probs(tl, tr)).counts(n, seed, base=k * n)
            e = (c["HH"] + c["VV"] - c["HV"] - c["VH"]) / n
            expect(extras[f"E({tl:g},{tr:g})"] == e, f"{label}: correlation at ({tl:g}, {tr:g})")
            s_total += sign * e
        expect_close(extras["S"], s_total, f"{label} S")
        return 4 * n

    return _spec_op(label, "chsh", {}, n, seed, check)


def _eraser(u, rng, _dir, label):
    n, seed = _n(u), _program_seed(rng)
    qwp_in, eraser_in = (bool(x) for x in rng.integers(0, 2, 2))
    points = 32

    def check(doc):
        curve = doc["curve"]
        phases = curve["phase"]
        expect_close(phases, np.linspace(0.0, 2 * math.pi, points, endpoint=False), f"{label} phases")
        expect_close(curve["rate_exact"], [ref.eraser_closed_form(qwp_in, eraser_in, p) for p in phases],
                     f"{label} rate_exact")
        for k, p in enumerate(phases):
            c = ref.Table(ref.eraser_probs(qwp_in, eraser_in, p)).counts(n, seed, base=k * n)
            expect(curve["rate"][k] == c["coincidence"] / n, f"{label}: coincidence rate at phase {k}")
        return points * n

    return _spec_op(label, "eraser", {"qwp_in": qwp_in, "eraser_in": eraser_in, "points": points},
                    n, seed, check)


def _delayed_choice(u, rng, _dir, label):
    n, seed = _n(u), _program_seed(rng)
    decision = ("before_slits", "after_slits")[int(rng.integers(0, 2))]

    def check(doc):
        _expect_analytic(doc, {"img1": 0.5, "img2": 0.5}, label)
        _expect_counts(doc, ref.lens_table(), n, seed, label)
        return n

    return _spec_op(label, "delayed_choice", {"screen_up": False, "decision_time": decision}, n, seed, check)


def _bubble_op(label, n_det: int, n: int, seed: int) -> Op:
    def check(doc):
        ids = ref.bin_ids("D", n_det, bracket=False)
        _expect_analytic(doc, dict.fromkeys(ids, 1.0 / n_det), label)
        _expect_counts(doc, ref.Table(doc["analytic"]), n, seed, label)
        return n

    return _spec_op(label, "bubble", {"n_detectors": n_det}, n, seed, check)


def _bubble64(u, rng, _dir, label):
    return _bubble_op(label, 64, _n(u), _program_seed(rng))


# -- wide: thousands of absorbers ------------------------------------------------

WIDE_N = (1e4, 5e4)


def _wide_bubble(u, rng, _dir, label):
    n_det = int(_log_uniform(512, 4096, u[0]))
    return _bubble_op(label, n_det, int(_log_uniform(*WIDE_N, u[1])), _program_seed(rng))


def _two_slit(labeled: bool):
    def make(u, rng, _dir, label):
        bins = _odd(_log_uniform(201, 2001, u[0]))
        n, seed = int(_log_uniform(*WIDE_N, u[1])), _program_seed(rng)

        def check(doc):
            x, p = ref.two_slit_probs(SLIT_D, SLIT_L, bins, labeled)
            ids = ref.bin_ids("scr", bins, bracket=True)
            _expect_analytic(doc, dict(zip(ids, p)), label)
            counts = _expect_counts(doc, ref.Table(doc["analytic"]), n, seed, label)
            curve = doc["curve"]
            expect_close(curve["bin_center"], x, f"{label} bin centers", tol=1e-9)
            expect_close(curve["probability"], p, f"{label} profile")
            expect(curve["count"] == [counts[a] for a in ids], f"{label}: histogram column")
            return n

        return _spec_op(label, "two_slit", {"labeled": labeled, "bin_count": bins}, n, seed, check)

    return make


# -- propagate: generated analytic-only networks ---------------------------------

PROPAGATE_ROUTES = (2e2, 6e3)


class _Layout:
    """Grows a network mode by mode; tail[m] is the output port carrying mode m."""

    def __init__(self, start_mode: int, rng, polarization_deg: float, calibrate: bool):
        # calibrate_emission adds a validation pass, so callers take it from the size schedule
        c, s = math.cos(math.radians(polarization_deg)), math.sin(math.radians(polarization_deg))
        self.elements = {"src": {"id": "src", "kind": "source", "params": {}, "outputs": {}}}
        self.doc = {"source": "src", "emission": {"h": [c, 0.0], "v": [s, 0.0]},
                    "calibrate_emission": calibrate}
        self.tail = {start_mode: ("src", "out")}
        self.routes = {start_mode: 1}  # routes reaching each mode's tail
        self.absorbed_routes = 0
        self.rng = rng

    def _add(self, eid: str, kind: str, params=None):
        self.elements[eid] = {"id": eid, "kind": kind, "params": params or {}, "outputs": {}}

    def _wire(self, mode: int, target: str):
        eid, port = self.tail[mode]
        self.elements[eid]["outputs"][port] = target

    def inline(self, mode: int, eid: str, kind: str, params: dict):
        self._add(eid, kind, params)
        self._wire(mode, eid)
        self.tail[mode] = (eid, "out")
        if kind == "polarizer":
            self.absorbed_routes += self.routes[mode]

    def phase(self, mode: int, eid: str):
        self.inline(mode, eid, "phase_segment", {"length": round(float(self.rng.random()), 6)})

    def splitter(self, upper: int, eid: str):
        self._add(eid, "beamsplitter")
        for mode, port in ((upper, "a"), (upper + 1, "b")):
            if mode in self.tail:
                self._wire(mode, f"{eid}:{port}")
        total = self.routes.get(upper, 0) + self.routes.get(upper + 1, 0)
        self.routes[upper] = self.routes[upper + 1] = total
        self.tail[upper], self.tail[upper + 1] = (eid, "out1"), (eid, "out2")

    def route_count(self) -> int:
        return sum(self.routes.values()) + self.absorbed_routes

    def finish(self) -> dict:
        for mode in sorted(self.tail):
            det = f"D{mode:02d}"
            self._add(det, "detector")
            self._wire(mode, det)
        return {**self.doc, "elements": list(self.elements.values())}


def mesh_network(modes: int, input_mode: int, routes_target: float, calibrate: bool, rng) -> tuple[dict, int]:
    """Rectangular splitter mesh (Reck 1994 / Clements 2016 layout).

    Columns of 50:50 splitters alternate between even and odd mode pairs,
    each with a phase segment on its upper arm.  Only the light cone of
    the input mode is built, so every absorber is reachable; columns are
    added until the route count reaches routes_target.  rng draws the
    phases and the emission polarization.
    """
    b = _Layout(input_mode, rng, float(rng.uniform(0, 180)), calibrate)
    col = 0
    while b.route_count() < routes_target:
        for i in range(col % 2, modes - 1, 2):
            if i in b.tail or i + 1 in b.tail:
                if i in b.tail:
                    b.phase(i, f"P{col}_{i}")
                b.splitter(i, f"B{col}_{i}")
        col += 1
    return b.finish(), b.route_count()


def chain_network(splitters: int, rng, mixed: bool = True, calibrate: bool = False) -> tuple[dict, int]:
    """Two-mode chain of splitters: each doubles the routes.

    Between splitters the lower arm gets a phase segment; with mixed=True
    every other stage puts a half-wave plate on the upper arm and every
    fourth stage a polarizer on one arm, whose absorbed port is one more
    absorber.  rng draws phases, axes and the emission polarization; the
    layout depends on the splitter count alone.
    """
    b = _Layout(0, rng, float(rng.uniform(0, 180)) if mixed else 90.0, calibrate)
    for k in range(splitters):
        if 1 in b.tail:
            b.phase(1, f"P{k}")
        if mixed and k % 2 == 1:
            b.inline(0, f"H{k}", "halfwave_plate", {"axis": round(float(rng.uniform(0, 180)), 3)})
        if mixed and k % 4 == 2:
            b.inline((k // 4) % 2, f"Q{k}", "polarizer", {"axis": round(float(rng.uniform(0, 180)), 3)})
        b.splitter(0, f"S{k}")
    return b.finish(), b.route_count()


def _network_op(label: str, network: dict, routes: int, inputs_dir: Path) -> Op:
    path = inputs_dir / f"{label}.json"
    path.write_text(json.dumps(network, indent=1))

    def check(doc):
        _expect_analytic(doc, ref.sweep(network), label)
        expect(doc["empirical"] is None, f"{label}: analytic-only run sampled events")
        return 0

    op = _spec_op(label, "custom", {"config": str(path)}, None, 0, check)
    op.params.update(routes=routes, elements=len(network["elements"]))
    return op


def _mesh(u, rng, inputs_dir, label):
    modes = 6 + int(u[1] * 7)
    network, routes = mesh_network(modes, int(u[2] * modes), _log_uniform(*PROPAGATE_ROUTES, u[0]),
                                   bool(u[3] < 0.5), rng)
    return _network_op(label, network, routes, inputs_dir)


def _chain(u, rng, inputs_dir, label):
    splitters = max(1, round(math.log2(_log_uniform(*PROPAGATE_ROUTES, u[0]))))
    network, routes = chain_network(splitters, rng, calibrate=bool(u[3] < 0.5))
    return _network_op(label, network, routes, inputs_dir)


# -- dynamics: the avalanche model ------------------------------------------------

def _compete(u, rng, _dir, label):
    n_abs = 2 + int(u[1] * 3)
    k_list = [round(_log_uniform(0.5, 8.0, float(x)), 4) for x in rng.random(n_abs)]
    trials = int(_log_uniform(500, 4000, u[0]))
    x0_max, seed = 0.01, _program_seed(rng)

    def check(result):
        wins = result["win_counts"]
        expect(len(wins) == n_abs and sum(wins) == trials and min(wins) >= 0,
               f"{label}: win counts {wins} do not partition {trials} trials")
        expect(result["trials"] == trials and len(result["log"]) == trials, f"{label}: trial log")
        return trials

    return Op(label, {"model": "compete", "k_list": k_list, "trials": trials, "seed": seed},
              lambda: mead.compete(k_list, x0_max, trials, seed), check)


def _avalanche(u, rng, _dir, label):
    k = round(_log_uniform(0.5, 4.0, rng.random()), 4)
    x0 = round(_log_uniform(1e-3, 0.05, u[1]), 6)
    span = _log_uniform(10.0, 80.0, u[0])  # in units of 1/k: 2000 to 16000 RK4 steps
    config = mead.AvalancheConfig(k=k, x0=x0, t_end=span / k, dt=0.005 / k)

    def check(states):
        t = np.array([s.t for s in states])
        xe = np.array([s.x_emitter for s in states])
        xa = np.array([s.x_absorber for s in states])
        expect(len(states) == round(config.t_end / config.dt) + 1, f"{label}: step count")
        expect_close(xe + xa, np.ones_like(xe), f"{label} x_e + x_a", tol=1e-9)
        logistic = x0 / (x0 + (1.0 - x0) * np.exp(-k * t))
        expect_close(xa, logistic, f"{label} logistic track", tol=1e-6)
        return 1

    return Op(label, {"model": "integrate_pair", "k": k, "x0": x0},
              lambda: mead.integrate_pair(config), check)


_CLASSES = {
    "sample": [_mz(False), _mz(True), _ev, _hardy, _epr, _chsh, _eraser, _delayed_choice, _bubble64],
    "wide": [_wide_bubble, _two_slit(False), _two_slit(True)],
    "propagate": [_mesh, _chain],
    "dynamics": [_compete, _avalanche],
}
