"""Coupled two-level dipoles and the avalanche that completes a transaction.

An emitter and an absorber in superposed states both carry an oscillating
dipole at the shared beat frequency omega = (e1 - e0) * q_e / hbar.  Their
mutual coupling transfers excitation at a rate proportional to the product
of the two dipole moments sqrt(x(1-x)), which for a lossless pair reduces
to logistic growth: tiny transfers self-amplify, saturate, and leave the
emitter empty and the absorber full.  Competing absorbers share the one
emitter; whoever dominates when the quantum has fully drained wins the
event.  compete solves that race exactly, and integrate_pair samples one
pair's logistic in closed form.

Units: energies in eV, time in units of 1/k unless k has physical units,
field grids in meters.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .rng import uniform_block

ELEMENTARY_CHARGE = 1.602176634e-19  # C
HBAR = 1.054571817e-34  # J s
LIGHT_SPEED = 299792458.0  # m/s

COMPLETION_LEVEL = 0.99


def beat_frequency(e1_ev: float, e0_ev: float) -> float:
    """Angular beat frequency (rad/s) between levels at e1 and e0 in eV.

    Both superposed partners oscillate at this same difference frequency,
    which is what lets an emitter and a distant absorber phase-lock.
    """
    if e1_ev < e0_ev:
        raise ValueError("e1 must be at or above e0")
    return (e1_ev - e0_ev) * ELEMENTARY_CHARGE / HBAR


def dipole_amplitude(x: float) -> float:
    """Dipole moment factor sqrt(x(1-x)) of a level with excited fraction x.

    Vanishes for pure states; peaks at 1/2 for an even superposition.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("excited fraction must lie in [0, 1]")
    return math.sqrt(x * (1.0 - x))


# one point of a pair's trajectory; a tuple, since integrate_pair builds one per sample
AtomPairState = namedtuple("AtomPairState", "t x_emitter x_absorber")

_MAX_STEPS = 10**6  # the most samples past t = 0 that one trajectory may hold
_MAX_DRAWS = 10**6  # the most initial transfers, absorbers times trials, that one race may draw
_MAX_GRID_POINTS = 10**6  # the most points, nx times ny, that one field grid may hold


@dataclass(frozen=True)
class AvalancheConfig:
    """Sampling setup for one emitter-absorber pair's trajectory.

    k defaults to 1, x0 to 0.01, t_end to 20/k and dt to 0.005/k.  dt
    must resolve the coupling scale (0.02/k) and, when a beat frequency
    omega is given for signal reconstruction, 1/40 of its period; t_end/dt
    may be at most 10**6.  x0 is the whole initial transfer.
    """

    k: float = 1.0
    x0: float = 0.01
    t_end: float | None = None
    dt: float | None = None
    omega: float | None = None

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.t_end is None:
            object.__setattr__(self, "t_end", 20.0 / self.k)
        if self.dt is None:
            object.__setattr__(self, "dt", 0.005 / self.k)
        if not 0.0 < self.x0 < 0.5:
            raise ValueError("x0 must lie in (0, 0.5)")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.omega is not None and self.omega <= 0:
            raise ValueError("omega must be positive")
        bound = 0.02 / self.k
        if self.omega is not None:
            bound = min(bound, (2.0 * math.pi / self.omega) / 40.0)
        if not 0.0 < self.dt <= bound * (1.0 + 1e-12):
            raise ValueError(f"dt must lie in (0, {bound:.6g}] to resolve the trajectory")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ValueError("t_end / dt must be a finite number of steps")
        if round(steps) > _MAX_STEPS:
            raise ValueError(f"t_end / dt = {steps:.7g} steps is over the cap of {_MAX_STEPS}")


def integrate_pair(config: AvalancheConfig) -> list[AtomPairState]:
    """The trajectory (t, x_emitter, x_absorber) at t = dt * i, in closed form.

    A lossless pair's transfer is the logistic x_absorber = x0 / (x0 + E),
    E = (1 - x0) e**(-k t), and the emitter holds E / (x0 + E).  Both are
    evaluated, so x_emitter + x_absorber = 1 is a check to rounding, not an
    identity; _exp keeps the bits the same on every CPU.
    """
    steps = int(round(config.t_end / config.dt))
    t = config.dt * np.arange(steps + 1)  # each t_i = dt * i to the bit, as Python's float product
    with np.errstate(under="ignore"):  # E reaches 0 by design once k t passes ~745
        e = (1.0 - config.x0) * _exp(-config.k * t)
        total = config.x0 + e
        x_e, x_a = (e / total).tolist(), (config.x0 / total).tolist()
    # tuple.__new__ builds each namedtuple without a Python-level __new__ call
    return list(map(tuple.__new__, repeat(AtomPairState), zip(t.tolist(), x_e, x_a)))


def logistic_exact(t, k: float, x0: float):
    """Closed-form logistic x(t) = x0 / (x0 + (1 - x0) exp(-k t))."""
    t = np.asarray(t, dtype=float)
    return x0 / (x0 + (1.0 - x0) * np.exp(-k * t))


def dipole_signal(states, omega: float, which: str = "absorber") -> tuple[np.ndarray, np.ndarray]:
    """Oscillating dipole time series dipole(x(t)) * cos(omega t).

    The level populations only set the envelope; the carrier at the beat
    frequency omega is what a field probe would see.  Returns (t, signal).
    """
    if which not in ("emitter", "absorber"):
        raise ValueError("which must be 'emitter' or 'absorber'")
    t = np.array([s.t for s in states])
    x = np.array([s.x_emitter if which == "emitter" else s.x_absorber for s in states])
    x = np.clip(x, 0.0, 1.0)
    return t, np.sqrt(x * (1.0 - x)) * np.cos(omega * t)


def time_to_level(k: float, x0: float, level: float) -> float:
    """When the logistic reaches the given level (ln 99 / k for 0.01 -> 0.5)."""
    if not 0.0 < x0 < level < 1.0:
        raise ValueError("need 0 < x0 < level < 1")
    return math.log(level * (1.0 - x0) / (x0 * (1.0 - level))) / k


def _exp(y: np.ndarray) -> np.ndarray:
    """e**y (y capped at 709) by correctly rounded operations alone, so that, unlike np.exp's,
    its bits do not depend on the CPU: 2**n e**r, r = y - n ln 2, e**r by Horner to degree 13."""
    y = np.minimum(y, 709.0)
    n = np.rint(y * 1.4426950408889634)
    # Cody-Waite: ln 2 split so that n times its high part is exact for |n| < 2**21
    r = (y - n * 6.93147180369123816490e-01) - n * 1.90821492927058770002e-10
    p = np.full_like(r, 1.0 / math.factorial(13))
    for i in range(12, -1, -1):
        p *= r
        p += 1.0 / math.factorial(i)
    return np.ldexp(p, n.astype(np.int64))


# 61 tanh-sinh nodes u and weights w over (0, 1), at step h = 0.1 with s = (pi / 2) sinh(j h):
# u = (1 + tanh s) / 2 and w = (h / 2)(pi / 2) cosh(j h) / cosh(s)**2.  They crowd doubly
# exponentially towards u = 1, just past which t*'s integrand 1 / (1 - S(u tau*)) has its pole
_E = _exp(0.1 * np.arange(-30, 31.0))  # e**(j h)
_E2 = _exp((0.5 * math.pi) * (_E - 1.0 / _E))  # e**(2 s)
_COMPLETION_RULE = list(zip((_E2 / (1.0 + _E2)).tolist(),
                            (0.05 * math.pi * (_E + 1.0 / _E) * _E2 / (1.0 + _E2) ** 2).tolist()))


def compete(k_list, x0_max: float, trials: int, seed: int) -> dict:
    """Race several absorbers for one emitter's quantum, solved exactly.

    Each trial draws every absorber's initial transfer uniformly from
    [0, x0_max] (stream keyed by seed, trial, absorber).  The transfers obey
    dx_i/dt = k_i x_i (1 - sum_j x_j) until their total reaches 0.99; with
    tau = integral of (1 - sum x) dt they decouple, x_i = x_i0 exp(k_i tau).
    The largest x_i0 exp(k_i tau*) wins, where S(tau*) = sum_i x_i0
    exp(k_i tau*) = 0.99, at t* = integral over [0, tau*] of dtau / (1 - S).
    An exact tie goes to the lowest index and is flagged in the trial log; an
    absorber with x0 = 0 (a uniform of exactly 1.0) cannot win, and a trial
    that starts at 0.99 or more completes at t = 0.  A race draws at most
    10**6 transfers, absorbers times trials.
    """
    k = np.asarray(list(k_list), dtype=float)
    if k.ndim != 1 or len(k) < 2:
        raise ValueError("need at least two competing absorbers")
    if np.any(k <= 0):
        raise ValueError("couplings must be positive")
    if not 0.0 < x0_max < 0.5:
        raise ValueError("x0_max must lie in (0, 0.5)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(k) * trials > _MAX_DRAWS:
        draws = f"{len(k)} absorbers x {trials} trials = {len(k) * trials} draws"
        raise ValueError(f"{draws} is over the cap of {_MAX_DRAWS}")

    # absorber-major: row j holds absorber j of every trial; the top 1024 words give u = 1.0
    events = np.arange(trials, dtype=np.uint64)
    x0 = np.array([(1.0 - uniform_block(seed, events, draw_index=j)) * x0_max for j in range(len(k))])

    def total(tau):
        # S(tau) per trial, its rows added in order whatever the block's shape
        terms = x0 * _exp(k[:, None] * tau)
        return sum(terms[1:], terms[0])

    start = total(0.0)
    if not start.all():
        raise RuntimeError("competition failed to complete")
    # S0 exp(k_min tau) <= S(tau) <= S0 exp(k_max tau) brackets tau*
    span = np.array([math.log(max(COMPLETION_LEVEL / s, 1.0)) for s in start.tolist()])
    lo, hi = span / k.max(), span / k.min()
    mid = 0.5 * (lo + hi)
    while ((lo < mid) & (mid < hi)).any():  # bisect down to adjacent floats
        below = total(mid) < COMPLETION_LEVEL
        # mid replaces only an end it differs from, so a closed bracket never moves
        lo, hi = np.where(below & (mid < hi), mid, lo), np.where(~below & (lo < mid), mid, hi)
        mid = 0.5 * (lo + hi)

    final = x0 * _exp(k[:, None] * hi)
    winners = np.argmax(final, axis=0)
    ties = np.count_nonzero(final == final[winners, np.arange(trials)], axis=0) > 1
    # t* = tau* * integral over (0, 1) of du / (1 - S(u tau*)); S held to 0.99 keeps it finite
    t = hi * sum(w / (1.0 - np.minimum(total(u * hi), COMPLETION_LEVEL)) for u, w in _COMPLETION_RULE)

    win_counts = np.bincount(winners, minlength=len(k)).tolist()
    return {
        "win_counts": win_counts,
        "win_fractions": [c / trials for c in win_counts],
        "k_list": [float(v) for v in k],
        "trials": trials,
        "log": [{"trial": i, "winner": w, "t": tw, "tie": tie}
                for i, (w, tw, tie) in enumerate(zip(winners.tolist(), t.tolist(), ties.tolist()))],
    }


@dataclass(frozen=True)
class FieldGrid:
    """Square sampling grid: nx x ny points over [-extent, extent]^2, at most 10**6 of them."""

    nx: int
    ny: int
    extent: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.nx * self.ny > _MAX_GRID_POINTS:
            raise ValueError(f"nx x ny = {self.nx * self.ny} grid points is over the cap of {_MAX_GRID_POINTS}")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.ny)

    @property
    def cell(self) -> float:
        return 2.0 * self.extent / (max(self.nx, self.ny) - 1)


def field_snapshot(
    state: AtomPairState,
    omega: float,
    t: float,
    grid: FieldGrid,
    positions=((-1.0, 0.0), (1.0, 0.0)),
) -> np.ndarray:
    """Superposed retarded dipole waves of the pair on a 2-D grid.

    Each atom radiates dipole(x) * cos(omega (t - r/c)) / r; r clamps at
    half a grid cell so grid points on top of an atom stay finite.
    Positions are (x, y) in meters and must sit at least 4 cells apart.
    """
    (xe, ye), (xa, ya) = positions
    if math.hypot(xa - xe, ya - ye) < 4.0 * grid.cell:
        raise ValueError("atom positions must be at least 4 grid cells apart")
    r_min = 0.5 * grid.cell
    gx, gy = np.meshgrid(grid.xs, grid.ys, indexing="xy")
    out = np.zeros_like(gx)
    for (px, py), x_level in (((xe, ye), state.x_emitter), ((xa, ya), state.x_absorber)):
        r = np.hypot(gx - px, gy - py)
        r = np.maximum(r, r_min)
        out += dipole_amplitude(x_level) * np.cos(omega * (t - r / LIGHT_SPEED)) / r
    return out


@contextmanager
def _csv_writer(dest):
    """csv writer with LF line ends on an open text stream or a new file."""
    if hasattr(dest, "write"):
        yield csv.writer(dest, lineterminator="\n")
        return
    with open(dest, "w", newline="") as fh:
        yield csv.writer(fh, lineterminator="\n")


def write_trajectory_csv(dest, states) -> None:
    """Columns: t, x_emitter, x_absorber, dipole_emitter, dipole_absorber.

    dest is a path or an open text stream.
    """
    with _csv_writer(dest) as writer:
        writer.writerow(["t", "x_emitter", "x_absorber", "dipole_emitter", "dipole_absorber"])
        for s in states:
            writer.writerow(
                [
                    repr(s.t),
                    repr(s.x_emitter),
                    repr(s.x_absorber),
                    repr(dipole_amplitude(min(1.0, max(0.0, s.x_emitter)))),
                    repr(dipole_amplitude(min(1.0, max(0.0, s.x_absorber)))),
                ]
            )


def write_field_csv(dest, field_matrix: np.ndarray, grid: FieldGrid) -> None:
    """One header line (nx, ny, extent), then the field matrix row by row.

    dest is a path or an open text stream.
    """
    with _csv_writer(dest) as writer:
        writer.writerow([grid.nx, grid.ny, repr(grid.extent)])
        for row in np.asarray(field_matrix):
            writer.writerow([repr(float(v)) for v in row])
