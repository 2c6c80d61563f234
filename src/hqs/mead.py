"""Coupled two-level dipoles and the avalanche that completes a transaction.

An emitter and an absorber in superposed states both carry an oscillating
dipole at the shared beat frequency omega = (e1 - e0) * q_e / hbar.  Their
mutual coupling transfers excitation at a rate proportional to the product
of the two dipole moments sqrt(x(1-x)), which for a lossless pair reduces
to logistic growth: tiny transfers self-amplify, saturate, and leave the
emitter empty and the absorber full.  Competing absorbers share the one
emitter; whoever dominates when the quantum has fully drained wins the
event.

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


# one point of a pair's trajectory; a tuple, since integrate_pair builds one per step
AtomPairState = namedtuple("AtomPairState", "t x_emitter x_absorber")


@dataclass(frozen=True)
class AvalancheConfig:
    """Fixed-step RK4 setup for one emitter-absorber pair.

    k defaults to 1, x0 to 0.01, t_end to 20/k and dt to 0.005/k.  dt
    must respect the coupling scale (0.02/k) and, when a beat frequency
    omega is given for signal reconstruction, 1/40 of its period.  x0 is
    the whole initial transfer.
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
        bound = self.stability_bound
        if not 0.0 < self.dt <= bound * (1.0 + 1e-12):
            raise ValueError(f"dt must lie in (0, {bound:.6g}] for stability")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("t_end / dt must be a finite number of steps")

    @property
    def stability_bound(self) -> float:
        bound = 0.02 / self.k
        if self.omega is not None:
            bound = min(bound, (2.0 * math.pi / self.omega) / 40.0)
        return bound


def _clip(x: float) -> float:
    return min(1.0, max(0.0, x))


def integrate_pair(config: AvalancheConfig) -> list[AtomPairState]:
    """Fixed-step RK4 trajectory of (x_emitter, x_absorber).

    The pair shares a single quantum, so x_emitter + x_absorber stays at 1
    to rounding; both components are integrated independently and the sum
    is a real conservation check, not an identity.
    """
    steps = int(round(config.t_end / config.dt))
    k, h = config.k, config.dt
    half, sixth = 0.5 * h, h / 6.0
    sqrt = math.sqrt
    x_e, x_a = 1.0 - config.x0, config.x0
    xs_e, xs_a = [x_e], [x_a]

    # Each stage's transfer rate is k * dipole(x_e) * dipole(x_a) with both
    # levels clipped to [0, 1] (for x_e = 1 - x_a this is exactly logistic
    # growth of x_a); the emitter loses what the absorber gains, so its
    # slopes are the negated rates.  The clip and dipole are written out
    # inline: this loop is the hot path of every avalanche.
    for _ in range(steps):
        c_e = x_e if 0.0 < x_e < 1.0 else (1.0 if x_e >= 1.0 else 0.0)
        c_a = x_a if 0.0 < x_a < 1.0 else (1.0 if x_a >= 1.0 else 0.0)
        r1 = k * sqrt(c_e * (1.0 - c_e)) * sqrt(c_a * (1.0 - c_a))
        y_e, y_a = x_e - half * r1, x_a + half * r1
        c_e = y_e if 0.0 < y_e < 1.0 else (1.0 if y_e >= 1.0 else 0.0)
        c_a = y_a if 0.0 < y_a < 1.0 else (1.0 if y_a >= 1.0 else 0.0)
        r2 = k * sqrt(c_e * (1.0 - c_e)) * sqrt(c_a * (1.0 - c_a))
        y_e, y_a = x_e - half * r2, x_a + half * r2
        c_e = y_e if 0.0 < y_e < 1.0 else (1.0 if y_e >= 1.0 else 0.0)
        c_a = y_a if 0.0 < y_a < 1.0 else (1.0 if y_a >= 1.0 else 0.0)
        r3 = k * sqrt(c_e * (1.0 - c_e)) * sqrt(c_a * (1.0 - c_a))
        y_e, y_a = x_e - h * r3, x_a + h * r3
        c_e = y_e if 0.0 < y_e < 1.0 else (1.0 if y_e >= 1.0 else 0.0)
        c_a = y_a if 0.0 < y_a < 1.0 else (1.0 if y_a >= 1.0 else 0.0)
        r4 = k * sqrt(c_e * (1.0 - c_e)) * sqrt(c_a * (1.0 - c_a))
        slope = r1 + 2.0 * r2 + 2.0 * r3 + r4
        x_e -= sixth * slope
        x_a += sixth * slope
        xs_e.append(x_e)
        xs_a.append(x_a)
    # tuple.__new__ builds each namedtuple without a Python-level __new__ call; t = h * i
    times = map(h.__mul__, range(steps + 1))
    return list(map(tuple.__new__, repeat(AtomPairState), zip(times, xs_e, xs_a)))


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


def _absorber_total(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-trial sum over the absorber rows of an absorber-major block.

    Adds the rows in the order numpy's pairwise summation adds the entries
    of one contiguous row: left to right below 8 terms, eight interleaved
    partial sums up to 128, halves split at a multiple of 8 beyond.  The
    total is therefore bit-identical to summing each trial's absorbers in a
    trial-major array, at the cost of whole-row adds.  It is written into
    out when one is given (which must not overlap x).
    """
    n = len(x)
    if n < 8:
        total = np.add(x[0], x[1], out=out)
        for row in x[2:]:
            total += row
        return total
    if n <= 128:
        tail = n - n % 8
        acc = x[:8].copy()
        for i in range(8, tail, 8):
            acc += x[i:i + 8]
        total = np.add((acc[0] + acc[1]) + (acc[2] + acc[3]), (acc[4] + acc[5]) + (acc[6] + acc[7]), out=out)
        for row in x[tail:]:
            total += row
        return total
    half = n // 2 - (n // 2) % 8
    return np.add(_absorber_total(x[:half]), _absorber_total(x[half:]), out=out)


def compete(k_list, x0_max: float, trials: int, seed: int, dt: float | None = None) -> dict:
    """Race several absorbers for one emitter's quantum.

    Each trial draws every absorber's initial transfer uniformly from
    [0, x0_max] (stream keyed by seed, trial, absorber) and integrates
    dx_i/dt = k_i x_i (1 - sum_j x_j) with fixed-step RK4 until the
    emitter has drained (total transfer reaches 0.99).  A uniform of
    exactly 1.0 gives x0 = 0, and that absorber cannot win.  The leading
    absorber at that step wins; an exact tie goes to the lowest index and
    is flagged in the trial log.

    The trials advance together as one absorber-major block, stepped in
    place through stage buffers reused every step.  A finished trial's
    column is zeroed, and dropped once half the block has finished; every
    rounding is the per-trial formula's, so trial i depends on (seed, i) alone.
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
    if dt is None:
        dt = 0.02 / float(k.max())
    elif not 0.0 < dt <= 0.02 / float(k.max()) * (1.0 + 1e-12):
        raise ValueError("dt violates the stability bound")

    n_abs = len(k)
    # absorber-major: row j holds absorber j of every trial.
    # x0 = (1 - u) x0_max: the top 1024 words give u = 1.0 and x0 = 0, which never grows
    x = np.empty((n_abs, trials))
    for j in range(n_abs):
        u = uniform_block(seed, np.arange(trials, dtype=np.uint64), draw_index=j)
        x[j] = (1.0 - u) * x0_max

    winners = np.full(trials, -1, dtype=np.int64)
    win_time = np.zeros(trials)
    ties = np.zeros(trials, dtype=bool)
    t = 0.0
    max_steps = int(math.ceil(60.0 / (float(k.min()) * dt)))
    half, sixth = 0.5 * dt, dt / 6.0

    def buffers(m):
        # k1..k4, the stage state, 1 - total and k as a whole block (faster than a column)
        return (*np.empty((5, n_abs, m)), np.empty(m), np.repeat(k[:, None], m, axis=1))

    def rate(out, state):
        # k_i * state * (1 - total), rounded in that order, into out
        np.subtract(1.0, total, out=one_minus)
        np.multiply(k_block, state, out=out)
        out *= one_minus

    # A finished column is recorded once and zeroed: it stays 0 and never
    # reaches the completion level again.  live still marks the unfinished
    # columns, since a trial whose every x0 is 0 never finishes and must fail.
    cols = np.arange(trials)
    live = np.ones(trials, dtype=bool)
    n_live = trials
    total = _absorber_total(x)
    k1, k2, k3, k4, s, one_minus, k_block = buffers(trials)
    for _ in range(max_steps):
        rate(k1, x)
        for k_prev, k_next, c in ((k1, k2, half), (k2, k3, half), (k3, k4, dt)):
            np.multiply(k_prev, c, out=s)
            s += x
            _absorber_total(s, total)
            rate(k_next, s)
        # x += (dt / 6) * (((k1 + 2 k2) + 2 k3) + k4), one rounding at a time
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= sixth
        x += k2
        _absorber_total(x, total)
        t += dt
        if total.max() < COMPLETION_LEVEL:
            continue
        j = np.flatnonzero(total >= COMPLETION_LEVEL)
        finished = x[:, j]
        lead = np.argmax(finished, axis=0)
        best = finished[lead, np.arange(len(j))]
        trial = cols[j]
        winners[trial] = lead
        win_time[trial] = t
        # a tie means some other absorber matches the leader exactly
        ties[trial] = np.count_nonzero(finished == best, axis=0) > 1
        x[:, j] = 0.0
        live[j] = False
        n_live -= len(j)
        if n_live == 0:
            break
        if 2 * n_live < len(cols):
            x, total, cols = x[:, live], total[live], cols[live]
            live = np.ones(n_live, dtype=bool)
            k1, k2, k3, k4, s, one_minus, k_block = buffers(n_live)
    if n_live:
        raise RuntimeError("competition failed to complete; raise t cap")

    win_counts = np.bincount(winners, minlength=n_abs).tolist()
    log = [
        {"trial": i, "winner": w, "t": tw, "tie": tie}
        for i, (w, tw, tie) in enumerate(zip(winners.tolist(), win_time.tolist(), ties.tolist()))
    ]
    return {
        "win_counts": win_counts,
        "win_fractions": [c / trials for c in win_counts],
        "k_list": [float(v) for v in k],
        "trials": trials,
        "log": log,
    }


@dataclass(frozen=True)
class FieldGrid:
    """Square sampling grid: nx x ny points over [-extent, extent]^2."""

    nx: int
    ny: int
    extent: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 points per axis")
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
                    repr(dipole_amplitude(_clip(s.x_emitter))),
                    repr(dipole_amplitude(_clip(s.x_absorber))),
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
