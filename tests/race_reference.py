"""The avalanche race integrated as the ODE it is, one trial at a time.

Not a test module: tests import it as the reference that mead.compete's
closed form must agree with.  A trial's initial transfers come from
scalar_reference's draws; race integrates dx_i/dt = k_i x_i (1 - sum x)
in t with scipy's DOP853 and stops at the event sum x = 0.99.
completion_time takes t* = integral over [0, tau*] of dtau / (1 - S(tau)),
S(tau) = sum_i x_i0 exp(k_i tau), by scipy's adaptive quad.  pair integrates
one emitter-absorber pair, the ODE whose closed form mead.integrate_pair
evaluates.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from scalar_reference import uniform01

LEVEL = 0.99


def initial_transfers(seed: int, trial: int, n_absorbers: int, x0_max: float) -> np.ndarray:
    """x0 of one trial: (1 - u) x0_max, u keyed by (seed, trial, absorber)."""
    return np.array([(1.0 - uniform01(seed, trial, j)) * x0_max for j in range(n_absorbers)])


def race(k, x0) -> tuple[np.ndarray, float]:
    """The transfers at completion and the completion time t of one trial."""
    k = np.asarray(k, dtype=float)

    def drained(t, x):
        return x.sum() - LEVEL

    drained.terminal, drained.direction = True, 1
    # S0 exp(k_min tau) <= S and dt = dtau / (1 - S) <= dtau / (1 - LEVEL) bound t*
    t_cap = 2.0 * math.log(LEVEL / x0.sum()) / k.min() / (1.0 - LEVEL)
    sol = solve_ivp(lambda t, x: k * x * (1.0 - x.sum()), (0.0, t_cap), x0, method="DOP853",
                    rtol=1e-12, atol=1e-16, events=drained)
    return sol.y_events[0][0], float(sol.t_events[0][0])


def completion_time(k, x0) -> float:
    """t* = integral over [0, tau*] of dtau / (1 - S(tau)), with S(tau*) = 0.99."""
    def total(tau):
        return math.fsum(x * math.exp(r * tau) for r, x in zip(k, x0) if x)

    tau_star = brentq(lambda tau: total(tau) - LEVEL, 0.0, 1.01 * math.log(LEVEL / sum(x0)) / min(k), xtol=1e-15)
    return quad(lambda tau: 1.0 / (1.0 - total(tau)), 0.0, tau_star, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def pair(k: float, x0: float, t_end: float, dt: float) -> np.ndarray:
    """Rows x_emitter, x_absorber of one lossless pair at t = dt * i, i = 0 .. round(t_end / dt).

    dx_a/dt = k sqrt(x_e (1 - x_e)) sqrt(x_a (1 - x_a)) and dx_e/dt = -dx_a/dt, each level
    clipped to [0, 1] inside the rate; x_e starts at 1 - x0 and is integrated on its own,
    not taken as 1 - x_a.
    """
    t = dt * np.arange(round(t_end / dt) + 1)

    def rate(_, x):
        e, a = np.clip(x, 0.0, 1.0)
        r = k * math.sqrt(e * (1.0 - e)) * math.sqrt(a * (1.0 - a))
        return [-r, r]

    return solve_ivp(rate, (0.0, t[-1]), [1.0 - x0, x0], method="DOP853", t_eval=t, rtol=1e-12, atol=1e-16).y
