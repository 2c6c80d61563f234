"""Canned single-photon and two-particle experiments."""

from .bubble import bubble_network
from .entangled import (
    CHSH_ANGLES,
    chsh,
    chsh_analytic,
    correlation,
    epr_table,
    p_different,
)
from .eraser import eraser_rates, eraser_scan
from .hardy import hardy_table, x_minus_conditionals
from .interferometer import ev_recursive, mach_zehnder, mz_network
from .profiles import IntensityProfile, fringe_visibility
from .registry import EXPERIMENTS, RunResult
from .slits import (
    afshar,
    default_half_width,
    first_minimum_position,
    path_difference,
    slit_network,
    two_slit,
)

__all__ = [
    "CHSH_ANGLES",
    "EXPERIMENTS",
    "IntensityProfile",
    "RunResult",
    "afshar",
    "bubble_network",
    "chsh",
    "chsh_analytic",
    "correlation",
    "default_half_width",
    "epr_table",
    "eraser_rates",
    "eraser_scan",
    "ev_recursive",
    "first_minimum_position",
    "fringe_visibility",
    "hardy_table",
    "mach_zehnder",
    "mz_network",
    "p_different",
    "path_difference",
    "slit_network",
    "two_slit",
    "x_minus_conditionals",
]
