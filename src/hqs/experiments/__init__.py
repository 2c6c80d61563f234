"""Canned single-photon and two-particle experiments."""

from .bubble import bubble_network, einstein_bubble
from .entangled import (
    CHSH_ANGLES,
    chsh,
    chsh_analytic,
    correlation,
    epr_table,
    p_different,
    run_epr,
)
from .eraser import eraser_rates, eraser_scan, eraser_visibility
from .hardy import hardy_table, run_hardy, x_minus_conditionals
from .interferometer import ev_recursive, mach_zehnder, mz_network, run_mach_zehnder
from .profiles import IntensityProfile, fringe_visibility
from .registry import EXPERIMENTS, RunResult
from .slits import (
    afshar,
    default_half_width,
    delayed_choice,
    first_minimum_position,
    path_difference,
    run_two_slit,
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
    "delayed_choice",
    "einstein_bubble",
    "epr_table",
    "eraser_rates",
    "eraser_scan",
    "eraser_visibility",
    "ev_recursive",
    "first_minimum_position",
    "fringe_visibility",
    "hardy_table",
    "mach_zehnder",
    "mz_network",
    "p_different",
    "path_difference",
    "run_epr",
    "run_hardy",
    "run_mach_zehnder",
    "run_two_slit",
    "slit_network",
    "two_slit",
    "x_minus_conditionals",
]
