"""Canned single-photon and two-particle experiments."""

from .bubble import bubble_network
from .entangled import chsh, chsh_analytic, epr_table
from .eraser import eraser_scan
from .hardy import hardy_table, x_minus_conditionals
from .interferometer import ev_recursive, mach_zehnder, mz_network
from .profiles import fringe_visibility
from .registry import EXPERIMENTS, RunResult
from .slits import afshar, slit_network

__all__ = [
    "EXPERIMENTS",
    "RunResult",
    "afshar",
    "bubble_network",
    "chsh",
    "chsh_analytic",
    "epr_table",
    "eraser_scan",
    "ev_recursive",
    "fringe_visibility",
    "hardy_table",
    "mach_zehnder",
    "mz_network",
    "slit_network",
    "x_minus_conditionals",
]
