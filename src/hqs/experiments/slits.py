"""Two-slit interference, the delayed-choice variant, and wire-grid
interception at the fringe minima.

Geometry is measured in wavelengths: slit separation d, screen distance L,
screen bins spanning +-half_width.  Each slit-to-bin route carries the
phase of its exact slant distance, so analytic minima sit exactly where
the two distances differ by a half-integer number of wavelengths.

The default screen half-width is tuned so that one bin lands exactly on
the first interference minimum (the grid would otherwise straddle the
zeros and clip the analytic visibility below 1).
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.integrate import quad
from scipy.optimize import brentq

from ..network import (
    EchoTable,
    Element,
    OpticalNetwork,
    _screen_bins,
    calibrated,
    network_echo_table,
    sample_counts,
)
from .profiles import IntensityProfile, fringe_visibility

DEFAULT_SLIT_SEPARATION = 20.0
DEFAULT_SCREEN_DISTANCE = 2000.0
DEFAULT_BIN_COUNT = 201
# grid index that is pinned onto the first minimum when half_width is None
_ALIGN_INDEX = 33

DECISION_TIMES = ("before_slits", "after_slits")


def path_difference(x: float, d: float, L: float) -> float:
    """Slant-distance difference between the two slits and screen point x."""
    return math.hypot(L, x + d / 2.0) - math.hypot(L, x - d / 2.0)


@lru_cache(maxsize=None)
def first_minimum_position(d: float, L: float) -> float:
    """Screen coordinate where the path difference is exactly half a wave."""
    upper = L  # the difference approaches d well before x = L
    return brentq(lambda x: path_difference(x, d, L) - 0.5, 0.0, upper, xtol=1e-13)


def default_half_width(d: float = DEFAULT_SLIT_SEPARATION, L: float = DEFAULT_SCREEN_DISTANCE,
                       bin_count: int = DEFAULT_BIN_COUNT) -> float:
    """Half-width that puts grid point _ALIGN_INDEX on the first minimum."""
    half_steps = (bin_count - 1) // 2
    return first_minimum_position(d, L) * half_steps / _ALIGN_INDEX


def slit_network(
    d: float = DEFAULT_SLIT_SEPARATION,
    L: float = DEFAULT_SCREEN_DISTANCE,
    bin_count: int = DEFAULT_BIN_COUNT,
    half_width: float | None = None,
    labeled: bool = False,
    slits: tuple[bool, bool] = (True, True),
) -> OpticalNetwork:
    """Source split over two slit paths feeding one screen.

    The splitter's reflected arm gets a 3/4-wave trim segment so both slits
    launch in phase.  labeled=True puts a half-wave plate at 45 degrees
    behind slit 2, tagging its paths horizontal while slit 1 stays
    vertical.  Closing a slit routes that arm into a blocker instead.
    """
    if bin_count < 3 or bin_count % 2 == 0:
        raise ValueError("bin_count must be odd and >= 3")
    if half_width is None:
        half_width = default_half_width(d, L, bin_count)
    open1, open2 = slits
    if not (open1 or open2):
        raise ValueError("both slits closed")

    elements = [
        Element("src", "source", outputs={"out": "split:a"}),
        # trim the reflected arm's i so the two slits start in phase
        Element("split", "beamsplitter", outputs={"out1": "slit1", "out2": "trim"}),
        Element("trim", "phase_segment", params={"length": 0.75}, outputs={"out": "slit2"}),
        Element(
            "scr",
            "screen",
            params={
                "bin_count": bin_count,
                "half_width": half_width,
                "distance": L,
                "offsets": {"s1": -d / 2.0, "s2": +d / 2.0},
            },
        ),
    ]
    elements.append(
        Element("slit1", "mirror", outputs={"out": "scr:s1" if open1 else "stop1"})
    )
    if not open1:
        elements.append(Element("stop1", "blocker"))
    if labeled and open2:
        elements.append(Element("slit2", "mirror", outputs={"out": "tag2"}))
        elements.append(
            Element("tag2", "halfwave_plate", params={"axis": 45.0},
                    outputs={"out": "scr:s2"})
        )
    else:
        elements.append(
            Element("slit2", "mirror", outputs={"out": "scr:s2" if open2 else "stop2"})
        )
        if not open2:
            elements.append(Element("stop2", "blocker"))
    return calibrated(OpticalNetwork(tuple(elements), "src"))


def _profile_from_table(table: EchoTable, network: OpticalNetwork) -> IntensityProfile:
    scr = network.element("scr")
    centers = tuple(float(c) for c in _screen_bins(scr.params))
    bin_ids = sorted(a for a in table.entries if a.startswith("scr["))
    weights = [table.entries[a] for a in bin_ids]
    total = math.fsum(table.entries.values())
    bins_total = math.fsum(weights)
    # renormalize over the bins when a blocker took part of the light
    probs = tuple(w / bins_total for w in weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError("screen network is not calibrated")
    return IntensityProfile(centers, probs, fringe_visibility(probs))


def two_slit(
    d: float = DEFAULT_SLIT_SEPARATION,
    L: float = DEFAULT_SCREEN_DISTANCE,
    bin_count: int = DEFAULT_BIN_COUNT,
    half_width: float | None = None,
    labeled: bool = False,
    slits: tuple[bool, bool] = (True, True),
) -> IntensityProfile:
    network = slit_network(d, L, bin_count, half_width, labeled, slits)
    return _profile_from_table(network_echo_table(network), network)


def run_two_slit(n: int, seed: int, labeled: bool = False, **geometry):
    """Analytic profile plus a Monte Carlo histogram over the screen bins."""
    network = slit_network(labeled=labeled, **geometry)
    table = network_echo_table(network)
    counts = sample_counts(table, n, seed)
    bin_counts = [counts[a] for a in sorted(c for c in counts if c.startswith("scr["))]
    return _profile_from_table(table, network), bin_counts


def delayed_choice(screen_up: bool, decision_time: str, n: int, seed: int):
    """Same two-slit feed; the screen catches fringes, or drops away to a
    lens that images each slit onto its own detector.

    decision_time records when the screen choice was made relative to the
    photon passing the slits.  It is carried in the run description only;
    no computation reads it, and identical seeds give identical counts.
    """
    if decision_time not in DECISION_TIMES:
        raise ValueError(f"decision_time must be one of {DECISION_TIMES}")
    if screen_up:
        network = slit_network()
        table = network_echo_table(network)
        profile = _profile_from_table(table, network)
        return {"mode": "screen", "profile": profile, "counts": sample_counts(table, n, seed)}
    counts = sample_counts(network_echo_table(_lens_network()), n, seed)
    return {"mode": "image", "profile": None, "counts": counts}


def _lens_network() -> OpticalNetwork:
    # with the screen down, the lens maps slit k onto image point k'
    elements = [
        Element("src", "source", outputs={"out": "split:a"}),
        Element("split", "beamsplitter", outputs={"out1": "slit1", "out2": "trim"}),
        Element("trim", "phase_segment", params={"length": 0.75}, outputs={"out": "slit2"}),
        Element("slit1", "mirror", outputs={"out": "img1"}),
        Element("slit2", "mirror", outputs={"out": "img2"}),
        Element("img1", "detector"),
        Element("img2", "detector"),
    ]
    return OpticalNetwork(tuple(elements), "src")


def afshar(wire_count: int = 6, wire_width: float = 0.06, both_slits: bool = True) -> dict:
    """Fraction of light a wire grid intercepts at the fringe minima.

    Far-field fringe model with period 1: both slits give intensity
    1 + cos(2*pi*x) (minima at half-integer x), one slit gives a flat
    profile.  One wire of width wire_width sits on each minimum; the
    aperture spans wire_count full periods.  With both slits open the grid
    sits in the dark fringes and intercepts ~pi^2 w^3 / 6; with one slit
    the same grid shades exactly its geometric fill fraction.
    """
    if wire_count < 1:
        raise ValueError("wire_count must be >= 1")
    if wire_width <= 0:
        raise ValueError("wire_width must be positive")
    if wire_width >= 1.0:
        raise ValueError("wires overlap: width must be below the fringe period")

    if both_slits:
        intensity = lambda x: 1.0 + math.cos(math.tau * x)
    else:
        intensity = lambda x: 0.5

    total, _ = quad(intensity, 0.0, wire_count, limit=200)
    intercepted = 0.0
    for m in range(wire_count):
        center = m + 0.5
        part, _ = quad(intensity, center - wire_width / 2.0, center + wire_width / 2.0)
        intercepted += part
    return {
        "intercepted_fraction": intercepted / total,
        "wire_count": wire_count,
        "wire_width": wire_width,
        "both_slits": both_slits,
    }
