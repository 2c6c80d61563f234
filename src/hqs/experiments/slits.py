"""Two-slit interference, the lens that images the slits when the
delayed-choice screen drops away, and wire-grid interception at the
fringe minima.

Geometry is measured in wavelengths: slit separation d, screen distance L,
screen bins spanning +-half_width.  Each slit-to-bin route carries the
phase of its exact slant distance, so analytic minima sit exactly where
the two distances differ by a half-integer number of wavelengths.

The default screen half-width is tuned so that one bin lands exactly on
the first interference minimum (the grid would otherwise straddle the
zeros and clip the analytic visibility below 1).  That minimum has a
closed form: the screen points half a wave out of step lie on the
hyperbola with the two slits as foci and semi-major axis a = 1/4, so with
b^2 = (d/2)^2 - a^2 the first one sits at x1 = a * sqrt(1 + L^2 / b^2).

The wire-grid interception is closed-form too: over one fringe period
1 + cos(2 pi x) integrates to 1, and over a wire of width w centred on a
minimum to w - sin(pi w) / pi.
"""

from __future__ import annotations

import math

from ..network import (
    EchoTable,
    Element,
    OpticalNetwork,
    _screen_bins,
    calibrated,
    network_echo_table,
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


def first_minimum_position(d: float, L: float) -> float:
    """Screen coordinate where the path difference is exactly half a wave.

    Those points lie on the hyperbola |r1 - r2| = 2a with a = 1/4 and foci
    at the slits (+-d/2); with b^2 = (d/2)^2 - a^2 it meets the screen at
    x = a * sqrt(1 + L^2 / b^2).  Slits at most half a wave apart
    (d <= 0.5) never reach half a wave of difference, so there is no
    minimum and ValueError is raised.
    """
    if not d > 0.5:
        raise ValueError(
            f"d={d!r} has no first minimum: the slits must be more than half "
            "a wave apart (d > 0.5); give half_width to size the screen"
        )
    a = 0.25
    b2 = (d / 2.0) ** 2 - a * a
    return a * math.sqrt(1.0 + L * L / b2)


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
    profile.  One wire of width w = wire_width sits on each minimum; the
    aperture spans wire_count full periods.  Each period carries 1 of
    intensity and each wire w - sin(pi w) / pi of it, so with both slits
    open the grid sits in the dark fringes and intercepts
    w - sin(pi w) / pi ~ pi^2 w^3 / 6; with one slit the same grid shades
    exactly its geometric fill fraction w.
    """
    if wire_count < 1:
        raise ValueError("wire_count must be >= 1")
    if wire_width <= 0:
        raise ValueError("wire_width must be positive")
    if wire_width >= 1.0:
        raise ValueError("wires overlap: width must be below the fringe period")

    if both_slits:
        fraction = wire_width - math.sin(math.pi * wire_width) / math.pi
    else:
        fraction = wire_width
    return {
        "intercepted_fraction": fraction,
        "wire_count": wire_count,
        "wire_width": wire_width,
        "both_slits": both_slits,
    }
