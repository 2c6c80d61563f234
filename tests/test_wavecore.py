"""Polarized amplitudes, element actions, and the echo rule.

The element operators and the echo of a list of amplitudes are the test-side
references in optics_reference; the conventions they use are hqs.wavecore's.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqs.network import Element, OpticalNetwork, network_echo_table
from hqs.wavecore import REFLECT_FACTOR, TRANSMIT_FACTOR, cos_deg, path_phase, sin_deg
from optics_reference import (
    HORIZONTAL,
    VERTICAL,
    PolarizedAmplitude,
    born_echo,
    polarizer_project,
    polarizer_reject,
    waveplate_apply,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
amplitudes = st.builds(
    lambda a, b, c, d: PolarizedAmplitude(complex(a, b), complex(c, d)),
    finite, finite, finite, finite,
)


def test_exact_trig_on_the_cardinal_grid():
    # these multiples must come out exact, not merely close
    assert cos_deg(90.0) == 0.0
    assert cos_deg(270.0) == 0.0
    assert sin_deg(180.0) == 0.0
    assert sin_deg(45.0) == math.sqrt(0.5)
    assert cos_deg(-45.0) == math.sqrt(0.5)
    assert sin_deg(0.0) == 0.0
    assert cos_deg(360.0 * 1000 + 90.0) == 0.0


def test_trig_agrees_with_stdlib_off_grid():
    for theta in (1.0, 33.3, 61.7, 200.0):
        assert cos_deg(theta) == pytest.approx(math.cos(math.radians(theta)), abs=1e-15)
        assert sin_deg(theta) == pytest.approx(math.sin(math.radians(theta)), abs=1e-15)


def test_amplitude_algebra():
    a = PolarizedAmplitude(1 + 1j, 2.0)
    b = PolarizedAmplitude(0.5, -1j)
    assert (a + b).h == 1.5 + 1j
    assert (a * 2j).v == 4j
    assert a.conj().h == 1 - 1j
    assert a.norm_sq() == pytest.approx(2 + 4)


def test_non_finite_amplitude_rejected():
    with pytest.raises(ValueError):
        PolarizedAmplitude(complex(math.nan, 0), 0)
    with pytest.raises(ValueError):
        PolarizedAmplitude(0, complex(math.inf, 0))


def test_beamsplitter_factor_convention():
    assert TRANSMIT_FACTOR == pytest.approx(math.sqrt(0.5))
    assert REFLECT_FACTOR == pytest.approx(1j * math.sqrt(0.5))
    assert abs(TRANSMIT_FACTOR) ** 2 + abs(REFLECT_FACTOR) ** 2 == pytest.approx(1.0)


@given(amplitudes)
def test_beamsplitter_conserves_intensity(amp):
    t, r = amp * TRANSMIT_FACTOR, amp * REFLECT_FACTOR
    assert t.norm_sq() + r.norm_sq() == pytest.approx(amp.norm_sq(), rel=1e-12, abs=1e-12)


def test_born_echo_is_squared_coherent_sum():
    # oracle: direct numpy evaluation of |sum h|^2 + |sum v|^2
    amps = [PolarizedAmplitude(0.3 + 0.1j, -0.2j), PolarizedAmplitude(-0.1, 0.4 + 0.2j)]
    hs = np.sum([a.h for a in amps])
    vs = np.sum([a.v for a in amps])
    assert born_echo(amps) == pytest.approx(abs(hs) ** 2 + abs(vs) ** 2, rel=1e-14)


def test_born_echo_orthogonal_components_add_without_cross_term():
    # an H path and a V path cannot interfere
    assert born_echo([HORIZONTAL * 0.6, VERTICAL * 0.8]) == pytest.approx(1.0)


def test_born_echo_global_phase_invariance():
    amps = [PolarizedAmplitude(0.5, 0.1j), PolarizedAmplitude(-0.2 + 0.3j, 0.4)]
    base = born_echo(amps)
    for i in range(100):
        phase = cmath.exp(2j * math.pi * i / 100.0)
        rotated = [a * phase for a in amps]
        assert born_echo(rotated) == pytest.approx(base, rel=1e-12)


@given(st.lists(amplitudes, min_size=1, max_size=6), finite, finite)
@settings(max_examples=80)
def test_born_echo_scales_quadratically(amps, re, im):
    c = complex(re, im)
    base = born_echo(amps)
    scaled = born_echo([a * c for a in amps])
    assert scaled == pytest.approx(abs(c) ** 2 * base, rel=1e-9, abs=1e-9)


def test_born_echo_requires_amplitudes():
    with pytest.raises(ValueError, match="no paths"):
        born_echo([])


def test_path_phase_convention():
    assert path_phase(0.0) == 1.0
    assert path_phase(0.25) == pytest.approx(1j)
    assert path_phase(0.5) == pytest.approx(-1.0)
    assert abs(path_phase(0.123456)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        path_phase(-0.1)


def test_path_phase_periodic_and_precise_for_long_paths():
    # the mod-1 reduction keeps precision at millions of wavelengths
    assert path_phase(1_000_000.25) == pytest.approx(1j, abs=1e-9)
    assert path_phase(3.75) == pytest.approx(path_phase(0.75), abs=1e-12)


@given(amplitudes, st.floats(min_value=-360, max_value=360, allow_nan=False))
@settings(max_examples=80)
def test_polarizer_splits_intensity(amp, axis):
    kept = polarizer_project(amp, axis)
    lost = polarizer_reject(amp, axis)
    assert kept.norm_sq() + lost.norm_sq() == pytest.approx(amp.norm_sq(), rel=1e-9, abs=1e-12)


def test_polarizer_projection_idempotent():
    amp = PolarizedAmplitude(0.3 + 0.2j, 0.7)
    once = polarizer_project(amp, 30.0)
    twice = polarizer_project(once, 30.0)
    assert twice.h == pytest.approx(once.h)
    assert twice.v == pytest.approx(once.v)


def test_polarizer_at_45_on_vertical_passes_half():
    kept = polarizer_project(VERTICAL, 45.0)
    assert kept.norm_sq() == pytest.approx(0.5)


def test_half_wave_plate_mappings():
    # at 45 degrees the plate exchanges H and V
    swapped = waveplate_apply(VERTICAL, 45.0)
    assert swapped.h == pytest.approx(1.0)
    assert swapped.v == pytest.approx(0.0)
    # at 22.5 degrees V goes to the diagonal
    diag = waveplate_apply(VERTICAL, 22.5)
    assert diag.norm_sq() == pytest.approx(1.0)
    assert abs(diag.h) == pytest.approx(math.sqrt(0.5))


def test_double_passed_quarter_wave_acts_as_half_wave():
    def plate_network(kind):
        return OpticalNetwork(
            (
                Element("L", "source", outputs={"out": "W"}),
                Element("W", kind, {"axis": 10.0}, {"out": "P"}),
                Element("P", "polarizer", {"axis": 30.0}, {"out": "D"}),
                Element("D", "detector"),
            ),
            "L",
            PolarizedAmplitude(0.6, 0.8j),
        )

    half = network_echo_table(plate_network("halfwave_plate")).entries
    assert network_echo_table(plate_network("quarterwave_double")).entries == half
    assert 0.0 < half["D"] < 1.0


@given(amplitudes, st.floats(min_value=-180, max_value=180, allow_nan=False))
@settings(max_examples=80)
def test_waveplates_conserve_intensity(amp, theta):
    out = waveplate_apply(amp, theta)
    assert out.norm_sq() == pytest.approx(amp.norm_sq(), rel=1e-9, abs=1e-12)

