"""Stochastic transaction simulator for single-photon optics.

Offer waves propagate forward through an optical network, every absorber
returns a confirmation along the same paths, and exactly one absorber per
emission event wins the transaction with probability equal to its echo
strength.  The package splits into

* wavecore          polarized amplitudes, splitter factors, path phases
* network           directed networks, offer propagation and echoes, event sampling
* experiments       canonical single-photon and two-photon configurations
* mead              coupled-dipole avalanche dynamics of one completed transfer
* cli               command line runner with deterministic serialization
"""

from .mead import (
    AtomPairState,
    AvalancheConfig,
    FieldGrid,
    compete,
    dipole_signal,
    field_snapshot,
    integrate_pair,
    time_to_level,
)
from .network import (
    Element,
    EchoTable,
    OpticalNetwork,
    calibrated,
    network_echo_table,
    replay,
    sample_counts,
    validate,
)
from .rng import uniform_block
from .wavecore import VERTICAL, PolarizedAmplitude, path_phase

__version__ = "0.1.0"

__all__ = [
    "AtomPairState",
    "AvalancheConfig",
    "EchoTable",
    "Element",
    "FieldGrid",
    "OpticalNetwork",
    "PolarizedAmplitude",
    "VERTICAL",
    "calibrated",
    "compete",
    "dipole_signal",
    "field_snapshot",
    "integrate_pair",
    "network_echo_table",
    "path_phase",
    "replay",
    "sample_counts",
    "time_to_level",
    "uniform_block",
    "validate",
]
