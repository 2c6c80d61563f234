"""The library's public surface: the names the command line, the scripts,
the benchmark and the README's library example call, and no others.
A name leaves or joins an __all__ only with this list."""

import pytest

import hqs
import hqs.experiments

PUBLIC = {
    hqs: [
        "AtomPairState", "AvalancheConfig", "EchoTable", "Element", "FieldGrid", "OpticalNetwork",
        "PolarizedAmplitude", "VERTICAL", "calibrated", "compete", "dipole_signal", "field_snapshot",
        "integrate_pair", "network_echo_table", "path_phase", "replay", "sample_counts", "time_to_level",
        "uniform_block", "validate",
    ],
    hqs.experiments: [
        "EXPERIMENTS", "RunResult", "afshar", "bubble_network", "chsh", "chsh_analytic", "epr_table",
        "eraser_scan", "ev_recursive", "fringe_visibility", "hardy_table", "mach_zehnder", "mz_network",
        "slit_network", "x_minus_conditionals",
    ],
}


@pytest.mark.parametrize("module", PUBLIC, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_names_and_each_resolves(module):
    assert module.__all__ == PUBLIC[module]
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert [name for name in PUBLIC[module] if name not in namespace] == []
