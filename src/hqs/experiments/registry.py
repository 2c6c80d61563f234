"""Uniform runner registry: every experiment exposes a parameter schema,
an analytic outcome table, and an optional Monte Carlo tally."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..network import network_echo_table, sample_counts
from . import bubble, entangled, eraser, hardy, interferometer, slits


@dataclass(frozen=True)
class Param:
    """One config field of JSON type kind; a shape makes it nested arrays
    of kind, one length per level (None: any).  A None default marks a
    field that is optional or derived from the others."""

    kind: type
    default: object
    help: str
    shape: tuple = ()


@dataclass(frozen=True)
class RunResult:
    """analytic maps outcome -> probability; counts are the sampled tallies
    (None for analytic-only runs); extras hold scalar diagnostics; curve is
    an optional set of parallel columns for scans and profiles."""

    analytic: dict
    counts: dict | None = None
    n: int | None = None
    extras: dict = field(default_factory=dict)
    curve: dict | None = None


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    params: dict
    run: callable


def _sampled(table, n, seed, extras=None, curve=None):
    """The one sampled path: the analytic values are the table the counts
    are drawn from, in analytic-only and sampled runs alike.  extras and
    curve are kept as given, so a runner adds its sampled diagnostics to
    them after the draw."""
    counts = sample_counts(table, n, seed) if n else None
    return RunResult(dict(table.entries), counts, n, {} if extras is None else extras, curve)


def _run_mz(p, n, seed):
    return _sampled(interferometer.mach_zehnder(p["blocked"]), n, seed)


def _run_ev(p, n, seed):
    analytic = {"detected_at_d2": 1.0 / 3.0, "absorbed": 2.0 / 3.0}
    extras = {"mean_photons_per_trial_exact": 4.0 / 3.0}
    counts = None
    if n:
        result = interferometer.ev_recursive(n, seed)
        counts = {
            "detected_at_d2": result["detected_count"],
            "absorbed": result["absorbed_count"],
        }
        extras["mean_photons_per_trial"] = result["mean_photons_per_trial"]
    return RunResult(analytic, counts, n, extras)


def _run_bubble(p, n, seed):
    return _sampled(network_echo_table(bubble.bubble_network(p["n_detectors"])), n, seed)


def _slit_geometry(p):
    half_width = p["half_width"] if p["half_width"] > 0 else None
    return dict(d=p["d"], L=p["L"], bin_count=p["bin_count"], half_width=half_width)


def _run_two_slit(p, n, seed):
    geom = _slit_geometry(p)
    network = slits.slit_network(labeled=p["labeled"], **geom)
    table = network_echo_table(network)
    profile = slits._profile_from_table(table, network)
    curve = {
        "bin_center": list(profile.bin_centers),
        "probability": list(profile.probabilities),
    }
    result = _sampled(table, n, seed, {"visibility": profile.visibility}, curve)
    if result.counts:
        curve["count"] = [result.counts[a] for a in sorted(result.counts)]
    return result


def _run_delayed_choice(p, n, seed):
    """Same two-slit feed; the screen catches fringes, or drops away to a
    lens that images each slit onto its own detector.

    decision_time records when the screen choice was made relative to the
    photon passing the slits.  It is checked and echoed in the run's spec
    only; no computation reads it, and identical seeds give identical counts.
    """
    if p["decision_time"] not in slits.DECISION_TIMES:
        raise ValueError(f"decision_time must be one of {slits.DECISION_TIMES}")
    if not p["screen_up"]:
        return _sampled(network_echo_table(slits._lens_network()), n, seed)
    network = slits.slit_network()
    table = network_echo_table(network)
    return _sampled(table, n, seed, {"visibility": slits._profile_from_table(table, network).visibility})


def _run_afshar(p, n, seed):
    res = slits.afshar(p["wire_count"], p["wire_width"], p["both_slits"])
    return RunResult({"intercepted_fraction": res["intercepted_fraction"]})


def _epr_angles(p):
    if p["delta"] is not None:
        return p["delta"], 0.0
    return p["theta_l"], p["theta_r"]


def _run_epr(p, n, seed):
    table = entangled.epr_table(*_epr_angles(p))
    t = table.entries
    extras = {"p_same_exact": t["HH"] + t["VV"], "p_different_exact": t["HV"] + t["VH"]}
    result = _sampled(table, n, seed, extras)
    if n:
        counts = result.counts
        extras["p_same"] = (counts["HH"] + counts["VV"]) / n
        extras["p_different"] = (counts["HV"] + counts["VH"]) / n
    return result


def _run_chsh(p, n, seed):
    extras = {"S_exact": entangled.chsh_analytic()}
    if n:
        res = entangled.chsh(n, seed)
        extras.update({"S": res["S"], "stderr": res["stderr"], **res["per_setting"]})
    return RunResult({}, None, n, extras)


def _run_hardy(p, n, seed):
    table = hardy.hardy_table()
    exact = hardy.x_minus_conditionals(table)
    extras = dict(p_x_minus_given_d1_exact=exact["D1"], p_x_minus_given_d2_exact=exact["D2"])
    result = _sampled(table, n, seed, extras)
    if n:
        counts = result.counts
        d1 = counts["D1.x+"] + counts["D1.x-"]
        d2 = counts["D2.x+"] + counts["D2.x-"]
        if d1:
            extras["p_x_minus_given_d1"] = counts["D1.x-"] / d1
        if d2:
            extras["p_x_minus_given_d2"] = counts["D2.x-"] / d2
    return result


def _run_eraser(p, n, seed):
    scan = eraser.eraser_scan(
        p["qwp_in"],
        p["eraser_in"],
        eraser.default_phase_scan(p["points"]),
        n if n else None,
        seed,
    )
    curve = {"phase": list(scan["phases"]), "rate_exact": list(scan["analytic"])}
    if scan["empirical"] is not None:
        curve["rate"] = list(scan["empirical"])
    return RunResult({}, None, n, {"visibility": scan["visibility"]}, curve)


EXPERIMENTS = {
    "mz": Experiment(
        "mz",
        "Balanced Mach-Zehnder: all light reaches D1, or a blocker on path A "
        "restores 25/25/50 splitting",
        {"blocked": Param(bool, False, "park an opaque object on path A")},
        _run_mz,
    ),
    "ev": Experiment(
        "ev",
        "Interaction-free object detection by repeated blocked-MZ shots "
        "(1/3 certified, 2/3 absorbed, 4/3 photons per trial)",
        {},
        _run_ev,
    ),
    "bubble": Experiment(
        "bubble",
        "Isotropic offer wave over a detector ring; one uniform collapse per event",
        {"n_detectors": Param(int, bubble.DEFAULT_DETECTORS, "ring resolution")},
        _run_bubble,
    ),
    "two_slit": Experiment(
        "two_slit",
        "Two-slit fringe profile; polarization labeling kills the visibility",
        {
            "labeled": Param(bool, False, "tag slit 2 horizontal with a half-wave plate"),
            "d": Param(float, slits.DEFAULT_SLIT_SEPARATION, "slit separation (wavelengths)"),
            "L": Param(float, slits.DEFAULT_SCREEN_DISTANCE, "screen distance (wavelengths)"),
            "bin_count": Param(int, slits.DEFAULT_BIN_COUNT, "odd screen bin count"),
            "half_width": Param(float, 0.0, "screen half-width; 0 aligns a bin to the first minimum"),
        },
        _run_two_slit,
    ),
    "delayed_choice": Experiment(
        "delayed_choice",
        "Screen up shows fringes, screen down images the slits; when the "
        "choice happens never matters",
        {
            "screen_up": Param(bool, True, "catch fringes instead of imaging the slits"),
            "decision_time": Param(str, "before_slits", "before_slits or after_slits; label only"),
        },
        _run_delayed_choice,
    ),
    "afshar": Experiment(
        "afshar",
        "Wire grid on the fringe minima: both slits open intercepts ~0.04%, "
        "one slit intercepts its 6% fill",
        {
            "wire_count": Param(int, 6, "wires, one per minimum"),
            "wire_width": Param(float, 0.06, "wire width in fringe periods"),
            "both_slits": Param(bool, True, "leave both slits open"),
        },
        _run_afshar,
    ),
    "epr": Experiment(
        "epr",
        "Entangled pair against two analyzers; P(different) grows as sin^2 "
        "of the analyzer mismatch",
        {
            "theta_l": Param(float, 0.0, "left analyzer angle (degrees)"),
            "theta_r": Param(float, 0.0, "right analyzer angle (degrees)"),
            "delta": Param(float, None, "shorthand: left = delta, right = 0"),
        },
        _run_epr,
    ),
    "chsh": Experiment(
        "chsh",
        "CHSH sum at the standard angles; quantum value 2*sqrt(2) beats the "
        "classical bound 2",
        {},
        _run_chsh,
    ),
    "hardy": Experiment(
        "hardy",
        "Interaction-free measurement against a superposed blocker; dark-port "
        "clicks certify the blocking box",
        {},
        _run_hardy,
    ),
    "eraser": Experiment(
        "eraser",
        "Two production histories with a polarization marker; a 45-degree "
        "filter before the idler restores fringes at half rate",
        {
            "qwp_in": Param(bool, False, "flip the first-pass idler to horizontal"),
            "eraser_in": Param(bool, False, "45-degree filter before the idler detector"),
            "delayed": Param(bool, False, "erase after the signal is detected; label only"),
            "points": Param(int, 32, "phase-scan points over one turn"),
        },
        _run_eraser,
    ),
}
