"""Acceptance gate: thirteen end-to-end checks at fixed tolerances.

Each test prints one PASS line with the measured numbers when it
succeeds; a failure reads out the same numbers through the assertion.
"""

import math
import os
import subprocess
import sys

import numpy as np
from scipy import stats

from hqs.experiments import (
    EXPERIMENTS,
    afshar,
    chsh,
    epr_table,
    ev_recursive,
    mach_zehnder,
)
from hqs.experiments.slits import path_difference, two_slit
from hqs import mead
from hqs.network import sample_counts


def test_criterion_01_open_interferometer_dark_port_stays_dark():
    table = mach_zehnder(blocked=False)
    assert abs(table.entries["D1"] - 1.0) < 1e-9
    assert table.entries["D2"] == 0.0
    counts = EXPERIMENTS["mz"].run({"blocked": False}, 100_000, 101).counts
    assert counts["D2"] == 0
    print(f"\nPASS 1: open interferometer analytic D1={table.entries['D1']:.12f}, "
          f"D2={table.entries['D2']}, sampled D2 clicks = {counts['D2']}/100000")


def test_criterion_02_blocked_interferometer_splits_quarter_quarter_half():
    n = 100_000
    result = EXPERIMENTS["mz"].run({"blocked": True}, n, 102)
    counts = result.counts
    freqs = {}
    for name, p in (("D1", 0.25), ("D2", 0.25), ("Obj", 0.5)):
        assert abs(result.analytic[name] - p) < 1e-9
        bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
        freqs[name] = counts[name] / n
        assert abs(freqs[name] - p) <= bound, (name, freqs[name], bound)
    print(f"\nPASS 2: blocked interferometer frequencies "
          f"D1={freqs['D1']:.4f}, D2={freqs['D2']:.4f}, Obj={freqs['Obj']:.4f} "
          f"all within 4-sigma of (0.25, 0.25, 0.50)")


def test_criterion_03_interaction_free_detection_rates():
    out = ev_recursive(100_000, seed=103)
    assert abs(out["detected_at_d2"] - 1.0 / 3.0) <= 0.012
    assert abs(out["mean_photons_per_trial"] - 4.0 / 3.0) <= 0.01
    print(f"\nPASS 3: detected-at-D2 fraction = {out['detected_at_d2']:.4f} (1/3 +- 0.012), "
          f"mean photons/trial = {out['mean_photons_per_trial']:.4f} (4/3 +- 0.01)")


def test_criterion_04_isotropic_collapse_lands_once_and_uniformly():
    n = 100_000
    result = EXPERIMENTS["bubble"].run({"n_detectors": 64}, n, 104)
    total = sum(result.counts.values())
    assert total == n  # exactly one detection per event
    observed = [result.counts[name] for name in sorted(result.analytic)]
    chi2, p = stats.chisquare(observed)
    assert p > 1e-3, (chi2, p)
    print(f"\nPASS 4: one detection per event ({total}/{n}), 64-detector uniformity "
          f"chi2 = {chi2:.1f}, p = {p:.3f} > 0.001")


def test_criterion_05_fringe_visibility_and_histogram():
    profile = two_slit()
    assert profile.visibility >= 1.0 - 1e-9
    labeled = two_slit(labeled=True)
    assert labeled.visibility <= 1e-9
    # every interior analytic minimum sits at a half-integer path difference
    probs = np.array(profile.probabilities)
    centers = np.array(profile.bin_centers)
    interior = (probs[1:-1] < probs[:-2]) & (probs[1:-1] < probs[2:])
    for x in centers[1:-1][interior]:
        frac = path_difference(float(x), 20.0, 2000.0) % 1.0
        assert abs(frac - 0.5) < 0.02
    n = 100_000
    params = {k: p.default for k, p in EXPERIMENTS["two_slit"].params.items()}
    bins = EXPERIMENTS["two_slit"].run(params, n, 105).curve["count"]
    expected = probs * n
    observed = np.array(bins, dtype=float)
    order = np.argsort(expected)
    pooled_o, pooled_e, acc_o, acc_e = [], [], 0.0, 0.0
    for idx in order:
        acc_o += observed[idx]
        acc_e += expected[idx]
        if acc_e >= 5.0:
            pooled_o.append(acc_o)
            pooled_e.append(acc_e)
            acc_o = acc_e = 0.0
    pooled_o[-1] += acc_o
    pooled_e[-1] += acc_e
    pooled_e = np.array(pooled_e) * (np.sum(pooled_o) / np.sum(pooled_e))
    chi2 = float(np.sum((np.array(pooled_o) - pooled_e) ** 2 / pooled_e))
    dof = len(pooled_o) - 1
    p = float(stats.chi2.sf(chi2, dof))
    assert p > 1e-3, (chi2, dof, p)
    print(f"\nPASS 5: visibility unlabeled = {profile.visibility:.12f} (>= 1-1e-9), "
          f"labeled = {labeled.visibility:.2e} (<= 1e-9), minima on half-integer "
          f"path differences, histogram chi2 p = {p:.3f} > 0.001")


def test_criterion_06_choice_timing_never_changes_counts():
    details = []
    run = EXPERIMENTS["delayed_choice"].run
    for screen_up in (True, False):
        before = run({"screen_up": screen_up, "decision_time": "before_slits"}, 10_000, 106)
        after = run({"screen_up": screen_up, "decision_time": "after_slits"}, 10_000, 106)
        assert before.counts == after.counts
        details.append(f"screen_up={screen_up}: {len(before.counts)} outcome bins equal")
    print(f"\nPASS 6: decision timing changed nothing; {'; '.join(details)}")


def test_criterion_07_wire_grid_interception():
    both = afshar(both_slits=True)["intercepted_fraction"]
    one = afshar(both_slits=False)["intercepted_fraction"]
    assert both < 0.002
    assert abs(one - 0.060) <= 0.003
    print(f"\nPASS 7: wires in fringe minima intercept {both:.2e} (< 0.002) with both "
          f"slits open, {one:.4f} (0.060 +- 0.003) with one")


def test_criterion_08_pair_correlations_and_chsh():
    n = 20_000
    deltas = np.linspace(0.0, 90.0, 19)
    residuals = []
    for i, delta in enumerate(deltas):
        counts = sample_counts(epr_table(float(delta), 0.0), n, 108, i * n)
        p_hat = (counts["HV"] + counts["VH"]) / n
        residuals.append(p_hat - math.sin(math.radians(delta)) ** 2)
    rms = math.sqrt(float(np.mean(np.square(residuals))))
    assert rms < 0.01, rms
    out = chsh(1_000_000, seed=108)
    s_value = out["S"]
    assert abs(s_value - 2.828) <= 0.02, s_value
    print(f"\nPASS 8: P(different) fits sin^2 with RMS {rms:.4f} (< 0.01) over 19 points; "
          f"CHSH S = {s_value:.4f} (2.828 +- 0.02) at 1e6/setting")


def test_criterion_09_superposed_blocker_statistics():
    n = 100_000
    counts = EXPERIMENTS["hardy"].run({}, n, 109).counts
    expected = {"absorbed": 0.25, "D1": 0.625, "D2": 0.125}
    measured = {
        "absorbed": counts["absorbed"],
        "D1": counts["D1.x+"] + counts["D1.x-"],
        "D2": counts["D2.x+"] + counts["D2.x-"],
    }
    for name, p in expected.items():
        bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
        assert abs(measured[name] / n - p) <= bound, name
    d2 = measured["D2"]
    assert d2 >= 10_000
    conditional = counts["D2.x-"] / d2
    assert abs(conditional - 0.5) <= 0.02
    print(f"\nPASS 9: outcomes ({measured['absorbed'] / n:.4f}, {measured['D1'] / n:.4f}, "
          f"{measured['D2'] / n:.4f}) within 4-sigma of (1/4, 5/8, 1/8); "
          f"P(x-1/2 | D2) = {conditional:.4f} (0.50 +- 0.02) over {d2} events")


def test_criterion_10_marker_and_eraser_visibilities():
    n = 20_000
    run = EXPERIMENTS["eraser"].run

    def params(qwp_in, eraser_in, delayed=False):
        return {"qwp_in": qwp_in, "eraser_in": eraser_in, "delayed": delayed, "points": 32}

    v_plain = run(params(False, False), n, 42).extras["visibility"]
    v_marked = run(params(True, False), n, 42).extras["visibility"]
    v_erased = run(params(True, True), n, 42).extras["visibility"]
    assert v_plain >= 0.98
    assert v_marked <= 0.02
    assert v_erased >= 0.98
    now = run(params(True, True, delayed=False), n, 42)
    later = run(params(True, True, delayed=True), n, 42)
    assert now.curve["rate"] == later.curve["rate"]
    print(f"\nPASS 10: visibilities (plain, marked, erased) = "
          f"({v_plain:.4f}, {v_marked:.4f}, {v_erased:.4f}) vs gates "
          f"(>=0.98, <=0.02, >=0.98); delayed flag bit-identical")


def test_criterion_11_avalanche_dynamics():
    config = mead.AvalancheConfig(k=1.0, x0=0.01)
    states = mead.integrate_pair(config)
    t = np.array([s.t for s in states])
    x_a = np.array([s.x_absorber for s in states])
    err = float(np.max(np.abs(x_a - mead.logistic_exact(t, 1.0, 0.01))))
    assert err < 1e-8
    drift = max(abs(s.x_emitter + s.x_absorber - 1.0) for s in states)
    assert drift < 1e-9
    k_fit_cfg = mead.AvalancheConfig(k=1.0, x0=0.001, t_end=4.0, dt=0.005)
    k_states = mead.integrate_pair(k_fit_cfg)
    kt = np.array([s.t for s in k_states])
    kx = np.array([s.x_absorber for s in k_states])
    window = kx < 0.01
    slope = float(np.polyfit(kt[window], np.log(kx[window]), 1)[0])
    assert abs(slope - 1.0) <= 0.02
    omega = 50.0
    sp_cfg = mead.AvalancheConfig(
        k=1.0, x0=0.01, t_end=12.0, dt=(2 * math.pi / omega) / 40.0, omega=omega
    )
    sp_states = mead.integrate_pair(sp_cfg)
    st_, sig = mead.dipole_signal(sp_states, omega)
    x = np.array([s.x_absorber for s in sp_states])
    lo, hi = np.searchsorted(x, [0.1, 0.9])
    sig_w = sig[lo:hi] * np.hanning(hi - lo)
    freqs = np.fft.rfftfreq(hi - lo, st_[1] - st_[0])
    peak = float(freqs[np.argmax(np.abs(np.fft.rfft(sig_w))[1:]) + 1])
    bin_width = float(freqs[1] - freqs[0])
    assert abs(peak - omega / (2 * math.pi)) <= bin_width
    print(f"\nPASS 11: max |trajectory - logistic| = {err:.2e} (< 1e-8), conservation "
          f"drift {drift:.2e} (< 1e-9), fitted rate {slope:.4f} (1.00 +- 0.02), spectrum "
          f"peak {peak:.3f} Hz within one bin ({bin_width:.3f}) of {omega / (2 * math.pi):.3f}")


def test_criterion_12_absorber_competition():
    trials = 10_000
    result = mead.compete([1.0, 1.0], x0_max=0.01, trials=trials, seed=112)
    frac = result["win_fractions"][0]
    bound = 4.0 * math.sqrt(0.25 / trials)
    assert abs(frac - 0.5) <= bound
    sweep = []
    for k0 in (1.0, 2.0, 4.0, 8.0):
        out = mead.compete([k0, 1.0], x0_max=0.01, trials=2_000, seed=112)
        sweep.append(out["win_fractions"][0])
    assert all(b >= a for a, b in zip(sweep, sweep[1:])), sweep
    print(f"\nPASS 12: equal couplings split {frac:.4f}/{1 - frac:.4f} "
          f"(within {bound:.3f} of 1/2); win fraction over k0 in (1,2,4,8) = "
          f"{', '.join(f'{f:.3f}' for f in sweep)} monotone")


def test_criterion_13_thread_count_never_changes_output_bytes(tmp_path):
    blobs = {}
    for threads in ("1", "4"):
        env = dict(os.environ, HQS_THREADS=threads)
        out = tmp_path / f"mz_threads_{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hqs", "run", "mz", "--param", "blocked=true",
             "--events", "100000", "--seed", "113", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        blobs[threads] = out.read_bytes()
    assert blobs["1"] == blobs["4"]
    print(f"\nPASS 13: rerun with HQS_THREADS=1 vs 4 produced byte-identical "
          f"result files ({len(blobs['1'])} bytes)")
