"""Coupled-dipole avalanche: closed-form checks, competition, field maps."""

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqs import mead
from hqs.rng import uniform_block
from race_reference import completion_time, initial_transfers, pair, race
from scalar_reference import seed_for_word

# CODATA electron volt-hertz relationship nu = e/h; the module derives
# omega from e/hbar, so 2 pi nu is an independent route to the same number
EV_HZ = 2.417989242e14


def test_beat_frequency_against_the_published_constant():
    omega = mead.beat_frequency(1.0, 0.0)
    assert omega == pytest.approx(2.0 * math.pi * EV_HZ, rel=1e-9)
    assert mead.beat_frequency(3.5, 1.5) == pytest.approx(2.0 * omega, rel=1e-12)
    with pytest.raises(ValueError):
        mead.beat_frequency(0.0, 1.0)


def test_dipole_amplitude_shape():
    assert mead.dipole_amplitude(0.0) == 0.0
    assert mead.dipole_amplitude(1.0) == 0.0
    assert mead.dipole_amplitude(0.5) == pytest.approx(0.5)
    xs = np.linspace(0.0, 1.0, 101)
    ds = [mead.dipole_amplitude(float(x)) for x in xs]
    assert max(ds) == pytest.approx(0.5)
    assert np.allclose(ds, np.sqrt(xs * (1 - xs)))
    with pytest.raises(ValueError):
        mead.dipole_amplitude(-0.1)
    with pytest.raises(ValueError):
        mead.dipole_amplitude(1.1)


@dataclass(frozen=True)
class TwoLevelAtom:
    """Ground/excited energies in eV and the excited-state fraction."""

    e0: float
    e1: float
    x: float = 0.0

    def __post_init__(self):
        if self.e1 < self.e0:
            raise ValueError("e1 must be at or above e0")
        if not 0.0 <= self.x <= 1.0:
            raise ValueError("excited fraction must lie in [0, 1]")

    @property
    def omega(self) -> float:
        return mead.beat_frequency(self.e1, self.e0)

    @property
    def dipole(self) -> float:
        return mead.dipole_amplitude(self.x)


def test_two_level_atom_properties():
    atom = TwoLevelAtom(e0=0.0, e1=2.0, x=0.5)
    assert atom.omega == pytest.approx(mead.beat_frequency(2.0, 0.0))
    assert atom.dipole == pytest.approx(0.5)
    with pytest.raises(ValueError):
        TwoLevelAtom(e0=1.0, e1=0.0)


def test_trajectory_matches_the_logistic_closed_form():
    config = mead.AvalancheConfig(k=1.0, x0=0.01)
    states = mead.integrate_pair(config)
    t = np.array([s.t for s in states])
    x_a = np.array([s.x_absorber for s in states])
    exact = mead.logistic_exact(t, 1.0, 0.01)
    assert float(np.max(np.abs(x_a - exact))) < 1e-8
    # endpoint saturation
    assert x_a[-1] > 0.999


def test_a_complete_transfer_reads_exactly_one_even_where_underflow_raises():
    # E = (1 - x0) e**(-k t) underflows past k t ~ 745; the emitter is then exactly empty
    with np.errstate(all="raise"):
        states = mead.integrate_pair(mead.AvalancheConfig(k=1.0, x0=0.01, t_end=800.0, dt=0.02))
    assert (states[-1].x_emitter, states[-1].x_absorber) == (0.0, 1.0)
    assert all(0.0 <= s.x_emitter <= 1.0 and 0.0 < s.x_absorber <= 1.0 for s in states)


def test_a_pair_state_is_an_immutable_record():
    state = mead.AtomPairState(0.5, 0.25, 0.75)
    assert state == mead.AtomPairState(t=0.5, x_emitter=0.25, x_absorber=0.75)
    assert (state.t, state.x_emitter, state.x_absorber) == (0.5, 0.25, 0.75)
    with pytest.raises(AttributeError):
        state.t = 1.0


def test_trajectory_conserves_the_quantum():
    states = mead.integrate_pair(mead.AvalancheConfig(k=2.0, x0=0.02))
    worst = max(abs(s.x_emitter + s.x_absorber - 1.0) for s in states)
    assert worst < 1e-9


def test_early_time_growth_is_exponential_at_rate_k():
    k = 3.0
    config = mead.AvalancheConfig(k=k, x0=0.001, t_end=1.5, dt=0.005 / k)
    states = mead.integrate_pair(config)
    t = np.array([s.t for s in states])
    x = np.array([s.x_absorber for s in states])
    window = x < 0.01  # exponential regime
    slope = np.polyfit(t[window], np.log(x[window]), 1)[0]
    assert slope == pytest.approx(k, rel=0.02)


def test_time_to_half_transfer():
    assert mead.time_to_level(1.0, 0.01, 0.5) == pytest.approx(math.log(99.0), abs=1e-12)
    assert mead.time_to_level(2.0, 0.01, 0.5) == pytest.approx(math.log(99.0) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        mead.time_to_level(1.0, 0.6, 0.5)


def test_dipole_signal_spectrum_peaks_at_the_beat_frequency():
    k, omega = 1.0, 50.0
    period = 2.0 * math.pi / omega
    config = mead.AvalancheConfig(k=k, x0=0.01, t_end=12.0, dt=period / 40.0, omega=omega)
    states = mead.integrate_pair(config)
    t, signal = mead.dipole_signal(states, omega)
    # window where the envelope is strong (x between 0.1 and 0.9)
    x = np.array([s.x_absorber for s in states])
    lo, hi = np.searchsorted(x, [0.1, 0.9])
    t_w, s_w = t[lo:hi], signal[lo:hi]
    dt = t_w[1] - t_w[0]
    freqs = np.fft.rfftfreq(len(s_w), dt)
    power = np.abs(np.fft.rfft(s_w * np.hanning(len(s_w)))) ** 2
    peak = freqs[np.argmax(power[1:]) + 1]  # skip DC
    bin_width = freqs[1] - freqs[0]
    assert abs(peak - omega / (2.0 * math.pi)) <= bin_width


def test_step_size_guard():
    with pytest.raises(ValueError, match="dt"):
        mead.AvalancheConfig(k=1.0, x0=0.01, t_end=1.0, dt=0.05)
    with pytest.raises(ValueError, match="dt"):
        # a supplied omega tightens the bound to period/40
        mead.AvalancheConfig(k=1.0, x0=0.01, t_end=1.0, dt=0.01, omega=1000.0)
    with pytest.raises(ValueError):
        mead.AvalancheConfig(k=1.0, x0=0.7, t_end=1.0, dt=0.001)


def test_a_trajectory_holds_at_most_a_million_steps():
    # construction only: no trajectory of this length is sampled
    at_cap = mead.AvalancheConfig(k=1.0, x0=0.01, t_end=1000.0, dt=0.001)
    assert round(at_cap.t_end / at_cap.dt) == 10**6
    with pytest.raises(ValueError, match=r"t_end / dt = 1000001 steps is over the cap of 1000000"):
        mead.AvalancheConfig(k=1.0, x0=0.01, t_end=1000.001, dt=0.001)


def test_equal_couplings_split_the_wins_evenly():
    trials = 10_000
    result = mead.compete([1.0, 1.0], x0_max=0.01, trials=trials, seed=2)
    assert sum(result["win_counts"]) == trials
    bound = 4.0 * math.sqrt(0.25 / trials)
    assert abs(result["win_fractions"][0] - 0.5) <= bound
    # per-trial log is complete and winners are valid indices
    assert len(result["log"]) == trials
    assert all(e["winner"] in (0, 1) for e in result["log"])


def test_stronger_coupling_wins_more():
    fractions = []
    for k0 in (1.0, 2.0, 4.0, 8.0):
        out = mead.compete([k0, 1.0], x0_max=0.01, trials=2_000, seed=3)
        fractions.append(out["win_fractions"][0])
    assert all(b >= a for a, b in zip(fractions, fractions[1:])), fractions
    assert fractions[0] == pytest.approx(0.5, abs=0.05)
    assert fractions[-1] > 0.99


def test_competition_is_seed_deterministic():
    a = mead.compete([1.0, 3.0], 0.01, 500, seed=11)
    b = mead.compete([1.0, 3.0], 0.01, 500, seed=11)
    assert a["win_counts"] == b["win_counts"]
    assert [e["winner"] for e in a["log"]] == [e["winner"] for e in b["log"]]


# sha256 of compete's output, pinned from its closed-form solve; every
# operation on the race arrays rounds correctly, so no CPU changes these bits
COMPETE_GOLDENS = {
    "two": (([1.0, 1.15], 0.01, 300, 5),
            "7b2e78b025120b35c4f304f011d3161bb631d77193734a37693533961f301bfe"),
    "three-x0_max": (([1.1, 1.0, 0.95], 0.03, 250, 9),
                     "d1a958c924ea4bccdb8e79110c9a8a7870374e70049e8edb388b9c8f3bc3ee1c"),
    "four-dt": (([0.9, 1.0, 1.2, 1.05], 0.01, 200, 13),
                "04039859617558ba64cb06adeabeb0765411993dd3adc459619f0abd8ab0cf86"),
    "nine": (([1.0, 1.1, 0.9, 1.2, 0.95, 1.05, 1.15, 0.85, 1.3], 0.01, 40, 17),
             "e48bc882890ca5ecdfe9ca4149280c81ca3a2d43a924009b19018cc739b9ef62"),
    # every trial starts past the completion level, so each completes at t = 0
    "130": (([1.0 + 0.005 * i for i in range(130)], 0.02, 30, 19),
            "aeb0e847cb4b8866b5fb2c621d648ca5799ab211bf5322364bbe0882e20fe9a9"),
}

PAIR_GOLDENS = {
    "default": (mead.AvalancheConfig(),
                "4288f8ed7c2d464c7f47e41541a013354f4b6ee3076c929414b63aef13417eff"),
    "omega": (mead.AvalancheConfig(k=2.0, x0=0.02, t_end=6.0, dt=0.005, omega=30.0),
              "e658d6cf4fe6136602cc0c37e0a4ea82b08de1e54dec5a35d167f9dd95a4e8eb"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args, digest", COMPETE_GOLDENS.values(), ids=COMPETE_GOLDENS)
def test_compete_output_is_pinned(args, digest):
    assert _sha256(json.dumps(mead.compete(*args), sort_keys=True)) == digest


@pytest.mark.parametrize("config, digest", PAIR_GOLDENS.values(), ids=PAIR_GOLDENS)
def test_integrate_pair_trajectory_is_pinned(config, digest):
    states = mead.integrate_pair(config)
    text = "\n".join(f"{s.t.hex()} {s.x_emitter.hex()} {s.x_absorber.hex()}" for s in states)
    assert _sha256(text) == digest


# race_reference.pair integrates the pair's ODE by DOP853 at rtol 1e-12; it read at most
# 9.0e-12 from the closed form over 300 random (k in [0.5, 4], x0 in [1e-3, 0.45], k t_end
# in [1, 40]) and 4.3e-12 on PAIR_GOLDENS.  An error of 1e-6 in k t moves x_absorber by
# x (1 - x) k t 1e-6, over 2e-9 once k t passes 1.
PAIR_ODE_TOL = 1e-10


def _ode_gap(config) -> float:
    got = np.array([(s.x_emitter, s.x_absorber) for s in mead.integrate_pair(config)]).T
    return float(np.max(np.abs(got - pair(config.k, config.x0, config.t_end, config.dt))))


@pytest.mark.parametrize("config", [config for config, _ in PAIR_GOLDENS.values()], ids=PAIR_GOLDENS)
def test_the_pinned_pairs_match_the_integrated_ode(config):
    assert _ode_gap(config) <= PAIR_ODE_TOL


@settings(max_examples=10, deadline=None)
@given(k=st.floats(0.5, 4.0), x0=st.floats(1e-3, 0.45), span=st.floats(1.0, 40.0))
def test_the_closed_form_pair_matches_the_integrated_ode(k, x0, span):
    assert _ode_gap(mead.AvalancheConfig(k=k, x0=x0, t_end=span / k)) <= PAIR_ODE_TOL


@settings(max_examples=8, deadline=None)
@given(
    k_list=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=4),
    n=st.integers(2, 120),
    data=st.data(),
    seed=st.integers(0, 2**32),
)
def test_each_trial_is_independent_of_the_trial_count(k_list, n, data, seed):
    # trial i is a pure function of (seed, i): its bisection stops on its own
    # bracket, so a shorter run is a prefix of a longer one
    m = data.draw(st.integers(1, n - 1))
    short = mead.compete(k_list, 0.01, m, seed)["log"]
    assert short == mead.compete(k_list, 0.01, n, seed)["log"][:m]


def test_an_absorber_that_starts_at_zero_never_wins():
    # trial 0's absorber 0 draws the top word: u = 1.0, so its x0 is exactly 0
    seed = seed_for_word(2**64 - 1, event_index=0, draw_index=0)
    assert seed == 7552269692723959508
    assert uniform_block(seed, np.zeros(1, dtype=np.uint64), draw_index=0)[0] == 1.0
    result = mead.compete([1.0, 1.0], 0.01, 16, seed)
    assert result["log"][0] == {"trial": 0, "winner": 1, "t": 10.261799726316111, "tie": False}
    assert sum(result["win_counts"]) == 16
    assert _sha256(json.dumps(result, sort_keys=True)) == (
        "7815a412de2f0e01574db5ff97a9c9e333ea9b274efaca879a8bac01ab888121")


def test_an_idle_absorber_whose_exponent_passes_709_stays_at_zero(monkeypatch):
    # absorber 1 draws x0 = 0 in every trial; at tau* its k tau passes 709,
    # where an uncapped exp gives inf and 0 * inf a nan winner
    def draws(seed, events, draw_index):
        u = uniform_block(seed, events, draw_index)
        if draw_index == 1:
            u[:] = 1.0
        return u

    monkeypatch.setattr(mead, "uniform_block", draws)
    k_list, x0_max, seed = [0.5, 80.0], 0.01, 4
    log = mead.compete(k_list, x0_max, 3, seed)["log"]
    for trial in range(3):
        x0 = initial_transfers(seed, trial, 1, x0_max)[0]
        assert 80.0 * math.log(mead.COMPLETION_LEVEL / x0) / 0.5 > 709.0
        assert log[trial]["winner"] == 0
        assert log[trial]["t"] == pytest.approx(completion_time(k_list, [x0, 0.0]), rel=1e-9, abs=0.0)


def test_a_trial_with_every_absorber_at_zero_fails_to_complete(monkeypatch):
    # trial 0 never grows, so its total never reaches the completion level,
    # though the other trials complete
    def draws(seed, events, draw_index):
        u = uniform_block(seed, events, draw_index)
        u[0] = 1.0
        return u

    monkeypatch.setattr(mead, "uniform_block", draws)
    with pytest.raises(RuntimeError, match="failed to complete"):
        mead.compete([1.0, 2.0, 1.5], 0.01, 5, seed=0)


def test_exp_is_the_correctly_rounded_exponential_to_an_ulp():
    y = np.linspace(0.0, 60.0, 20_001)
    exact = np.array([math.exp(v) for v in y.tolist()])
    assert float(np.max(np.abs(mead._exp(y) - exact) / exact)) <= 2.3e-16
    assert mead._exp(np.zeros(1))[0] == 1.0
    # capped where e**y is still finite, so zero transfers stay zero
    assert np.isfinite(mead._exp(np.array([1e4]))[0])


NEAR_TIE = 1e-9


@settings(max_examples=20, deadline=None)
@given(
    k_list=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=12),
    x0_max=st.floats(0.005, 0.05),
    seed=st.integers(0, 2**64 - 1),
)
def test_the_closed_form_matches_the_integrated_race(k_list, x0_max, seed):
    # race_reference integrates dx_i/dt = k_i x_i (1 - sum x) in t, one trial at
    # a time; only a race whose top two transfers end within NEAR_TIE of each
    # other may go either way
    trials = 4
    log = mead.compete(k_list, x0_max, trials, seed)["log"]
    near_ties = 0
    for trial in range(trials):
        x, t = race(k_list, initial_transfers(seed, trial, len(k_list), x0_max))
        second, top = np.sort(x)[-2:]
        if top - second <= NEAR_TIE * top:
            near_ties += 1
        else:
            assert log[trial]["winner"] == int(np.argmax(x))
        assert log[trial]["t"] == pytest.approx(t, rel=1e-8, abs=0.0)
    assert near_ties < trials


@pytest.mark.parametrize("k_list, x0_max, seed", [
    ([1.0, 2.0], 0.01, 0),
    ([0.5, 8.0, 3.0], 0.05, 1),
    ([1.0 + 0.5 * i for i in range(12)], 0.005, 2),
])
def test_completion_time_matches_adaptive_quadrature(k_list, x0_max, seed):
    # t* = integral over [0, tau*] of dtau / (1 - S(tau)), by scipy's quad
    log = mead.compete(k_list, x0_max, 3, seed)["log"]
    for trial in range(3):
        exact = completion_time(k_list, initial_transfers(seed, trial, len(k_list), x0_max))
        assert log[trial]["t"] == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_a_trial_that_starts_complete_finishes_at_zero_won_by_its_largest_start():
    k_list, x0_max, trials, seed = [1.0 + 0.005 * i for i in range(130)], 0.02, 30, 19
    log = mead.compete(k_list, x0_max, trials, seed)["log"]
    for trial in range(trials):
        x0 = initial_transfers(seed, trial, len(k_list), x0_max)
        assert x0.sum() >= mead.COMPLETION_LEVEL
        assert math.copysign(1.0, log[trial]["t"]) == 1.0 and log[trial]["t"] == 0.0
        assert log[trial]["winner"] == int(np.argmax(x0))


def test_competition_input_validation():
    with pytest.raises(ValueError):
        mead.compete([1.0], 0.01, 10, seed=0)
    with pytest.raises(ValueError):
        mead.compete([1.0, -1.0], 0.01, 10, seed=0)
    with pytest.raises(ValueError):
        mead.compete([1.0, 1.0], 0.7, 10, seed=0)
    with pytest.raises(ValueError):
        mead.compete([1.0, 1.0], 0.01, 0, seed=0)


def test_field_snapshot_symmetry_and_falloff():
    grid = mead.FieldGrid(nx=81, ny=81, extent=10.0)
    state = mead.AtomPairState(t=0.0, x_emitter=0.5, x_absorber=0.5)
    omega = 1.0e6  # slow carrier: field ~ static dipole/r over this grid
    field = mead.field_snapshot(state, omega, 0.0, grid, ((-2.0, 0.0), (2.0, 0.0)))
    assert field.shape == (81, 81)
    # mirror symmetry: equal dipoles at +-2 on the x axis
    assert np.allclose(field, field[:, ::-1], atol=1e-12)
    assert np.allclose(field, field[::-1, :], atol=1e-12)
    # 1/r falloff along the y axis through one atom, far from the other
    x_col = np.argmin(np.abs(grid.xs - (-2.0)))
    ys = grid.ys
    top = field[np.argmin(np.abs(ys - 4.0)), x_col]
    higher = field[np.argmin(np.abs(ys - 8.0)), x_col]
    assert abs(top) > abs(higher)


def test_pure_states_radiate_nothing():
    grid = mead.FieldGrid(nx=21, ny=21, extent=5.0)
    state = mead.AtomPairState(t=0.0, x_emitter=1.0, x_absorber=0.0)
    field = mead.field_snapshot(state, 1.0e6, 0.0, grid, ((-2.0, 0.0), (2.0, 0.0)))
    assert np.all(field == 0.0)


def test_field_snapshot_rejects_overlapping_atoms():
    grid = mead.FieldGrid(nx=21, ny=21, extent=5.0)
    state = mead.AtomPairState(t=0.0, x_emitter=0.5, x_absorber=0.5)
    with pytest.raises(ValueError):
        mead.field_snapshot(state, 1.0e6, 0.0, grid, ((0.0, 0.0), (0.1, 0.0)))


def test_trajectory_csv_round_trip(tmp_path):
    states = mead.integrate_pair(mead.AvalancheConfig(k=1.0, x0=0.01, t_end=1.0))
    path = tmp_path / "trajectory.csv"
    mead.write_trajectory_csv(path, states)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_emitter", "x_absorber", "dipole_emitter", "dipole_absorber"]
    assert len(rows) == len(states) + 1
    # repr round-trips floats exactly
    assert float(rows[1][1]) == states[0].x_emitter
    assert float(rows[-1][2]) == states[-1].x_absorber


def test_field_csv_layout(tmp_path):
    grid = mead.FieldGrid(nx=9, ny=7, extent=3.0)
    state = mead.AtomPairState(t=0.0, x_emitter=0.5, x_absorber=0.5)
    field = mead.field_snapshot(state, 1.0e6, 0.0, grid, ((-2.0, 0.0), (2.0, 0.0)))
    path = tmp_path / "field.csv"
    mead.write_field_csv(path, field, grid)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["9", "7", repr(3.0)]
    assert len(rows) == 1 + 7
    assert all(len(r) == 9 for r in rows[1:])
    assert float(rows[1][0]) == field[0, 0]
