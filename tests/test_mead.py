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


# sha256 of outputs pinned from the per-trial scalar-loop implementation:
# a faster compete or integrate_pair must reproduce them bit for bit
COMPETE_GOLDENS = {
    "two": (([1.0, 1.15], 0.01, 300, 5, None),
            "df76569432140355abe8bef711444c7afa05c8ac4d4e683b2b30c87e65104976"),
    "three-x0_max": (([1.1, 1.0, 0.95], 0.03, 250, 9, None),
                     "86d232383f3fdb32394e2c373801714a4f2e1ae0a2dc8bd2ee85c6a09075e08e"),
    "four-dt": (([0.9, 1.0, 1.2, 1.05], 0.01, 200, 13, 0.004),
                "636fb621d0578a3241f29fa79f02219d0a3c3f63d860d37a02f632c6e65c23c6"),
    # 8 or more absorbers: the path whose totals take _absorber_total's pairwise order
    "nine": (([1.0, 1.1, 0.9, 1.2, 0.95, 1.05, 1.15, 0.85, 1.3], 0.01, 40, 17, None),
             "c9c5fe4a7145cbe0175757b3223e444c9314ceec949c501ff55a5f3c96697fef"),
    "130": (([1.0 + 0.005 * i for i in range(130)], 0.02, 30, 19, None),
            "cc81b58658449aea32c5ce7171fb335e7aa2cd8fb99be472a9880d4f4581883d"),
}

PAIR_GOLDENS = {
    "default": (mead.AvalancheConfig(),
                "291da86577da0b575879e751e40f98a65966f67a3e636436792fc38342f5d4a3"),
    "omega": (mead.AvalancheConfig(k=2.0, x0=0.02, t_end=6.0, dt=0.005, omega=30.0),
              "ee1a7bae5019fb88b2966562393214fc4680f38eadee2d0a46a5f8b89aee8feb"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args, digest", COMPETE_GOLDENS.values(), ids=COMPETE_GOLDENS)
def test_compete_output_is_pinned(args, digest):
    k_list, x0_max, trials, seed, dt = args
    result = mead.compete(k_list, x0_max, trials, seed, dt=dt)
    assert _sha256(json.dumps(result, sort_keys=True)) == digest


# compete's output keeps only winners, step times and tie flags, which do not
# see last-bit changes in the trajectory; these pin the bits of every
# absorber total the race computes, in call order
RACE_GOLDENS = {
    "two": "d345d828a4ef1babf68b5abceee4a67f9a2b293b260ad8c7937acc8dfa78d0fb",
    "nine": "60b9bd06b6a0b7c6f0ff4ba297062c11a927cb822aa1cdba1449cf891c666264",
}


@pytest.mark.parametrize("name, digest", RACE_GOLDENS.items(), ids=RACE_GOLDENS)
def test_compete_race_totals_are_pinned(monkeypatch, name, digest):
    k_list, x0_max, trials, seed, dt = COMPETE_GOLDENS[name][0]
    totals = hashlib.sha256()
    real = mead._absorber_total

    def hashed(x, out=None):
        total = real(x, out)
        totals.update(total.tobytes())
        return total

    monkeypatch.setattr(mead, "_absorber_total", hashed)
    mead.compete(k_list, x0_max, trials, seed, dt=dt)
    assert totals.hexdigest() == digest


@pytest.mark.parametrize("config, digest", PAIR_GOLDENS.values(), ids=PAIR_GOLDENS)
def test_integrate_pair_trajectory_is_pinned(config, digest):
    states = mead.integrate_pair(config)
    text = "\n".join(f"{s.t.hex()} {s.x_emitter.hex()} {s.x_absorber.hex()}" for s in states)
    assert _sha256(text) == digest


@pytest.mark.parametrize("n_abs", [2, 3, 4, 7, 8, 13, 128, 131, 300])
def test_absorber_total_matches_the_trial_major_sum(n_abs):
    trial_major = np.random.default_rng(n_abs).random((500, n_abs)) * 0.3
    block = np.ascontiguousarray(trial_major.T)
    total = mead._absorber_total(block)
    assert np.array_equal(total, trial_major.sum(axis=1))
    # compete's stage totals go into a reused buffer, in the same order
    out = np.empty(500)
    assert mead._absorber_total(block, out=out) is out
    assert np.array_equal(out, total)


@settings(max_examples=8, deadline=None)
@given(
    k_list=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=4),
    n=st.integers(2, 120),
    data=st.data(),
    seed=st.integers(0, 2**32),
)
def test_each_trial_is_independent_of_the_trial_count(k_list, n, data, seed):
    # trial i is a pure function of (seed, i), so however the live block is
    # compacted, a shorter run is a prefix of a longer one
    m = data.draw(st.integers(1, n - 1))
    short = mead.compete(k_list, 0.01, m, seed)["log"]
    assert short == mead.compete(k_list, 0.01, n, seed)["log"][:m]


def test_an_absorber_that_starts_at_zero_never_wins():
    # trial 0's absorber 0 draws the top word: u = 1.0, so its x0 is exactly 0
    seed = seed_for_word(2**64 - 1, event_index=0, draw_index=0)
    assert seed == 7552269692723959508
    assert uniform_block(seed, np.zeros(1, dtype=np.uint64), draw_index=0)[0] == 1.0
    result = mead.compete([1.0, 1.0], 0.01, 16, seed)
    assert result["log"][0] == {"trial": 0, "winner": 1, "t": 10.27999999999987, "tie": False}
    assert sum(result["win_counts"]) == 16
    assert _sha256(json.dumps(result, sort_keys=True)) == (
        "9aa9223e84c2df1e44dd92546f363a6fca96665ed2ca42ae013e32322b4bdaf1")


def test_a_trial_with_every_absorber_at_zero_fails_to_complete(monkeypatch):
    # trial 0 never grows while the others finish and are zeroed in the
    # block; the unfinished trial must still be reported
    def draws(seed, events, draw_index):
        u = uniform_block(seed, events, draw_index)
        u[0] = 1.0
        return u

    monkeypatch.setattr(mead, "uniform_block", draws)
    with pytest.raises(RuntimeError, match="failed to complete"):
        mead.compete([1.0, 2.0, 1.5], 0.01, 5, seed=0)


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
