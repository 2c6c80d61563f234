"""Export coupled-dipole traces: trajectory, beat signal, competition, field map.

Writes four files into --out-dir:

    trajectory.csv   excitation transfer x(t) for emitter and absorber
    signal.csv       absorber dipole moment modulated at the transition frequency
    compete.json     win fractions for a coupling-strength sweep
    field.csv        interference snapshot of the two dipole fields on a grid
"""

import argparse
import json
import math
import pathlib
import sys

import numpy as np

from hqs import mead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=float, default=1.0, help="coupling rate")
    parser.add_argument("--x0", type=float, default=0.01, help="seed excitation")
    parser.add_argument("--trials", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    config = mead.AvalancheConfig(k=args.k, x0=args.x0)
    states = mead.integrate_pair(config)
    mead.write_trajectory_csv(out_dir / "trajectory.csv", states)
    half = mead.time_to_level(args.k, args.x0, 0.5)
    print(f"trajectory: {len(states)} steps, absorber crosses 1/2 at t = {half:.3f}")

    # scaled transition frequency so the beat resolves on the avalanche window
    omega = 50.0 * args.k
    sig_cfg = mead.AvalancheConfig(
        k=args.k, x0=args.x0, t_end=config.t_end,
        dt=(2 * math.pi / omega) / 40.0, omega=omega,
    )
    t, signal = mead.dipole_signal(mead.integrate_pair(sig_cfg), omega)
    rows = np.column_stack([t, signal])
    header = "t,signal"
    np.savetxt(out_dir / "signal.csv", rows, delimiter=",", header=header, comments="")
    print(f"signal: {len(t)} samples at omega = {omega:g}")

    k_list = [args.k, 2 * args.k, 4 * args.k, 8 * args.k]
    outcome = {}
    for k0 in k_list:
        result = mead.compete([k0, args.k], x0_max=args.x0,
                              trials=args.trials, seed=args.seed)
        outcome[f"{k0:g}:{args.k:g}"] = result["win_fractions"][0]
    (out_dir / "compete.json").write_text(json.dumps(outcome, indent=2) + "\n")
    print("compete:", ", ".join(f"{k} -> {v:.3f}" for k, v in outcome.items()))

    grid = mead.FieldGrid(nx=81, ny=61, extent=6.0)
    mid = states[len(states) // 2]
    field = mead.field_snapshot(mid, omega, t=0.25, grid=grid,
                                positions=((-2.0, 0.0), (2.0, 0.0)))
    mead.write_field_csv(out_dir / "field.csv", field, grid)
    print(f"field: {grid.nx}x{grid.ny} snapshot over +-{grid.extent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
