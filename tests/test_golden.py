"""Golden envelopes: every registered experiment, and one custom network,
serialise to the bytes recorded in tests/golden at fixed (n, seed).

A golden changes only when a change means to alter envelope bytes and
says why.  Rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from hqs.cli import RunSpec, emit_results, run_spec
from hqs.experiments.registry import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
N, SEED = 2000, 7
# relative to the repo root, because the envelope echoes the path back
CUSTOM = {"custom_blocked_mz": "tests/golden/blocked_mz.network.json"}
CASES = sorted(EXPERIMENTS) + sorted(CUSTOM)


def envelope_bytes(case: str) -> bytes:
    if case in CUSTOM:
        spec = RunSpec("custom", {"config": CUSTOM[case]}, N, SEED)
    else:
        spec = RunSpec(case, {}, N, SEED)
    return emit_results(run_spec(spec), spec.output_format)


@pytest.mark.parametrize("case", CASES)
def test_envelope_bytes_match_the_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert envelope_bytes(case) == (GOLDEN / f"{case}.json").read_bytes()


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    for case in CASES:
        (GOLDEN / f"{case}.json").write_bytes(envelope_bytes(case))
        print(f"wrote tests/golden/{case}.json")
