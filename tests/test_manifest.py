"""The byte contract: one sha256 per output the command line writes.

tests/golden/manifest.json pins every registered experiment at each
combination of its bool params, analytic only and at n=2000, as JSON and
as CSV; the custom golden's network the same way; one scan per experiment
that has a float param; and the three dynamics models.  Each key is the
command line (after `hqs`) that writes its output, so a moved key says how
to reproduce it.  A change that means to move bytes regenerates the file
and names the moved keys:

    PYTHONPATH=src python tests/test_manifest.py --write
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from hqs.cli import main
from hqs.experiments.registry import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
N, SEED = 2000, 7
CUSTOM = "config=tests/golden/blocked_mz.network.json"  # relative to the repo root: the envelope echoes it
SCANS = [
    ["scan", "two_slit", "--param", "d=18:22:3"],
    ["scan", "afshar", "--param", "wire_width=0.02:0.1:5"],
    ["scan", "epr", "--param", "delta=0:90:7", "--events", str(N), "--seed", str(SEED)],
]
DYNAMICS = [
    ["dynamics", "avalanche"],
    ["dynamics", "compete", "--param", "k_list=1,2,4", "--param", "trials=200", "--seed", str(SEED)],
    ["dynamics", "field", "--param", "nx=21", "--param", "ny=21"],
]


def commands() -> list:
    """Every pinned command line, in manifest order."""
    runs = []
    for name, exp in sorted(EXPERIMENTS.items()):
        flags = [key for key, p in exp.params.items() if p.kind is bool]
        for values in itertools.product(("false", "true"), repeat=len(flags)):
            runs.append(["run", name] + [x for f, v in zip(flags, values) for x in ("--param", f"{f}={v}")])
    runs.append(["run", "custom", "--param", CUSTOM])
    sampled = [run + events for run in runs for events in ([], ["--events", str(N)])]
    formats = [run + ["--seed", str(SEED), "--format", fmt] for run in sampled for fmt in ("json", "csv")]
    return formats + SCANS + DYNAMICS


def digests() -> dict:
    """sha256 of each command's output file; run from the repo root."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        path = os.path.join(tmp, "out")
        for argv in commands():
            key = " ".join(argv)
            code = main(argv + ["--out", path])
            assert code == 0, f"hqs {key} exited {code}"
            with open(path, "rb") as fh:
                out[key] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_every_output_matches_the_manifest(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(MANIFEST.read_text())
    got = digests()
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (moved or missing or extra), "\n".join(
        [f"moved: {k}" for k in moved] + [f"not run: {k}" for k in missing] + [f"not pinned: {k}" for k in extra])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_manifest.py --write")
    os.chdir(ROOT)
    table = digests()
    MANIFEST.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to tests/golden/manifest.json")
