"""Differential check of the fast decision against the exhaustive oracle.

The fast path costs O((k+m) n^3); the oracle enumerates chains of the
closed-set lattice and joins them pairwise.  On small random geometries the
two must agree everywhere, and the representation counter must match the
number of pairs the oracle finds.  The generator and the oracle are test
code, so this demo reads them from the repository's ``tests/`` directory.
"""

import sys
from pathlib import Path

from segrep import build_representation, count_representations, decide_cdim2

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from fixtures import RejectionBudgetExceeded, random_geometry  # noqa: E402
from oracles import brute_force_cdim2  # noqa: E402

samples = 0
representable = 0
for seed in range(400):
    try:
        geom = random_geometry(n=2 + seed % 4, seed=seed, density=0.05 * (seed % 7))
    except RejectionBudgetExceeded:
        continue
    samples += 1
    fast = decide_cdim2(geom).cdim2
    oracle = brute_force_cdim2(geom)
    assert fast == oracle.cdim2, f"disagreement at seed {seed}"
    if fast:
        representable += 1
        rep = build_representation(geom)
        assert count_representations(rep) == len(oracle.representations)

print(f"{samples} geometries checked, {representable} representable, no disagreements")
