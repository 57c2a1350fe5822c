"""Benchmark of segrep's decide -> build -> count pipeline.

    python3 perfbench/run.py --workload chains|blocks|refuse|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; segrep is imported from ``src/``.
Inputs come from ``gen.py`` and depend only on the workload and seed.

``--trace 0`` times verdicts until their total reaches ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` repeats passes over one
fixed cycle of inputs, first untraced and then with span wrappers on every
layer, and reports the per-layer metrics; their counts depend only on the
seed.  Metric names and units come from ``BENCHMARK.json``; README.md in
this directory says what each one means.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from gen import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "segrep" / "__init__.py").is_file():
        print(f"error: no segrep sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    units = declared_metrics(bool(args.trace))
    tally, values, problems = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in (tally.problems + problems)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
