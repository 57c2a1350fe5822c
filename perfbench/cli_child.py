"""One traced segrep CLI process.

    python3 perfbench/cli_child.py SPANS_FILE <segrep CLI arguments>

Runs ``python -m segrep <arguments>`` the same way (through ``runpy``), but
times the import of ``segrep.cli`` and installs the span wrappers first.
At exit it writes its spans and counters to SPANS_FILE, one per line:
``S name start_ns end_ns parent`` and ``C name span amount``.
"""

import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402

tracer = Tracer()
span = tracer.open(tracer.name_id("cli.import"))
import segrep.cli  # noqa: E402

tracer.close(span)

import layers  # noqa: E402

layers.install(tracer)
segrep.cli.main = tracer.wrap("cli.main", segrep.cli.main)
spans_file = sys.argv[1]
sys.argv = ["segrep", *sys.argv[2:]]
try:
    runpy.run_module("segrep", run_name="__main__", alter_sys=True)
finally:
    with open(spans_file, "w", encoding="utf-8") as out:
        for _i, name, start, end, parent, _input in tracer.rows():
            out.write(f"S {name} {start} {end} {parent}\n")
        for name, span, amount in tracer.counters:
            out.write(f"C {name} {span} {amount}\n")
