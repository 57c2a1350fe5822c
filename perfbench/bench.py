"""Timed and traced loops of the benchmark; ``run.py`` is the entry point.

The load is one closed-loop client in one process and one thread: the next
input starts when the previous verdict returns, and ``cli`` runs one child
process at a time.  Every verdict is re-checked by ``ref.py`` outside the
timed span.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import layers
import pipeline
import ref
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Fixed per workload so the metric means the same thing in every run: a
# round percentile that keeps at least ten samples beyond it at the
# workload's sample count (see README.md).
TAIL_PERCENTILE = {"chains": 78, "blocks": 90, "refuse": 95, "cli": 90}
SETUP_IMPORTS = 15
# Times are reported at a reference machine speed: the speed at which the
# calibration loop below takes CALIBRATION_REF_S.  See README.md, "Noise".
CALIBRATION_ROUNDS = 10_000
CALIBRATION_REF_S = 0.003
STARTUP_RUNS = 7
# Time of one cycle of each workload at the reference speed, measured at the
# commit that defined the benchmark.  A run holds round(seconds / cost)
# whole cycles, so every run measures the same inputs in the same mix and
# a percentile always falls at the same place.
CYCLE_COST_S = {"chains": 6.2, "blocks": 0.97, "refuse": 0.92, "cli": 8.6}
# Safety limits for a pathologically slow machine or program.
MAX_UNSCALED = 1.5
MAX_WALL_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(module: str) -> float:
    """In-process import time of ``module`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c",
         f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    The loop mixes integer arithmetic, dict stores and small lists, tuples
    and sets, which is what segrep's own code spends its time on."""
    t0 = time.perf_counter()
    total = 0
    table: dict = {}
    for i in range(CALIBRATION_ROUNDS):
        total += (i * i) & 0xFF
        table[i & 63] = total
    for i in range(CALIBRATION_ROUNDS // 16):
        row = [j * i for j in range(10)]
        table[(i, i & 7)] = tuple(row)
        total += len(set(row))
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by the calibration loop timed just before and after."""
    return seconds * 2 * CALIBRATION_REF_S / (before + after)


def scaled_samples(tally: "Tally") -> list[float]:
    """Each sample scaled by the median of the three calibration times
    before it and the three after it, so one disturbed calibration does not
    distort a sample."""
    cal = tally.calibration
    return [
        s * CALIBRATION_REF_S / statistics.median(cal[max(i - 2, 0): i + 4])
        for i, s in enumerate(tally.samples)
    ]


def startup_seconds() -> float:
    """Median wall time of a bare interpreter (``python -c pass``)."""
    times = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Verdict times plus the checker's findings.

    ``calibration`` holds the calibration loop's time before each sample and
    after the last one, when the loop that filled the tally measured it."""

    def __init__(self):
        self.samples: list[float] = []
        self.calibration: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, case_id: str, seconds: float, problems: list[str]) -> None:
        self.samples.append(seconds)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{case_id}: {problems[0]}")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def library_verdict(case, tally: Tally, run=pipeline.run_library, tracer=None) -> None:
    """Time one library-pipeline verdict, then check it."""
    text = case.text
    root = tracer.open(tracer.name_id("verdict")) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        raw, error = run(text, case.n), None
    except Exception as exc:  # any exception is a failed verdict, not a crash
        raw, error = None, exc
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
    if error is not None:
        problems = [f"unexpected exception: {error!r}"]
    else:
        problems = ref.check_answer(case, pipeline.answer(raw))
    tally.add(case.id, seconds, problems)


def cli_verdict(case, command: str, path: Path, tally: Tally, tracer=None) -> None:
    """Time one CLI process, then check its exit code and report."""
    if tracer is None:
        prefix = ["-m", "segrep"]
    else:
        spans_file = path.with_suffix(f".{command}.spans")
        prefix = [str(ROOT / "perfbench" / "cli_child.py"), str(spans_file)]
        root = tracer.open(tracer.name_id("verdict"))
    t0 = time.perf_counter()
    try:
        code, out, err = pipeline.run_cli(prefix, command, str(path), case.n, child_env(), ROOT)
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
    problems = ref.check_cli(case, command, code, out, err)
    if tracer is not None:
        problems += merge_child_spans(tracer, spans_file, root)
    tally.add(f"{case.id}:{command}", seconds, problems)


def merge_child_spans(tracer, spans_file: Path, root: int) -> list[str]:
    """Attach a traced child's spans and counters under the verdict span."""
    try:
        lines = spans_file.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"no spans from the traced child: {exc}"]
    base = len(tracer)
    for line in lines:
        kind, name, a, b, *rest = line.split()
        if kind == "S":
            parent = int(rest[0])
            parent = root if parent == spans.NO_PARENT else base + parent
            tracer.add(name, int(a), int(b), parent, tracer.input_id)
        else:
            span = int(a)
            tracer.counters.append((name, root if span == spans.NO_PARENT else base + span, int(b)))
    return []


def cli_files(cases, seed: int):
    """Write each case to a ``.geom`` file (untimed) and yield (case, path)."""
    folder = OUT / f"cli-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    for case in cases:
        path = folder / f"{case.id}.geom"
        path.write_text(case.text, encoding="utf-8")
        yield case, path


def timed_run(workload: str, seed: int, seconds: float, run=pipeline.run_library,
              between=lambda: None) -> Tally:
    """Closed loop over ``run_cycles(workload, seconds)`` whole cycles of
    inputs.  The calibration loop and ``between`` run after each verdict,
    outside the timed span."""
    cases = gen.cases(workload, seed, SRC / "segrep" / "data")
    cycle = per_cycle(workload)
    cycles = run_cycles(workload, seconds)
    tally = Tally()
    tally.calibration.append(calibration_seconds())
    started = time.monotonic()

    def done() -> bool:
        tally.calibration.append(calibration_seconds())
        between()
        n = len(tally.samples)
        if time.monotonic() - started > MAX_WALL_S:
            return True
        if n % cycle:
            return False
        # on a pathologically slow machine, stop early at a cycle boundary
        return n >= cycles * cycle or sum(tally.samples) * (n + cycle) / n > MAX_UNSCALED * seconds

    if workload == "cli":
        for case, path in cli_files(cases, seed):
            for command in gen.CLI_COMMANDS:
                cli_verdict(case, command, path, tally)
                if done():
                    return tally
    else:
        for case in cases:
            library_verdict(case, tally, run)
            if done():
                return tally
    return tally


def _pass(workload: str, trace_set, tracer) -> Tally:
    tally = Tally()
    for input_id, (case, path) in enumerate(trace_set):
        if tracer is not None:
            tracer.input_id = input_id
        if workload == "cli":
            for command in gen.CLI_COMMANDS:
                cli_verdict(case, command, path, tally, tracer)
        else:
            library_verdict(case, tally, tracer=tracer)
    return tally


def traced_run(workload: str, seed: int, seconds: float):
    """Untraced then traced passes over one cycle of inputs, repeated while
    ``seconds`` allows another.  Returns (tally, per-layer metrics, problems)."""
    cases = gen.cases(workload, seed, SRC / "segrep" / "data")
    trace_set = list(itertools.islice(cases, gen.cycle_length(workload)))
    if workload == "cli":
        trace_set = list(cli_files(trace_set, seed))
    else:
        trace_set = [(case, None) for case in trace_set]
    total = Tally()
    problems: list[str] = []
    per_pass: list[dict] = []
    plain_s = traced_s = 0.0
    first = None
    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        plain = _pass(workload, trace_set, None)
        tracer = spans.Tracer()
        undo = layers.install(tracer) if workload != "cli" else (lambda: None)
        try:
            traced = _pass(workload, trace_set, tracer)
        finally:
            undo()
        total.merge(plain)
        total.merge(traced)
        plain_s += sum(plain.samples)
        traced_s += sum(traced.samples)
        summary = spans.summarize(tracer)
        if summary["self_total_ns"] != summary["root_ns"]:
            problems.append(
                f"self times add up to {summary['self_total_ns']} ns, "
                f"verdict spans to {summary['root_ns']} ns"
            )
        per_pass.append(spans.layer_metrics(summary))
        if first is None:
            first = tracer
        now = time.monotonic()
        if now - started + (now - pass_started) > seconds:
            break
    for name in spans.COUNT_METRICS:
        if len({m[name] for m in per_pass}) != 1:
            problems.append(f"{name} differs between passes over the same inputs")
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["cli.startup_s"] = startup_seconds() if workload == "cli" else 0.0
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    OUT.mkdir(parents=True, exist_ok=True)
    first.write(OUT / f"spans-{workload}-seed{seed}.csv.gz")
    print(f"# trace: {len(per_pass)} passes over {len(trace_set)} inputs, "
          f"{len(first)} spans in the first", flush=True)
    return total, metrics, problems


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def per_cycle(workload: str) -> int:
    return gen.cycle_length(workload) * (len(gen.CLI_COMMANDS) if workload == "cli" else 1)


def run_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_COST_S[workload]))


def verdicts_per_second(samples: list[float], cycle: int) -> float:
    """Inputs completed per second, at the median time of each input shape.

    Sample ``i`` is the ``i % cycle``-th shape of its cycle.  Taking each
    shape's median before summing keeps a burst of machine noise during one
    input from moving the result, as it would move a plain total."""
    medians = [statistics.median(samples[i::cycle]) for i in range(min(cycle, len(samples)))]
    return len(medians) / sum(medians)


def end_to_end(workload: str, tally: Tally, setup_s: float) -> dict[str, float]:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    samples = scaled_samples(tally)
    return {
        "setup_s": setup_s,
        "verdicts_per_s": verdicts_per_second(samples, per_cycle(workload)),
        "verdict_s.p50": statistics.median(samples),
        "verdict_s.tail": percentile(samples, TAIL_PERCENTILE[workload]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (tally, metric values, extra problems)."""
    if workload != "cli":  # warm the interpreter on one input; not counted
        library_verdict(next(gen.cases(workload, seed)), Tally())
    if trace:
        return traced_run(workload, seed, seconds)
    # Import times are sampled at intervals through the run, so a burst of
    # machine noise touches few of them; the first import writes .pyc files.
    module = "segrep.cli" if workload == "cli" else "segrep"
    import_seconds(module)
    imports: list[float] = []
    interval = seconds / SETUP_IMPORTS
    next_at = [time.monotonic()]

    def probe():
        if len(imports) < SETUP_IMPORTS and time.monotonic() >= next_at[0]:
            before = calibration_seconds()
            took = import_seconds(module)
            imports.append(at_reference_speed(took, before, calibration_seconds()))
            next_at[0] += interval

    tally = timed_run(workload, seed, seconds, between=probe)
    while len(imports) < SETUP_IMPORTS:
        next_at[0] = 0
        probe()
    values = end_to_end(workload, tally, statistics.median(imports))
    p = TAIL_PERCENTILE[workload]
    beyond = sum(1 for s in scaled_samples(tally) if s > values["verdict_s.tail"])
    print(f"# {workload} seed={seed}: {len(tally.samples)} verdicts, "
          f"{len(tally.samples) // per_cycle(workload)} whole cycles, "
          f"tail = p{p} with {beyond} samples beyond it, "
          f"failure_rate = {tally.failed / max(tally.attempted, 1):.4f}; "
          f"wall p50 = {statistics.median(tally.samples):.6f} s, "
          f"p{p} = {percentile(tally.samples, p):.6f} s, "
          f"calibration loop median = {statistics.median(tally.calibration) * 1e3:.4f} ms "
          f"(reference {CALIBRATION_REF_S * 1e3:.1f} ms)", flush=True)
    return tally, values, []
