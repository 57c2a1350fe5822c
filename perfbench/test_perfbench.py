"""Self-tests of the benchmark: generator, reference checker, failure
accounting, span arithmetic and trace wrappers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import bench  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import pipeline  # noqa: E402
import ref  # noqa: E402
import spans  # noqa: E402

DATA = HERE.parent / "src" / "segrep" / "data"
HELD_OUT_SEED = 918273


def first(workload, seed, count):
    return list(itertools.islice(gen.cases(workload, seed, DATA), count))


def find(workload, family, seed=5):
    return next(c for c in gen.cases(workload, seed, DATA) if c.family == family)


def library_answer(case):
    return pipeline.answer(pipeline.run_library(case.text, case.n))


# ------------------------------------------------------------ generator


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    count = 2 * gen.cycle_length(workload)
    a, b = first(workload, 7, count), first(workload, 7, count)
    assert [(c.id, c.text, c.expect, c.count) for c in a] == [
        (c.id, c.text, c.expect, c.count) for c in b
    ]
    other = first(workload, 8, count)
    generated = [(x.text, y.text) for x, y in zip(a, other) if x.family not in ("fixture", "free")]
    assert generated and all(x != y for x, y in generated)


def test_blocks_know_their_count():
    for case in first("blocks", 3, 5):
        assert case.count == 2 ** (len(gen.block_sizes(case.n)) - 1)


@pytest.mark.parametrize("workload", ["chains", "blocks", "refuse"])
def test_held_out_seed_passes_the_checker(workload):
    for case in first(workload, HELD_OUT_SEED, gen.cycle_length(workload)):
        assert ref.check_answer(case, library_answer(case)) == [], case.id


def test_held_out_seed_passes_the_cli_checker(tmp_path):
    cases = first("cli", HELD_OUT_SEED, gen.cycle_length("cli"))
    for case in cases:
        path = tmp_path / f"{case.id}.geom"
        path.write_text(case.text, encoding="utf-8")
        for command in gen.CLI_COMMANDS:
            code, out, err = pipeline.run_cli(
                ["-m", "segrep"], command, str(path), case.n, bench.child_env(), bench.ROOT
            )
            assert ref.check_cli(case, command, code, out, err) == [], (case.id, command)


# ------------------------------------------------------------ checker


def test_checker_rejects_a_moved_element():
    case = gen.blocks_case("b", random.Random(1), 8)
    answer = library_answer(case)
    assert ref.check_answer(case, answer) == []
    left, right = answer["representation"]
    moved = (left[1:2] + left[:1] + left[2:], right)
    assert ref.check_answer(case, {**answer, "representation": moved})
    wrong_enum = [moved] + answer["representations"][1:]
    assert ref.check_answer(case, {**answer, "representations": wrong_enum})


def test_checker_rejects_a_wrong_count_or_uniqueness():
    case = gen.blocks_case("b", random.Random(2), 10)
    answer = library_answer(case)
    assert ref.check_answer(case, answer) == []
    assert ref.check_answer(case, {**answer, "count": answer["count"] * 2})
    assert ref.check_answer(case, {**answer, "unique": True})
    assert ref.check_answer(case, {**answer, "representations": answer["representations"][:-1]})
    assert ref.check_answer(case, {**answer, "reconstructed": answer["representation"]})


def test_checker_rejects_a_flipped_verdict():
    yes = gen.chains_case("c", random.Random(3), 8)
    assert ref.check_answer(yes, {"verdict": gen.NO, "two_ex": True, "witnesses": [],
                                  "witness_verified": []})
    no = find("refuse", "free")
    assert ref.check_answer(no, {**library_answer(no), "verdict": gen.YES})
    mutual = find("refuse", "mutual")
    assert ref.check_answer(mutual, {**library_answer(no), "verdict": gen.NO})


def test_checker_rejects_a_wrong_triple():
    case = find("refuse", "disjoint")
    answer = library_answer(case)
    assert ref.check_answer(case, answer) == []
    premise, conclusion = case.implications[0]  # single elements: x pulls in y
    other = next(i for i in range(case.n) if not ((premise | conclusion) >> i) & 1)
    triple = answer["witnesses"][0]["triple"]
    for bad in (premise | conclusion | (1 << other), triple & (triple - 1)):
        witnesses = [{"kind": "TwoEx", "triple": bad}]
        assert ref.check_answer(case, {**answer, "witnesses": witnesses})


def test_checker_rejects_a_wrong_sq_witness():
    case = find("refuse", "notsuf")
    answer = library_answer(case)
    assert ref.check_answer(case, answer) == []
    (w,) = answer["witnesses"]
    assert w["kind"] == "Sq"
    wrong = {**w, "observed": w["observed"] ^ (1 << w["d"])}
    assert ref.check_answer(case, {**answer, "witnesses": [wrong]})


def test_checker_rejects_a_wrong_anti_exchange_witness():
    case = find("refuse", "mutual")
    answer = library_answer(case)
    assert ref.check_answer(case, answer) == []
    y, x, z = answer["witness"]
    other = next(i for i in range(case.n) if i not in (x, z))
    assert ref.check_answer(case, {**answer, "witness": (y, x, other)})


def test_cli_checker_rejects_wrong_reports():
    case = gen.blocks_case("b", random.Random(4), 8)
    labels = case.labels
    left, right = case.chains
    rows = sorted((e, -(left.index(e) + 1), right.index(e) + 1) for e in range(case.n))
    table = "\nelement left_endpoint right_endpoint\n" + "\n".join(
        f"{labels[e]} {lo} {hi}" for e, lo, hi in rows
    )
    report = {"elements": case.n, "cdim2": True, "segments": table}
    assert ref.check_cli(case, "represent", 0, json.dumps(report), "") == []
    assert ref.check_cli(case, "represent", 1, json.dumps(report), "")
    a, b = rows[0][0], rows[1][0]
    swapped = table.replace(f"\n{labels[a]} ", "\nTMP ").replace(
        f"\n{labels[b]} ", f"\n{labels[a]} ").replace("\nTMP ", f"\n{labels[b]} ")
    assert ref.check_cli(case, "represent", 0, json.dumps({**report, "segments": swapped}), "")


def test_times_scale_to_the_reference_speed():
    ref_s = bench.CALIBRATION_REF_S
    assert bench.at_reference_speed(0.3, 2 * ref_s, 2 * ref_s) == pytest.approx(0.15)
    tally = bench.Tally()
    tally.samples = [1.0] * 6
    tally.calibration = [ref_s] * 3 + [9 * ref_s] + [ref_s] * 3  # one disturbed reading
    assert bench.scaled_samples(tally) == pytest.approx([1.0] * 6)
    tally.samples = [4.0] * 3
    tally.calibration = [2 * ref_s] * 4  # the machine runs at half speed
    assert bench.scaled_samples(tally) == pytest.approx([2.0] * 3)


def test_planted_wrong_answer_counts_as_failure():
    def wrong_count(text, max_n):
        raw = pipeline.run_library(text, max_n)
        if raw["verdict"] == gen.YES:
            raw["count"] += 1
        return raw

    tally = bench.timed_run("blocks", 1, 0.05, run=wrong_count)
    assert tally.attempted >= 1 and tally.failed == tally.attempted

    def crash(text, max_n):
        raise RuntimeError("planted")

    tally = bench.timed_run("refuse", 1, 0.0, run=crash)
    assert tally.failed == tally.attempted == gen.cycle_length("refuse")


# ------------------------------------------------------------ spans


def test_self_times_on_a_synthetic_tree():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90] > b1 [55,60], b2 [58,70]
    # b1 and b2 overlap; c [95,120] runs past its parent and is clipped.
    start = [0, 10, 15, 50, 55, 58, 95]
    end = [100, 40, 25, 90, 60, 70, 120]
    parent = [-1, 0, 1, 0, 3, 3, 0]
    assert spans.self_times(start, end, parent) == [25, 20, 10, 25, 5, 12, 25]


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    root = tracer.add("verdict", 0, 1000, -1, 0)
    a = tracer.add("geometry.validate", 100, 400, root, 0)
    tracer.add("core.closure", 150, 160, a, 0)
    tracer.add("core.closure", 170, 200, a, 0)
    tracer.add("properties.check_2ex", 500, 900, root, 0)
    summary = spans.summarize(tracer)
    assert summary["self_total_ns"] == summary["root_ns"] == 1000
    assert summary["calls"][("core.closure", "geometry.validate")] == 2
    assert summary["self_ns"][("geometry.validate", "geometry.validate")] == 260


def test_trace_wrappers_count_every_layer_and_undo():
    originals = {
        (owner, attr): owner.__dict__[attr]
        for owners, attr, _ in layers.TARGETS.values() for owner in owners
    }
    tracer = spans.Tracer()
    undo = layers.install(tracer)
    try:
        tally = bench.Tally()
        case = gen.blocks_case("b", random.Random(5), 8)
        bench.library_verdict(case, tally, tracer=tracer)
    finally:
        undo()
    assert tally.failed == 0
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())
    metrics = spans.layer_metrics(spans.summarize(tracer))
    for name in ("core.closure_calls", "geometry.validate_closures", "geometry.closed_sets",
                 "properties.check_sq_closures", "representation.build_closures",
                 "representation.verify_calls", "representation.orientations_tried",
                 "uniqueness.reconstruct_closures"):
        assert metrics[name] > 0, name
    assert metrics["uniqueness.representations"] == case.count
    stages = sum(metrics[k] for k in metrics if k.endswith("_closures"))
    assert stages <= metrics["core.closure_calls"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    reported = set(spans.layer_metrics(spans.summarize(spans.Tracer())))
    assert per_layer == reported | {"cli.startup_s", "trace.overhead_frac"}
    e2e = {m["name"] for m in spec["end_to_end"]}
    tally = bench.Tally()
    tally.samples = [0.1] * 20
    tally.calibration = [bench.CALIBRATION_REF_S] * 21
    assert e2e == set(bench.end_to_end("chains", tally, 0.05))
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS)
