"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced; every tolerance and sample count is pinned here.
"""

import time

from segrep import (
    SegmentRepresentation,
    SqWitness,
    build_representation,
    check_2ex,
    check_sq,
    count_representations,
    decide_cdim2,
    enumerate_representations,
    is_unique,
    reconstruct_by_peeling,
    segment_closure,
    segment_layout,
)
from segrep.cli import main as cli_main
from fixtures import disjoint_chains_geometry, load_fixture
from oracles import (
    brute_force_cdim2,
    check_2ex_exhaustive,
    check_caratheodory,
    check_exr,
    check_sq_exhaustive,
    normalize_layout,
    parse_layout_table,
    reduce_to_binary_basis,
    verify_representation_exhaustive,
)


def criterion(number: int, description: str, passed: bool):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_notsuf_decision_and_witness():
    started = time.monotonic()
    fixture = load_fixture("notsuf")
    geom = fixture.geometry
    gs = geom.ground
    two_ex = check_2ex(geom)
    sq = check_sq(geom)
    witness = sq.witness
    decision = decide_cdim2(geom)
    brute = brute_force_cdim2(geom)
    elapsed = time.monotonic() - started
    criterion(
        1,
        "notsuf: 2Ex holds, Sq fails with the exact witness, no representations",
        two_ex.holds
        and not sq.holds
        and isinstance(witness, SqWitness)
        and witness.subset == gs.full
        and geom.extreme_points(gs.full & ~(1 << witness.b)) == gs.mask("ac")
        and witness.observed == gs.mask("ac")
        and not decision.cdim2
        and brute.representations == ()
        and elapsed < 1.0,
    )


def test_criterion_2_un_representation():
    started = time.monotonic()
    fixture = load_fixture("un")
    geom = fixture.geometry
    gs = geom.ground
    decision = decide_cdim2(geom)
    rep = build_representation(geom)
    expected = SegmentRepresentation(
        tuple(gs.index(x) for x in "abcd"), tuple(gs.index(x) for x in "cbda")
    )
    verified, _ = verify_representation_exhaustive(geom, rep)
    oracle = brute_force_cdim2(geom)
    elapsed = time.monotonic() - started
    criterion(
        2,
        "un: representable, canonical chains {(a,b,c,d),(c,b,d,a)}, count 1",
        decision.cdim2
        and verified
        and rep == expected
        and segment_closure(rep, gs.mask("d")) == gs.mask("bcd")
        and segment_closure(rep, gs.mask("b")) == gs.mask("b")
        and count_representations(rep) == 1
        and oracle.representations == (rep,)
        and elapsed < 1.0,
    )


def test_criterion_3_switch_two_representations():
    started = time.monotonic()
    fixture = load_fixture("switch")
    geom = fixture.geometry
    rep = build_representation(geom)
    enumerated = set(enumerate_representations(rep))
    oracle = set(brute_force_cdim2(geom).representations)
    expected = set(fixture.expected_representations())
    elapsed = time.monotonic() - started
    criterion(
        3,
        "switch: exactly the two printed representations, enumerated and brute-forced",
        enumerated == oracle == expected and len(expected) == 2 and elapsed < 5.0,
    )


def test_criterion_4_unique_reconstruction():
    started = time.monotonic()
    fixture = load_fixture("unique")
    geom = fixture.geometry
    gs = geom.ground
    full = gs.full
    rep = build_representation(geom)
    expected = SegmentRepresentation(
        tuple(gs.index(x) for x in ("4", "2", "3", "1", "5")),
        tuple(gs.index(x) for x in ("2", "1", "3", "5", "4")),
    )
    reconstructed = reconstruct_by_peeling(geom)
    intermediate_reads = (
        geom.extreme_points(full) == gs.mask("45")
        and geom.extreme_points(full & ~gs.mask("5")) == gs.mask("14")
        and geom.extreme_points(full & ~gs.mask("4")) == gs.mask("5")
        and geom.extreme_points(full & ~gs.mask("15")) == gs.mask("34")
        and geom.extreme_points(full & ~gs.mask("45")) == gs.mask("13")
        and geom.extreme_points(full & ~gs.mask("513")) == gs.mask("24")
        and geom.extreme_points(full & ~gs.mask("354")) == gs.mask("1")
    )
    elapsed = time.monotonic() - started
    criterion(
        4,
        "unique: single representation reconstructed purely from extreme points",
        is_unique(rep).unique
        and rep == expected
        and reconstructed == expected
        and intermediate_reads
        and elapsed < 1.0,
    )


def test_criterion_5_decision_matches_oracle(pool_small):
    started = time.monotonic()
    samples = 0
    disagreements = 0
    for geom in pool_small:
        samples += 1
        fast = decide_cdim2(geom).cdim2
        slow = brute_force_cdim2(geom).cdim2
        if fast != slow:
            disagreements += 1
    elapsed = time.monotonic() - started
    criterion(
        5,
        f"decision equals brute-force oracle on {samples} random geometries (n<=5)",
        samples >= 1000 and disagreements == 0 and elapsed < 300.0,
    )


def test_criterion_6_equivalences(pool_n6, pool_two_ex):
    triple_samples = 0
    triple_disagreements = 0
    for geom in pool_n6:
        triple_samples += 1
        if check_2ex(geom).holds != check_2ex_exhaustive(geom).holds:
            triple_disagreements += 1
    exr_samples = 0
    exr_disagreements = 0
    for geom in pool_two_ex:
        exr_samples += 1
        if check_exr(geom).holds != check_sq_exhaustive(geom).holds:
            exr_disagreements += 1
    criterion(
        6,
        f"triple test == exhaustive on {triple_samples} samples; "
        f"replacement == square on {exr_samples} two-extreme samples",
        triple_samples >= 500
        and exr_samples >= 500
        and triple_disagreements == 0
        and exr_disagreements == 0,
    )


def test_criterion_7_implication_chain_and_strictness(pool_n6):
    chain_ok = True
    checked = 0
    for geom in pool_n6:
        if not check_2ex(geom).holds:
            continue
        checked += 1
        if not check_caratheodory(geom, 2).holds:
            chain_ok = False
            break
        reduced = reduce_to_binary_basis(geom)
        if not all(imp.premise.bit_count() <= 2 for imp in reduced.implications):
            chain_ok = False
            break
    triangle = load_fixture("triangle").geometry
    fivepoint = load_fixture("fivepoint").geometry
    criterion(
        7,
        f"2Ex => pair generation => binary basis on {checked} samples; "
        "both reversals refuted by the planar fixtures",
        chain_ok
        and checked > 100
        and check_caratheodory(triangle, 2).holds
        and not check_2ex(triangle).holds
        and all(imp.premise.bit_count() <= 2
                for imp in fivepoint.basis.implications)
        and not check_caratheodory(fivepoint, 2).holds,
    )


def test_criterion_8_cubic_closure_call_shape():
    counts = {}
    for n in (6, 8, 10, 12, 14):
        geom = disjoint_chains_geometry((n // 2, n - n // 2))
        assert geom.basis.m == n - 2  # basis grows linearly with n
        geom.closure_calls = 0
        assert check_2ex(geom).holds
        assert check_sq(geom).holds
        counts[n] = geom.closure_calls
    constant = counts[6] / 6**3
    within = all(count <= 2 * constant * n**3 for n, count in counts.items())
    criterion(
        8,
        f"closure-call counts {counts} stay within 2*c*n^3 for c fitted at n=6",
        within,
    )


def test_criterion_9_round_trips(tmp_path, capsys):
    ok = True
    for name in ("un", "switch", "unique", "seven"):
        fixture = load_fixture(name)
        geom = fixture.geometry
        rep = build_representation(geom)
        intervals = [(lo, hi) for _, lo, hi in segment_layout(rep)]
        if normalize_layout(intervals) != rep:
            ok = False
        path = tmp_path / f"{name}.geom"
        path.write_text(fixture.text)
        code = cli_main(["represent", str(path)])
        out = capsys.readouterr().out
        if code != 0:
            ok = False
            continue
        labels = ("element",) + geom.ground.labels
        table = "\n".join(
            line for line in out.splitlines()
            if line and line.split()[0] in labels
        )
        if parse_layout_table(geom.ground, table) != rep:
            ok = False
    criterion(
        9,
        "layout and CLI 'represent' output round-trip to the same canonical chains",
        ok,
    )
