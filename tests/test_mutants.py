"""Mutants of the basis tables, each rejected by the gate that guards it.

Each row patches one entry of a table that ``ImplicationBasis`` builds at
load: the entry for the whole first block, which a kernel round or a walk
step reads when every element of that block is named by some rule and lies
outside the set it starts from.  The row then runs its gate's own
comparison on that gate's own inputs, and the comparison must report a
mismatch:

* a uses entry with one rule bit dropped lets a blocked rule fire, and an
  adds entry with one rule bit dropped hides a pending one: the kernel
  against :func:`oracles.fixpoint` on :func:`fixtures.block_edge_cases`;
* a twice entry with one rule bit added counts a rule named once as named
  twice, so the walk takes an extension that rule forbids: the walk
  against the family by definition on :func:`fixtures.direct_sums`.

Two more rows patch the transposition that loads ``_adds`` from the gain
rows (``core._columns``): one joins the rows in rule order, so that rule r
reads as rule m - 1 - r, and one reads the column of element e + 1 for e
(the sentinel bit of every row for the top element).  Both put rules in
the wrong adds entries, and the kernel gate rejects both.

Two rows patch the lists ``_rules`` that the kernel's worklist reads after
its second round: one empties every list, so the worklist fires nothing,
and one drops the first rule of the basis with a two-element premise from
every list.  Both leave a rule unfired that a third round would fire, and
the kernel gate rejects both.

Four rows patch one snippet of the reconstruction walk
(``representation._walk``, which ``uniqueness`` binds too).  Three of them
change the outcome or the queries on the pools and fixtures, and the
reference walk rejects them (:func:`oracles.reconstruct_mismatches`): the
other chain read from the walking side, the greater candidate taken at a
seam, and a seam recorded at step 0, so that no later seam is recorded.
The walk without ``& remainder`` ends as the reference does on fresh
geometries; with the pair table filled first, it puts an element in a chain
twice on :func:`fixtures.index_outside_bases`, and ``SegmentRepresentation``
raises.

Ten rows patch one snippet of another function, each rejected by the
comparison of the test that guards it (the helpers in ``tests/oracles.py``):

* the pair entry ``(1 << i) | (1 << j)`` of the extreme-point index that
  ``ConvexGeometry.pair_closures`` fills, written ``1 << i``:
  ``index_mismatches``, the gate of
  ``TestExtremeIndex::test_lookup_matches_the_basis_on_every_closed_set``;
* ``SqWitness.verify`` reading the index, not the basis, so that a forged
  witness verifies: ``sq_recheck_faults``, the gate of
  ``TestSq::test_witness_recheck_reads_the_basis_not_the_index``;
* ``check_sq`` reading the basis, not the index: ``peel_and_scan_faults``,
  the gate of
  ``TestExtremeIndex::test_peel_and_scan_read_no_basis_after_decide``;
* ``check_sq`` keeping the greatest violating set, not the least:
  ``sq_scan_mismatches``, the gate of
  ``TestSq::test_matches_the_pair_scan_oracle``;
* ``block_decomposition`` without its cache: ``block_cache_mismatches``,
  the gate of
  ``TestBlockCache::test_a_second_decomposition_is_the_same_tuple``;
* the singleton entry ``1 << i`` of the same index written as the whole
  singleton closure ``C_i``: ``index_mismatches`` again;
* ``ConvexGeometry.extreme_points`` reading the basis, not the index:
  ``peel_and_scan_faults`` again, which lists every basis pass after
  decide;
* ``verify_representation`` with its pair loop run over no pair:
  ``verify_mismatches`` on :func:`fixtures.verification_cases`, the gate
  of ``TestVerify::test_matches_the_pair_scan_where_only_pairs_differ``;
* ``closed_family`` taking ``x`` with the largest closure of ``y + x`` at
  the walk's dead end ``y``, not the smallest, and
  ``ImplicationBasis.closed_sets_by_extension`` keeping the greatest dead
  end of its level, not the least: ``anti_exchange_mismatches`` on 2,400
  :func:`fixtures.varied_basis` draws, the gate of
  ``TestClosedSetsByExtension::test_random_bases``.
"""

import inspect
import random
import textwrap

import pytest

from segrep import (
    ConvexGeometry,
    ImplicationBasis,
    SqWitness,
    core,
    geometry,
    properties,
    representation,
    uniqueness,
    validate_geometry,
)
from segrep.cli import parse_geometry
from segrep.core import _WIDTH
from fixtures import (
    FIXTURE_NAMES,
    block_edge_cases,
    direct_sums,
    fixture_text,
    index_outside_bases,
    load_fixture,
    padded_notsufs,
    seeded_chain_pair,
    varied_basis,
    verification_cases,
)
from oracles import (
    anti_exchange_mismatches,
    block_cache_mismatches,
    index_mismatches,
    kernel_mismatches,
    peel_and_scan_faults,
    reconstruct_mismatches,
    sq_recheck_faults,
    sq_scan_mismatches,
    verify_mismatches,
    walk_by_definition,
)


def drop_rule(entry, uses):
    """The entry less its lowest rule."""
    return entry & (entry - 1)


def add_rule(entry, uses):
    """The entry plus the lowest rule of ``uses`` that it lacks."""
    missing = uses & ~entry
    return entry | (missing & -missing)


def kernel_gate():
    """The block-edge cases whose kernel closure differs from the fixpoint."""
    return kernel_mismatches(block_edge_cases(random.Random(31)))


def walk_gate():
    """The direct sums on which the walk returns what it must not."""
    mismatches = []
    for basis in direct_sums(random.Random(30)):
        walked, expected, _ = walk_by_definition(basis)
        if walked != expected:
            mismatches.append(basis)
    return mismatches


# mutant -> (the table it patches, the change to its whole-first-block
# entry, the gate that must reject it)
MUTANTS = {
    "uses-entry-drops-a-rule": ("_uses_of", drop_rule, kernel_gate),
    "adds-entry-drops-a-rule": ("_adds_of", drop_rule, kernel_gate),
    "twice-entry-gains-a-rule": ("_twice_of", add_rule, walk_gate),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_gate_rejects_table_mutant(monkeypatch, name):
    table, change, gate = MUTANTS[name]
    build = ImplicationBasis.__init__

    def mutated(basis, ground, implications):
        build(basis, ground, implications)
        if basis.ground.n:
            entries = list(getattr(basis, table))
            whole = (1 << min(_WIDTH, basis.ground.n)) - 1
            entries[whole] = change(entries[whole], basis._uses_of[whole])
            setattr(basis, table, tuple(entries))

    monkeypatch.setattr(ImplicationBasis, "__init__", mutated)
    assert gate()


def columns_in_rule_order(rows, n):
    """``core._columns`` with the rows joined first to last."""
    top = 1 << n
    text = "".join([bin(row | top) for row in rows])
    return [int(text[n + 2 - e::n + 3] or "0", 2) for e in range(n)]


def columns_one_element_up(rows, n):
    """``core._columns`` reading column e + 1 for each e."""
    top = 1 << n
    text = "".join([bin(row | top) for row in reversed(rows)])
    return [int(text[n + 1 - e::n + 3] or "0", 2) for e in range(n)]


# mutant -> the replacement for core._columns; the kernel gate rejects each
TRANSPOSITION_MUTANTS = {
    "gain-rows-in-rule-order": columns_in_rule_order,
    "column-one-element-up": columns_one_element_up,
}


@pytest.mark.parametrize("name", TRANSPOSITION_MUTANTS)
def test_kernel_gate_rejects_transposition_mutant(monkeypatch, name):
    monkeypatch.setattr(core, "_columns", TRANSPOSITION_MUTANTS[name])
    assert kernel_gate()


def no_rules(basis):
    """Every list empty."""
    return tuple(() for _ in basis._rules)


def drop_a_two_element_premise(basis):
    """Every list less the first rule of the basis with a two-element
    premise and a gain."""
    for imp in basis.implications:
        gain = imp.conclusion & ~imp.premise
        if imp.premise.bit_count() == 2 and gain:
            rule = imp.premise, gain
            return tuple(tuple(r for r in entries if r != rule) for entries in basis._rules)
    return basis._rules


# mutant -> the change to the worklist's lists; the kernel gate rejects each
WORKLIST_MUTANTS = {
    "worklist-fires-nothing": no_rules,
    "worklist-drops-a-two-element-premise": drop_a_two_element_premise,
}


@pytest.mark.parametrize("name", WORKLIST_MUTANTS)
def test_kernel_gate_rejects_worklist_mutant(monkeypatch, name):
    change = WORKLIST_MUTANTS[name]
    build = ImplicationBasis.__init__

    def mutated(basis, ground, implications):
        build(basis, ground, implications)
        basis._rules = change(basis)

    monkeypatch.setattr(ImplicationBasis, "__init__", mutated)
    assert kernel_gate()


def patch_source(monkeypatch, function, snippet, replacement, owners):
    """Bind ``function``, a module function or a method, in each of
    ``owners`` with one snippet of its source replaced."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(snippet) == 1, snippet
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(snippet, replacement), namespace)
    for owner in owners:
        monkeypatch.setattr(owner, function.__name__, namespace[function.__name__])


def patch_walk(monkeypatch, snippet, replacement):
    """Bind, in both modules, ``representation._walk`` with one snippet of
    its source replaced."""
    patch_source(monkeypatch, representation._walk, snippet, replacement,
                 (representation, uniqueness))


# mutant -> (the snippet of the walk it replaces, the replacement); the
# reference walk rejects each
WALK_MUTANTS = {
    "other-chain-read-from-the-walking-side": (
        "chains[side ^ 1], removed[side]", "chains[side], removed[side]"),
    "greater-candidate-at-a-seam": (
        "new = extreme & -extreme", "new = 1 << extreme.bit_length() - 1"),
    "seam-recorded-at-step-0": (
        "if k == 2 and split == full:", "if k == 2 and step == 0:"),
}


@pytest.mark.parametrize("name", WALK_MUTANTS)
def test_reference_walk_rejects_walk_mutant(monkeypatch, pool_small, pool_n6, name):
    # the fixtures are loaded first: loading one builds its representation
    geoms = pool_small + pool_n6 + [load_fixture(f).geometry for f in FIXTURE_NAMES]
    patch_walk(monkeypatch, *WALK_MUTANTS[name])
    assert reconstruct_mismatches(g.basis for g in geoms)[0]


def test_filled_table_rejects_the_walk_without_and_remainder(monkeypatch):
    patch_walk(monkeypatch, "geom.extreme_points(remainder) & remainder",
               "geom.extreme_points(remainder)")
    with pytest.raises(ValueError, match="chains must be permutations"):
        reconstruct_mismatches(index_outside_bases(), table=True)


# Each gate below loads its inputs and returns the comparison, which runs
# once the mutant is in: the fixtures are loaded first, since loading one
# re-checks its expectations through the code a mutant patches.

def gate_geometries(request):
    return (request.getfixturevalue("pool_small") + request.getfixturevalue("pool_n6")
            + [load_fixture(name).geometry for name in FIXTURE_NAMES])


def index_gate(request):
    geoms = gate_geometries(request)
    return lambda: index_mismatches(geoms)


def sq_recheck_gate(request):
    geom = validate_geometry(parse_geometry(fixture_text("notsuf")))
    return lambda: sq_recheck_faults(geom)


def peel_and_scan_gate(request):
    passes = request.getfixturevalue("basis_passes")
    geom = seeded_chain_pair(random.Random(40), 40)[0]
    return lambda: peel_and_scan_faults(geom, passes)


def sq_scan_gate(request):
    geoms = gate_geometries(request) + padded_notsufs(random.Random(21))
    return lambda: sq_scan_mismatches(geoms)


def block_cache_gate(request):
    pairs = request.getfixturevalue("pool_representations")
    return lambda: block_cache_mismatches(pairs)


def verify_gate(request):
    cases = verification_cases(random.Random(16))
    return lambda: verify_mismatches(cases)


def anti_exchange_gate(request):
    rng = random.Random(31)
    bases = [varied_basis(rng) for _ in range(2400)]
    return lambda: anti_exchange_mismatches(bases)


# mutant -> (the function it patches, where it is bound, the snippet it
# replaces, the replacement, the gate that must reject it)
SOURCE_MUTANTS = {
    "pair-entry-holds-one-element": (
        ConvexGeometry.pair_closures, (ConvexGeometry,),
        "extreme[closed] = (1 << i) | (1 << j)", "extreme[closed] = 1 << i", index_gate),
    "sq-recheck-reads-the-index": (
        SqWitness.verify, (SqWitness,),
        "geom.basis.extreme_points_of_closed", "geom.extreme_points_of_closed",
        sq_recheck_gate),
    "check-sq-reads-the-basis": (
        properties.check_sq, (properties,),
        "extreme = geom.extreme_points_of_closed",
        "extreme = geom.basis.extreme_points_of_closed", peel_and_scan_gate),
    "check-sq-keeps-the-greatest-set": (
        properties.check_sq, (properties,), "key < least[0]", "key > least[0]", sq_scan_gate),
    "block-cache-bypassed": (
        uniqueness.block_decomposition, (uniqueness,),
        "if rep._blocks is None:", "if True:", block_cache_gate),
    "singleton-entry-is-the-closure": (
        ConvexGeometry.pair_closures, (ConvexGeometry,),
        "extreme[c_i] = 1 << i", "extreme[c_i] = c_i", index_gate),
    "extreme-points-bypass-the-index": (
        ConvexGeometry.extreme_points, (ConvexGeometry,),
        "return self.extreme_points_of_closed(", "return self.basis.extreme_points_of_closed(",
        peel_and_scan_gate),
    "verify-skips-the-pair-loop": (
        representation.verify_representation, (representation,),
        "for y in range(x + 1, n):", "for y in ():", verify_gate),
    "witness-takes-the-largest-closure": (
        geometry.closed_family, (geometry,),
        "closed.bit_count() < grown.bit_count()", "closed.bit_count() > grown.bit_count()",
        anti_exchange_gate),
    "walk-keeps-the-greatest-dead-end": (
        ImplicationBasis.closed_sets_by_extension, (ImplicationBasis,),
        "min(dead, key=canonical_key)", "max(dead, key=canonical_key)", anti_exchange_gate),
}


@pytest.mark.parametrize("name", SOURCE_MUTANTS)
def test_gate_rejects_source_mutant(monkeypatch, request, name):
    function, owners, snippet, replacement, gate = SOURCE_MUTANTS[name]
    compare = gate(request)
    patch_source(monkeypatch, function, snippet, replacement, owners)
    assert compare()
