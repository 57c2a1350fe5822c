"""The property checks, their exhaustive twins, and the implication chain."""

import random

import pytest

from segrep import (
    ConvexGeometry,
    GroundSet,
    GroundSetTooLarge,
    Implication,
    ImplicationBasis,
    PropertyReport,
    SqWitness,
    TwoExWitness,
    check_2ex,
    check_sq,
    decide_cdim2,
    validate_geometry,
    verify_witness,
)
from segrep.cli import parse_geometry
from segrep.geometry import closed_family
import oracles
from fixtures import FIXTURE_NAMES, fixture_text, load_fixture, padded_notsufs, seeded_chain_pair
from oracles import (
    CaratheodoryFails,
    CaratheodoryWitness,
    check_2ex_exhaustive,
    check_caratheodory,
    check_exr,
    check_sq_exhaustive,
    reduce_to_binary_basis,
    sq_recheck_faults,
    sq_scan_mismatches,
)


@pytest.fixture(scope="module")
def notsuf():
    return load_fixture("notsuf").geometry


@pytest.fixture(scope="module")
def un():
    return load_fixture("un").geometry


@pytest.fixture(scope="module")
def free3():
    gs = GroundSet(("a", "b", "c"))
    return validate_geometry(ImplicationBasis(gs, ()))


class TestPropertyReport:
    def test_witnesses_compare_by_value(self):
        assert TwoExWitness(0b111) == TwoExWitness(0b111) != TwoExWitness(0b1110)
        w, same = (SqWitness(0b1111, 0, 1, 2, 3, 0b0101) for _ in range(2))
        assert w is not same and w == same and len({w, same}) == 1
        assert w != SqWitness(0b1111, 0, 1, 2, 3, 0b0001)

    def test_verify_witness_rejects_a_holding_report_and_a_two_element_triple(
            self, notsuf, free3):
        assert not verify_witness(notsuf, check_2ex(notsuf))
        assert not verify_witness(free3, PropertyReport("TwoEx", TwoExWitness(0b011)))


class TestTwoEx:
    def test_notsuf_holds(self, notsuf):
        assert check_2ex(notsuf).holds
        assert check_2ex_exhaustive(notsuf).holds

    def test_free_three_points_fail(self, free3):
        for report in (check_2ex(free3), check_2ex_exhaustive(free3)):
            assert not report.holds
            assert isinstance(report.witness, TwoExWitness)
            assert report.witness.triple == free3.ground.full
            assert verify_witness(free3, report)

    def test_triangle_fixture_fails(self):
        geom = load_fixture("triangle").geometry
        report = check_2ex(geom)
        assert not report.holds
        assert report.witness.triple == geom.ground.mask("abc")

    def test_guard(self, notsuf):
        with pytest.raises(GroundSetTooLarge):
            check_2ex_exhaustive(notsuf, max_n=3)


class TestCaratheodory:
    def test_triangle_has_pair_generation(self):
        geom = load_fixture("triangle").geometry
        assert check_caratheodory(geom, 2).holds

    def test_fivepoint_fails_with_exact_witness(self):
        geom = load_fixture("fivepoint").geometry
        report = check_caratheodory(geom, 2)
        assert not report.holds
        assert isinstance(report.witness, CaratheodoryWitness)
        assert report.witness.subset == geom.ground.mask("abc")
        assert report.witness.element == geom.ground.index("x")
        assert verify_witness(geom, report)
        assert report.describe(geom.ground) == (
            "Caratheodory(2): fails (x in closure of {a,b,c} but in no small-part closure)")

    def test_witness_carries_its_order(self):
        geom = load_fixture("fivepoint").geometry
        w = check_caratheodory(geom, 2).witness
        assert w.order == 2
        # the order comes from the witness, not from the report's name
        assert verify_witness(geom, PropertyReport("renamed", w))
        # {a,b,c} itself generates x, so the membership is no order-3 witness
        wider = CaratheodoryWitness(w.subset, w.element, 3)
        assert not verify_witness(geom, PropertyReport("Caratheodory(2)", wider))

    def test_order_at_least_n_trivially_holds(self, notsuf):
        assert check_caratheodory(notsuf, notsuf.n).holds


class TestBinaryReduction:
    def test_identity_on_binary_basis(self, notsuf):
        assert reduce_to_binary_basis(notsuf) is notsuf.basis

    def test_oversized_premise_replaced_by_pair(self):
        gs = GroundSet(("a", "b", "c", "d"))
        basis = ImplicationBasis(
            gs,
            (
                Implication(gs.mask("abc"), gs.mask("d")),
                Implication(gs.mask("ab"), gs.mask("d")),
            ),
        )
        geom = validate_geometry(basis)
        reduced = reduce_to_binary_basis(geom)
        assert all(imp.premise.bit_count() <= 2 for imp in reduced.implications)
        assert reduced.implications == (Implication(gs.mask("ab"), gs.mask("d")),)
        for seed in range(1 << 4):
            assert reduced.closure(seed) == basis.closure(seed)

    def test_guard_refuses_larger_ground_sets(self):
        gs = GroundSet(("a", "b", "c", "d"))
        geom = validate_geometry(
            ImplicationBasis(gs, (Implication(gs.mask("abc"), gs.mask("d")),)))
        with pytest.raises(GroundSetTooLarge):
            reduce_to_binary_basis(geom, max_n=3)

    def test_fivepoint_raises(self):
        geom = load_fixture("fivepoint").geometry
        with pytest.raises(CaratheodoryFails) as err:
            reduce_to_binary_basis(geom)
        assert err.value.witness.subset == geom.ground.mask("abc")

    def test_missing_pair_replacement_raises(self, monkeypatch):
        # Reached only if the 2-part check were wrong; forced here by
        # pretending it holds where no part of {a,b,c} smaller than itself
        # generates x.
        gs = GroundSet(("a", "b", "c", "x"))
        geom = validate_geometry(
            ImplicationBasis(gs, (Implication(gs.mask("abc"), gs.mask("x")),))
        )
        monkeypatch.setattr(
            oracles, "check_caratheodory",
            lambda geom, order, max_n: PropertyReport(f"Caratheodory({order})"),
        )
        with pytest.raises(CaratheodoryFails) as err:
            reduce_to_binary_basis(geom)
        assert err.value.witness == CaratheodoryWitness(gs.mask("abc"), gs.index("x"), 2)


class TestSq:
    def test_notsuf_fails_with_exact_witness(self, notsuf):
        gs = notsuf.ground
        for report in (check_sq(notsuf), check_sq_exhaustive(notsuf)):
            assert not report.holds
            w = report.witness
            assert isinstance(w, SqWitness)
            assert w.subset == gs.full
            assert (w.a, w.b, w.c, w.d) == (
                gs.index("a"), gs.index("b"), gs.index("c"), gs.index("d"))
            assert w.observed == gs.mask("ac")
            assert verify_witness(notsuf, report)

    def test_witness_recheck_reads_the_basis_not_the_index(self):
        # a wrong index entry planted on notsuf changes geom.extreme_points
        # but not the re-check: the true witness still verifies, and a
        # forged one that the planted entry would confirm does not
        assert not sq_recheck_faults(validate_geometry(parse_geometry(fixture_text("notsuf"))))

    def test_an_empty_index_gives_the_same_report(self, pool_small, pool_n6):
        # with the index emptied, every extreme-point set is read off the
        # basis, and the report, witness included, is the same
        padded = padded_notsufs(random.Random(22))
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        for geom in geoms + padded:
            bare = ConvexGeometry(geom.basis)
            bare.pair_closures()
            bare._extreme.clear()
            full, empty = check_sq(geom), check_sq(bare)
            assert (full.name, full.witness) == (empty.name, empty.witness), geom.basis

    def test_un_holds_both_ways(self, un):
        assert check_sq(un).holds
        assert check_sq_exhaustive(un).holds

    def test_collapsed_lower_pair_instances_hold_automatically(self, un):
        # when removing both extreme points leaves a single extreme point,
        # the conclusion pair is forced; spot-check the arithmetic on the
        # closed set {a,b,c} of the un geometry
        gs = un.ground
        subset = gs.mask("abc")
        assert un.extreme_points(subset) == gs.mask("ac")
        assert un.extreme_points(subset & ~gs.mask("a")) == gs.mask("bc")
        assert un.extreme_points(subset & ~gs.mask("ac")) == gs.mask("b")
        assert un.extreme_points(subset & ~gs.mask("c")) == gs.mask("ab")

    def test_single_element_geometry_holds(self):
        geom = validate_geometry(ImplicationBasis(GroundSet(("a",)), ()))
        assert check_sq(geom).holds
        assert check_sq_exhaustive(geom).holds

    def test_matches_the_pair_scan_oracle(self, pool_small, pool_n6):
        # the same report, witness included, as the oracle's scan over the
        # sorted pair closures, which asks geom.extreme_points for every set
        padded = padded_notsufs(random.Random(21))
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        assert not sq_scan_mismatches(geoms + padded)
        failing = sum(not check_sq(geom).holds for geom in geoms + padded)
        assert all(not check_sq(geom).holds and check_2ex(geom).holds for geom in padded)
        assert failing > len(padded)


class TestExR:
    def test_notsuf_fails(self, notsuf):
        report = check_exr(notsuf)
        assert not report.holds
        assert verify_witness(notsuf, report)
        assert report.describe(notsuf.ground) == (
            "ExR: fails (X'={a,b,c,d} a=a b=b c=c: d follows from a with c "
            "but not from c with c)")

    def test_un_holds(self, un):
        assert check_exr(un).holds

    def test_chain_geometry_vacuously_holds(self):
        # a single chain never exposes two extreme points, so the premise
        # of the replacement condition never fires
        gs = GroundSet(("a", "b", "c"))
        basis = ImplicationBasis(
            gs, (Implication(gs.mask("b"), gs.mask("a")),
                 Implication(gs.mask("c"), gs.mask("b"))))
        geom = validate_geometry(basis)
        assert check_exr(geom).holds

    def test_closed_only_flag(self, notsuf):
        assert not check_exr(notsuf, closed_only=True).holds


class TestDecide:
    def test_notsuf(self, notsuf):
        decision = decide_cdim2(notsuf)
        assert not decision.cdim2
        assert decision.two_ex.holds and not decision.sq.holds
        assert isinstance(decision.sq.witness, SqWitness)

    def test_un(self, un):
        assert decide_cdim2(un).cdim2

    def test_free_three_points(self, free3):
        decision = decide_cdim2(free3)
        assert not decision.cdim2
        assert not decision.two_ex.holds
        assert isinstance(decision.two_ex.witness, TwoExWitness)


class TestEquivalences:
    def test_triple_form_matches_exhaustive(self, pool_small, pool_n6):
        # the same verdict and the same witness: the exhaustive walk meets
        # the triples first, in lexicographic order
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        failing = 0
        for geom in geoms:
            fast, slow = check_2ex(geom), check_2ex_exhaustive(geom)
            assert (fast.holds, fast.witness) == (slow.holds, slow.witness), geom.basis
            failing += not fast.holds
        assert (len(geoms), failing) == (1746, 758)

    def test_two_ex_iff_the_family_counts_one_plus_n_plus_free_pairs(self, pool_small, pool_n6):
        """On a convex geometry, 2Ex holds iff the family has 1 + n + u
        closed sets, where u counts the pairs {i, j} that neither singleton
        closure holds: the pairs whose closure ``pair_closures()`` asks for.

        1. X ↦ Ex(X) maps the closed sets one-to-one onto the free sets S,
           those with Ex(φ(S)) = S: a closed set is the closure of its
           extreme points, so φ(Ex(X)) = X.
        2. ∅ and every singleton are free.  A pair {i, j} is free iff
           i ∉ φ({j}) and j ∉ φ({i}): if j ∈ φ({i}), then φ({i, j}) =
           φ({i}), whose one extreme point is i.
        3. 2Ex says that no free set has three or more elements, since
           Ex(X) = Ex(φ(X)) for every X.

        So the family has 1 + n + u sets when 2Ex holds, and more when it
        fails.
        """
        rng = random.Random(15)
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        geoms += [seeded_chain_pair(rng, n)[0] for n in range(1, 29) for _ in range(10)]
        verdicts = set()
        for geom in geoms:
            basis, n = geom.basis, geom.n
            own = [basis.closure(1 << i) for i in range(n)]
            u = sum(not (own[i] >> j) & 1 and not (own[j] >> i) & 1
                    for i in range(n) for j in range(i + 1, n))
            counted = len(closed_family(basis, max_n=n)) == 1 + n + u
            holds = check_2ex(geom).holds
            assert counted == holds, basis
            verdicts.add(holds)
        assert verdicts == {True, False}

    def test_exr_matches_sq_under_two_ex(self, pool_two_ex):
        for geom in pool_two_ex[:200]:
            assert check_exr(geom).holds == check_sq_exhaustive(geom).holds

    def test_two_ex_implies_pair_generation_implies_binary(self, pool_n6):
        for geom in pool_n6[:200]:
            if not check_2ex(geom).holds:
                continue
            assert check_caratheodory(geom, 2).holds
            reduced = reduce_to_binary_basis(geom)
            assert all(imp.premise.bit_count() <= 2 for imp in reduced.implications)

    def test_chain_is_strict_in_both_places(self):
        triangle = load_fixture("triangle").geometry
        assert check_caratheodory(triangle, 2).holds
        assert not check_2ex(triangle).holds
        fivepoint = load_fixture("fivepoint").geometry
        assert all(imp.premise.bit_count() <= 2
                   for imp in fivepoint.basis.implications)
        assert not check_caratheodory(fivepoint, 2).holds
