"""Validation, extreme points, closed-set families, alignment algebra."""

import random

import pytest

from segrep import (
    Alignment,
    GroundSet,
    GroundSetMismatch,
    Implication,
    ImplicationBasis,
    Infeasible,
    NotAGeometry,
    build_representation,
    closed_family,
    decide_cdim2,
    extendability_witness,
    join_alignments,
    linear_alignment,
    restrict_basis,
    validate_geometry,
)
from segrep import geometry
from segrep.cli import parse_geometry
from segrep.fixtures import fixture_text, load_fixture


def random_basis(rng, n, m):
    gs = GroundSet(tuple(f"e{i}" for i in range(n)))
    imps = []
    for _ in range(m):
        premise = rng.getrandbits(n)
        z = rng.randrange(n)
        imps.append(Implication(premise & ~(1 << z), 1 << z))
    return ImplicationBasis(gs, tuple(imps))


def naive_closure(basis, seed):
    """Fire implications until nothing changes."""
    closed = seed
    changed = True
    while changed:
        changed = False
        for imp in basis.implications:
            if imp.premise & ~closed == 0 and imp.conclusion & ~closed:
                closed |= imp.conclusion
                changed = True
    return closed


def literal_axiom_violation(basis):
    """First failure of the convex-geometry axioms, read off the definitions.

    Enumerates every subset, keeps the closed ones in canonical order (size,
    then members), and tests anti-exchange for every pair ``x < z`` outside
    each of them.  Returns ``(reason, witness)`` in the form NotAGeometry
    carries, or None.
    """
    n = basis.ground.n
    empty = naive_closure(basis, 0)
    if empty:
        return ("empty-set-not-closed", empty)

    def canonical(s):
        members = [i for i in range(n) if (s >> i) & 1]
        return (len(members), members)

    closed = sorted((s for s in range(1 << n) if naive_closure(basis, s) == s), key=canonical)
    for y in closed:
        outside = [i for i in range(n) if not (y >> i) & 1]
        for i, x in enumerate(outside):
            for z in outside[i + 1:]:
                if (
                    (naive_closure(basis, y | (1 << x)) >> z) & 1
                    and (naive_closure(basis, y | (1 << z)) >> x) & 1
                ):
                    return ("anti-exchange", (y, x, z))
    return None


class TestValidate:
    def test_notsuf_is_a_geometry(self):
        geom = validate_geometry(parse_geometry(fixture_text("notsuf")))
        assert geom.n == 4

    def test_empty_set_not_closed(self):
        gs = GroundSet(("a", "b"))
        basis = ImplicationBasis(gs, (Implication(0, gs.mask("a")),))
        with pytest.raises(NotAGeometry) as err:
            validate_geometry(basis)
        assert err.value.reason == "empty-set-not-closed"
        assert err.value.witness == gs.mask("a")

    def test_mutual_implications_violate_anti_exchange(self):
        gs = GroundSet(("a", "b"))
        basis = ImplicationBasis(
            gs,
            (Implication(gs.mask("a"), gs.mask("b")), Implication(gs.mask("b"), gs.mask("a"))),
        )
        with pytest.raises(NotAGeometry) as err:
            validate_geometry(basis)
        assert err.value.reason == "anti-exchange"
        y, x, z = err.value.witness
        assert y == 0 and {x, z} == {0, 1}
        # the alignment-style definition rejects it too
        kind, witness = extendability_witness(basis)
        assert kind == "no-extension" and witness == 0

    def test_agrees_with_extendability_definition(self):
        rng = random.Random(11)
        seen_invalid = 0
        for _ in range(400):
            basis = random_basis(rng, rng.randint(1, 6), rng.randint(0, 8))
            try:
                validate_geometry(basis)
                anti_exchange_ok = True
            except NotAGeometry:
                anti_exchange_ok = False
                seen_invalid += 1
            assert anti_exchange_ok == (extendability_witness(basis) is None)
        assert seen_invalid > 20  # the sample really exercises both outcomes

    def test_agrees_with_literal_anti_exchange_scan(self):
        rng = random.Random(21)
        anti_exchange_failures = 0
        for _ in range(500):
            basis = random_basis(rng, rng.randint(1, 6), rng.randint(0, 8))
            expected = literal_axiom_violation(basis)
            try:
                validate_geometry(basis)
                got = None
            except NotAGeometry as err:
                got = (err.reason, err.witness)
            assert got == expected
            anti_exchange_failures += got is not None and got[0] == "anti-exchange"
        assert anti_exchange_failures >= 20

    def test_dead_end_without_violation_raises(self, monkeypatch):
        # Unreachable by the Edelman-Jamison theorem; forced here to show the
        # inconsistency stops the run instead of passing the geometry.
        monkeypatch.setattr(geometry, "_first_dead_end", lambda family, full: 0)
        with pytest.raises(RuntimeError):
            validate_geometry(parse_geometry(fixture_text("un")))


class TestClosureScope:
    @pytest.fixture()
    def kernel_seeds(self, monkeypatch):
        """Seeds that reach ImplicationBasis.closure, in call order."""
        seeds = []
        original = ImplicationBasis.closure

        def counting(basis, seed):
            seeds.append(seed)
            return original(basis, seed)

        monkeypatch.setattr(ImplicationBasis, "closure", counting)
        return seeds

    def test_each_seed_reaches_the_kernel_once_per_operation(self, kernel_seeds):
        geom = load_fixture("seven").geometry
        geom.stats.reset()
        kernel_seeds.clear()
        assert decide_cdim2(geom).cdim2
        # check_2ex and check_sq run nested inside decide and share its cache
        assert len(kernel_seeds) == len(set(kernel_seeds))
        assert len(kernel_seeds) < geom.stats.closures  # hits count as queries

    def test_cache_is_dropped_on_return(self, kernel_seeds):
        geom = load_fixture("un").geometry
        decide_cdim2(geom)
        kernel_seeds.clear()
        geom.closure(0b11)
        geom.closure(0b11)
        assert kernel_seeds == [0b11, 0b11]

    def test_cache_is_dropped_on_raise(self, kernel_seeds):
        geom = load_fixture("notsuf").geometry
        with pytest.raises(Infeasible):
            build_representation(geom)
        kernel_seeds.clear()
        geom.closure(geom.ground.full)
        geom.closure(geom.ground.full)
        assert len(kernel_seeds) == 2


class TestExtremePoints:
    def test_unique_fixture_subsets(self):
        geom = validate_geometry(parse_geometry(fixture_text("unique")))
        gs = geom.ground
        full = gs.full
        assert geom.extreme_points(full & ~gs.mask("5")) == gs.mask("14")
        assert geom.extreme_points(full & ~gs.mask("513")) == gs.mask("24")

    def test_free_geometry_every_point_extreme(self):
        gs = GroundSet(("a", "b", "c"))
        geom = validate_geometry(ImplicationBasis(gs, ()))
        assert geom.extreme_points(gs.full) == gs.full

    def test_closed_sets_generated_by_their_extreme_points(self):
        rng = random.Random(12)
        for _ in range(200):
            basis = random_basis(rng, rng.randint(1, 6), rng.randint(0, 6))
            try:
                geom = validate_geometry(basis)
            except NotAGeometry:
                continue
            for y in geom.closed_sets().sets:
                assert geom.closure(geom.extreme_points(y)) == y

    def test_violators_break_extreme_generation_or_extendability(self):
        # converse direction: a failed validation is always visible either as
        # a closed set not generated by its extreme points or as a dead end
        rng = random.Random(13)
        found = 0
        for _ in range(400):
            basis = random_basis(rng, rng.randint(2, 6), rng.randint(1, 8))
            try:
                validate_geometry(basis)
                continue
            except NotAGeometry as err:
                if err.reason != "anti-exchange":
                    continue
            found += 1
            family = closed_family(basis)

            def extreme(subset):
                out = 0
                for x in range(basis.ground.n):
                    if (subset >> x) & 1 and not (basis.closure(subset & ~(1 << x)) >> x) & 1:
                        out |= 1 << x
                return out

            broken_generation = any(basis.closure(extreme(y)) != y for y in family)
            assert broken_generation or extendability_witness(basis) is not None
        assert found > 20

    def test_extreme_points_survive_restriction(self):
        rng = random.Random(14)
        for _ in range(150):
            basis = random_basis(rng, rng.randint(2, 6), rng.randint(0, 6))
            try:
                geom = validate_geometry(basis)
            except NotAGeometry:
                continue
            full = geom.ground.full
            ex = geom.extreme_points(full)
            subset = full & ~(rng.getrandbits(geom.n) & ~ex)
            assert ex & subset & ~geom.extreme_points(subset) == 0

    def test_restriction_soundness_outside_extreme_points(self):
        # dropping only extreme points keeps the restricted basis faithful
        rng = random.Random(15)
        for _ in range(120):
            basis = random_basis(rng, rng.randint(2, 5), rng.randint(0, 6))
            try:
                geom = validate_geometry(basis)
            except NotAGeometry:
                continue
            ex = geom.extreme_points(geom.ground.full)
            if not ex:
                continue
            drop = ex & rng.getrandbits(geom.n)
            if not drop:
                drop = ex & -ex
            subset = geom.ground.full & ~drop
            sub_basis = restrict_basis(basis, subset)
            positions = {e: i for i, e in enumerate(
                i for i in range(geom.n) if (subset >> i) & 1)}

            def compress(mask):
                out = 0
                for e, i in positions.items():
                    if (mask >> e) & 1:
                        out |= 1 << i
                return out

            for seed in range(1 << geom.n):
                if seed & ~subset:
                    continue
                assert sub_basis.closure(compress(seed)) == compress(
                    geom.restricted_closure(subset, seed))


class TestFamilies:
    def test_un_family(self):
        geom = validate_geometry(parse_geometry(fixture_text("un")))
        gs = geom.ground
        family = geom.closed_sets()
        assert set(family.sets) == {
            0, gs.mask("a"), gs.mask("b"), gs.mask("c"), gs.mask("ab"),
            gs.mask("bc"), gs.mask("abc"), gs.mask("bcd"), gs.full,
        }

    def test_free_two_element_family(self):
        gs = GroundSet(("a", "b"))
        geom = validate_geometry(ImplicationBasis(gs, ()))
        assert set(geom.closed_sets().sets) == {0, 1, 2, 3}

    def test_notsuf_meet_irreducibles(self):
        geom = validate_geometry(parse_geometry(fixture_text("notsuf")))
        gs = geom.ground
        family = set(geom.closed_sets().sets)
        special = [gs.mask("bd"), gs.mask("ad"), gs.mask("c")]
        for s in special:
            assert s in family
            above = [t for t in family if t != s and s & ~t == 0]
            meet_of_above = gs.full
            for t in above:
                meet_of_above &= t
            assert meet_of_above != s  # meet-irreducible
        for i, s in enumerate(special):
            for t in special[i + 1:]:
                assert s & ~t and t & ~s  # pairwise incomparable

    def test_family_is_an_alignment_and_round_trips(self):
        rng = random.Random(16)
        for _ in range(80):
            basis = random_basis(rng, rng.randint(1, 5), rng.randint(0, 5))
            family = Alignment.from_masks(basis.ground, closed_family(basis))
            assert family.is_intersection_closed()
            for seed in range(1 << basis.ground.n):
                assert family.generated_closure(seed) == basis.closure(seed)
            assert set(family.sets) == {
                s for s in range(1 << basis.ground.n) if basis.closure(s) == s
            }


class TestAlignmentOps:
    def test_linear_alignment_prefixes(self):
        gs = GroundSet(("a", "b", "c", "d"))
        fam = linear_alignment(gs, (0, 1, 2, 3))
        assert set(fam.sets) == {0, gs.mask("a"), gs.mask("ab"), gs.mask("abc"), gs.full}
        single = GroundSet(("a",))
        assert set(linear_alignment(single, (0,)).sets) == {0, 1}
        fam_r = linear_alignment(gs, (2, 1, 3, 0))
        assert set(fam_r.sets) == {0, gs.mask("c"), gs.mask("cb"), gs.mask("cbd"), gs.full}

    def test_join_reproduces_un_family(self):
        gs = GroundSet(("a", "b", "c", "d"))
        left = linear_alignment(gs, (0, 1, 2, 3))
        right = linear_alignment(gs, (2, 1, 3, 0))
        joined = join_alignments(left, right)
        assert set(joined.sets) == set(left.sets) | set(right.sets) | {gs.mask("b")}

    def test_join_idempotent_and_two_chains_fill_square(self):
        gs = GroundSet(("a", "b"))
        fam_a = linear_alignment(gs, (0, 1))
        fam_b = linear_alignment(gs, (1, 0))
        assert join_alignments(fam_a, fam_a).sets == fam_a.sets
        assert set(join_alignments(fam_a, fam_b).sets) == {0, 1, 2, 3}

    def test_join_algebra_on_sampled_alignments(self):
        rng = random.Random(17)
        gs = GroundSet(tuple("abcde"))

        def sample():
            basis = random_basis(rng, 5, rng.randint(0, 5))
            return Alignment.from_masks(gs, closed_family(basis))

        for _ in range(40):
            f1, f2, f3 = sample(), sample(), sample()
            j12 = join_alignments(f1, f2)
            assert j12.sets == join_alignments(f2, f1).sets
            assert set(j12.sets) >= set(f1.sets) | set(f2.sets)
            left = join_alignments(j12, f3)
            right = join_alignments(f1, join_alignments(f2, f3))
            assert left.sets == right.sets

    def test_join_of_geometries_is_a_geometry(self):
        rng = random.Random(18)
        for _ in range(60):
            n = rng.randint(2, 5)
            gs = GroundSet(tuple(f"e{i}" for i in range(n)))
            orders = []
            for _ in range(2):
                order = list(range(n))
                rng.shuffle(order)
                orders.append(order)
            joined = join_alignments(
                linear_alignment(gs, orders[0]), linear_alignment(gs, orders[1])
            )
            members = set(joined.sets)
            assert 0 in members and gs.full in members
            for y in members:
                assert y == gs.full or any(
                    y | (1 << x) in members for x in range(n) if not (y >> x) & 1
                )

    def test_ground_set_mismatch(self):
        fam1 = linear_alignment(GroundSet(("a", "b")), (0, 1))
        fam2 = linear_alignment(GroundSet(("x", "y")), (0, 1))
        with pytest.raises(GroundSetMismatch):
            join_alignments(fam1, fam2)


class TestRestrictedClosure:
    def test_notsuf_example(self):
        geom = validate_geometry(parse_geometry(fixture_text("notsuf")))
        gs = geom.ground
        assert geom.restricted_closure(gs.mask("abc"), gs.mask("ab")) == gs.mask("abc")

    def test_full_subset_is_plain_closure(self):
        geom = validate_geometry(parse_geometry(fixture_text("notsuf")))
        gs = geom.ground
        for seed in range(1 << geom.n):
            assert geom.restricted_closure(gs.full, seed) == geom.closure(seed)

    def test_empty_seed(self):
        geom = validate_geometry(parse_geometry(fixture_text("un")))
        assert geom.restricted_closure(geom.ground.mask("ab"), 0) == 0

    def test_seed_outside_subset_rejected(self):
        geom = validate_geometry(parse_geometry(fixture_text("un")))
        gs = geom.ground
        with pytest.raises(ValueError):
            geom.restricted_closure(gs.mask("ab"), gs.mask("c"))
