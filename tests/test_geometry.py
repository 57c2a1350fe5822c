"""Validation, extreme points, closed-set families, alignment algebra."""

import random
import tracemalloc

import pytest

from segrep import (
    GroundSet,
    Implication,
    ImplicationBasis,
    Infeasible,
    NotAGeometry,
    build_representation,
    check_2ex,
    closed_family,
    core,
    decide_cdim2,
    geometry,
    validate_geometry,
)
from segrep.cli import parse_geometry
from segrep.core import canonical_key, prefix_masks
from fixtures import (
    FIXTURE_NAMES,
    direct_sums,
    disjoint_chains_geometry,
    fixture_text,
    load_fixture,
    seeded_chain_pair,
    varied_basis,
)
from oracles import (
    Alignment,
    GroundSetMismatch,
    anti_exchange_mismatches,
    anti_exchange_witness_by_definition,
    closed_sets,
    closed_sets_by_definition,
    dead_end_by_definition,
    extendability_witness,
    extreme_points_by_definition,
    fixpoint,
    index_mismatches,
    join_alignments,
    linear_alignment,
    peel_and_scan_faults,
    walk_by_definition,
)


def random_basis(rng, n, m):
    gs = GroundSet(tuple(f"e{i}" for i in range(n)))
    imps = []
    for _ in range(m):
        premise = rng.getrandbits(n)
        z = rng.randrange(n)
        imps.append(Implication(premise & ~(1 << z), 1 << z))
    return ImplicationBasis(gs, tuple(imps))


def literal_axiom_violation(basis):
    """First failure of the convex-geometry axioms, read off the definitions.

    Enumerates every subset, keeps the closed ones in canonical order (size,
    then members), and tests anti-exchange for every pair ``x < z`` outside
    each of them.  Returns ``(reason, witness)`` in the form NotAGeometry
    carries, or None.
    """
    n = basis.ground.n
    empty = fixpoint(basis, 0)
    if empty:
        return ("empty-set-not-closed", empty)

    def canonical(s):
        members = [i for i in range(n) if (s >> i) & 1]
        return (len(members), members)

    closed = sorted((s for s in range(1 << n) if fixpoint(basis, s) == s), key=canonical)
    for y in closed:
        outside = [i for i in range(n) if not (y >> i) & 1]
        for i, x in enumerate(outside):
            for z in outside[i + 1:]:
                if (
                    (fixpoint(basis, y | (1 << x)) >> z) & 1
                    and (fixpoint(basis, y | (1 << z)) >> x) & 1
                ):
                    return ("anti-exchange", (y, x, z))
    return None


def expected_violation(basis):
    """:func:`literal_axiom_violation`'s verdict, with the anti-exchange
    witness that validation names at the closed-set walk's first dead end
    (:func:`oracles.anti_exchange_witness_by_definition`) in place of the
    first one in canonical order; that witness must re-derive."""
    verdict = literal_axiom_violation(basis)
    if verdict is None or verdict[0] != "anti-exchange":
        return verdict
    y, x, z = witness = anti_exchange_witness_by_definition(basis)
    assert fixpoint(basis, y) == y and not y >> x & 1 and not y >> z & 1, basis
    assert fixpoint(basis, y | 1 << x) >> z & 1 and fixpoint(basis, y | 1 << z) >> x & 1, basis
    return "anti-exchange", witness


@pytest.fixture()
def kernel_seeds(monkeypatch):
    """Seeds that reach ImplicationBasis.closure, in call order."""
    seeds = []
    original = ImplicationBasis.closure

    def counting(basis, seed):
        seeds.append(seed)
        return original(basis, seed)

    monkeypatch.setattr(ImplicationBasis, "closure", counting)
    return seeds


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
            expected = expected_violation(basis)
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
        # inconsistency stops the run instead of passing the geometry: the
        # walk reports a false dead end, the empty set of the whole ground
        # set, which has closed one-element extensions.
        monkeypatch.setattr(ImplicationBasis, "closed_sets_by_extension",
                            lambda basis, start: (0, basis.ground.full))
        with pytest.raises(RuntimeError):
            validate_geometry(parse_geometry(fixture_text("un")))

    @pytest.mark.parametrize("k", [10, 12])
    def test_late_violation_closes_one_seed_per_element_outside(self, kernel_seeds, k):
        # free e0 ... e(k-1), then x and y, each pulling in the other once
        # all of them are in: anti-exchange fails only at {e0 ... e(k-1)},
        # the walk's dead end, and naming it closes y + x for each of the
        # two elements outside
        labels = [f"e{i}" for i in range(k)]
        text = (f"elements {' '.join(labels)} x y\n"
                f"imp {' '.join(labels)} x -> y\nimp {' '.join(labels)} y -> x\n")
        basis = parse_geometry(text)
        kernel_seeds.clear()
        with pytest.raises(NotAGeometry) as err:
            validate_geometry(basis)
        y = (1 << k) - 1
        assert (err.value.reason, err.value.witness) == ("anti-exchange", (y, k, k + 1))
        assert kernel_seeds == [0, y | 1 << k, y | 1 << k + 1]


class TestPairClosures:
    def test_table_matches_the_kernel_on_every_pair(self, pool_small, pool_n6):
        # row i holds C_i at [i][i] and the closure of {i, j} at [i][j] and
        # [j][i]; that is the closure of C_i | C_j, and C_i itself when it
        # holds j, for any closure operator: non-geometries count too
        bases = [geom.basis for geom in pool_small + pool_n6]
        bases += [load_fixture(name).geometry.basis for name in FIXTURE_NAMES]
        rng = random.Random(31)
        violators = 0
        for _ in range(2400):
            basis = varied_basis(rng)
            try:
                validate_geometry(basis)
            except NotAGeometry as err:
                if err.reason == "anti-exchange":
                    violators += 1
                    bases.append(basis)
        assert violators == 920
        for basis in bases:
            n = basis.ground.n
            expected = [
                [basis.closure((1 << i) | (1 << j)) for j in range(n)] for i in range(n)
            ]
            assert geometry.ConvexGeometry(basis).pair_closures() == expected, basis


class TestOneClosurePath:
    def test_decide_closes_singletons_then_the_non_nested_pairs(self, kernel_seeds):
        # check_sq fills the pair table and check_2ex reads it: a fresh
        # geometry sends each singleton to the kernel, then C_i | C_j for
        # each pair that neither singleton closure holds, and a second
        # decision sends nothing
        for name in FIXTURE_NAMES:
            geom = validate_geometry(parse_geometry(fixture_text(name)))
            n = geom.n
            own = [geom.basis.closure(1 << i) for i in range(n)]
            expected = [1 << i for i in range(n)] + [
                own[i] | own[j]
                for i in range(n) for j in range(i + 1, n)
                if not ((own[i] >> j) & 1 or (own[j] >> i) & 1)
            ]
            kernel_seeds.clear()
            decision = decide_cdim2(geom)
            assert kernel_seeds == expected, name
            assert geom.closure_calls == len(expected)
            kernel_seeds.clear()
            again = decide_cdim2(geom)
            assert kernel_seeds == [] and geom.closure_calls == len(expected)
            assert (again.two_ex.witness, again.sq.witness) == (
                decision.two_ex.witness, decision.sq.witness)

    def test_every_query_reaches_the_kernel_after_decide(self, kernel_seeds):
        geom = load_fixture("un").geometry
        decide_cdim2(geom)
        kernel_seeds.clear()
        geom.closure(0b11)
        geom.closure(0b11)
        assert kernel_seeds == [0b11, 0b11]

    def test_every_query_reaches_the_kernel_after_a_raise(self, kernel_seeds):
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

    def test_match_the_definition_on_every_subset(self, pool_small, pool_n6):
        # closed and non-closed subsets alike: the one-pass answer on the
        # closure must equal one closure per member of the subset itself;
        # once more after decide, which fills the extreme-point index
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        for geom in geoms:
            for subset in range(geom.ground.full + 1):
                assert geom.extreme_points(subset) == extreme_points_by_definition(
                    geom, subset), (geom.basis, subset)
        for geom in geoms:
            decide_cdim2(geom)
            for subset in range(geom.ground.full + 1):
                assert geom.extreme_points(subset) == extreme_points_by_definition(
                    geom, subset), (geom.basis, subset)

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
            for y in closed_sets(geom):
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
            family = closed_sets_by_definition(basis)

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
        # build_representation's insertion compares closure(seed) & subset
        # on a subset left by dropping extreme points: such a subset is
        # closed, so every seed inside it closes inside it
        rng = random.Random(15)
        for _ in range(120):
            basis = random_basis(rng, rng.randint(2, 5), rng.randint(0, 6))
            try:
                geom = validate_geometry(basis)
            except NotAGeometry:
                continue
            full = geom.ground.full
            ex = geom.extreme_points(full)
            if not ex:
                continue
            drop = ex & rng.getrandbits(geom.n)
            if not drop:
                drop = ex & -ex
            domain = full & ~drop
            assert geom.closure(domain) == domain
            for seed in range(1 << geom.n):
                if not seed & ~domain:
                    assert not geom.closure(seed) & ~domain


class TestExtremeIndex:
    def test_lookup_matches_the_basis_on_every_closed_set(self, pool_small, pool_n6):
        # after the pair table, index hits and basis passes alike give the
        # basis's answer on every closed set
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        assert not index_mismatches(geoms)

    def test_every_closed_set_is_a_hit_under_two_ex(self, pool_small, pool_n6, basis_passes):
        # with at most two extreme points per set, every closed set is the
        # empty set, a singleton closure or the closure of a pair that
        # neither singleton closure holds; elsewhere some closed set misses
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        holding = missing = 0
        for geom in geoms:
            geom.pair_closures()
            family = closed_family(geom.basis)
            basis_passes.clear()
            for closed in family:
                geom.extreme_points_of_closed(closed)
            if check_2ex(geom).holds:
                holding += 1
                assert basis_passes == [], geom.basis
            else:
                missing += bool(basis_passes)
        assert holding > 500 and missing == len(geoms) - holding

    def test_peel_and_scan_read_no_basis_after_decide(self, basis_passes):
        # on a 40-element chain pair the extreme points of check_sq and of
        # the walk that builds and reconstructs all come from the index,
        # while the walk still asks one closure per query
        geom = seeded_chain_pair(random.Random(40), 40)[0]
        assert not peel_and_scan_faults(geom, basis_passes)

    def test_before_the_table_every_query_reads_the_basis(self, basis_passes):
        geom = validate_geometry(parse_geometry(fixture_text("unique")))
        full = geom.ground.full
        assert geom.extreme_points(full) == geom.ground.mask("45")
        assert basis_passes == [full]


class TestFamilies:
    def test_un_family(self):
        geom = validate_geometry(parse_geometry(fixture_text("un")))
        gs = geom.ground
        assert set(closed_sets(geom)) == {
            0, gs.mask("a"), gs.mask("b"), gs.mask("c"), gs.mask("ab"),
            gs.mask("bc"), gs.mask("abc"), gs.mask("bcd"), gs.full,
        }

    def test_free_two_element_family(self):
        gs = GroundSet(("a", "b"))
        geom = validate_geometry(ImplicationBasis(gs, ()))
        assert set(closed_sets(geom)) == {0, 1, 2, 3}

    def test_validated_geometry_keeps_no_family(self):
        # validation walks the 16,384 closed sets of the free geometry and
        # drops them; closed_sets(geom) walks again when asked
        basis = ImplicationBasis(GroundSet(tuple(f"e{i}" for i in range(14))), ())
        tracemalloc.start()
        try:
            geom = validate_geometry(basis)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024, held
        assert closed_sets(geom) == tuple(sorted(range(1 << 14), key=canonical_key))

    def test_notsuf_meet_irreducibles(self):
        geom = validate_geometry(parse_geometry(fixture_text("notsuf")))
        gs = geom.ground
        family = set(closed_sets(geom))
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
            family = Alignment.from_masks(basis.ground, closed_sets_by_definition(basis))
            assert family.is_intersection_closed()
            for seed in range(1 << basis.ground.n):
                assert family.generated_closure(seed) == basis.closure(seed)
            assert set(family.sets) == {
                s for s in range(1 << basis.ground.n) if basis.closure(s) == s
            }


class TestClosedSetsByExtension:
    """The closed-set walk that reads closed one-element extensions off the
    basis, against the family of every subset equal to its closure."""

    @staticmethod
    def outcome(basis):
        walked, expected, brute = walk_by_definition(basis)
        assert walked == expected, basis
        try:
            geom = validate_geometry(basis)
        except NotAGeometry as err:
            # closed_family enumerates only convex geometries and raises
            # the same witness
            with pytest.raises(NotAGeometry) as family_err:
                closed_family(basis)
            assert (family_err.value.reason, family_err.value.witness) == (
                err.reason, err.witness), basis
            if brute[0]:
                assert (err.reason, err.witness) == ("empty-set-not-closed", brute[0])
            else:
                assert err.reason == "anti-exchange"
                assert isinstance(walked, tuple), basis
                assert anti_exchange_mismatches([basis]) == [], basis
            return err.reason
        assert closed_family(basis) == frozenset(brute), basis
        assert closed_sets(geom) == brute, basis
        assert walked is not None, basis
        return "geometry"

    def test_geometries_and_fixtures(self, pool_small, pool_n6):
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        for geom in geoms:
            assert self.outcome(geom.basis) == "geometry"

    def test_random_bases(self):
        rng = random.Random(31)
        seen = {}
        for _ in range(2400):
            kind = self.outcome(varied_basis(rng))
            seen[kind] = seen.get(kind, 0) + 1
        assert min(seen.values()) >= 300, seen

    def test_direct_sums(self):
        # sums of one to three draws on shuffled elements: a set is closed iff
        # its trace on each part is, and the walk multiplies the part
        # families; it dead-ends iff some closed set short of the ground set
        # does, and validation names its witness at the walk's dead end
        seen = {"sums": 0, "parts": 0, "empty": 0, "dead": 0}
        for basis in direct_sums(random.Random(30)):
            walked, expected, brute = walk_by_definition(basis)
            assert walked == expected, basis
            try:
                validate_geometry(basis)
                verdict = None
            except NotAGeometry as err:
                verdict = (err.reason, err.witness)
            assert verdict == expected_violation(basis), basis
            seen["sums"] += 1
            seen["parts"] += len(basis.parts()) > 1
            seen["empty"] += brute[0] != 0
            seen["dead"] += isinstance(expected, tuple)
        assert seen == {"sums": 2104, "parts": 1382, "empty": 976, "dead": 1153}

    def test_edges_of_the_walk(self, kernel_seeds):
        # no element: no part, and the empty product is {∅}; 16 free
        # elements: 16 parts of two sets each; four chains of five: 6^4 sets
        assert ImplicationBasis(GroundSet(()), ()).closed_sets_by_extension(0) == {0}
        free = ImplicationBasis(GroundSet(tuple(f"e{i}" for i in range(16))), ())
        assert free.parts() == [1 << i for i in range(16)]
        assert free.closed_sets_by_extension(0) == set(range(1 << 16))
        assert kernel_seeds == []
        basis = disjoint_chains_geometry((5, 5, 5, 5)).basis
        assert basis.parts() == [0b11111 << k for k in range(0, 20, 5)]
        kernel_seeds.clear()
        assert len(basis.closed_sets_by_extension(0)) == 6**4
        assert kernel_seeds == []

    def test_validation_makes_one_closure_call(self, kernel_seeds):
        # the empty set's closure; the walk reads every closed set's closed
        # extensions off the basis
        rng = random.Random(9)
        cases = []
        for n in range(6, 29, 2):
            geom, left, right = seeded_chain_pair(rng, n)
            family = {a & b for a in prefix_masks(left) for b in prefix_masks(right)}
            cases.append((geom.basis, family))
        geom = disjoint_chains_geometry((3, 3, 3, 3))
        cases.append((geom.basis, set(closed_sets(geom))))
        assert len(cases[-1][1]) == 4**4
        for basis, family in cases:
            kernel_seeds.clear()
            validate_geometry(basis, max_n=basis.ground.n)
            assert kernel_seeds == [0], (basis.ground.n, len(kernel_seeds))
            # past the default guard of 20, closed_sets(geom) refuses to walk
            assert closed_family(basis, max_n=basis.ground.n) == family

    def test_non_geometries_close_each_seed_once(self, kernel_seeds):
        # naming the anti-exchange witness closes each y + x once, for each
        # element outside the walk's dead end y in its part, and nothing
        # else beyond the empty set
        rng = random.Random(31)
        violators = 0
        for _ in range(2400):
            basis = varied_basis(rng)
            kernel_seeds.clear()
            try:
                validate_geometry(basis)
            except NotAGeometry as err:
                if err.reason == "anti-exchange":
                    violators += 1
                    assert len(kernel_seeds) == len(set(kernel_seeds)), basis
                    y, part = dead_end_by_definition(basis, 0)
                    assert len(kernel_seeds) <= 1 + (part & ~y).bit_count(), basis
        assert violators == 920

    def test_validation_does_not_sort(self, monkeypatch):
        # the family stays unordered until closed_sets(geom) asks for it
        calls = []
        original = core.canonical_key

        def counting(mask):
            calls.append(mask)
            return original(mask)

        monkeypatch.setattr(core, "canonical_key", counting)
        geoms = [validate_geometry(parse_geometry(fixture_text(name))) for name in FIXTURE_NAMES]
        geoms.append(disjoint_chains_geometry((3, 3, 3, 3)))
        assert calls == []
        for geom in geoms:
            assert closed_sets(geom) == closed_sets_by_definition(geom.basis)
        assert calls

    def test_walk_beyond_the_small_pools(self, kernel_seeds):
        # whole families of 1,024, 256 and 625 sets, with no closure call
        gs = GroundSet(tuple(f"e{i}" for i in range(10)))
        assert ImplicationBasis(gs, ()).closed_sets_by_extension(0) == set(range(1 << 10))
        assert kernel_seeds == []
        for sizes, count in (((3, 3, 3, 3), 256), ((4, 4, 4, 4), 625)):
            basis = disjoint_chains_geometry(sizes).basis
            family = {0}
            offset = 0
            for size in sizes:
                # element offset + i pulls in offset + i - 1: a group's
                # closed parts are its prefixes
                prefixes = [((1 << k) - 1) << offset for k in range(size + 1)]
                family = {y | p for y in family for p in prefixes}
                offset += size
            assert len(family) == count
            kernel_seeds.clear()
            assert basis.closed_sets_by_extension(0) == family
            assert kernel_seeds == []
        # a 12-element chain pair with one planted mutual pair x -> y, y -> x
        rng = random.Random(12)
        n = 12
        chains = seeded_chain_pair(rng, n)[0]
        x, y = rng.sample(range(n), 2)
        mutual = (Implication(1 << x, 1 << y), Implication(1 << y, 1 << x))
        basis = ImplicationBasis(chains.ground, chains.basis.implications + mutual)
        kernel_seeds.clear()
        assert basis.closed_sets_by_extension(0) == dead_end_by_definition(basis, 0)
        assert kernel_seeds == []
        assert self.outcome(basis) == "anti-exchange"

    def test_walk_dead_ends_across_blocks(self, kernel_seeds):
        # a mutual pair x -> y, y -> x planted in the first four elements,
        # then in the last four, of chain pairs whose top block of the
        # kernel's tables holds one element (n = 21, 33) or four (n = 40)
        rng = random.Random(21)
        for n in (21, 33, 40):
            chains = seeded_chain_pair(rng, n)[0]
            for x, y in (rng.sample(range(4), 2), (n - 1, rng.randrange(n - 4, n - 1))):
                mutual = (Implication(1 << x, 1 << y), Implication(1 << y, 1 << x))
                basis = ImplicationBasis(chains.ground, chains.basis.implications + mutual)
                kernel_seeds.clear()
                walked = basis.closed_sets_by_extension(0)
                assert walked == dead_end_by_definition(basis, 0), (n, x, y)
                assert kernel_seeds == []
                with pytest.raises(NotAGeometry) as err:
                    validate_geometry(basis, max_n=n)
                assert err.value.reason == "anti-exchange"
                assert err.value.witness == anti_exchange_witness_by_definition(basis)
                closed, a, b = err.value.witness
                assert basis.closure(closed) == closed
                assert (basis.closure(closed | 1 << a) >> b) & 1
                assert (basis.closure(closed | 1 << b) >> a) & 1


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
            return Alignment.from_masks(gs, closed_sets_by_definition(basis))

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

