"""Segment model, constructive builder, exhaustive oracle, interval layouts."""

import random
import sys
from itertools import combinations

import pytest

from segrep import (
    ConvexGeometry,
    DuplicateEndpoint,
    GroundSet,
    GroundSetTooLarge,
    Implication,
    ImplicationBasis,
    Infeasible,
    SegmentRepresentation,
    build_representation,
    check_2ex,
    count_representations,
    decide_cdim2,
    enumerate_representations,
    iter_bits,
    normalize_layout,
    reconstruct_by_peeling,
    segment_closure,
    segment_layout,
    validate_geometry,
    verify_representation,
)
from segrep import representation, uniqueness
from fixtures import geometry_from_chains, load_fixture, seeded_chain_pair, unvalidated_basis
from oracles import (
    brute_force_cdim2,
    check_sq_exhaustive,
    join_alignments,
    linear_alignment,
    verify_representation_by_pairs,
    verify_representation_by_proof,
    verify_representation_exhaustive,
)


def _copy(rep):
    """An equal representation with none of its tables built yet."""
    return SegmentRepresentation(rep.left, rep.right)


def _eager(geom, rep):
    """What every reader of the tables must give, read straight off the
    chains, and the verification by closing every seed of two elements."""
    left, right = rep.left, rep.right
    lrank = {e: left.index(e) + 1 for e in left}
    rrank = {e: right.index(e) + 1 for e in right}
    lpref = [sum(1 << e for e in left[:k]) for k in range(rep.n + 1)]
    rpref = [sum(1 << e for e in right[:k]) for k in range(rep.n + 1)]
    closures = [0] + [
        lpref[max(lrank[e] for e in iter_bits(seed))]
        & rpref[max(rrank[e] for e in iter_bits(seed))]
        for seed in range(1, 1 << rep.n)
    ]
    return {
        "ranks": [(lrank[e], rrank[e]) for e in left],
        "prefixes": (geom.ground.full, (lrank, rrank, tuple(lpref), tuple(rpref))),
        "segment_closure": closures,
        "segment_layout": tuple((e, -lrank[e], rrank[e]) for e in range(rep.n)),
        "verify_representation": verify_representation_by_pairs(geom, rep),
    }


# Each reader of a representation's derived tables.
READS = {
    "ranks": lambda geom, rep: [(rep.left_rank(e), rep.right_rank(e)) for e in rep.left],
    "prefixes": lambda geom, rep: (rep.elements, rep._derive()),
    "segment_closure": lambda geom, rep: [segment_closure(rep, s) for s in range(1 << rep.n)],
    "segment_layout": lambda geom, rep: segment_layout(rep),
    "verify_representation": lambda geom, rep: verify_representation(geom, rep),
}


@pytest.fixture(scope="module")
def un():
    return load_fixture("un").geometry


@pytest.fixture(scope="module")
def un_rep(un):
    return build_representation(un)


class TestSegmentClosure:
    def test_un_examples(self, un, un_rep):
        gs = un.ground
        assert segment_closure(un_rep, gs.mask("d")) == gs.mask("bcd")
        assert segment_closure(un_rep, gs.mask("b")) == gs.mask("b")
        assert segment_closure(un_rep, gs.full) == gs.full
        assert segment_closure(un_rep, 0) == 0

    def test_seed_outside_the_elements_is_rejected(self, un, un_rep):
        with pytest.raises(ValueError):
            segment_closure(un_rep, 1 << un.n)

    def test_pairwise_formula(self, un_rep):
        # membership is exactly "below both maxima of the seed"
        elements = list(un_rep.left)
        for u in elements:
            for v in elements:
                seed = (1 << u) | (1 << v)
                closed = segment_closure(un_rep, seed)
                max_l = max(un_rep.left_rank(u), un_rep.left_rank(v))
                max_r = max(un_rep.right_rank(u), un_rep.right_rank(v))
                for z in elements:
                    inside = (un_rep.left_rank(z) <= max_l
                              and un_rep.right_rank(z) <= max_r)
                    assert inside == bool((closed >> z) & 1)

    def test_matches_prefix_join_closure(self):
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(1, 8)
            gs = GroundSet(tuple(f"e{i}" for i in range(n)))
            left = list(range(n))
            right = list(range(n))
            rng.shuffle(left)
            rng.shuffle(right)
            rep = SegmentRepresentation(tuple(left), tuple(right))
            family = join_alignments(
                linear_alignment(gs, left), linear_alignment(gs, right))
            for seed in range(1 << n):
                assert segment_closure(rep, seed) == family.generated_closure(seed)


class TestVerify:
    def test_un_representation_verifies(self, un, un_rep):
        assert verify_representation(un, un_rep) == (True, None)
        assert verify_representation_exhaustive(un, un_rep) == (True, None)

    def test_swapped_elements_fail_with_least_witness(self, un):
        gs = un.ground
        bad = SegmentRepresentation(
            tuple(gs.index(x) for x in "bacd"), tuple(gs.index(x) for x in "cbda"))
        un.closure_calls = 0
        ok, witness = verify_representation(un, bad)
        assert not ok and witness == gs.mask("a")
        # the build filled the closure table, so verification asks nothing
        assert un.closure_calls == 0

    def test_both_verifiers_reject_a_swapped_right_chain(self, un, un_rep):
        right = un_rep.right
        bad = SegmentRepresentation(un_rep.left, (right[1], right[0]) + right[2:])
        un.closure_calls = 0
        assert verify_representation(un, bad) == (False, 4)
        assert un.closure_calls == 0
        assert verify_representation_exhaustive(un, bad) == (False, 4)

    def test_single_element(self):
        geom = validate_geometry(ImplicationBasis(GroundSet(("a",)), ()))
        rep = SegmentRepresentation((0,), (0,))
        assert verify_representation(geom, rep) == (True, None)

    def test_rejects_a_representation_of_a_proper_subset(self, un, un_rep):
        top = un_rep.left[-1]
        rest = SegmentRepresentation(
            tuple(e for e in un_rep.left if e != top),
            tuple(e for e in un_rep.right if e != top))
        with pytest.raises(ValueError):
            verify_representation(un, rest)

    def test_matches_the_pair_scan(self, pool_small, pool_n6):
        # random and built chain pairs on both pools, and chain-pair bases
        # against their own chains, exact and with one adjacent transposition
        rng = random.Random(16)
        cases = []
        for geom in pool_small + pool_n6:
            n = geom.n
            cases.append((geom, SegmentRepresentation(
                tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n)))))
            try:
                cases.append((geom, build_representation(geom)))
            except Infeasible:
                pass
        for n in range(2, 9):
            for _ in range(12):
                geom, left, right = seeded_chain_pair(rng, n)
                cases.append((geom, SegmentRepresentation(left, right)))
                for i in range(n - 1):
                    swapped = left[:i] + [left[i + 1], left[i]] + left[i + 2:]
                    cases.append((geom, SegmentRepresentation(swapped, right)))
                    swapped = right[:i] + [right[i + 1], right[i]] + right[i + 2:]
                    cases.append((geom, SegmentRepresentation(left, swapped)))
        verdicts = set()
        for geom, rep in cases:
            expected = verify_representation_by_pairs(geom, rep)
            geom.closure_calls = 0
            assert verify_representation(geom, rep) == expected
            # one pass: no seed is closed twice, none after the witness
            seeds = [0] + [1 << e for e in range(geom.n)]
            seeds += [(1 << x) | (1 << y) for x, y in combinations(range(geom.n), 2)]
            if not expected[0]:
                seeds = seeds[:seeds.index(expected[1]) + 1]
            assert geom.closure_calls <= len(seeds)
            assert verify_representation_exhaustive(geom, rep)[0] == expected[0]
            verdicts.add(expected[0])
        assert verdicts == {True, False}

    def test_reads_the_table_after_decide(self, pool_small, pool_n6):
        # after decide no seed reaches the kernel, on any geometry, and the
        # verdict and witness are those of the pair scan and of the proof
        # read off the basis
        rng = random.Random(23)
        verdicts = set()
        for geom in pool_small[:300] + pool_n6[:200]:
            n = geom.n
            decide_cdim2(geom)
            rep = SegmentRepresentation(
                tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n)))
            geom.closure_calls = 0
            result = verify_representation(geom, rep)
            assert geom.closure_calls == 0
            assert result == verify_representation_by_pairs(geom, rep)
            assert result == verify_representation_by_proof(geom, rep)
            verdicts.add(result[0])
        assert verdicts == {True, False}

    def test_chain_pair_basis_needs_no_closure_query(self):
        # a standalone verification fills the closure table: the n singletons
        # and the pairs the chains cross.  Once it is full, verification asks
        # nothing and reconstruction only its 2n extreme-point queries
        n = 60
        geom, left, right = seeded_chain_pair(random.Random(60), n)
        rep = SegmentRepresentation(left, right)
        lrank, rrank = {e: r for r, e in enumerate(left)}, {e: r for r, e in enumerate(right)}
        crossing = sum((lrank[i] < lrank[j]) != (rrank[i] < rrank[j])
                       for i in range(n) for j in range(i + 1, n))
        geom.closure_calls = 0
        assert verify_representation(geom, rep) == (True, None)
        assert geom.closure_calls == n + crossing
        geom.closure_calls = 0
        assert verify_representation(geom, rep) == (True, None)
        assert geom.closure_calls == 0
        assert reconstruct_by_peeling(geom) == rep
        assert geom.closure_calls == 2 * n

    def test_empty_seed_is_read_off_the_basis(self, monkeypatch):
        # the builder's unverified chain pairs on bases that are not always
        # geometries: when the empty set is not closed, the chain pair can
        # match every seed of one or two elements, and both verifiers then
        # reject it at the empty seed, with no closure query of their own
        monkeypatch.setattr(representation, "verify_representation", lambda geom, rep: (True, None))
        rng = random.Random(5)
        seen = {True: 0, False: 0, "empty": 0}
        for _ in range(2000):
            basis = unvalidated_basis(rng)
            geom = ConvexGeometry(basis)
            try:
                rep = build_representation(geom)
            except Infeasible:
                continue
            geom.closure_calls = 0
            result = verify_representation(geom, rep)
            assert geom.closure_calls == 0
            assert result == verify_representation_by_proof(geom, rep), basis
            assert result[0] == verify_representation_exhaustive(geom, rep)[0], basis
            seen[result[0]] += 1
            if result == (False, 0):
                assert basis.closure(0), basis
                seen["empty"] += 1
        assert seen == {True: 288, False: 550, "empty": 319}

    def test_exhaustive_guard(self, un, un_rep):
        with pytest.raises(GroundSetTooLarge):
            verify_representation_exhaustive(un, un_rep, max_n=2)


class TestBuilder:
    def test_un_canonical_chains(self, un, un_rep):
        gs = un.ground
        assert un_rep == SegmentRepresentation(
            tuple(gs.index(x) for x in "abcd"), tuple(gs.index(x) for x in "cbda"))

    def test_unique_fixture_chains(self):
        fixture = load_fixture("unique")
        gs = fixture.geometry.ground
        rep = build_representation(fixture.geometry)
        assert rep == SegmentRepresentation(
            tuple(gs.index(x) for x in ("4", "2", "3", "1", "5")),
            tuple(gs.index(x) for x in ("2", "1", "3", "5", "4")))

    def test_notsuf_infeasible(self):
        geom = load_fixture("notsuf").geometry
        with pytest.raises(Infeasible):
            build_representation(geom)

    def test_built_representation_verifies_exhaustively(self, pool_small):
        for geom in pool_small[:150]:
            decision = decide_cdim2(geom)
            if not decision.cdim2:
                continue
            rep = build_representation(geom)
            assert verify_representation_exhaustive(geom, rep)[0]

    def test_infeasible_only_when_not_representable(self, pool_small):
        for geom in pool_small[:300]:
            decision = decide_cdim2(geom)
            try:
                rep = build_representation(geom)
                built = True
            except Infeasible:
                built = False
            assert built == decision.cdim2
            if built:
                assert verify_representation(geom, rep)[0]

    def test_peel_stops_on_an_unvalidated_basis(self, monkeypatch):
        # the extreme-point index is exact only on a convex geometry: on this
        # 4-element non-geometry it gives Ex({a, c}) = {b}, outside the set.
        # The peel keeps only what lies in the set, so every build ends within
        # n - 1 extreme-point queries, verified or infeasible
        gs = GroundSet(tuple("abcd"))
        rules = ((10, 4), (7, 1), (9, 1), (2, 1), (1, 2), (13, 4), (8, 2), (1, 4), (10, 4))
        stuck = ImplicationBasis(gs, tuple(Implication(p, c) for p, c in rules))
        rng = random.Random(5)
        bases = [stuck] + [unvalidated_basis(rng) for _ in range(2000)]
        queries = []
        extreme_points = ConvexGeometry.extreme_points

        def guarded(geom, subset):
            queries.append(subset)
            if len(queries) >= geom.n:
                pytest.fail(f"the peel asked {len(queries)} extreme-point queries at n = {geom.n}")
            return extreme_points(geom, subset)

        monkeypatch.setattr(ConvexGeometry, "extreme_points", guarded)
        infeasible = 0
        for basis in bases:
            queries.clear()
            try:
                rep = build_representation(ConvexGeometry(basis))
            except Infeasible:
                infeasible += 1
                continue
            assert basis is not stuck and verify_representation(ConvexGeometry(basis), rep)[0]
        assert 0 < infeasible < len(bases)

    @pytest.mark.xfail(strict=True, reason=(
        "the insertion searches every block orientation of the rest; "
        "ROADMAP item 4 builds from the reconstruction walk instead"))
    def test_orientations_tried_stay_polynomial(self, monkeypatch):
        # 14 two-element blocks {2i+1, 2i+2}, each ordered one way in the left
        # chain and the other way in the right, and element 0 on top of the
        # left chain and at the bottom of the right: one representation, yet
        # the insertions try 8,219 block orientations
        n = 29
        left, right = [], [0]
        for a in range(1, n, 2):
            left += [a, a + 1]
            right += [a + 1, a]
        left.append(0)
        geom = geometry_from_chains(GroundSet(tuple(f"e{i}" for i in range(n))), left, right)
        tried = 0
        original = uniqueness.block_orientations

        def counting(rep):
            nonlocal tried
            for pair in original(rep):
                tried += 1
                yield pair

        monkeypatch.setattr(uniqueness, "block_orientations", counting)
        assert build_representation(geom) == SegmentRepresentation(left, right)
        assert tried <= n * n

    def test_depth_does_not_grow_with_n(self):
        # builder and reconstruction must fit in 40 frames above the caller
        # however large n is; recursive peeling needs about 3n frames
        rng = random.Random(30)
        left, right = rng.sample(range(30), 30), rng.sample(range(30), 30)
        geom = geometry_from_chains(GroundSet(tuple(f"e{i}" for i in range(30))), left, right)
        expected = SegmentRepresentation(left, right)
        assert count_representations(expected) == 1
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            built = build_representation(geom)
            rebuilt = reconstruct_by_peeling(geom)
        finally:
            sys.setrecursionlimit(limit)
        assert built == rebuilt == expected


class TestBruteForce:
    def test_switch_has_two(self):
        geom = load_fixture("switch").geometry
        result = brute_force_cdim2(geom)
        assert result.cdim2 and len(result.representations) == 2

    def test_un_has_one(self, un):
        result = brute_force_cdim2(un)
        assert result.cdim2 and len(result.representations) == 1

    def test_notsuf_has_none(self):
        geom = load_fixture("notsuf").geometry
        result = brute_force_cdim2(geom)
        assert not result.cdim2 and result.representations == ()

    def test_guard(self):
        gs = GroundSet(tuple(f"e{i}" for i in range(9)))
        geom = validate_geometry(ImplicationBasis(gs, ()))
        with pytest.raises(GroundSetTooLarge):
            brute_force_cdim2(geom)

    def test_sixteen_element_chain_pairs_agree_with_decision_and_count(self):
        # the first geometry has 12,389 maximal chains: joining all 77M pairs
        # would not finish, the meet-irreducible filter leaves a few joins
        rng = random.Random(3)
        order = list(range(16))
        rng.shuffle(order)
        blocks = [e for k in range(0, 16, 3) for e in reversed(order[k:k + 3])]
        shuffled = rng.sample(order, 16)
        gs = GroundSet(tuple(f"e{i}" for i in range(16)))
        for left, right, count in ((order, shuffled, 1), (order, blocks, 16)):
            geom = geometry_from_chains(gs, left, right)
            result = brute_force_cdim2(geom, max_n=16)
            assert result.cdim2 and decide_cdim2(geom).cdim2
            rep = build_representation(geom)
            assert len(result.representations) == count_representations(rep) == count
            assert set(result.representations) == set(enumerate_representations(rep))

    def test_found_representations_satisfy_necessary_conditions(self, pool_small):
        # any geometry the oracle can represent passes both properties
        for geom in pool_small[:250]:
            result = brute_force_cdim2(geom)
            if not result.representations:
                continue
            assert check_2ex(geom).holds
            assert check_sq_exhaustive(geom).holds
            for rep in result.representations:
                assert verify_representation_exhaustive(geom, rep)[0]


class TestLayout:
    def test_layout_endpoints(self, un, un_rep):
        gs = un.ground
        rows = {gs.labels[e]: (lo, hi) for e, lo, hi in segment_layout(un_rep)}
        assert rows == {"a": (-1, 4), "b": (-2, 2), "c": (-3, 1), "d": (-4, 3)}
        endpoints = [v for pair in rows.values() for v in pair]
        assert len(set(endpoints)) == len(endpoints)
        assert all(lo < 0 < hi for lo, hi in rows.values())

    def test_normalize_already_straddling(self):
        rep = normalize_layout([(-1.0, 4.0), (-2.0, 2.0), (-3.0, 1.0), (-4.0, 3.0)])
        assert rep == SegmentRepresentation((0, 1, 2, 3), (2, 1, 3, 0))

    def test_normalize_disjoint_intervals(self):
        rep = normalize_layout([(0.0, 1.0), (2.0, 3.0)])
        assert segment_closure(rep, 0b11) == 0b11
        assert segment_closure(rep, 0b01) == 0b01
        assert segment_closure(rep, 0b10) == 0b10

    def test_normalize_agrees_with_interval_containment(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 7)
            points = rng.sample(range(1000), 2 * n)
            intervals = []
            for i in range(n):
                a, b = points[2 * i], points[2 * i + 1]
                intervals.append((min(a, b), max(a, b)))
            if len({v for pair in intervals for v in pair}) < 2 * n:
                continue
            rep = normalize_layout(intervals)
            for u in range(n):
                for v in range(n):
                    lo = min(intervals[u][0], intervals[v][0])
                    hi = max(intervals[u][1], intervals[v][1])
                    expected = 0
                    for z in range(n):
                        if lo <= intervals[z][0] and intervals[z][1] <= hi:
                            expected |= 1 << z
                    assert segment_closure(rep, (1 << u) | (1 << v)) == expected

    def test_round_trip_through_layout(self, pool_small):
        seen = 0
        for geom in pool_small:
            if seen >= 60:
                break
            if not decide_cdim2(geom).cdim2:
                continue
            seen += 1
            rep = build_representation(geom)
            intervals = [(lo, hi) for _, lo, hi in segment_layout(rep)]
            assert normalize_layout(intervals) == rep

    def test_rejects_shared_or_degenerate_endpoints(self):
        with pytest.raises(DuplicateEndpoint):
            normalize_layout([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(DuplicateEndpoint):
            normalize_layout([(1.0, 1.0)])


class TestRepresentationType:
    def test_unordered_pair_equality(self):
        a = SegmentRepresentation((0, 1, 2), (2, 1, 0))
        b = SegmentRepresentation((2, 1, 0), (0, 1, 2))
        assert a == b and hash(a) == hash(b)
        assert a.left == (0, 1, 2)
        assert len({a, b}) == 1
        assert a != SegmentRepresentation((0, 1, 2), (1, 2, 0))

    def test_rejects_mismatched_chains(self):
        with pytest.raises(ValueError):
            SegmentRepresentation((0, 1), (0, 2))
        with pytest.raises(ValueError):
            SegmentRepresentation((0, 0), (0, 0))

    def test_degenerate_sizes(self):
        empty = SegmentRepresentation((), ())
        assert empty.n == 0 and segment_closure(empty, 0) == 0
        single = SegmentRepresentation((4,), (4,))
        assert segment_closure(single, 1 << 4) == 1 << 4

    def test_rejects_elements_that_are_not_non_negative_ints(self):
        # the tables that would trip over such elements are built only on
        # first read, so construction itself checks them
        for chain in ((0, -1), ("a", "b"), (0.0, 1.0), (0, 1.5)):
            with pytest.raises(ValueError, match="non-negative ints"):
                SegmentRepresentation(chain, chain[::-1])


class TestDerivedTables:
    def test_every_reader_matches_an_eager_computation_in_any_order(
        self, pool_representations
    ):
        # each reader goes first once, on a copy with no table built yet
        names = list(READS)
        for geom, rep in pool_representations:
            expected = _eager(geom, rep)
            for first in range(len(names)):
                fresh = _copy(rep)
                for name in names[first:] + names[:first]:
                    assert READS[name](geom, fresh) == expected[name], (name, rep.left, rep.right)

    def test_equality_and_hash_ignore_the_caches(self, pool_representations):
        for _geom, rep in pool_representations:
            cold, warm = _copy(rep), _copy(rep)
            warm._derive()
            uniqueness.block_decomposition(warm)
            assert cold == warm == rep and hash(cold) == hash(warm) == hash(rep)
            assert len({cold, warm, rep}) == 1
            assert cold._tables is None and cold._blocks is None

    def test_a_build_derives_tables_only_for_the_representation_it_verifies(
        self, monkeypatch, pool_small
    ):
        rng = random.Random(26)
        chains = [seeded_chain_pair(rng, n)[0] for n in range(6, 25)]
        derived = []
        real = representation.prefix_masks
        monkeypatch.setattr(
            representation, "prefix_masks", lambda order: derived.append(order) or real(order))
        built = 0
        for geom in pool_small + chains:
            derived.clear()
            try:
                rep = build_representation(geom)
            except Infeasible:
                assert len(derived) in (0, 2)
                continue
            built += 1
            assert derived == [rep.left, rep.right]
        assert built > 500
