"""Block structure, representation counting, and chain reconstruction."""

import random
from collections import Counter

import pytest

from segrep import (
    GroundSet,
    Implication,
    ImplicationBasis,
    NotApplicable,
    SegmentRepresentation,
    TooManyBlocks,
    block_decomposition,
    block_orientations,
    build_representation,
    count_representations,
    decide_cdim2,
    enumerate_representations,
    is_unique,
    iter_bits,
    reconstruct_by_peeling,
    validate_geometry,
    verify_representation,
)
from segrep import representation
from fixtures import (
    FIXTURE_NAMES,
    block_chains,
    geometry_from_chains,
    index_outside_bases,
    load_fixture,
    seeded_chain_pair,
    unvalidated_basis,
)
from oracles import (
    block_cache_mismatches,
    brute_force_cdim2,
    build_by_insertion,
    reconstruct_mismatches,
)


@pytest.fixture(scope="module")
def switch():
    return load_fixture("switch")


@pytest.fixture(scope="module")
def switch_rep(switch):
    return build_representation(switch.geometry)


class TestBlockDecomposition:
    def test_switch_blocks(self, switch, switch_rep):
        gs = switch.geometry.ground
        blocks = block_decomposition(switch_rep)
        members = [b.members for b in blocks]
        assert members == [gs.mask("123"), gs.mask("c"), gs.mask("ab")]
        assert [b.switchable for b in blocks] == [True, False, True]
        assert sum(b.switchable for b in blocks) == 2
        assert (blocks[0].start, blocks[0].end) == (1, 3)
        assert (blocks[2].start, blocks[2].end) == (5, 6)

    def test_un_single_block(self):
        fixture = load_fixture("un")
        rep = build_representation(fixture.geometry)
        blocks = block_decomposition(rep)
        assert len(blocks) == 1
        assert blocks[0].members == fixture.geometry.ground.full
        assert sum(b.switchable for b in blocks) == 1

    def test_identical_chains_all_singletons(self):
        rep = SegmentRepresentation((2, 0, 1), (2, 0, 1))
        blocks = block_decomposition(rep)
        assert len(blocks) == 3
        assert sum(b.switchable for b in blocks) == 0

    def test_blocks_partition_positions(self, switch_rep):
        blocks = block_decomposition(switch_rep)
        positions = [p for b in blocks for p in range(b.start, b.end + 1)]
        assert positions == list(range(1, switch_rep.n + 1))

    def test_blocks_are_irreducible(self, switch_rep):
        # a block re-read as its own representation decomposes into itself
        for block in block_decomposition(switch_rep):
            sub = SegmentRepresentation(block.left_sub, block.right_sub)
            assert len(block_decomposition(sub)) == 1

    def test_cross_block_implications(self, switch):
        rep = build_representation(switch.geometry)
        blocks = block_decomposition(rep)
        geom = switch.geometry
        for high in range(len(blocks)):
            for low in range(high):
                for u in iter_bits(blocks[high].members):
                    closed = geom.closure(1 << u)
                    assert blocks[low].members & ~closed == 0


class TestBlockCache:
    def test_a_second_decomposition_is_the_same_tuple(self, pool_representations):
        assert not block_cache_mismatches(pool_representations)

    def test_the_census_derives_no_table(self, monkeypatch):
        # six switchable two-element blocks: 32 representations, and none
        # of them, nor the one they come from, builds ranks or prefixes
        rep = SegmentRepresentation(tuple(range(12)), tuple(i ^ 1 for i in range(12)))
        derived = []
        monkeypatch.setattr(representation, "prefix_masks", derived.append)
        assert len(enumerate_representations(rep)) == count_representations(rep) == 32
        assert not is_unique(rep).unique
        assert derived == []


def switchable_blocks(rep):
    return [b for b in block_decomposition(rep) if b.switchable]


class TestCountAndUnique:
    def test_switch_counts_two(self, switch_rep):
        assert count_representations(switch_rep) == 2

    def test_unique_counts_one(self):
        rep = build_representation(load_fixture("unique").geometry)
        assert count_representations(rep) == 1
        assert is_unique(rep).unique
        [block] = switchable_blocks(rep)
        assert block.members == (1 << 5) - 1

    def test_identical_chains_count_one(self):
        assert count_representations(SegmentRepresentation((0, 1), (0, 1))) == 1
        rep = SegmentRepresentation((0, 1, 2), (0, 1, 2))
        assert is_unique(rep).unique and switchable_blocks(rep) == []

    def test_switch_not_unique(self, switch_rep):
        assert not is_unique(switch_rep).unique

    def test_seven_element_example(self):
        fixture = load_fixture("seven")
        gs = fixture.geometry.ground
        rep = build_representation(fixture.geometry)
        assert is_unique(rep).unique
        [block] = switchable_blocks(rep)
        assert block.members == gs.mask("abcd")

    def test_count_matches_oracle(self, pool_small):
        for geom in pool_small[:300]:
            result = brute_force_cdim2(geom)
            if not result.representations:
                continue
            rep = build_representation(geom)
            assert count_representations(rep) == len(result.representations)


class TestEnumerate:
    def test_switch_yields_both_oracle_representations(self, switch):
        rep = build_representation(switch.geometry)
        enumerated = enumerate_representations(rep)
        oracle = brute_force_cdim2(switch.geometry).representations
        assert set(enumerated) == set(oracle)
        assert len(enumerated) == 2
        for candidate in enumerated:
            assert verify_representation(switch.geometry, candidate)[0]

    def test_singletons(self):
        rep = build_representation(load_fixture("un").geometry)
        assert enumerate_representations(rep) == (rep,)
        chain = SegmentRepresentation((0, 1, 2), (0, 1, 2))
        assert enumerate_representations(chain) == (chain,)

    def test_canonical_sorted_and_one_per_pair_of_orientations(self):
        rep = SegmentRepresentation((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4))
        reps = enumerate_representations(rep)
        chains = [(r.left, r.right) for r in reps]
        assert chains == sorted(set(chains)) and all(l <= r for l, r in chains)
        orientations = list(block_orientations(rep))
        assert len(orientations) == 2 * len(reps) == 8
        assert set(reps) == {SegmentRepresentation(l, r) for l, r in orientations}

    def test_guard_on_switchable_blocks(self):
        rep = SegmentRepresentation((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4))
        assert len(enumerate_representations(rep, max_blocks=3)) == 4
        with pytest.raises(TooManyBlocks):
            enumerate_representations(rep, max_blocks=2)

    def test_matches_oracle_on_random_pool(self, pool_small):
        for geom in pool_small[:200]:
            result = brute_force_cdim2(geom)
            if not result.representations:
                continue
            rep = build_representation(geom)
            enumerated = enumerate_representations(rep)
            assert set(enumerated) == set(result.representations)
            assert len(set(enumerated)) == len(enumerated)


class TestReconstruct:
    def test_unique_fixture_full_walkthrough(self):
        fixture = load_fixture("unique")
        geom = fixture.geometry
        gs = geom.ground
        rep = reconstruct_by_peeling(geom)
        assert rep == build_representation(geom)
        full = gs.full
        # the intermediate extreme-point reads that force the chains
        assert geom.extreme_points(full) == gs.mask("45")
        assert geom.extreme_points(full & ~gs.mask("5")) == gs.mask("14")
        assert geom.extreme_points(full & ~gs.mask("4")) == gs.mask("5")
        assert geom.extreme_points(full & ~gs.mask("15")) == gs.mask("34")
        assert geom.extreme_points(full & ~gs.mask("45")) == gs.mask("13")
        assert geom.extreme_points(full & ~gs.mask("513")) == gs.mask("24")
        assert geom.extreme_points(full & ~gs.mask("354")) == gs.mask("1")

    def test_switch_is_ambiguous(self, switch):
        with pytest.raises(NotApplicable) as err:
            reconstruct_by_peeling(switch.geometry)
        assert err.value.witness == switch.geometry.ground.mask("123")
        assert err.value.outcomes == 2
        assert str(err.value) == "reconstruction is ambiguous (2 consistent outcomes)"

    @pytest.mark.parametrize("name", ["notsuf", "triangle", "fivepoint"])
    def test_not_representable_has_no_outcome(self, name):
        geom = load_fixture(name).geometry
        with pytest.raises(NotApplicable) as err:
            reconstruct_by_peeling(geom)
        assert err.value.outcomes == 0
        assert err.value.witness == geom.ground.full
        assert str(err.value) == "the geometry has no representation"

    def test_forced_two_element_chain(self):
        gs = GroundSet(("a", "b"))
        geom = validate_geometry(
            ImplicationBasis(gs, (Implication(gs.mask("a"), gs.mask("b")),)))
        rep = reconstruct_by_peeling(geom)
        assert rep.left == rep.right == (gs.index("b"), gs.index("a"))

    def test_agrees_with_builder_exactly_when_unique(self, pool_small):
        # against the former builder: the package's builder runs the same walk
        for geom in pool_small[:200]:
            if not decide_cdim2(geom).cdim2:
                continue
            rep = build_by_insertion(geom)
            unique = count_representations(rep) == 1
            try:
                assert reconstruct_by_peeling(geom) == rep and unique
            except NotApplicable:
                assert not unique

    def test_closure_queries_grow_quadratically(self):
        # s reversed blocks give 2^(s-1) representations; reconstruction
        # follows one path and verifies its end once, so it must stay at a
        # build's O(n^2) queries
        rng = random.Random(11)
        counts = {}
        for s in range(8, 16):
            sizes = [rng.choice((2, 3)) for _ in range(s)]
            n = sum(sizes)
            left = rng.sample(range(n), n)
            right, start = [], 0
            for size in sizes:
                right += reversed(left[start:start + size])
                start += size
            geom = geometry_from_chains(GroundSet(tuple(f"e{i}" for i in range(n))), left, right)
            geom.closure_calls = 0
            with pytest.raises(NotApplicable) as err:
                reconstruct_by_peeling(geom)
            counts[n] = geom.closure_calls
            assert err.value.outcomes == count_representations(build_representation(geom))
            assert err.value.outcomes == 2 ** (s - 1)
        smallest = min(counts)
        constant = counts[smallest] / smallest**2
        assert all(count <= 2 * constant * n**2 for n, count in counts.items()), counts

    def test_no_cliff_on_a_non_representable_geometry(self):
        # notsuf (2Ex holds, Sq fails) under s reversed 2-element blocks, each
        # block element pulling in the four notsuf elements: every block
        # offers two candidates, and a search over them would verify
        # 2^(s+1) failed chain pairs; one path stays at O(n^2) queries
        notsuf = load_fixture("notsuf").geometry
        bottom = notsuf.ground.full
        counts = {}
        for s in range(6, 13):
            n = 4 + 2 * s
            ground = GroundSet(notsuf.ground.labels + tuple(f"e{i}" for i in range(2 * s)))
            left = list(range(2 * s))
            right = [i ^ 1 for i in left]
            top = geometry_from_chains(GroundSet(ground.labels[4:]), left, right)
            rules = notsuf.basis.implications + tuple(
                Implication(rule.premise << 4, rule.conclusion << 4)
                for rule in top.basis.implications
            ) + tuple(Implication(1 << x, bottom) for x in range(4, n))
            geom = validate_geometry(ImplicationBasis(ground, rules), max_n=n)
            geom.closure_calls = 0
            with pytest.raises(NotApplicable) as err:
                reconstruct_by_peeling(geom)
            counts[n] = geom.closure_calls
            assert err.value.outcomes == 0
        smallest = min(counts)
        constant = counts[smallest] / smallest**2
        assert all(count <= 2 * constant * n**2 for n, count in counts.items()), counts


class TestReconstructMatchesReference:
    # the walk keeps its bookkeeping as it grows; the reference redoes it at
    # every step, and both must ask the same queries and end the same way

    def check(self, bases):
        mismatches, outcomes = reconstruct_mismatches(bases)
        assert not mismatches, mismatches[0]
        return {"rep" if kind == "rep" else "ambiguous" if count else "none"
                for kind, _, count in outcomes}

    def test_on_the_pools_and_fixtures(self, pool_small, pool_n6):
        geoms = pool_small + pool_n6 + [load_fixture(name).geometry for name in FIXTURE_NAMES]
        assert self.check(g.basis for g in geoms) == {"rep", "ambiguous", "none"}

    def test_on_seeded_chain_pairs(self):
        rng = random.Random(26)
        bases = []
        for n in range(6, 41):
            chains = seeded_chain_pair(rng, n)[0]
            bases.append(chains.basis)
            bases.append(geometry_from_chains(chains.ground, *block_chains(rng, n)).basis)
        assert self.check(bases) >= {"rep", "ambiguous"}

    def test_on_unvalidated_bases(self):
        rng = random.Random(2026)
        bases = [unvalidated_basis(rng) for _ in range(5000)]
        assert self.check(bases) == {"rep", "ambiguous", "none"}

    def test_index_answering_outside_the_remainder(self):
        # with the pair table full, the extreme-point index answers outside
        # the remainder on these bases, and a walk that took such a point
        # put it in a chain twice; keeping what lies in the remainder, both
        # walks end the same, and as often in a representation with the
        # table as without it
        seen = {}
        for table in (False, True):
            mismatches, outcomes = reconstruct_mismatches(index_outside_bases(), table)
            assert not mismatches, mismatches[0]
            seen[table] = Counter(kind for kind, _, _ in outcomes)
        assert seen[False] == seen[True] == {"rep": 288, "NotApplicable": 1713}


class TestDistinctEndingSegments:
    def test_forces_a_single_representation(self, pool_small):
        # whenever every top-k pair of ending segments differs as sets
        # (k up to n-2), the oracle finds exactly one representation
        checked = 0
        for geom in pool_small[:400]:
            result = brute_force_cdim2(geom)
            if not result.representations:
                continue
            rep = result.representations[0]
            n = rep.n
            distinct = all(
                set(rep.left[-k:]) != set(rep.right[-k:])
                for k in range(1, max(n - 2, 0) + 1))
            if distinct and n >= 2:
                checked += 1
                assert len(result.representations) == 1
        assert checked > 10
