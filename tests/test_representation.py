"""Segment model, constructive builder, exhaustive oracle, interval layouts."""

import random

import pytest

from segrep import (
    DuplicateEndpoint,
    GroundSet,
    GroundSetTooLarge,
    ImplicationBasis,
    Infeasible,
    SegmentRepresentation,
    brute_force_cdim2,
    build_representation,
    check_2ex,
    check_sq_exhaustive,
    decide_cdim2,
    join_alignments,
    linear_alignment,
    normalize_layout,
    segment_closure,
    segment_layout,
    validate_geometry,
    verify_representation,
)
from segrep.fixtures import load_fixture


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
        assert verify_representation(un, un_rep, exhaustive=True) == (True, None)

    def test_swapped_elements_fail_with_least_witness(self, un):
        gs = un.ground
        bad = SegmentRepresentation(
            tuple(gs.index(x) for x in "bacd"), tuple(gs.index(x) for x in "cbda"))
        ok, witness = verify_representation(un, bad)
        assert not ok and witness == gs.mask("a")

    def test_single_element(self):
        geom = validate_geometry(ImplicationBasis(GroundSet(("a",)), ()))
        rep = SegmentRepresentation((0,), (0,))
        assert verify_representation(geom, rep) == (True, None)

    def test_exhaustive_guard(self, un, un_rep):
        with pytest.raises(GroundSetTooLarge):
            verify_representation(un, un_rep, exhaustive=True, max_n=2)


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
            assert verify_representation(geom, rep, exhaustive=True)[0]

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

    def test_found_representations_satisfy_necessary_conditions(self, pool_small):
        # any geometry the oracle can represent passes both properties
        for geom in pool_small[:250]:
            result = brute_force_cdim2(geom)
            if not result.representations:
                continue
            assert check_2ex(geom).holds
            assert check_sq_exhaustive(geom).holds
            for rep in result.representations:
                assert verify_representation(geom, rep, exhaustive=True)[0]


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
