"""Closure, restriction, and the set-algebra substrate."""

import random

import pytest

from segrep import (
    GroundSet,
    Implication,
    ImplicationBasis,
    iter_bits,
    mask_of,
    restrict_basis,
)
from segrep.cli import parse_geometry

NOTSUF = "elements a b c d\nimp a b -> c\nimp b c -> d\nimp a -> d\n"
UN = "elements a b c d\nimp d -> b c\nimp a c -> b\n"


def naive_closure(basis, seed):
    """Round-based reference closure; independent of the queue algorithm."""
    current = seed
    rounds = 0
    while True:
        nxt = current
        for imp in basis.implications:
            if imp.premise & ~current == 0:
                nxt |= imp.conclusion
        if nxt == current:
            return current, rounds
        current = nxt
        rounds += 1


class TestClosure:
    def test_notsuf_singleton(self):
        basis = parse_geometry(NOTSUF)
        gs = basis.ground
        assert basis.closure(gs.mask("a")) == gs.mask("ad")

    def test_empty_seed_stays_empty(self):
        basis = parse_geometry(NOTSUF)
        assert basis.closure(0) == 0

    def test_un_pair_seed(self):
        basis = parse_geometry(UN)
        gs = basis.ground
        assert basis.closure(gs.mask("ac")) == gs.mask("abc")

    def test_un_closed_family_matches_hand_enumeration(self):
        # cross-check: the closed sets of the un basis are exactly the nine
        # sets obtained by joining the chains a<b<c<d and c<b<d<a
        basis = parse_geometry(UN)
        gs = basis.ground
        family = {s for s in range(1 << 4) if basis.closure(s) == s}
        expected = {
            0,
            gs.mask("a"),
            gs.mask("b"),
            gs.mask("c"),
            gs.mask("ab"),
            gs.mask("bc"),
            gs.mask("abc"),
            gs.mask("bcd"),
            gs.full,
        }
        assert family == expected

    def test_empty_premise_fires_immediately(self):
        gs = GroundSet(("a", "b"))
        basis = ImplicationBasis(gs, (Implication(0, gs.mask("a")),))
        assert basis.closure(0) == gs.mask("a")

    def test_agrees_with_naive_closure_and_terminates_fast(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 7)
            gs = GroundSet(tuple(f"e{i}" for i in range(n)))
            imps = []
            for _ in range(rng.randint(0, 2 * n)):
                premise = rng.getrandbits(n)
                conclusion = rng.getrandbits(n)
                imps.append(Implication(premise, conclusion))
            basis = ImplicationBasis(gs, tuple(imps))
            for _ in range(5):
                seed = rng.getrandbits(n)
                expected, rounds = naive_closure(basis, seed)
                assert basis.closure(seed) == expected
                assert rounds <= n

    def test_closure_axioms_on_random_bases(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 6)
            gs = GroundSet(tuple(f"e{i}" for i in range(n)))
            imps = tuple(
                Implication(rng.getrandbits(n), rng.getrandbits(n))
                for _ in range(rng.randint(0, n))
            )
            basis = ImplicationBasis(gs, imps)
            y = rng.getrandbits(n)
            z = y | rng.getrandbits(n)
            cy, cz = basis.closure(y), basis.closure(z)
            assert y & ~cy == 0  # extensive
            assert cy & ~cz == 0  # monotone
            assert basis.closure(cy) == cy  # idempotent


class TestRestrictBasis:
    def test_notsuf_restricted_to_abc(self):
        basis = parse_geometry(NOTSUF)
        gs = basis.ground
        sub = restrict_basis(basis, gs.mask("abc"))
        assert sub.ground.labels == ("a", "b", "c")
        # ab->c survives; bc->d and a->d lose their conclusions and drop
        assert len(sub.implications) == 1
        imp = sub.implications[0]
        assert imp.premise == sub.ground.mask("ab")
        assert imp.conclusion == sub.ground.mask("c")

    def test_identity_on_full_ground_set(self):
        basis = parse_geometry(NOTSUF)
        sub = restrict_basis(basis, basis.ground.full)
        assert sub.ground.labels == basis.ground.labels
        assert sub.implications == basis.implications

    def test_un_restricted_to_bcd(self):
        basis = parse_geometry(UN)
        gs = basis.ground
        sub = restrict_basis(basis, gs.mask("bcd"))
        assert len(sub.implications) == 1
        assert sub.implications[0].premise == sub.ground.mask("d")
        assert sub.implications[0].conclusion == sub.ground.mask("bc")


class TestGroundSet:
    def test_rejects_duplicates_and_empty_labels(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))
        with pytest.raises(ValueError):
            GroundSet(("a", ""))

    def test_mask_round_trip(self):
        gs = GroundSet(("x", "y", "z"))
        assert gs.labels_of(gs.mask("zx")) == ("x", "z")
        assert gs.format_set(gs.mask("y")) == "{y}"

    def test_set_algebra_laws(self):
        rng = random.Random(3)
        full = (1 << 8) - 1
        for _ in range(200):
            a, b = rng.getrandbits(8), rng.getrandbits(8)
            assert a | a == a and a & a == a
            assert a | b == b | a and a & b == b & a
            assert (a & ~a) == 0 and (a | (full & ~a)) == full
            assert mask_of(iter_bits(a)) == a
