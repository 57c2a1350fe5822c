"""Closure and the set-algebra substrate."""

import random
from types import SimpleNamespace

import pytest

from segrep import (
    GroundSet,
    Implication,
    ImplicationBasis,
    UnknownLabel,
    iter_bits,
    mask_of,
)
from segrep.cli import parse_geometry
from segrep.core import _WIDTH, _columns, canonical_key
from fixtures import BLOCK_EDGE_NS, FIXTURE_NAMES, block_edge_cases, fixture_text
from oracles import basis_tables_by_bits, fixpoint, kernel_mismatches

NOTSUF = "elements a b c d\nimp a b -> c\nimp b c -> d\nimp a -> d\n"
UN = "elements a b c d\nimp d -> b c\nimp a c -> b\n"


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
                expected = fixpoint(basis, seed)
                assert basis.closure(seed) == expected
                # firing every rule that holds at the start of a round, each
                # round short of the closure adds an element
                rounds, closed = 0, seed
                while closed != expected:
                    for imp in [imp for imp in basis.implications if imp.premise & ~closed == 0]:
                        closed |= imp.conclusion
                    rounds += 1
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


class TestBlockTables:
    """The kernel and the walk read per-block tables; these cases sit on
    both sides of the block edges, up to 70 elements."""

    @staticmethod
    def tables_by_element(basis):
        """The three tables, each entry built from the implications one
        element of its slice at a time."""
        n = basis.ground.n
        uses = [mask_of(r for r, imp in enumerate(basis.implications)
                        if (imp.premise >> e) & 1) for e in range(n)]
        adds = [mask_of(r for r, imp in enumerate(basis.implications)
                        if ((imp.conclusion & ~imp.premise) >> e) & 1) for e in range(n)]
        tables = ([], [], [])
        for base in range(0, n, _WIDTH):
            for s in range(1 << min(_WIDTH, n - base)):
                members = [base + j for j in iter_bits(s)]
                named = [0] * len(basis.implications)
                for e in members:
                    for r in iter_bits(uses[e]):
                        named[r] += 1
                tables[0].append(mask_of(r for r in range(len(named)) if named[r]))
                tables[1].append(mask_of(r for e in members for r in iter_bits(adds[e])))
                tables[2].append(mask_of(r for r in range(len(named)) if named[r] >= 2))
        return tables

    def test_kernel_extreme_points_and_tables_at_block_edges(self):
        cases = list(block_edge_cases(random.Random(31)))
        assert sorted({basis.ground.n for basis, _ in cases}) == list(BLOCK_EDGE_NS)
        assert kernel_mismatches(cases) == []
        for basis, seeds in cases:
            tables = basis._uses_of, basis._adds_of, basis._twice_of
            assert tuple(map(list, tables)) == self.tables_by_element(basis), basis
            for seed in seeds:
                closed = fixpoint(basis, seed)
                extreme = mask_of(x for x in iter_bits(closed)
                                  if not (fixpoint(basis, closed & ~(1 << x)) >> x) & 1)
                assert basis.extreme_points_of_closed(closed) == extreme, (basis, seed)


class TestBasisLoad:
    """The tables loaded with the gains transposed against the loop that
    visits every premise and gain bit."""

    def test_tables_match_the_bit_loop(self, pool_small):
        bases = [basis for basis, _ in block_edge_cases(random.Random(31))]
        bases += [geom.basis for geom in pool_small]
        bases += [parse_geometry(fixture_text(name)) for name in FIXTURE_NAMES]
        for basis in bases:
            tables = basis_tables_by_bits(basis)
            assert {name: getattr(basis, name) for name in tables} == tables, basis

    def test_columns_transpose_bit_matrices(self):
        rng = random.Random(34)
        for m in (0, 1, 63, 64, 65):
            for n in (0, 1, 3, 4, 63, 64, 65, 70):
                full = (1 << n) - 1
                rows = [rng.choice((0, full, rng.getrandbits(n), rng.getrandbits(n)))
                        for _ in range(m)]
                assert _columns(rows, n) == [
                    mask_of(r for r, row in enumerate(rows) if (row >> e) & 1)
                    for e in range(n)], (m, n)

    def test_masks_outside_the_ground_set_raise(self):
        gs = GroundSet(("a", "b", "c"))
        for imp in (Implication(-1, 0b010), Implication(0b001, -2),
                    Implication(0b1000, 0b001), Implication(0b001, 0b1010)):
            implications = (Implication(0b001, 0b010), imp)
            with pytest.raises(ValueError) as expected:
                basis_tables_by_bits(SimpleNamespace(ground=gs, implications=implications))
            with pytest.raises(ValueError) as err:
                ImplicationBasis(gs, implications)
            assert str(err.value) == str(expected.value) == (
                "implication references elements outside the ground set")


class TestValueSemantics:
    def test_bases_parsed_from_one_text_are_equal(self):
        first, second = parse_geometry(UN), parse_geometry(UN)
        assert first is not second and first == second
        assert hash(first) == hash(second) and len({first, second}) == 1
        assert first._uses == second._uses and first._uses is not second._uses
        assert first._rules is not second._rules
        assert first != parse_geometry(NOTSUF)

    def test_implication_equality(self):
        assert Implication(0b011, 0b100) == Implication(0b011, 0b100)
        assert hash(Implication(0b011, 0b100)) == hash(Implication(0b011, 0b100))
        assert Implication(0b011, 0b100) != Implication(0b011, 0b110)
        assert Implication(0b011, 0b100) != (0b011, 0b100)

    def test_ground_sets_compare_by_labels(self):
        assert GroundSet(("a", "b")) == GroundSet(("a", "b"))
        assert GroundSet(("a", "b")) != GroundSet(("b", "a"))

    def test_ground_sets_keep_their_labels_as_a_tuple(self):
        assert GroundSet(["a", "b"]) == GroundSet(("a", "b"))
        assert hash(GroundSet(["a", "b"])) == hash(GroundSet(("a", "b")))
        assert GroundSet(["a", "b"]).labels == ("a", "b")

    def test_bases_keep_their_implications_as_a_tuple(self):
        gs = GroundSet(("a", "b"))
        imp = Implication(0b01, 0b10)
        assert ImplicationBasis(gs, [imp]) == ImplicationBasis(gs, (imp,))
        assert hash(ImplicationBasis(gs, [imp])) == hash(ImplicationBasis(gs, (imp,)))


class TestGroundSet:
    def test_rejects_duplicates_and_empty_labels(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))
        with pytest.raises(ValueError):
            GroundSet(("a", ""))

    @pytest.mark.parametrize("label", ["a b", "a\tb", "a#", "->", "∇", "a,b", "{", "}"])
    def test_rejects_labels_that_do_not_print_unambiguously(self, label):
        with pytest.raises(ValueError, match="cannot be an element label"):
            GroundSet(("x", label))

    def test_reserved_labels_are_named_before_empty_or_duplicate_ones(self):
        # the order the file parser reports in: reserved forms over the
        # whole line first, then emptiness and duplicates from the left
        with pytest.raises(ValueError, match="'a,b' cannot be"):
            GroundSet(("a", "", "a", "a,b"))
        with pytest.raises(ValueError, match="non-empty"):
            GroundSet(("a", "", "a"))
        with pytest.raises(ValueError, match="duplicate"):
            GroundSet(("a", "a", ""))

    def test_unknown_labels_raise_unknown_label(self):
        gs = GroundSet(("x", "y"))
        assert gs.index("y") == 1
        for ask in (lambda: gs.index("z"), lambda: gs.mask(("x", "z"))):
            with pytest.raises(UnknownLabel, match="unknown element 'z'"):
                ask()

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

    def test_canonical_key_orders_like_member_tuples(self):
        # the reference key: size, then the sorted member indices
        for n in range(11):
            masks = range(1 << n)
            assert sorted(masks, key=canonical_key) == sorted(
                masks, key=lambda m: (m.bit_count(), tuple(iter_bits(m))))
