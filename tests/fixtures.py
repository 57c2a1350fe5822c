"""Worked-example geometries shipped as files, plus randomized generators:
a test corpus that lives under ``tests/``, outside the ``segrep`` package.

The geometry files ship with the package in ``segrep/data``.  Their
expectations live next to this module in ``expectations.json`` and are
re-verified against the library when a fixture is loaded, so a drifting
implementation cannot silently keep stale expectations alive.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from segrep.cli import parse_geometry
from segrep.core import GroundSet, Implication, ImplicationBasis, SegrepError, iter_bits, mask_of
from segrep.geometry import ConvexGeometry, NotAGeometry, validate_geometry
from segrep.properties import decide_cdim2
from segrep.representation import SegmentRepresentation, build_representation, segment_closure
from segrep.uniqueness import count_representations


class UnknownFixture(SegrepError):
    pass


class FixtureMismatch(SegrepError):
    """A fixture expectation failed to re-verify against the library."""


class RejectionBudgetExceeded(SegrepError):
    """Random sampling could not find a convex geometry within its budget."""


FIXTURE_NAMES = (
    "notsuf",
    "un",
    "switch",
    "unique",
    "seven",
    "triangle",
    "fivepoint",
)


@dataclass(frozen=True)
class Fixture:
    name: str
    text: str
    geometry: ConvexGeometry
    expected: dict

    @property
    def cdim2(self) -> bool:
        return self.expected["cdim2"]

    def expected_representations(self) -> tuple[SegmentRepresentation, ...]:
        ground = self.geometry.ground
        reps = []
        for left, right in self.expected["representations"]:
            reps.append(
                SegmentRepresentation(
                    tuple(ground.index(x) for x in left),
                    tuple(ground.index(x) for x in right),
                )
            )
        return tuple(reps)


def fixture_text(name: str) -> str:
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(f"unknown fixture {name!r}")
    return (resources.files("segrep") / "data" / f"{name}.geom").read_text()


def load_fixture(name: str) -> Fixture:
    """Parse a fixture file and re-verify its recorded expectations."""
    text = fixture_text(name)
    manifest = Path(__file__).with_name("expectations.json")
    expected = json.loads(manifest.read_text())[name]
    geom = validate_geometry(parse_geometry(text))
    fixture = Fixture(name, text, geom, expected)
    decision = decide_cdim2(geom)
    if decision.cdim2 != expected["cdim2"]:
        raise FixtureMismatch(f"{name}: cdim2 expectation drifted")
    if decision.two_ex.holds != expected["two_ex"]:
        raise FixtureMismatch(f"{name}: two_ex expectation drifted")
    if expected["cdim2"]:
        rep = build_representation(geom)
        if rep not in fixture.expected_representations():
            raise FixtureMismatch(f"{name}: built representation drifted")
        if count_representations(rep) != expected["representation_count"]:
            raise FixtureMismatch(f"{name}: representation count drifted")
    return fixture


def random_geometry(
    n: int, seed: int, density: float = 0.2, budget: int = 10_000
) -> ConvexGeometry:
    """Sample a convex geometry by rejection: draw implications with 1- or
    2-element premises, validate, retry.

    Deterministic per ``(n, seed, density)``.  Density 0 yields the free
    geometry (no implications), which is always valid.
    """
    if n < 1:
        raise ValueError("n must be positive")
    labels = tuple(_label(i) for i in range(n))
    ground = GroundSet(labels)
    rng = random.Random(seed)
    candidates: list[tuple[int, int]] = []
    for x in range(n):
        for z in range(n):
            if z != x:
                candidates.append((1 << x, 1 << z))
    for x in range(n):
        for y in range(x + 1, n):
            premise = (1 << x) | (1 << y)
            for z in range(n):
                if not (premise >> z) & 1:
                    candidates.append((premise, 1 << z))
    for _ in range(budget):
        implications = tuple(
            Implication(premise, conclusion)
            for premise, conclusion in candidates
            if rng.random() < density
        )
        basis = ImplicationBasis(ground, implications)
        try:
            return validate_geometry(basis)
        except NotAGeometry:
            continue
    raise RejectionBudgetExceeded(
        f"no convex geometry found in {budget} draws (n={n}, seed={seed}, density={density})"
    )


def _label(i: int) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if i < len(alphabet):
        return alphabet[i]
    return f"e{i}"


def geometry_from_chains(ground: GroundSet, left, right) -> ConvexGeometry:
    """The geometry whose closed sets are the prefix intersections of two
    chains, handed back with an explicit (pairwise) implicational basis.

    A chain pair has at most (n+1)^2 closed sets, so validation is not
    guarded on n."""
    left = tuple(left)
    right = tuple(right)
    n = ground.n
    if sorted(left) != list(range(n)) or sorted(right) != list(range(n)):
        raise ValueError("chains must be permutations of the ground set")
    rep = SegmentRepresentation(left, right)
    implications = []
    for x in range(n):
        extra = segment_closure(rep, 1 << x) & ~(1 << x)
        if extra:
            implications.append(Implication(1 << x, extra))
    for x in range(n):
        for y in range(x + 1, n):
            seed = (1 << x) | (1 << y)
            extra = segment_closure(rep, seed) & ~seed
            if extra:
                implications.append(Implication(seed, extra))
    basis = ImplicationBasis(ground, tuple(implications))
    return validate_geometry(basis, max_n=n)


def seeded_chain_pair(rng: random.Random, n: int):
    """Two chains drawn from ``rng`` with ``rng.sample``, left first, and
    their geometry on the labels ``e0 … e{n-1}``: ``(geom, left, right)``."""
    left, right = rng.sample(range(n), n), rng.sample(range(n), n)
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    return geometry_from_chains(ground, left, right), left, right


def verification_cases(rng: random.Random):
    """``(geom, rep)`` pairs for ``verify_representation``.  First the
    chain-pair geometries of :func:`seeded_chain_pair`, n from 2 to 8, each
    with its own chains and with every adjacent transposition of either
    chain.  Then the free geometry on n elements, n from 3 to 8, against a
    random chain and its reverse: every singleton is closed in both, but
    the segments of two elements hold the ones between them, so only the
    pair seeds tell the two apart."""
    cases = []
    for n in range(2, 9):
        for _ in range(12):
            geom, left, right = seeded_chain_pair(rng, n)
            cases.append((geom, SegmentRepresentation(left, right)))
            for i in range(n - 1):
                swapped = left[:i] + [left[i + 1], left[i]] + left[i + 2:]
                cases.append((geom, SegmentRepresentation(swapped, right)))
                swapped = right[:i] + [right[i + 1], right[i]] + right[i + 2:]
                cases.append((geom, SegmentRepresentation(left, swapped)))
    for n in range(3, 9):
        free = validate_geometry(ImplicationBasis(GroundSet(f"e{i}" for i in range(n)), ()))
        order = rng.sample(range(n), n)
        cases.append((free, SegmentRepresentation(order, order[::-1])))
    return cases


def basis_text(basis: ImplicationBasis) -> str:
    """``basis`` in the geometry file grammar, one line per implication."""
    labels = basis.ground.labels
    lines = ["elements " + " ".join(labels)]
    for imp in basis.implications:
        premise = " ".join(labels[e] for e in iter_bits(imp.premise))
        conclusion = " ".join(labels[e] for e in iter_bits(imp.conclusion))
        lines.append(f"imp {premise} -> {conclusion}")
    return "\n".join(lines) + "\n"


def split_basis(basis: ImplicationBasis) -> ImplicationBasis:
    """An equivalent basis with one gain element per rule: each rule A -> B
    becomes the chain A -> b1, A + b1 -> b2, ... over the elements of B - A
    in index order.  A -> B implies each rule of its chain, and the chain
    implies A -> B; a rule that gains nothing goes."""
    rules = []
    for imp in basis.implications:
        premise = imp.premise
        for e in iter_bits(imp.conclusion & ~premise):
            rules.append(Implication(premise, 1 << e))
            premise |= 1 << e
    return ImplicationBasis(basis.ground, tuple(rules))


def padded_basis(basis: ImplicationBasis, rng: random.Random) -> ImplicationBasis:
    """``basis`` plus up to n implied rules A -> φ(A), each A a seeded set
    of three to six elements (none when n < 3)."""
    n = basis.ground.n
    rules = list(basis.implications)
    for _ in range(n if n >= 3 else 0):
        premise = mask_of(rng.sample(range(n), rng.randint(3, min(n, 6))))
        rules.append(Implication(premise, basis.closure(premise)))
    return ImplicationBasis(basis.ground, tuple(rules))


def block_chains(rng: random.Random, n: int):
    """A random chain and the same chain with 2-3 element blocks reversed."""
    left = rng.sample(range(n), n)
    right, start = [], 0
    while start < n:
        size = rng.choice((2, 3))
        right += reversed(left[start:start + size])
        start += size
    return left, right


def unvalidated_basis(rng: random.Random) -> ImplicationBasis:
    """A random basis with n <= 7, not necessarily a convex geometry."""
    n = rng.randint(1, 7)
    rules = []
    for _ in range(rng.randint(0, 2 * n)):
        conclusion = rng.getrandbits(n) if rng.random() < 0.3 else 1 << rng.randrange(n)
        rules.append(Implication(rng.getrandbits(n) & rng.getrandbits(n), conclusion))
    return ImplicationBasis(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rules))


def padded_notsufs(rng: random.Random) -> list[ConvexGeometry]:
    """``notsuf`` with a chain of k = 1, 2, 4, 8 or 12 more elements on top,
    three of each, relabelled at random: the first chain element pulls in
    all four, each later one its predecessor.  2Ex holds and Sq fails."""
    geoms = []
    for k in (1, 2, 4, 8, 12):
        n = 4 + k
        rules = [(0b0011, 0b0100), (0b0110, 0b1000), (0b0001, 0b1000), (1 << 4, 0b1111)]
        rules += [(1 << i, 1 << (i - 1)) for i in range(5, n)]
        for _ in range(3):
            order = rng.sample(range(n), n)

            def move(mask):
                return mask_of(order[e] for e in iter_bits(mask))

            ground = GroundSet(tuple(f"e{i}" for i in range(n)))
            imps = tuple(Implication(move(p), move(c)) for p, c in rules)
            geoms.append(validate_geometry(ImplicationBasis(ground, imps), max_n=n))
    return geoms


def index_outside_bases() -> list[ImplicationBasis]:
    """Bases on which the extreme-point index answers outside the queried
    set once the pair table is full: the 4-element non-geometry with the
    rules (as masks) 10→4, 7→1, 9→1, 2→1, 1→2, 13→4, 8→2, 1→4, 10→4, which
    gets Ex({a, c}) = {b}, then 2,000 ``unvalidated_basis`` draws from
    ``random.Random(5)``."""
    rules = ((10, 4), (7, 1), (9, 1), (2, 1), (1, 2), (13, 4), (8, 2), (1, 4), (10, 4))
    stuck = ImplicationBasis(GroundSet(tuple("abcd")), tuple(Implication(p, c) for p, c in rules))
    rng = random.Random(5)
    return [stuck] + [unvalidated_basis(rng) for _ in range(2000)]


def disjoint_chains_geometry(sizes: tuple[int, ...]) -> ConvexGeometry:
    """Disjoint totally ordered groups: inside each group every element pulls
    in its predecessor; groups do not interact.

    With two groups this is a join of two chains, so the dimension-2 checks
    run their full scans without early exits; the basis has n - len(sizes)
    implications, linear in n.
    """
    n = sum(sizes)
    ground = GroundSet(tuple(_label(i) for i in range(n)))
    implications = []
    offset = 0
    for size in sizes:
        for i in range(1, size):
            e = offset + i
            implications.append(Implication(1 << e, 1 << (e - 1)))
        offset += size
    basis = ImplicationBasis(ground, tuple(implications))
    return validate_geometry(basis)


def varied_basis(rng: random.Random) -> ImplicationBasis:
    """A random basis with n <= 8: rules with sparse or dense premises and
    one- or many-element conclusions, plus, in a third of the draws each, a
    planted mutual pair ``x -> y``, ``y -> x`` or a rule with an empty
    premise (so that the empty set is not closed)."""
    n = rng.randint(1, 8)
    rules = []
    for _ in range(rng.randint(0, n + 2)):
        premise = rng.getrandbits(n)
        if rng.random() < 0.5:
            premise &= rng.getrandbits(n)
        premise = premise or 1 << rng.randrange(n)
        conclusion = 1 << rng.randrange(n) if rng.random() < 0.7 else rng.getrandbits(n)
        rules.append(Implication(premise, conclusion))
    kind = rng.randrange(3)
    if kind == 1 and n >= 2:
        x, y = rng.sample(range(n), 2)
        rules += [Implication(1 << x, 1 << y), Implication(1 << y, 1 << x)]
    elif kind == 2:
        rules.append(Implication(0, 1 << rng.randrange(n)))
    return ImplicationBasis(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rules))


def direct_sums(rng: random.Random, draws: int = 3000, max_n: int = 11):
    """Sums of one to three :func:`varied_basis` draws, each on its own
    shuffled elements, skipping every sum with more than ``max_n``."""
    for _ in range(draws):
        parts = [varied_basis(rng) for _ in range(rng.randint(1, 3))]
        n = sum(part.ground.n for part in parts)
        if n > max_n:
            continue
        place = rng.sample(range(n), n)
        rules, offset = [], 0
        for part in parts:
            def move(mask, offset=offset):
                return sum(1 << place[offset + i] for i in iter_bits(mask))
            rules += [Implication(move(imp.premise), move(imp.conclusion))
                      for imp in part.implications]
            offset += part.ground.n
        yield ImplicationBasis(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rules))


# ground-set sizes on both sides of the edges of the kernel's four-element
# blocks: none, one partial block, whole blocks, and one element past them
BLOCK_EDGE_NS = (0, 1, 3, 4, 5, 7, 8, 9, 31, 63, 64, 65, 70)


def block_edge_cases(rng: random.Random, per_n: int = 12):
    """``(basis, seeds)`` pairs, ``per_n`` for each n of :data:`BLOCK_EDGE_NS`.
    The rules have premises of one to five elements and gains of one to
    three; a third of the bases have a rule with an empty premise, some
    conclusions overlap their premise, one lies inside it, and up to three
    rules come twice.  The seeds are the empty set, the ground set, the
    ground set less one element (a one-element slice outside), and sparse
    and dense random sets."""
    for n in BLOCK_EDGE_NS:
        full = (1 << n) - 1
        for _ in range(per_n):
            def some(k):
                return mask_of(rng.sample(range(n), min(k, n)))
            rules = []
            for _ in range(rng.randint(0, n + 4)):
                premise = some(rng.choice((1, 1, 2, 2, 2, 3, 3, 5)))
                conclusion = some(rng.randint(1, 3))
                if rng.random() < 0.2:
                    conclusion |= premise & rng.getrandbits(n)
                rules.append(Implication(premise, conclusion))
            if rng.random() < 0.3:
                rules.append(Implication(0, some(1)))
            premise = some(3)
            rules.append(Implication(premise, premise & rng.getrandbits(n)))
            rules += rng.sample(rules, min(3, len(rules)))
            rng.shuffle(rules)
            basis = ImplicationBasis(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rules))
            seeds = [0, full, some(2), some(n // 3)]
            seeds += [full & ~(1 << e) for e in rng.sample(range(n), min(4, n))]
            seeds += [rng.getrandbits(n) for _ in range(3)]
            yield basis, seeds
