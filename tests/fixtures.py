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
from segrep.core import GroundSet, Implication, ImplicationBasis, SegrepError
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


def unvalidated_basis(rng: random.Random) -> ImplicationBasis:
    """A random basis with n <= 7, not necessarily a convex geometry."""
    n = rng.randint(1, 7)
    rules = []
    for _ in range(rng.randint(0, 2 * n)):
        conclusion = rng.getrandbits(n) if rng.random() < 0.3 else 1 << rng.randrange(n)
        rules.append(Implication(rng.getrandbits(n) & rng.getrandbits(n), conclusion))
    return ImplicationBasis(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rules))


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
