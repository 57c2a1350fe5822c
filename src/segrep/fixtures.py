"""Worked-example geometries shipped as files, plus randomized generators.

Fixture expectations live in ``data/expectations.json`` and are re-verified
against the library when a fixture is loaded, so a drifting implementation
cannot silently keep stale expectations alive.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources

from .core import GroundSet, Implication, ImplicationBasis, SegrepError
from .geometry import ConvexGeometry, NotAGeometry, validate_geometry
from .properties import decide_cdim2
from .representation import SegmentRepresentation, build_representation
from .uniqueness import count_representations


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


def _expectations() -> dict:
    raw = (resources.files("segrep") / "data" / "expectations.json").read_text()
    return json.loads(raw)


def load_fixture(name: str, verify: bool = True) -> Fixture:
    """Parse a fixture file and re-verify its recorded expectations."""
    from .cli import parse_geometry

    text = fixture_text(name)
    expected = _expectations()[name]
    basis = parse_geometry(text)
    geometry = validate_geometry(basis)
    fixture = Fixture(name, text, geometry, expected)
    if verify:
        _verify_expectations(fixture)
    return fixture


def _verify_expectations(fixture: Fixture) -> None:
    geom = fixture.geometry
    expected = fixture.expected
    decision = decide_cdim2(geom)
    if decision.cdim2 != expected["cdim2"]:
        raise FixtureMismatch(f"{fixture.name}: cdim2 expectation drifted")
    if decision.two_ex.holds != expected["two_ex"]:
        raise FixtureMismatch(f"{fixture.name}: two_ex expectation drifted")
    if expected["cdim2"]:
        rep = build_representation(geom)
        if rep not in fixture.expected_representations():
            raise FixtureMismatch(f"{fixture.name}: built representation drifted")
        if count_representations(rep) != expected["representation_count"]:
            raise FixtureMismatch(f"{fixture.name}: representation count drifted")


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
    chains, handed back with an explicit (pairwise) implicational basis."""
    left = tuple(left)
    right = tuple(right)
    n = ground.n
    if sorted(left) != list(range(n)) or sorted(right) != list(range(n)):
        raise ValueError("chains must be permutations of the ground set")
    rep = SegmentRepresentation(left, right)
    from .representation import segment_closure

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
    return validate_geometry(basis)


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
