"""Closure-operator properties that govern representability by line segments.

The decision procedure is the conjunction of two checks:

* ``check_2ex`` — every subset has at most two extreme points, tested through
  its triple form: in every 3-element subset one element lies in the closure
  of the other two.
* ``check_sq`` — removing the two extreme points of a subset in either order
  leaves consistent extreme-point pairs.

Each polynomial check has a brute-force twin (``*_exhaustive``) that
evaluates the defining quantifier literally over all subsets; the twins are
guarded because they are exponential, and the test suite holds the pairs to
agreement on small ground sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from .core import (
    GroundSetTooLarge,
    Implication,
    ImplicationBasis,
    SegrepError,
    canonical_key,
    iter_bits,
    mask_of,
    subsets_canonical,
)
from .geometry import ConvexGeometry, closure_scope


@dataclass(frozen=True)
class TwoExWitness:
    """Three elements none of which is generated by the other two."""

    triple: int


@dataclass(frozen=True)
class SqWitness:
    """A subset whose extreme-point bookkeeping breaks.

    With extreme points ``{a, b}`` of ``subset``, ``{c, b}`` after removing
    ``a`` and ``{c, d}`` after removing both, the extreme points after
    removing ``b`` alone came out as ``observed`` instead of ``{a, d}`` or
    ``{a}``.
    """

    subset: int
    a: int
    b: int
    c: int
    d: int
    observed: int


@dataclass(frozen=True)
class CaratheodoryWitness:
    """A membership ``element in closure(subset)`` no part of the subset with
    at most ``order`` members explains."""

    subset: int
    element: int
    order: int


@dataclass(frozen=True)
class ExRWitness:
    """An implication through a removed extreme point that its replacement misses.

    ``a`` is extreme in ``subset`` alongside ``b``; ``c`` replaces ``a`` once
    it is removed; ``y`` is generated by ``a`` (with ``z``) yet not by
    ``{c, z}``.
    """

    subset: int
    a: int
    b: int
    c: int
    y: int
    z: int


Witness = Union[TwoExWitness, SqWitness, CaratheodoryWitness, ExRWitness]


@dataclass(frozen=True)
class PropertyReport:
    name: str
    holds: bool
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.holds != (self.witness is None):
            raise ValueError("a report holds exactly when it carries no witness")

    def describe(self, ground) -> str:
        if self.holds:
            return f"{self.name}: holds"
        w = self.witness
        if isinstance(w, TwoExWitness):
            detail = f"triple {ground.format_set(w.triple)} has three extreme points"
        elif isinstance(w, SqWitness):
            detail = (
                f"X'={ground.format_set(w.subset)} a={ground.labels[w.a]} "
                f"b={ground.labels[w.b]} c={ground.labels[w.c]} d={ground.labels[w.d]} "
                f"observed Ex(X'-b)={ground.format_set(w.observed)}"
            )
        elif isinstance(w, CaratheodoryWitness):
            detail = (
                f"{ground.labels[w.element]} in closure of {ground.format_set(w.subset)} "
                f"but in no small-part closure"
            )
        else:
            detail = (
                f"X'={ground.format_set(w.subset)} a={ground.labels[w.a]} "
                f"b={ground.labels[w.b]} c={ground.labels[w.c]}: "
                f"{ground.labels[w.y]} follows from {ground.labels[w.a]} with "
                f"{ground.labels[w.z]} but not from {ground.labels[w.c]} with "
                f"{ground.labels[w.z]}"
            )
        return f"{self.name}: fails ({detail})"


class CaratheodoryFails(SegrepError):
    """Binary-premise reduction was requested but the 2-part property fails."""

    def __init__(self, witness: CaratheodoryWitness):
        self.witness = witness
        super().__init__("cannot reduce to binary premises: 2-part generation fails")


@dataclass(frozen=True)
class Decision:
    """Outcome of the dimension-2 decision with its two certificates."""

    cdim2: bool
    two_ex: PropertyReport
    sq: PropertyReport


def _pair_closures(geom: ConvexGeometry) -> dict[tuple[int, int], int]:
    out = {}
    for i in range(geom.n):
        for j in range(i + 1, geom.n):
            out[(i, j)] = geom.closure((1 << i) | (1 << j))
    return out


@closure_scope
def check_2ex(geom: ConvexGeometry) -> PropertyReport:
    """At most two extreme points in every subset, via the triple test.

    Equivalent formulation: for every three elements, one of them lies in the
    closure of the other two.  Costs n^2 closures plus O(n^3) membership
    tests; the first failing triple in lexicographic order is the witness.
    """
    pc = _pair_closures(geom)
    n = geom.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (
                    not (pc[(i, j)] >> k) & 1
                    and not (pc[(i, k)] >> j) & 1
                    and not (pc[(j, k)] >> i) & 1
                ):
                    return PropertyReport(
                        "TwoEx", False, TwoExWitness(mask_of((i, j, k)))
                    )
    return PropertyReport("TwoEx", True)


def _all_subsets(geom: ConvexGeometry, operation: str, max_n: int, min_size: int) -> list[int]:
    """Every subset with at least ``min_size`` members, in canonical order,
    for the exhaustive ``operation``; guarded at ``max_n`` elements."""
    if geom.n > max_n:
        raise GroundSetTooLarge(operation, geom.n, max_n)
    return [s for s in subsets_canonical(geom.ground.full) if s.bit_count() >= min_size]


def check_2ex_exhaustive(geom: ConvexGeometry, max_n: int = 15) -> PropertyReport:
    """Literal evaluation of the two-extreme-points bound over all subsets."""
    for subset in _all_subsets(geom, "check_2ex_exhaustive", max_n, 3):
        extreme = geom.extreme_points(subset)
        if extreme.bit_count() > 2:
            triple = mask_of(list(iter_bits(extreme))[:3])
            return PropertyReport("TwoEx", False, TwoExWitness(triple))
    return PropertyReport("TwoEx", True)


def check_caratheodory(geom: ConvexGeometry, order: int, max_n: int = 15) -> PropertyReport:
    """Every closure membership is witnessed by at most ``order`` generators."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    name = f"Caratheodory({order})"
    for subset in _all_subsets(geom, "check_caratheodory", max_n, order + 1):
        closed = geom.closure(subset)
        members = list(iter_bits(subset))
        for a in iter_bits(closed & ~subset):
            if _generating_part(geom, members, a, order) is None:
                return PropertyReport(name, False, CaratheodoryWitness(subset, a, order))
    return PropertyReport(name, True)


def _generating_part(
    geom: ConvexGeometry, members: list[int], a: int, order: int
) -> Optional[int]:
    """First part of ``members`` with at most ``order`` elements, smallest
    first, whose closure contains ``a``; None when there is none."""
    for size in range(1, order + 1):
        for part in combinations(members, size):
            if (geom.closure(mask_of(part)) >> a) & 1:
                return mask_of(part)
    return None


def reduce_to_binary_basis(geom: ConvexGeometry, max_n: int = 15) -> ImplicationBasis:
    """Rewrite the basis so every premise has at most two elements.

    Requires the 2-part generation property; each oversized premise is
    replaced by the first 1- or 2-element part of it that already generates
    the conclusion.  A basis that is already binary is returned unchanged.
    The rewritten basis is checked to generate the same closure operator on
    every subset; like the Carathéodory check, that is guarded at ``max_n``
    elements.
    """
    report = check_caratheodory(geom, 2, max_n=max_n)
    if not report.holds:
        raise CaratheodoryFails(report.witness)
    basis = geom.basis
    if all(imp.premise.bit_count() <= 2 for imp in basis.implications):
        return basis

    units: list[tuple[int, int]] = []
    for imp in basis.implications:
        for b in iter_bits(imp.conclusion & ~imp.premise):
            if imp.premise.bit_count() <= 2:
                units.append((imp.premise, b))
                continue
            replacement = _generating_part(geom, list(iter_bits(imp.premise)), b, 2)
            if replacement is None:
                raise CaratheodoryFails(CaratheodoryWitness(imp.premise, b, 2))
            units.append((replacement, b))

    grouped: dict[int, int] = {}
    for premise, b in units:
        grouped[premise] = grouped.get(premise, 0) | (1 << b)
    implications = tuple(
        Implication(premise, grouped[premise] & ~premise)
        for premise in sorted(grouped, key=canonical_key)
        if grouped[premise] & ~premise
    )
    reduced = ImplicationBasis(basis.ground, implications)

    for seed in range(1 << geom.n):
        if reduced.closure(seed) != basis.closure(seed):
            raise AssertionError("binary reduction changed the closure operator")
    return reduced


def _sq_violation(geom: ConvexGeometry, subset: int, a: int, b: int) -> Optional[SqWitness]:
    """Evaluate one labelled instance of the square condition.

    Premise: extreme points of ``subset`` are exactly ``{a, b}``, removing
    ``a`` leaves ``{c, b}`` with ``c != b``, and removing both leaves
    ``{c, d}`` with ``d != c``.  Instances with ``c == d`` hold automatically
    and are skipped.  Returns a witness when the conclusion (removing ``b``
    leaves ``{a, d}`` or ``{a}``) fails.
    """
    c = _replacement(geom, subset, a, b)
    if c is None:
        return None
    after_ab = geom.extreme_points(subset & ~(1 << a) & ~(1 << b))
    if not (after_ab >> c) & 1 or after_ab.bit_count() != 2:
        return None
    d = next(iter_bits(after_ab & ~(1 << c)))
    after_b = geom.extreme_points(subset & ~(1 << b))
    if after_b == (1 << a) | (1 << d) or after_b == (1 << a):
        return None
    return SqWitness(subset, a, b, c, d, after_b)


def _replacement(geom: ConvexGeometry, subset: int, a: int, b: int) -> Optional[int]:
    """The ``c != b`` with ``{c, b}`` the extreme points of ``subset`` minus
    ``a``; None when removing ``a`` leaves other extreme points."""
    after_a = geom.extreme_points(subset & ~(1 << a))
    if not (after_a >> b) & 1 or after_a.bit_count() != 2:
        return None
    return next(iter_bits(after_a & ~(1 << b)))


def _pair_scan(geom: ConvexGeometry, name: str, subsets, violation) -> PropertyReport:
    """First ``violation(geom, subset, a, b)`` witness over the subsets with
    exactly two extreme points, trying both labellings of the pair."""
    for subset in subsets:
        extreme = geom.extreme_points(subset)
        if extreme.bit_count() != 2:
            continue
        first, second = iter_bits(extreme)
        for a, b in ((first, second), (second, first)):
            witness = violation(geom, subset, a, b)
            if witness is not None:
                return PropertyReport(name, False, witness)
    return PropertyReport(name, True)


@closure_scope
def check_sq(geom: ConvexGeometry) -> PropertyReport:
    """Square condition over the closed sets generated by pairs.

    Only subsets whose extreme points are an actual pair can satisfy the
    premise, and each such closed set is the closure of its two extreme
    points, so scanning pair closures covers them with O(n^3) closure calls.
    The exhaustive twin exists because that reduction ranges over closed
    sets only; the suite asserts agreement between the two on small inputs.
    """
    seen = set(_pair_closures(geom).values())
    return _pair_scan(geom, "Sq", sorted(seen, key=canonical_key), _sq_violation)


def check_sq_exhaustive(geom: ConvexGeometry, max_n: int = 15) -> PropertyReport:
    """Square condition evaluated over every subset of the ground set."""
    subsets = _all_subsets(geom, "check_sq_exhaustive", max_n, 3)
    return _pair_scan(geom, "Sq", subsets, _sq_violation)


def check_exr(geom: ConvexGeometry, max_n: int = 15, closed_only: bool = False) -> PropertyReport:
    """Extreme-point replacement: the element replacing a removed extreme
    point inherits its implications.

    For a subset with extreme points ``{a, b}`` where removing ``a`` makes
    ``c`` extreme (``c != b``): whenever ``z`` is not generated by ``a`` but
    ``y`` is generated by ``a`` (alone or with ``z``), then ``{c, z}`` must
    generate ``y``.  Instances with ``c == b`` hold vacuously.
    """
    if closed_only:
        subsets = [s for s in geom.closed_sets().sets if s.bit_count() >= 2]
    else:
        subsets = _all_subsets(geom, "check_exr", max_n, 2)
    return _pair_scan(geom, "ExR", subsets, _exr_violation)


def _exr_violation(geom: ConvexGeometry, subset: int, a: int, b: int) -> Optional[ExRWitness]:
    c = _replacement(geom, subset, a, b)
    if c is None:
        return None
    from_a = geom.closure(1 << a)
    rest = subset & ~(1 << a)
    for z in iter_bits(rest & ~from_a):
        from_az = geom.closure((1 << a) | (1 << z))
        from_cz = geom.closure((1 << c) | (1 << z))
        for y in iter_bits(rest & ~(1 << z)):
            if not ((from_a >> y) & 1 or (from_az >> y) & 1):
                continue
            if not (from_cz >> y) & 1:
                return ExRWitness(subset, a, b, c, y, z)
    return None


@closure_scope
def decide_cdim2(geom: ConvexGeometry) -> Decision:
    """Decide representability by segments on a line.

    True exactly when both the two-extreme-points bound and the square
    condition hold; the failing report carries a concrete witness.
    """
    two_ex = check_2ex(geom)
    sq = check_sq(geom)
    return Decision(two_ex.holds and sq.holds, two_ex, sq)


@closure_scope
def verify_witness(geom: ConvexGeometry, report: PropertyReport) -> bool:
    """Recompute a failure witness directly from the definitions."""
    if report.holds or report.witness is None:
        return False
    w = report.witness
    if isinstance(w, TwoExWitness):
        if w.triple.bit_count() != 3:
            return False
        i, j, k = iter_bits(w.triple)
        return (
            not (geom.closure(mask_of((i, j))) >> k) & 1
            and not (geom.closure(mask_of((i, k))) >> j) & 1
            and not (geom.closure(mask_of((j, k))) >> i) & 1
        )
    if isinstance(w, SqWitness):
        ab = (1 << w.a) | (1 << w.b)
        return (
            geom.extreme_points(w.subset) == ab
            and geom.extreme_points(w.subset & ~(1 << w.a)) == (1 << w.c) | (1 << w.b)
            and geom.extreme_points(w.subset & ~ab) == (1 << w.c) | (1 << w.d)
            and geom.extreme_points(w.subset & ~(1 << w.b)) == w.observed
            and w.observed != (1 << w.a) | (1 << w.d)
            and w.observed != (1 << w.a)
        )
    if isinstance(w, CaratheodoryWitness):
        if not (geom.closure(w.subset) >> w.element) & 1:
            return False
        members = list(iter_bits(w.subset))
        return _generating_part(geom, members, w.element, w.order) is None
    if isinstance(w, ExRWitness):
        return (
            geom.extreme_points(w.subset) == (1 << w.a) | (1 << w.b)
            and geom.extreme_points(w.subset & ~(1 << w.a))
            == (1 << w.c) | (1 << w.b)
            and not (geom.closure(1 << w.a) >> w.z) & 1
            and (
                (geom.closure(1 << w.a) >> w.y) & 1
                or (geom.closure((1 << w.a) | (1 << w.z)) >> w.y) & 1
            )
            and not (geom.closure((1 << w.c) | (1 << w.z)) >> w.y) & 1
        )
    return False
