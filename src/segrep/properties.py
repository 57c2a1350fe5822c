"""Closure-operator properties that govern representability by line segments.

The decision procedure is the conjunction of two checks:

* ``check_2ex`` — every subset has at most two extreme points, tested through
  its triple form: in every 3-element subset one element lies in the closure
  of the other two.
* ``check_sq`` — removing the two extreme points of a subset in either order
  leaves consistent extreme-point pairs.

Each polynomial check has a brute-force twin (``*_exhaustive``) in the test
oracles (``tests/oracles.py``, outside the package) that evaluates the
defining quantifier literally over all subsets; the test suite holds the
pairs to agreement on small ground sets.  A failing check carries a witness that describes itself and can be
re-checked against the definitions.
"""

from __future__ import annotations

from .core import GroundSet, Value, canonical_key, iter_bits, mask_of
from .geometry import ConvexGeometry, closure_scope


class TwoExWitness(Value):
    """Three elements none of which is generated by the other two."""

    __slots__ = _fields = ("triple",)

    def __init__(self, triple: int):
        self.triple = triple

    def describe(self, ground: GroundSet) -> str:
        return f"triple {ground.format_set(self.triple)} has three extreme points"

    def verify(self, geom: ConvexGeometry) -> bool:
        """Recompute the witness from the definition."""
        if self.triple.bit_count() != 3:
            return False
        i, j, k = iter_bits(self.triple)
        return (
            not (geom.closure(mask_of((i, j))) >> k) & 1
            and not (geom.closure(mask_of((i, k))) >> j) & 1
            and not (geom.closure(mask_of((j, k))) >> i) & 1
        )


class SqWitness(Value):
    """A subset whose extreme-point bookkeeping breaks.

    With extreme points ``{a, b}`` of ``subset``, ``{c, b}`` after removing
    ``a`` and ``{c, d}`` after removing both, the extreme points after
    removing ``b`` alone came out as ``observed`` instead of ``{a, d}`` or
    ``{a}``.
    """

    __slots__ = _fields = ("subset", "a", "b", "c", "d", "observed")

    def __init__(self, subset: int, a: int, b: int, c: int, d: int, observed: int):
        self.subset, self.a, self.b, self.c, self.d = subset, a, b, c, d
        self.observed = observed

    def describe(self, ground: GroundSet) -> str:
        label = ground.labels
        return (
            f"X'={ground.format_set(self.subset)} a={label[self.a]} "
            f"b={label[self.b]} c={label[self.c]} d={label[self.d]} "
            f"observed Ex(X'-b)={ground.format_set(self.observed)}"
        )

    def verify(self, geom: ConvexGeometry) -> bool:
        """Recompute the witness from the definition."""
        a, b, c, d = (1 << e for e in (self.a, self.b, self.c, self.d))
        return (
            geom.extreme_points(self.subset) == a | b
            and geom.extreme_points(self.subset & ~a) == c | b
            and geom.extreme_points(self.subset & ~(a | b)) == c | d
            and geom.extreme_points(self.subset & ~b) == self.observed
            and self.observed != a | d
            and self.observed != a
        )


class PropertyReport:
    """Outcome of one property check.

    The property holds exactly when the report carries no witness.  A
    witness has ``describe(ground)``, the detail text of the failure, and
    ``verify(geom)``, which re-checks it against the definitions.
    """

    __slots__ = ("name", "witness")

    def __init__(self, name: str, witness: object | None = None):
        self.name, self.witness = name, witness

    @property
    def holds(self) -> bool:
        return self.witness is None

    def describe(self, ground: GroundSet) -> str:
        if self.holds:
            return f"{self.name}: holds"
        return f"{self.name}: fails ({self.witness.describe(ground)})"


class Decision:
    """Outcome of the dimension-2 decision with its two certificates."""

    __slots__ = ("two_ex", "sq")

    def __init__(self, two_ex: PropertyReport, sq: PropertyReport):
        self.two_ex, self.sq = two_ex, sq

    @property
    def cdim2(self) -> bool:
        return self.two_ex.holds and self.sq.holds


def _pair_closures(geom: ConvexGeometry) -> dict[tuple[int, int], int]:
    out = {}
    for i in range(geom.n):
        for j in range(i + 1, geom.n):
            out[(i, j)] = geom.closure((1 << i) | (1 << j))
    return out


def check_2ex(geom: ConvexGeometry) -> PropertyReport:
    """At most two extreme points in every subset, via the triple test.

    Equivalent formulation: for every three elements, one of them lies in the
    closure of the other two.  Costs n(n-1)/2 closures and O(n^3) bit tests;
    the first failing triple in lexicographic order is the witness.  Each
    pair is closed once, so the check holds no closure cache of its own.
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
                    return PropertyReport("TwoEx", TwoExWitness(mask_of((i, j, k))))
    return PropertyReport("TwoEx")


def _sq_violation(geom: ConvexGeometry, subset: int, a: int, b: int) -> SqWitness | None:
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


def _replacement(geom: ConvexGeometry, subset: int, a: int, b: int) -> int | None:
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
                return PropertyReport(name, witness)
    return PropertyReport(name)


@closure_scope
def check_sq(geom: ConvexGeometry) -> PropertyReport:
    """Square condition over the closed sets generated by pairs.

    Only subsets whose extreme points are an actual pair can satisfy the
    premise, and each such closed set is the closure of its two extreme
    points, so scanning pair closures covers them.  Each extreme-point query
    is one closure, so the scan makes O(n^2) closure queries plus O(n^3)
    big-integer operations.
    The exhaustive twin exists because that reduction ranges over closed
    sets only; the suite asserts agreement between the two on small inputs.
    """
    seen = set(_pair_closures(geom).values())
    return _pair_scan(geom, "Sq", sorted(seen, key=canonical_key), _sq_violation)


@closure_scope
def decide_cdim2(geom: ConvexGeometry) -> Decision:
    """Decide representability by segments on a line.

    True exactly when both the two-extreme-points bound and the square
    condition hold; the failing report carries a concrete witness.
    """
    two_ex = check_2ex(geom)
    sq = check_sq(geom)
    return Decision(two_ex, sq)


def verify_witness(geom: ConvexGeometry, report: PropertyReport) -> bool:
    """Recompute a failure witness directly from the definitions.

    A witness closes distinct sets, so no closure cache is held.
    """
    if report.holds:
        return False
    return report.witness.verify(geom)
