"""Closure-operator properties that govern representability by line segments.

The decision procedure is the conjunction of two checks:

* ``check_2ex`` — every subset has at most two extreme points, tested through
  its triple form: in every 3-element subset one element lies in the closure
  of the other two.
* ``check_sq`` — removing the two extreme points of a subset in either order
  leaves consistent extreme-point pairs.

Both read the closures of pairs, which ``ConvexGeometry.pair_closures``
computes once per geometry; ``check_sq`` reads extreme points from the index
that the same call fills.
Each polynomial check has a brute-force twin (``*_exhaustive``) in the test
oracles (``tests/oracles.py``, outside the package) that evaluates the
defining quantifier literally over all subsets, with a scan of its own; the
test suite holds the pairs to agreement on small ground sets.  A failing
check carries a witness that describes itself and can be re-checked against
the definitions.
"""

from __future__ import annotations

from .core import GroundSet, Value, canonical_key, iter_bits, mask_of
from .geometry import ConvexGeometry


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
        """Recompute the witness from the definition.

        Each of the four sets is closed again and its extreme points are
        read off the basis, not the geometry's index, so the re-check
        shares no table with ``check_sq``."""
        a, b, c, d = (1 << e for e in (self.a, self.b, self.c, self.d))
        closure, of_closed = geom.closure, geom.basis.extreme_points_of_closed
        return (
            of_closed(closure(self.subset)) == a | b
            and of_closed(closure(self.subset & ~a)) == c | b
            and of_closed(closure(self.subset & ~(a | b))) == c | d
            and of_closed(closure(self.subset & ~b)) == self.observed
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


def check_2ex(geom: ConvexGeometry) -> PropertyReport:
    """At most two extreme points in every subset, via the triple test.

    Equivalent formulation: for every three elements, one of them lies in the
    closure of the other two.  Reads the rows of
    :meth:`ConvexGeometry.pair_closures`: for each pair ``i < j`` only the
    ``k > j`` outside the closure of ``{i, j}`` are visited, with two bit
    tests each, so at most O(n^3) in all.  The first failing triple in
    lexicographic order is the witness.
    """
    rows = geom.pair_closures()
    full = geom.ground.full
    for i, row_i in enumerate(rows):
        for j in range(i + 1, geom.n):
            row_j = rows[j]
            for k in iter_bits(full & ~row_i[j] & -(2 << j)):
                if not (row_i[k] >> j) & 1 and not (row_j[k] >> i) & 1:
                    return PropertyReport("TwoEx", TwoExWitness(mask_of((i, j, k))))
    return PropertyReport("TwoEx")


def check_sq(geom: ConvexGeometry) -> PropertyReport:
    """Square condition over the closed sets generated by pairs.

    Only subsets whose extreme points are an actual pair can satisfy the
    premise, and each such closed set is the closure of its two extreme
    points, so scanning the distinct closures X of the table covers them,
    trying both labellings ``(a, b)`` of Ex(X); a singleton closure has one
    extreme point and is skipped.  The scan order is free: the report is
    the canonically least violating X, keyed only when it violates, with
    its first violating labelling.  Every set the
    scan asks about is closed: X itself, X-a and X-b because a and b are
    extreme in X, and X-a-b, asked only once b is extreme in X-a.  So each
    extreme-point set is read through
    :meth:`ConvexGeometry.extreme_points_of_closed`: an entry of the index
    that fills with the pair table, or one pass over the basis for a set
    with more than two extreme points, which only a geometry that fails
    ``check_2ex`` has.  The check asks no closure beyond those that fill
    the pair table (the n singletons, and each pair that neither singleton
    closure holds), and at most seven lookups per distinct pair closure.
    The exhaustive twin in the test oracles evaluates the condition on
    every subset.
    """
    extreme = geom.extreme_points_of_closed
    least = None  # (canonical key, witness) of the least violating set
    for subset in {closed for row in geom.pair_closures() for closed in row}:
        ends = extreme(subset)
        if ends.bit_count() != 2:
            continue
        low = ends & -ends
        for a, b in ((low, ends ^ low), (ends ^ low, low)):
            # Premise: Ex(X-a) = {c, b} and Ex(X-a-b) = {c, d}, two elements
            # each; any other instance holds vacuously.
            after_a = extreme(subset ^ a)
            if not after_a & b or after_a.bit_count() != 2:
                continue
            c = after_a ^ b
            after_ab = extreme(subset ^ a ^ b)
            if not after_ab & c or after_ab.bit_count() != 2:
                continue
            d = after_ab ^ c
            # Conclusion: Ex(X-b) is {a, d} or {a}.
            after_b = extreme(subset ^ b)
            if after_b != a | d and after_b != a:
                key = canonical_key(subset)
                if least is None or key < least[0]:
                    index = [bit.bit_length() - 1 for bit in (a, b, c, d)]
                    least = key, SqWitness(subset, *index, after_b)
                break
    return PropertyReport("Sq", least[1] if least else None)


def decide_cdim2(geom: ConvexGeometry) -> Decision:
    """Decide representability by segments on a line.

    True exactly when both the two-extreme-points bound and the square
    condition hold; the failing report carries a concrete witness.  The two
    checks share the pair table, so a fresh geometry costs n singleton
    closures plus one closure per pair that neither singleton closure holds,
    at most n + n(n-1)/2 in all, and a second decision none.
    """
    # check_sq goes first: perfbench's trace counts the pair closures there.
    sq = check_sq(geom)
    two_ex = check_2ex(geom)
    return Decision(two_ex, sq)


def verify_witness(geom: ConvexGeometry, report: PropertyReport) -> bool:
    """Recompute a failure witness directly from the definitions.

    The witness asks ``geom.closure`` and reads extreme points off the
    basis, never the tables that the checks fill, so each of its queries
    reaches the basis.
    """
    if report.holds:
        return False
    return report.witness.verify(geom)
