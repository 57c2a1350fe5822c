"""Convex-geometry validation, extreme points, and families of closed sets.

A closure system is a convex geometry when the empty set is closed and the
anti-exchange property holds: for closed ``Y`` and distinct ``x, z`` outside
``Y``, ``z`` entering the closure of ``Y + x`` forbids ``x`` from entering the
closure of ``Y + z``.  :func:`closed_family` alone decides this while it
walks the closed sets, which can number 2^n, so it is meant for desk-scale
ground sets (default guard n <= 20, on n itself); the dimension-2 decision
procedure in :mod:`segrep.properties` never needs that walk.  The walk goes
part by part and returns the product of the part families unbuilt, a
:class:`~segrep.core.ClosedFamily`; on a direct sum it costs the sum of the
part walks (:meth:`ImplicationBasis.closed_sets_by_extension` proves it),
and a union per closed set is paid only by a caller that iterates it.
On any other basis the walk stops at a dead end, a closed set with no
closed one-element extension inside its part, and names an anti-exchange
witness there with one closure per element of the part outside it.
Validation drops the family unread once the axioms are decided, so a
:class:`ConvexGeometry` holds only its basis.
"""

from __future__ import annotations

from .core import (
    ClosedFamily,
    GroundSet,
    GroundSetTooLarge,
    ImplicationBasis,
    SegrepError,
    iter_bits,
)


class NotAGeometry(SegrepError):
    """The basis does not define a convex geometry.

    ``reason`` is ``"empty-set-not-closed"`` or ``"anti-exchange"``;
    ``witness`` is the closure of the empty set, or a triple
    ``(closed_set, x, z)`` with ``x < z`` violating anti-exchange, read at
    the first dead end of the closed-set walk (:func:`closed_family`).
    """

    def __init__(self, reason: str, witness, ground: GroundSet):
        self.reason = reason
        self.witness = witness
        if reason == "empty-set-not-closed":
            detail = f"closure of {{}} is {ground.format_set(witness)}"
        else:
            y, x, z = witness
            detail = (
                f"anti-exchange fails at closed set {ground.format_set(y)} "
                f"with x={ground.labels[x]}, z={ground.labels[z]}"
            )
        super().__init__(f"not a convex geometry: {detail}")


def closed_family(basis: ImplicationBasis, max_n: int = 20) -> ClosedFamily:
    """Every closed set of a convex geometry, as the lazy product of its
    part families (:class:`~segrep.core.ClosedFamily`): ``len`` and ``in``
    read the part families, and only iterating builds the unions.

    Decides the axioms on the way by Edelman and Jamison's (1985) criterion:
    the empty set is closed and every proper closed set has a closed
    one-element extension, which the walk reads off the basis with no
    closure call, part by part
    (:meth:`ImplicationBasis.closed_sets_by_extension`, which proves the
    product).  The guard counts every element, not the largest part.
    Raises :class:`NotAGeometry` on any other basis.

    A dead end ``y`` of the walk in ``part`` is itself an anti-exchange
    violation.  Take ``x``, the element of ``part - y`` whose ``y + x`` has
    the smallest closure (the least ``x`` on a tie), and ``z``, the least
    element that this closure adds to ``y + x``; no ``y + x`` is closed, so
    ``z`` exists.  The empty set is closed and every rule lies inside one
    part, so each closure of ``y + e`` stays inside ``part``, and ``z`` lies
    in ``part - y``.  Then φ(y + z) ⊆ φ(y + x), as ``z`` is in φ(y + x), and
    φ(y + z) is no smaller, by the choice of ``x``; so the two are equal and
    ``x`` is in φ(y + z).  The witness ``(y, min(x, z), max(x, z))`` costs
    one closure call per element of ``part - y``.  A walk that reports a
    false dead end gives a closed ``y + x`` and raises RuntimeError.
    """
    empty = basis.closure(0)
    if empty:
        raise NotAGeometry("empty-set-not-closed", empty, basis.ground)
    n = basis.ground.n
    if n > max_n:
        raise GroundSetTooLarge("closed_family", n, max_n)
    walked = basis.closed_sets_by_extension(0)
    if not isinstance(walked, tuple):
        return walked
    y, part = walked
    x = grown = None
    for e in iter_bits(part & ~y):
        closed = basis.closure(y | 1 << e)
        if grown is None or closed.bit_count() < grown.bit_count():
            x, grown = e, closed
    added = grown & ~(y | 1 << x)
    if not added:
        raise RuntimeError(
            f"the closed-set walk reported a dead end at {y:#x}, yet adding "
            f"element {x} gives a closed set")
    z = (added & -added).bit_length() - 1
    raise NotAGeometry("anti-exchange", (y, min(x, z), max(x, z)), basis.ground)


class ConvexGeometry:
    """A validated closure system: basis, ground set, and closure oracle.

    Instances come from :func:`validate_geometry` and keep no closed-set
    family.  They do not change apart from ``closure_calls``, the number of
    closure queries asked so far, and what the first call of
    :meth:`pair_closures` fills: n rows with the closure of every seed of
    one or two elements, and an index from those closed sets to their
    extreme points, which :meth:`extreme_points_of_closed` reads.  The
    index is exact on a convex geometry, the only kind that
    :func:`validate_geometry` returns.
    """

    __slots__ = ("ground", "basis", "closure_calls", "_pairs", "_extreme")

    def __init__(self, basis: ImplicationBasis):
        self.ground = basis.ground
        self.basis = basis
        self.closure_calls = 0
        self._pairs: list[list[int]] | None = None
        self._extreme: dict[int, int] = {}

    @property
    def n(self) -> int:
        return self.ground.n

    def closure(self, seed: int) -> int:
        """Closure of ``seed`` under the basis.

        Every call goes to the basis and counts in ``closure_calls``.
        """
        self.closure_calls += 1
        return self.basis.closure(seed)

    def pair_closures(self) -> list[list[int]]:
        """The closure of every seed of one or two elements, as n rows:
        ``rows[i][j]`` and ``rows[j][i]`` are the closure of ``{i, j}``, and
        ``rows[i][i]`` is the singleton closure ``C_i``.

        The first call closes each singleton once through :meth:`closure`
        and fills the pairs from those: the closure of ``{i, j}`` is that of
        ``C_i | C_j``, which is ``C_i`` itself when ``C_i`` holds ``j`` (and
        ``C_j`` when ``C_j`` holds ``i``).  So a nested pair asks no closure
        query, and every other pair asks one, of ``C_i | C_j``.  This holds
        for any closure operator.  Later calls return the same rows and ask
        no closure query; callers read them and do not change them.

        The same call indexes the extreme points of these closed sets, with
        no query of its own.  A closed set is the closure of its extreme
        points, and the extreme points of the closure of ``S`` lie in
        ``S`` (Edelman and Jamison, 1985).  So the empty set has none, Ex(C_i)
        is ``{i}``, and the closure of a pair that neither singleton closure
        holds has both members extreme: one alone would close to its own
        singleton closure, which misses the other.  Once every set has at
        most two extreme points, every closed set is an entry.
        """
        if self._pairs is None:
            n = self.n
            closure = self.closure
            own = [closure(1 << i) for i in range(n)]
            extreme = {0: 0}
            rows = [[0] * n for _ in range(n)]
            for i, c_i in enumerate(own):
                extreme[c_i] = 1 << i
                row = rows[i]
                row[i] = c_i
                for j in range(i + 1, n):
                    c_j = own[j]
                    if (c_i >> j) & 1:
                        closed = c_i
                    elif (c_j >> i) & 1:
                        closed = c_j
                    else:
                        closed = closure(c_i | c_j)
                        extreme[closed] = (1 << i) | (1 << j)
                    row[j] = rows[j][i] = closed
            self._pairs = rows
            self._extreme = extreme
        return self._pairs

    def extreme_points_of_closed(self, closed: int) -> int:
        """Extreme points of the closed set ``closed``: its entry in the
        index that :meth:`pair_closures` fills, or on a miss (before that
        call, or on a set with more than two extreme points) one pass over
        the basis (:meth:`ImplicationBasis.extreme_points_of_closed`)."""
        found = self._extreme.get(closed)
        if found is None:
            return self.basis.extreme_points_of_closed(closed)
        return found

    def extreme_points(self, subset: int) -> int:
        """Members of ``subset`` not generated by the rest of it.

        Issues one closure, of ``subset`` itself, and reads the closed
        result through :meth:`extreme_points_of_closed`: in a convex
        geometry a set and its closure have the same extreme points (one
        inclusion holds in any closure system, the other is anti-exchange).
        After :meth:`pair_closures` on a geometry with at most two extreme
        points per set, every answer is an index entry and no basis pass
        runs.
        """
        return self.extreme_points_of_closed(self.closure(subset))

    def __repr__(self):
        return f"ConvexGeometry(n={self.n}, m={self.basis.m})"


def validate_geometry(basis: ImplicationBasis, max_n: int = 20) -> ConvexGeometry:
    """Check the convex-geometry axioms and return the validated system.

    Raises :class:`NotAGeometry` with a concrete witness when the empty set
    is not closed or when anti-exchange fails (the violation that
    :func:`closed_family` names at the walk's first dead end ``y`` in a
    part).  A convex geometry costs one closure call, the empty set's; any
    other basis at most one more per element of the part outside ``y``.
    The walk's family is dropped without being iterated, so validation
    never builds the product of the part families.
    """
    closed_family(basis, max_n=max_n)
    return ConvexGeometry(basis)
