"""Segment representations: two linear orders whose prefix intersections
reproduce a geometry's closed sets.

A representation is an unordered pair of chains over the same elements.  Laid
out on a line, every element becomes a segment straddling a common origin:
its negative endpoint is its rank in the left chain, its positive endpoint
its rank in the right chain.  An element then belongs to the closure of a set
exactly when its segment sits inside the hull of the set's segments, i.e.
when it is below the set's maximum in both chains.
"""

from __future__ import annotations

from .core import SegrepError, Value, iter_bits, mask_of, prefix_masks
from .geometry import ConvexGeometry


class Infeasible(SegrepError):
    """No segment representation could be constructed.

    Legitimate only when the geometry genuinely is not representable;
    ``stage`` says where construction stopped and ``witness`` carries the
    offending subset or extreme-point data.
    """

    def __init__(self, stage: str, witness):
        self.stage = stage
        self.witness = witness
        super().__init__(f"no segment representation: {stage}")


class DuplicateEndpoint(SegrepError):
    """Interval input with coinciding endpoints cannot be normalized."""


class SegmentRepresentation(Value):
    """Unordered pair of chains, stored bottom-to-top.

    The pair is canonicalized on construction (the lexicographically smaller
    chain becomes ``left``), so equality and hashing treat ``(L, R)`` and
    ``(R, L)`` as the same representation.  The rank dicts and prefix masks
    are built on first read and kept, as ``block_decomposition`` keeps its
    blocks; neither cache is a field.
    """

    __slots__ = ("left", "right", "_tables", "_blocks")
    _fields = ("left", "right")

    def __init__(self, left: tuple[int, ...], right: tuple[int, ...]):
        left, right = tuple(left), tuple(right)
        elements = sorted(left)
        if elements != sorted(right):
            raise ValueError("chains must order the same elements")
        if len(set(left)) != len(left):
            raise ValueError("chains must be permutations")
        if not {*map(type, left)} <= {int} or elements and elements[0] < 0:
            raise ValueError("chains must hold non-negative ints")
        self._assign(left, right)

    def _assign(self, left: tuple[int, ...], right: tuple[int, ...]):
        """Store two chains that ``__init__`` would accept, canonically, and
        return the representation; block flips, valid by construction,
        skip the checks and call this alone."""
        if right < left:
            left, right = right, left
        self.left, self.right = left, right
        self._tables = self._blocks = None
        return self

    def _derive(self) -> tuple:
        """The left and right rank dicts and prefix masks, built once."""
        if self._tables is None:
            left, right = self.left, self.right
            self._tables = (
                {e: i for i, e in enumerate(left, 1)},
                {e: i for i, e in enumerate(right, 1)},
                prefix_masks(left),
                prefix_masks(right),
            )
        return self._tables

    @property
    def n(self) -> int:
        return len(self.left)

    @property
    def elements(self) -> int:
        return self._derive()[2][-1]

    def left_rank(self, element: int) -> int:
        return self._derive()[0][element]

    def right_rank(self, element: int) -> int:
        return self._derive()[1][element]


def segment_closure(rep: SegmentRepresentation, seed: int) -> int:
    """Elements whose segments lie inside the hull of the seed's segments.

    Equals the intersection of the two chain prefixes reaching up to the
    seed's maxima; the empty seed closes to the empty set.
    """
    if seed == 0:
        return 0
    if seed & ~rep.elements:
        raise ValueError("seed is not a subset of the represented elements")
    lrank, rrank, lpref, rpref = rep._derive()
    max_l = max(lrank[e] for e in iter_bits(seed))
    max_r = max(rrank[e] for e in iter_bits(seed))
    return lpref[max_l] & rpref[max_r]


def verify_representation(
    geom: ConvexGeometry, rep: SegmentRepresentation
) -> tuple[bool, int | None]:
    """Check that segment closure agrees with the geometry's closure.

    Segment closure ρ and the geometry's closure φ agree on every subset
    exactly when they agree on every seed of at most two elements.  For any
    X, the seed S = {max_L X, max_R X} lies in X and ρ(X) = ρ(S); if ρ(S) =
    φ(S), then ρ(X) ⊆ φ(X), and X ⊆ ρ(S) gives φ(X) ⊆ φ(S) = ρ(X).  Both
    close ∅ to ∅, and φ of every other such seed is read off the rows of
    :meth:`ConvexGeometry.pair_closures`: the singletons and then the pairs,
    in canonical order, and the first disagreeing seed is returned.  After
    ``decide_cdim2`` the rows are full and this asks no closure query;
    without it, they are filled first.  The all-subsets twin is the
    test oracle ``verify_representation_exhaustive`` in ``tests/oracles.py``.

    ρ closes ∅ to ∅.  Once the singletons agree, φ(∅) lies inside
    φ{x} = ρ{x} for the bottom x of each chain, so it is ∅ when the two
    bottoms differ; when both are x, φ(∅) is ∅ iff x is an extreme point
    of {x}, which one pass over the basis tells with no closure query.

    Returns ``(True, None)`` or ``(False, seed)`` for the canonically least
    disagreeing seed, or ``(False, 0)`` when the singletons agree and the
    empty set is not closed.  Raises ValueError unless the representation
    orders the whole ground set.
    """
    if rep.elements != geom.ground.full:
        raise ValueError("representation must order the whole ground set")
    rows = geom.pair_closures()
    lrank, rrank, lpref, rpref = rep._derive()
    n = rep.n
    ranks = [(lrank[e], rrank[e]) for e in range(n)]
    for x, (lx, rx) in enumerate(ranks):
        if lpref[lx] & rpref[rx] != rows[x][x]:
            return (False, 1 << x)
    if n and rep.left[0] == rep.right[0]:
        bottom = 1 << rep.left[0]
        if geom.basis.extreme_points_of_closed(bottom) != bottom:
            return (False, 0)
    for x, (lx, rx) in enumerate(ranks):
        row = rows[x]
        for y in range(x + 1, n):
            ly, ry = ranks[y]
            closed = lpref[lx if lx > ly else ly] & rpref[rx if rx > ry else ry]
            if closed != row[y]:
                return (False, (1 << x) | (1 << y))
    return (True, None)


def build_representation(geom: ConvexGeometry) -> SegmentRepresentation:
    """Construct a verified segment representation, or raise Infeasible.

    Peel the least extreme point of the remaining set (at most two exist when
    construction can succeed) down to at most one element, then re-insert
    the peeled points in reverse order by one rule: the point goes on top of
    the left chain and just above its own closure in the right chain.  The
    representation of the rest may need some of its interchangeable blocks
    flipped for that, so insertion searches the block orientations, checking
    only the seeds through the new point.  The result is verified once.

    One peeling order suffices: every representation of a closed set is a
    block flip of any other, so if the set is representable, one of its
    representations has the least extreme point on top of a chain, and
    dropping that point from both chains yields a representation of the rest
    that the orientation search reaches.

    The build first fills the geometry's rows of singleton and pair
    closures (:meth:`ConvexGeometry.pair_closures`), also on an input that
    then raises; after ``decide_cdim2`` they are already full.  Past them,
    the peel asks n-1 extreme-point queries, one closure each, whose closed
    results the geometry's extreme-point index answers, and the insertions
    and the verification read the rows, so a build after decide asks n-1
    closure queries.
    """
    geom.pair_closures()
    subset = geom.ground.full
    peeled = []
    while subset.bit_count() > 1:
        # the index answers outside subset only off a convex geometry
        extreme = geom.extreme_points(subset) & subset
        k = extreme.bit_count()
        if k == 0:
            raise Infeasible("no-extreme-point", subset)
        if k > 2:
            raise Infeasible("extreme-count", (subset, extreme))
        a = next(iter_bits(extreme))
        peeled.append((subset, a))
        subset &= ~(1 << a)
    last = tuple(iter_bits(subset))
    rep = SegmentRepresentation(last, last)
    for subset, a in reversed(peeled):
        rep = _insert(geom, subset, a, rep)
    ok, seed = verify_representation(geom, rep)
    if not ok:
        raise Infeasible("verification", seed)
    return rep


def _insert(
    geom: ConvexGeometry, subset: int, a: int, sub: SegmentRepresentation
) -> SegmentRepresentation:
    """Re-enter ``a``, an extreme point of ``subset``, into ``sub``, a
    representation of ``subset`` without ``a``: on top of the left chain and,
    in the right chain, just above its own closure.  Seeds without ``a`` keep
    their closures (``a`` tops the left chain and is in no closure of the
    rest); ``{a}``, and ``{a, x}`` with ``x`` below the cut, hold when the
    prefix below the cut is ``a``'s closure.  So only the pairs with ``x``
    above the cut are checked; a sole extreme point closes to all of
    ``subset`` and goes on top of both chains unchecked.  ``subset`` is
    closed, so every closure in ``a``'s row of
    :meth:`ConvexGeometry.pair_closures` lies inside it, and the insertion
    reads them there, asking no closure query.  Raise Infeasible, with the
    subset and ``a``, if no block orientation of ``sub`` admits it."""
    from .uniqueness import block_orientations

    row = geom.pair_closures()[a]
    own = row[a]
    below_a = own & ~(1 << a)
    cut = below_a.bit_count()
    for left, right in block_orientations(sub):
        if mask_of(right[:cut]) != below_a:
            continue
        prefix = own
        for x in right[cut:]:
            prefix |= 1 << x
            if row[x] != prefix:
                break
        else:
            return SegmentRepresentation(left + (a,), right[:cut] + (a,) + right[cut:])
    raise Infeasible("insertion", (subset, 1 << a))


def segment_layout(rep: SegmentRepresentation) -> tuple[tuple[int, int, int], ...]:
    """Interval endpoints per element: ``(element, -left_rank, +right_rank)``.

    The top of the left chain gets the most negative endpoint; every interval
    straddles the origin and all 2n endpoints are distinct.
    """
    lrank, rrank = rep._derive()[:2]
    return tuple((e, -lrank[e], rrank[e]) for e in sorted(lrank))


def normalize_layout(intervals) -> SegmentRepresentation:
    """Read a representation off arbitrary segments on a line.

    When the segments do not already share a common point, the right
    endpoints are first shifted by a uniform constant so they do (the shift
    preserves containment of left and of right endpoints separately, hence
    the induced closure).  The chains are then the elements by descending
    left endpoint and ascending right endpoint.  All 2n endpoints must be
    distinct and each interval non-degenerate.
    """
    starts = [float(a) for a, _ in intervals]
    ends = [float(b) for _, b in intervals]
    for a, b in zip(starts, ends):
        if not a < b:
            raise DuplicateEndpoint(f"degenerate interval [{a}, {b}]")
    endpoints = starts + ends
    if len(set(endpoints)) != len(endpoints):
        raise DuplicateEndpoint("segments must not share endpoints")
    if intervals and min(ends) < max(starts):
        shift = (max(starts) - min(ends)) + 1.0
        ends = [b + shift for b in ends]
    order = range(len(starts))
    left = tuple(sorted(order, key=lambda e: -starts[e]))
    right = tuple(sorted(order, key=lambda e: ends[e]))
    return SegmentRepresentation(left, right)
