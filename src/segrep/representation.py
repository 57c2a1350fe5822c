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
    ``(R, L)`` as the same representation.
    """

    __slots__ = ("left", "right", "_lrank", "_rrank", "_lpref", "_rpref")
    _fields = ("left", "right")

    def __init__(self, left: tuple[int, ...], right: tuple[int, ...]):
        left, right = tuple(left), tuple(right)
        if sorted(left) != sorted(right):
            raise ValueError("chains must order the same elements")
        if len(set(left)) != len(left):
            raise ValueError("chains must be permutations")
        if right < left:
            left, right = right, left
        self.left, self.right = left, right
        self._lrank = {e: i + 1 for i, e in enumerate(left)}
        self._rrank = {e: i + 1 for i, e in enumerate(right)}
        self._lpref = prefix_masks(left)
        self._rpref = prefix_masks(right)

    @property
    def n(self) -> int:
        return len(self.left)

    @property
    def elements(self) -> int:
        return self._lpref[-1]

    def left_rank(self, element: int) -> int:
        return self._lrank[element]

    def right_rank(self, element: int) -> int:
        return self._rrank[element]


def segment_closure(rep: SegmentRepresentation, seed: int) -> int:
    """Elements whose segments lie inside the hull of the seed's segments.

    Equals the intersection of the two chain prefixes reaching up to the
    seed's maxima; the empty seed closes to the empty set.
    """
    if seed == 0:
        return 0
    if seed & ~rep.elements:
        raise ValueError("seed is not a subset of the represented elements")
    max_l = max(rep._lrank[e] for e in iter_bits(seed))
    max_r = max(rep._rrank[e] for e in iter_bits(seed))
    return rep._lpref[max_l] & rep._rpref[max_r]


def verify_representation(
    geom: ConvexGeometry, rep: SegmentRepresentation
) -> tuple[bool, int | None]:
    """Check that segment closure agrees with the geometry's closure.

    Segment closure ρ and the geometry's closure φ agree on every subset
    exactly when they agree on every seed of at most two elements: ρ(X) =
    ρ({max_L X, max_R X}), and each ρ-closed set is then the φ-closure of a
    pair.  Both close ∅ to ∅; the singletons and then the pairs are taken in
    canonical order, and the first disagreeing seed is returned.  One pass
    over the basis first checks (a): every implication ``A -> B`` has ``B``
    inside ρ(A).  Then every ρ-closed set is closed under the basis, so φ
    lies inside ρ, and a seed agrees as soon as its ρ lies inside a lower
    bound on its φ: the seed plus the gains of the rules whose premise it is
    and, for a pair, the ρ of both its elements, which agree with φ by then.
    Only a seed whose ρ exceeds that bound goes to ``geom.closure``; without
    (a) every seed does.  The all-subsets twin is the test oracle
    ``verify_representation_exhaustive`` in ``tests/oracles.py``.

    Returns ``(True, None)`` or ``(False, seed)`` for the canonically least
    disagreeing seed.  Raises ValueError unless the representation orders
    the whole ground set.
    """
    if rep.elements != geom.ground.full:
        raise ValueError("representation must order the whole ground set")
    gains = _premise_gains(geom, rep)
    proven = gains is not None
    closure = geom.closure
    lrank, rrank, lpref, rpref = rep._lrank, rep._rrank, rep._lpref, rep._rpref
    n = rep.n
    ranks = [(lrank[e], rrank[e]) for e in range(n)]
    below = []  # ρ({x}) per element x, equal to φ({x}) once x is passed
    for x, (lx, rx) in enumerate(ranks):
        seed = 1 << x
        closed = lpref[lx] & rpref[rx]
        below.append(closed)
        if proven and not closed & ~(seed | gains.get(seed, 0)):
            continue
        if closed != closure(seed):
            return (False, seed)
    for x, (lx, rx) in enumerate(ranks):
        for y in range(x + 1, n):
            ly, ry = ranks[y]
            seed = (1 << x) | (1 << y)
            closed = lpref[lx if lx > ly else ly] & rpref[rx if rx > ry else ry]
            if proven and not closed & ~(below[x] | below[y] | gains.get(seed, 0)):
                continue
            if closed != closure(seed):
                return (False, seed)
    return (True, None)


def _premise_gains(geom: ConvexGeometry, rep: SegmentRepresentation) -> dict | None:
    """Fact (a) of :func:`verify_representation` in one pass over the
    implications: None when some conclusion leaves the segment closure of
    its premise, else the gains of the rules with at most two premise
    elements, ORed up by premise."""
    lrank, rrank, lpref, rpref = rep._lrank, rep._rrank, rep._lpref, rep._rpref
    gains: dict[int, int] = {}
    for imp in geom.basis.implications:
        premise = imp.premise
        gain = imp.conclusion & ~premise
        if not gain:
            continue
        top_l = top_r = 0
        rest = premise
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            if lrank[e] > top_l:
                top_l = lrank[e]
            if rrank[e] > top_r:
                top_r = rrank[e]
            rest ^= low
        if gain & ~(lpref[top_l] & rpref[top_r]):
            return None
        if premise.bit_count() <= 2:
            gains[premise] = gains.get(premise, 0) | gain
    return gains


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
    """
    subset = geom.ground.full
    peeled = []
    while subset.bit_count() > 1:
        extreme = geom.extreme_points(subset)
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
    ``subset`` and goes on top of both chains unchecked.  Raise Infeasible,
    with the subset and ``a``, if no block orientation of ``sub`` admits it."""
    from .uniqueness import block_orientations

    own = geom.closure(1 << a) & subset
    below_a = own & ~(1 << a)
    cut = below_a.bit_count()
    for left, right in block_orientations(sub):
        if mask_of(right[:cut]) != below_a:
            continue
        prefix = own
        for x in right[cut:]:
            prefix |= 1 << x
            if geom.closure((1 << a) | (1 << x)) & subset != prefix:
                break
        else:
            return SegmentRepresentation(left + (a,), right[:cut] + (a,) + right[cut:])
    raise Infeasible("insertion", (subset, 1 << a))


def segment_layout(rep: SegmentRepresentation) -> tuple[tuple[int, int, int], ...]:
    """Interval endpoints per element: ``(element, -left_rank, +right_rank)``.

    The top of the left chain gets the most negative endpoint; every interval
    straddles the origin and all 2n endpoints are distinct.
    """
    return tuple(
        (e, -rep.left_rank(e), rep.right_rank(e))
        for e in sorted(rep._lrank)
    )


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
