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

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import SegrepError, iter_bits, mask_of, prefix_masks
from .geometry import ConvexGeometry, closure_scope


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


@dataclass(frozen=True)
class SegmentRepresentation:
    """Unordered pair of chains, stored bottom-to-top.

    The pair is canonicalized on construction (the lexicographically smaller
    chain becomes ``left``), so equality and hashing treat ``(L, R)`` and
    ``(R, L)`` as the same representation.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    _lrank: dict = field(init=False, repr=False, compare=False)
    _rrank: dict = field(init=False, repr=False, compare=False)
    _lpref: tuple = field(init=False, repr=False, compare=False)
    _rpref: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        left, right = tuple(self.left), tuple(self.right)
        if sorted(left) != sorted(right):
            raise ValueError("chains must order the same elements")
        if len(set(left)) != len(left):
            raise ValueError("chains must be permutations")
        if right < left:
            left, right = right, left
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_lrank", {e: i + 1 for i, e in enumerate(left)})
        object.__setattr__(self, "_rrank", {e: i + 1 for i, e in enumerate(right)})
        object.__setattr__(self, "_lpref", prefix_masks(left))
        object.__setattr__(self, "_rpref", prefix_masks(right))

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
) -> tuple[bool, Optional[int]]:
    """Check that segment closure agrees with the geometry's closure.

    Compares all seeds of size <= 2; when both operators are generated by
    pairs (which the two-extreme-points property guarantees for the geometry,
    and the prefix model satisfies always), that agreement extends to every
    subset.  Representations over a proper subset of the ground set are
    checked against the restriction.  The all-subsets twin is the test
    oracle ``verify_representation_exhaustive`` in ``tests/oracles.py``.

    Returns ``(True, None)`` or ``(False, seed)`` for the canonically least
    disagreeing seed.
    """
    domain = rep.elements
    members = list(iter_bits(domain))
    seeds = [0]
    seeds.extend(1 << e for e in members)
    seeds.extend(
        (1 << members[i]) | (1 << members[j])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )
    for seed in seeds:
        if segment_closure(rep, seed) != geom.closure(seed) & domain:
            return (False, seed)
    return (True, None)


@closure_scope
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


def normalize_layout(intervals: Sequence[tuple[float, float]]) -> SegmentRepresentation:
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
