"""Convex-geometry validation, extreme points, and families of closed sets.

A closure system is a convex geometry when the empty set is closed and the
anti-exchange property holds: for closed ``Y`` and distinct ``x, z`` outside
``Y``, ``z`` entering the closure of ``Y + x`` forbids ``x`` from entering the
closure of ``Y + z``.  Validation enumerates the closed sets, so it is meant
for desk-scale ground sets (default guard n <= 20); the dimension-2 decision
procedure in :mod:`segrep.properties` never needs that enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

from .core import (
    GroundSet,
    GroundSetTooLarge,
    ImplicationBasis,
    SegrepError,
    canonical_key,
    iter_bits,
    prefix_masks,
)


class NotAGeometry(SegrepError):
    """The basis does not define a convex geometry.

    ``reason`` is ``"empty-set-not-closed"`` or ``"anti-exchange"``;
    ``witness`` is the closure of the empty set, or a triple
    ``(closed_set, x, z)`` violating anti-exchange.
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


class GroundSetMismatch(SegrepError):
    """Two alignments over different ground sets cannot be joined."""


class ClosureStats:
    """Mutable closure-call counter attached to a geometry."""

    __slots__ = ("closures",)

    def __init__(self):
        self.closures = 0

    def reset(self):
        self.closures = 0


@dataclass(frozen=True)
class Alignment:
    """Intersection-closed family of subsets containing the ground set.

    ``sets`` is stored in canonical order (by size, then lexicographically by
    members) so families compare and diff deterministically.
    """

    ground: GroundSet
    sets: tuple[int, ...]

    @classmethod
    def from_masks(cls, ground: GroundSet, masks) -> "Alignment":
        return cls(ground, tuple(sorted(set(masks), key=canonical_key)))

    def generated_closure(self, seed: int) -> int:
        """Closure operator induced by the family: meet of covering members."""
        out = self.ground.full
        for member in self.sets:
            if seed & ~member == 0:
                out &= member
        return out

    def is_intersection_closed(self) -> bool:
        members = set(self.sets)
        if self.ground.full not in members:
            return False
        items = list(members)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if a & b not in members:
                    return False
        return True


def closed_family(basis: ImplicationBasis, max_n: int = 20) -> tuple[int, ...]:
    """Every closed set of the basis, in canonical order.

    Walks outward from the closure of the empty set, adding one generator at
    a time; every closed set is reachable that way, so the walk costs
    O(|family| * n) closure calls rather than 2^n.
    """
    n = basis.ground.n
    if n > max_n:
        raise GroundSetTooLarge("closed_family", n, max_n)
    full = basis.ground.full
    start = basis.closure(0)
    seen = {start}
    frontier = [start]
    while frontier:
        y = frontier.pop()
        for x in iter_bits(full & ~y):
            c = basis.closure(y | (1 << x))
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return tuple(sorted(seen, key=canonical_key))


class ConvexGeometry:
    """A validated closure system: basis, ground set, and closure oracle.

    Instances come from :func:`validate_geometry` and are immutable apart
    from the closure-call counter in ``stats`` and the closure cache that a
    :func:`closure_scope` operation holds while it runs.
    """

    __slots__ = ("ground", "basis", "_closed", "stats", "_memo")

    def __init__(self, basis: ImplicationBasis, closed: tuple[int, ...]):
        self.ground = basis.ground
        self.basis = basis
        self._closed = closed
        self.stats = ClosureStats()
        self._memo: dict[int, int] | None = None

    @property
    def n(self) -> int:
        return self.ground.n

    def closure(self, seed: int) -> int:
        """Closure of ``seed`` under the basis.

        While an operation marked with :func:`closure_scope` runs, answers
        come from a seed -> closure dict that the operation (and any
        operation nested in it) shares, so each distinct seed reaches the
        basis once; the dict is dropped when the outermost operation
        returns or raises.  Outside such an operation every call goes to
        the basis.  ``stats.closures`` counts every query, cached or not.
        """
        self.stats.closures += 1
        memo = self._memo
        if memo is None:
            return self.basis.closure(seed)
        closed = memo.get(seed)
        if closed is None:
            closed = memo[seed] = self.basis.closure(seed)
        return closed

    def restricted_closure(self, subset: int, seed: int) -> int:
        """Closure within the restriction to ``subset``: closure(seed) & subset."""
        if seed & ~subset:
            raise ValueError("seed must lie inside the restriction subset")
        return self.closure(seed) & subset

    def extreme_points(self, subset: int) -> int:
        """Members of ``subset`` not generated by the rest of it.

        Issues one closure per member of ``subset``.
        """
        out = 0
        for x in iter_bits(subset):
            if not (self.closure(subset & ~(1 << x)) >> x) & 1:
                out |= 1 << x
        return out

    def closed_sets(self) -> Alignment:
        return Alignment(self.ground, self._closed)

    def __repr__(self):
        return f"ConvexGeometry(n={self.n}, m={self.basis.m})"


def closure_scope(operation):
    """Cache ``geom.closure`` for the duration of ``operation(geom, ...)``.

    The first argument of the decorated function must be the geometry.  A
    call made while another scoped operation on the same geometry runs
    shares that operation's cache; the outermost call drops it on exit.
    """

    @wraps(operation)
    def scoped(geom, *args, **kwargs):
        if geom._memo is not None:
            return operation(geom, *args, **kwargs)
        geom._memo = {}
        try:
            return operation(geom, *args, **kwargs)
        finally:
            geom._memo = None

    return scoped


def validate_geometry(basis: ImplicationBasis, max_n: int = 20) -> ConvexGeometry:
    """Check the convex-geometry axioms and return the validated system.

    Raises :class:`NotAGeometry` with a concrete witness when the empty set
    is not closed or when anti-exchange fails.  With the empty set closed,
    anti-exchange holds exactly when every proper closed set has a
    one-element extension that is closed too (Edelman and Jamison, 1985),
    so the closed-set walk is all the closure work a valid geometry costs.
    Only when that test fails does the literal anti-exchange scan run, over
    the closed sets in canonical order, to produce the first witness.
    """
    empty = basis.closure(0)
    if empty:
        raise NotAGeometry("empty-set-not-closed", empty, basis.ground)
    family = closed_family(basis, max_n=max_n)
    full = basis.ground.full
    if _first_dead_end(family, full) is None:
        return ConvexGeometry(basis, family)
    for y in family:
        outside = full & ~y
        if outside.bit_count() < 2:
            continue
        added = {x: basis.closure(y | (1 << x)) for x in iter_bits(outside)}
        members = list(iter_bits(outside))
        for i, x in enumerate(members):
            for z in members[i + 1:]:
                if (added[x] >> z) & 1 and (added[z] >> x) & 1:
                    raise NotAGeometry("anti-exchange", (y, x, z), basis.ground)
    raise RuntimeError(
        "a closed set has no closed one-element extension, yet no "
        "anti-exchange violation was found"
    )


def extendability_witness(basis: ImplicationBasis, max_n: int = 20):
    """Witness against the alignment-style definition, or None if it holds.

    The alternative definition asks that the empty set be closed and that
    every proper closed set grow by a single element inside the family.
    Returns ``("empty-set-not-closed", mask)`` or ``("no-extension", mask)``.
    """
    empty = basis.closure(0)
    if empty:
        return ("empty-set-not-closed", empty)
    dead_end = _first_dead_end(closed_family(basis, max_n=max_n), basis.ground.full)
    return None if dead_end is None else ("no-extension", dead_end)


def _first_dead_end(family: tuple[int, ...], full: int):
    """First set of the family, other than ``full``, that no single added
    element turns into another member; None if there is none."""
    members = set(family)
    for y in family:
        if y != full and not any(y | (1 << x) in members for x in iter_bits(full & ~y)):
            return y
    return None


def join_alignments(first: Alignment, second: Alignment) -> Alignment:
    """Family of all pairwise intersections of members of the two inputs."""
    if first.ground != second.ground:
        raise GroundSetMismatch("alignments are defined over different ground sets")
    sets = {u & v for u in first.sets for v in second.sets}
    return Alignment.from_masks(first.ground, sets)


def linear_alignment(ground: GroundSet, order) -> Alignment:
    """The n+1 prefixes of a total order, bottom to top."""
    order = tuple(order)
    if sorted(order) != list(range(ground.n)):
        raise ValueError("order must be a permutation of the ground set")
    return Alignment.from_masks(ground, prefix_masks(order))
