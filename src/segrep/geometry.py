"""Convex-geometry validation, extreme points, and families of closed sets.

A closure system is a convex geometry when the empty set is closed and the
anti-exchange property holds: for closed ``Y`` and distinct ``x, z`` outside
``Y``, ``z`` entering the closure of ``Y + x`` forbids ``x`` from entering the
closure of ``Y + z``.  :func:`closed_family` alone decides this while it
walks the closed sets, which can number 2^n, so it is meant for desk-scale
ground sets (default guard n <= 20); the dimension-2 decision procedure in
:mod:`segrep.properties` never needs that walk.  Validation drops the family
once the axioms are decided, so a :class:`ConvexGeometry` holds only its
basis; :meth:`ConvexGeometry.closed_sets` walks again, when asked.
"""

from __future__ import annotations

from .core import (
    GroundSet,
    GroundSetTooLarge,
    ImplicationBasis,
    SegrepError,
    canonical_key,
    iter_bits,
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


def closed_family(basis: ImplicationBasis, max_n: int = 20) -> frozenset[int]:
    """Every closed set of a convex geometry, as an unordered frozenset.

    Decides the axioms on the way by Edelman and Jamison's (1985) criterion:
    the empty set is closed and every proper closed set has a closed
    one-element extension, which the walk reads off the basis with no
    closure call (:meth:`ImplicationBasis.closed_sets_by_extension`).
    Raises :class:`NotAGeometry` on any other basis.
    """
    empty = basis.closure(0)
    if empty:
        raise NotAGeometry("empty-set-not-closed", empty, basis.ground)
    n = basis.ground.n
    if n > max_n:
        raise GroundSetTooLarge("closed_family", n, max_n)
    walked = basis.closed_sets_by_extension(0)
    if walked is None:
        raise NotAGeometry("anti-exchange", _anti_exchange_witness(basis), basis.ground)
    return walked


def _anti_exchange_witness(basis: ImplicationBasis) -> tuple[int, int, int]:
    """First ``(y, x, z)`` with ``y`` closed, ``x < z`` outside it and each
    in the closure of ``y`` plus the other, where the empty set is closed
    and some closed set short of the ground set has no closed extension.

    Visits the closed sets in canonical order, one size at a time, and stops
    at the first violation.  Every closed ``T`` other than the empty set is
    the closure of ``y + x`` for a maximal closed ``y`` inside it, so the
    closed sets of one size are all found once the smaller ones have been
    visited.  Each seed ``y + x`` is closed once.
    """
    full = basis.ground.full
    closures: dict[int, int] = {}
    by_size: list[set[int]] = [set() for _ in range(basis.ground.n + 1)]
    by_size[0].add(0)
    for bucket in by_size:
        for y in sorted(bucket, key=canonical_key):
            outside = full & ~y
            if outside.bit_count() < 2:
                continue
            added = {}
            for x in iter_bits(outside):
                seed = y | (1 << x)
                closed = closures.get(seed)
                if closed is None:
                    closed = closures[seed] = basis.closure(seed)
                    by_size[closed.bit_count()].add(closed)
                added[x] = closed
            for x, closed in added.items():
                # the z > x outside y that y + x generates
                for z in iter_bits(closed & outside & -(2 << x)):
                    if (added[z] >> x) & 1:
                        return y, x, z
    raise RuntimeError(
        "a closed set has no closed one-element extension, yet no "
        "anti-exchange violation was found"
    )


class ConvexGeometry:
    """A validated closure system: basis, ground set, and closure oracle.

    Instances come from :func:`validate_geometry` and keep no closed-set
    family.  They do not change apart from ``closure_calls``, the number of
    closure queries asked so far, and the table of pair closures that the
    first call of :meth:`pair_closures` fills.
    """

    __slots__ = ("ground", "basis", "closure_calls", "_pairs")

    def __init__(self, basis: ImplicationBasis):
        self.ground = basis.ground
        self.basis = basis
        self.closure_calls = 0
        self._pairs: dict[tuple[int, int], int] | None = None

    @property
    def n(self) -> int:
        return self.ground.n

    def closure(self, seed: int) -> int:
        """Closure of ``seed`` under the basis.

        Every call goes to the basis and counts in ``closure_calls``.
        """
        self.closure_calls += 1
        return self.basis.closure(seed)

    def pair_closures(self) -> dict[tuple[int, int], int]:
        """The closure of ``{i, j}`` for every ``i < j``, keyed ``(i, j)``.

        The first call closes each pair once through :meth:`closure`; later
        calls return the same table and ask no closure query.
        """
        if self._pairs is None:
            n = self.n
            self._pairs = {
                (i, j): self.closure((1 << i) | (1 << j))
                for i in range(n)
                for j in range(i + 1, n)
            }
        return self._pairs

    def extreme_points(self, subset: int) -> int:
        """Members of ``subset`` not generated by the rest of it.

        Issues one closure, of ``subset`` itself, and one pass over the
        basis: in a convex geometry a set and its closure have the same
        extreme points (one inclusion holds in any closure system, the other
        is anti-exchange), and those of a closed set are read off the
        implications whose premise lies inside it.
        """
        return self.basis.extreme_points_of_closed(self.closure(subset))

    def closed_sets(self) -> tuple[int, ...]:
        """Every closed set, in canonical order (by size, then by members).

        Walks the family again with :func:`closed_family` on each call,
        behind its default guard of n <= 20, and sorts it; nothing on the
        decision path reads it.  Past 20 elements, call
        :func:`closed_family` with ``max_n`` instead.
        """
        return tuple(sorted(closed_family(self.basis), key=canonical_key))

    def __repr__(self):
        return f"ConvexGeometry(n={self.n}, m={self.basis.m})"


def validate_geometry(basis: ImplicationBasis, max_n: int = 20) -> ConvexGeometry:
    """Check the convex-geometry axioms and return the validated system.

    Raises :class:`NotAGeometry` with a concrete witness when the empty set
    is not closed or when anti-exchange fails (the first violation over the
    closed sets in canonical order).  A convex geometry costs one closure
    call, the empty set's; on any other basis no seed is closed twice.  The
    walk's family is dropped once the axioms are decided.
    """
    closed_family(basis, max_n=max_n)
    return ConvexGeometry(basis)
