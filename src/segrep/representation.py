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

from .core import SegrepError, Value, iter_bits, prefix_masks
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

    Fill the rows of :meth:`ConvexGeometry.pair_closures` (already full
    after ``decide_cdim2``), read a chain pair off extreme points by
    :func:`_walk`, 2n closure queries, and verify it once.  On a geometry
    with more than one representation, the walk's seam rule picks one.
    """
    # perfbench counts the orientations a build tries by wrapping
    # uniqueness.block_orientations, looked up at call time; the walk tries
    # one, rep itself.  This goes once segrep keeps its own stage counters
    # (ROADMAP item 2).
    from .uniqueness import block_orientations

    geom.pair_closures()
    rep, witness = _walk(geom)
    if rep is None:
        raise Infeasible("walk", witness)
    next(block_orientations(rep))
    ok, seed = verify_representation(geom, rep)
    if not ok:
        raise Infeasible("verification", seed)
    return rep


def _walk(geom: ConvexGeometry) -> tuple[SegmentRepresentation | None, int]:
    """Read a chain pair off the extreme points of shrinking subsets.

    The tops of both chains are recovered alternately: dropping the known
    top-k of one chain exposes, among the extreme points of the remainder,
    the other chain's surviving maximum (already known) plus one new
    element, this chain's next entry.  When the other chain's known tops are
    all dropped, both chains hold the same elements so far: a seam.  If two
    candidates remain there, the top block of the remainder is switchable
    and either candidate tops it in some block flip, so the walk takes the
    lesser and follows one path.  (The first step's two are the chain swap.)

    Each of the 2n steps asks one extreme-point query, one closure, which
    the geometry's extreme-point index answers once the pair table is full.
    The index is exact only on a convex geometry, so only points inside the
    remainder count.  The bookkeeping is linear in n.

    Returns the representation, unverified, and the first seam with two
    candidates (the ground set if none); or None and where the walk
    stopped: a remainder with no or over two extreme points, or the first
    seam (or the ground set) when the surviving maximum is not extreme.
    """
    full = split = geom.ground.full
    chains = ([], [])  # each chain's known tops, top first
    removed = [0, 0]  # the same, as masks
    passed = [0, 0]  # the other chain's leading tops that are removed
    for step in range(2 * geom.n):
        side = step & 1  # left first, then alternately
        other, gone = chains[side ^ 1], removed[side]
        remainder = full & ~gone
        extreme = geom.extreme_points(remainder) & remainder
        k = extreme.bit_count()
        if k == 0 or k > 2:
            return None, remainder
        i = passed[side]
        while i < len(other) and (gone >> other[i]) & 1:
            i += 1
        passed[side] = i
        if i == len(other):
            new = extreme & -extreme
            if k == 2 and split == full:  # step 0's remainder is full
                split = remainder
        elif (extreme >> other[i]) & 1:
            survivor = 1 << other[i]
            rest = extreme ^ survivor
            new = rest & -rest or survivor
        else:
            return None, split  # the survivor is not extreme
        chains[side].append(new.bit_length() - 1)
        removed[side] = gone | new
    left, right = chains
    return SegmentRepresentation(left[::-1], right[::-1]), split


def segment_layout(rep: SegmentRepresentation) -> tuple[tuple[int, int, int], ...]:
    """Interval endpoints per element: ``(element, -left_rank, +right_rank)``.

    The top of the left chain gets the most negative endpoint; every interval
    straddles the origin and all 2n endpoints are distinct.
    """
    lrank, rrank = rep._derive()[:2]
    return tuple((e, -lrank[e], rrank[e]) for e in sorted(lrank))
