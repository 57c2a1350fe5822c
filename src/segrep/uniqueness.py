"""Block structure of a representation and the census of all representations.

Scanning both chains bottom-up, every position where the two cumulative
element sets coincide is a seam; the seams cut the chains into blocks
occupying the same positions with the same members.  A block whose two
sub-chains differ can be flipped between the chains without changing the
geometry, so with ``s`` flippable blocks there are ``2^(s-1)`` distinct
representations (the all-blocks flip is the chain swap, which is the
identity on unordered pairs).
"""

from __future__ import annotations

from itertools import product

from .core import SegrepError
from .geometry import ConvexGeometry
from .representation import SegmentRepresentation, _walk, verify_representation


class TooManyBlocks(SegrepError):
    """Enumeration would produce more representations than the guard allows."""


class NotApplicable(SegrepError):
    """Chain reconstruction found no single representation.  ``outcomes`` is
    0 when its one path met a subset whose extreme points cannot be assigned
    to the chains, or ended in a chain pair that fails verification: then the
    geometry has no representation.  Otherwise it is the number of
    representations, more than one."""

    def __init__(self, witness: int, outcomes: int):
        self.witness = witness
        self.outcomes = outcomes
        super().__init__(
            f"reconstruction is ambiguous ({outcomes} consistent outcomes)"
            if outcomes else "the geometry has no representation"
        )


class Block:
    """A maximal position range filled by the same elements in both chains;
    ``start`` and ``end`` are 1-based chain positions."""

    __slots__ = ("start", "end", "members", "left_sub", "right_sub")

    def __init__(self, start: int, end: int, members: int,
                 left_sub: tuple[int, ...], right_sub: tuple[int, ...]):
        self.start, self.end, self.members = start, end, members
        self.left_sub, self.right_sub = left_sub, right_sub

    @property
    def switchable(self) -> bool:
        return self.left_sub != self.right_sub


def block_decomposition(rep: SegmentRepresentation) -> tuple[Block, ...]:
    """Finest partition into position ranges with matching cumulative sets,
    as its blocks from the bottom of the chains up; kept on ``rep``, so a
    second call returns the same tuple."""
    if rep._blocks is None:
        left, right = rep.left, rep.right
        blocks = []
        acc_l = acc_r = below = start = 0
        for end, (l, r) in enumerate(zip(left, right), 1):
            acc_l |= 1 << l
            acc_r |= 1 << r
            if acc_l == acc_r:
                blocks.append(Block(start + 1, end, acc_l ^ below,
                                    left[start:end], right[start:end]))
                below, start = acc_l, end
        rep._blocks = tuple(blocks)
    return rep._blocks


def block_orientations(rep: SegmentRepresentation):
    """All ordered chain pairs reachable by flipping switchable blocks.

    Yields 2^s pairs (rigid blocks contribute one orientation); the unordered
    collapse of the output is the full set of representations of the same
    geometry.
    """
    choices = []
    for b in block_decomposition(rep):
        if b.switchable:
            choices.append(((b.left_sub, b.right_sub), (b.right_sub, b.left_sub)))
        else:
            choices.append(((b.left_sub, b.right_sub),))
    for picks in product(*choices):
        left: tuple[int, ...] = ()
        right: tuple[int, ...] = ()
        for l_sub, r_sub in picks:
            left += l_sub
            right += r_sub
        yield left, right


def count_representations(rep: SegmentRepresentation) -> int:
    """Number of distinct representations of the represented geometry."""
    s = sum(b.switchable for b in block_decomposition(rep))
    return 1 if s <= 1 else 2 ** (s - 1)


class UniquenessReport:
    __slots__ = ("unique",)

    def __init__(self, unique: bool):
        self.unique = unique


def is_unique(rep: SegmentRepresentation) -> UniquenessReport:
    """Uniqueness holds exactly when the representation count is 1."""
    return UniquenessReport(count_representations(rep) == 1)


def enumerate_representations(
    rep: SegmentRepresentation, max_blocks: int = 20
) -> tuple[SegmentRepresentation, ...]:
    """All representations reachable by block flips, canonical and sorted.
    Flipping every switchable block swaps the chains, so keeping the
    orientations with ``left <= right`` builds each representation once.
    A flip orders the same elements as ``rep``, so it skips the checks of
    ``SegmentRepresentation.__init__``."""
    s = sum(b.switchable for b in block_decomposition(rep))
    if s > max_blocks:
        raise TooManyBlocks(
            f"{s} switchable blocks exceed the guard of {max_blocks}; "
            "raise 'max_blocks' to override"
        )
    pairs = sorted((l, r) for l, r in block_orientations(rep) if l <= r)
    new = SegmentRepresentation.__new__
    return tuple(new(SegmentRepresentation)._assign(l, r) for l, r in pairs)


def reconstruct_by_peeling(geom: ConvexGeometry) -> SegmentRepresentation:
    """Rebuild the chain pair purely from extreme points of shrinking subsets:
    the builder's walk (``representation._walk``), 2n extreme-point queries,
    verified once.  Every representation is a block flip of every other, so
    ``count_representations`` of the outcome is the number of
    representations; the outcome is returned only when it is 1, and else
    ``NotApplicable`` carries the walk's witness."""
    candidate, witness = _walk(geom)
    outcomes = 0
    if candidate is not None and verify_representation(geom, candidate)[0]:
        outcomes = count_representations(candidate)
        if outcomes == 1:
            return candidate
    raise NotApplicable(witness, outcomes)
