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
from .representation import SegmentRepresentation, verify_representation


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
    __slots__ = ("unique", "switchable_block")

    def __init__(self, unique: bool, switchable_block: Block | None):
        self.unique, self.switchable_block = unique, switchable_block


def is_unique(rep: SegmentRepresentation) -> UniquenessReport:
    """Uniqueness holds exactly when at most one block is switchable; the
    report names that block when there is one."""
    switchable = [b for b in block_decomposition(rep) if b.switchable]
    if len(switchable) > 1:
        return UniquenessReport(False, None)
    return UniquenessReport(True, switchable[0] if switchable else None)


def enumerate_representations(
    rep: SegmentRepresentation, max_blocks: int = 20
) -> tuple[SegmentRepresentation, ...]:
    """All representations reachable by block flips, canonical and sorted.
    Flipping every switchable block swaps the chains, so keeping the
    orientations with ``left <= right`` builds each representation once."""
    s = sum(b.switchable for b in block_decomposition(rep))
    if s > max_blocks:
        raise TooManyBlocks(
            f"{s} switchable blocks exceed the guard of {max_blocks}; "
            "raise 'max_blocks' to override"
        )
    pairs = sorted((l, r) for l, r in block_orientations(rep) if l <= r)
    return tuple(SegmentRepresentation(l, r) for l, r in pairs)


def reconstruct_by_peeling(geom: ConvexGeometry) -> SegmentRepresentation:
    """Rebuild the chain pair purely from extreme points of shrinking subsets.

    The top elements of both chains are recovered alternately: dropping the
    known top-k of one chain exposes, among the extreme points of the
    remainder, the other chain's surviving maximum (already known) plus one
    new element, which must be this chain's next entry.  When the known tops
    of the other chain are all among the dropped elements and two candidates
    remain, the two chains hold the same elements so far, so the remainder's
    top block is switchable and either candidate tops it in some block flip:
    the lesser is taken and the walk follows one path, verified once at its
    end, with O(n^2) closure queries on every input.  Each extreme-point
    query is one closure, read through the geometry's extreme-point index
    once the pair table is full.  Every representation is a block flip of
    every other, so ``count_representations`` of the outcome is the number
    of representations, and the outcome is returned only when it is 1.  The
    initial two-way choice is the chain swap and is collapsed by canonical
    form, not counted as ambiguity.  The known tops are kept as lists and
    masks, so the walk's own bookkeeping is linear in n.
    """
    full = geom.ground.full
    chains = ([], [])  # each chain's known tops, top first
    removed = [0, 0]  # the same, as masks
    passed = [0, 0]  # the other chain's leading tops that are removed
    first_split = None
    outcomes = 0
    for step in range(2 * geom.n):
        side = step & 1  # left first, then alternately
        other, gone = chains[side ^ 1], removed[side]
        remainder = full & ~gone
        extreme = geom.extreme_points(remainder)
        k = extreme.bit_count()
        if k == 0 or k > 2:
            raise NotApplicable(remainder, 0)
        i = passed[side]
        while i < len(other) and (gone >> other[i]) & 1:
            i += 1
        passed[side] = i
        if i == len(other):
            new = extreme & -extreme
            if k == 2 and step and first_split is None:
                first_split = remainder
        elif (extreme >> other[i]) & 1:
            survivor = 1 << other[i]
            rest = extreme ^ survivor
            new = rest & -rest or survivor
        else:
            break  # the survivor is not extreme: no representation
        chains[side].append(new.bit_length() - 1)
        removed[side] = gone | new
    else:
        left, right = chains
        candidate = SegmentRepresentation(left[::-1], right[::-1])
        if verify_representation(geom, candidate)[0]:
            outcomes = count_representations(candidate)
            if outcomes == 1:
                return candidate
    raise NotApplicable(full if first_split is None else first_split, outcomes)
