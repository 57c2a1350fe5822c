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

from .core import SegrepError, iter_bits, mask_of
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


class BlockDecomposition:
    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[Block, ...]):
        self.blocks = blocks

    @property
    def switchable_count(self) -> int:
        return sum(1 for b in self.blocks if b.switchable)

    def describe(self, ground) -> str:
        lines = []
        for i, b in enumerate(self.blocks, start=1):
            flag = "yes" if b.switchable else "no"
            lines.append(
                f"block {i}: positions [{b.start}..{b.end}], "
                f"members {ground.format_set(b.members)}, switchable {flag}"
            )
        return "\n".join(lines)


def block_decomposition(rep: SegmentRepresentation) -> BlockDecomposition:
    """Finest partition into position ranges with matching cumulative sets."""
    blocks = []
    acc_l = acc_r = 0
    start = 1
    left_sub: list[int] = []
    right_sub: list[int] = []
    for pos in range(1, rep.n + 1):
        l, r = rep.left[pos - 1], rep.right[pos - 1]
        acc_l |= 1 << l
        acc_r |= 1 << r
        left_sub.append(l)
        right_sub.append(r)
        if acc_l == acc_r:
            blocks.append(
                Block(start, pos, mask_of(left_sub), tuple(left_sub), tuple(right_sub))
            )
            start = pos + 1
            left_sub, right_sub = [], []
    return BlockDecomposition(tuple(blocks))


def block_orientations(rep: SegmentRepresentation):
    """All ordered chain pairs reachable by flipping switchable blocks.

    Yields 2^s pairs (rigid blocks contribute one orientation); the unordered
    collapse of the output is the full set of representations of the same
    geometry.
    """
    decomposition = block_decomposition(rep)
    choices = []
    for b in decomposition.blocks:
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
    s = block_decomposition(rep).switchable_count
    return 1 if s <= 1 else 2 ** (s - 1)


class UniquenessReport:
    __slots__ = ("unique", "switchable_block")

    def __init__(self, unique: bool, switchable_block: Block | None):
        self.unique, self.switchable_block = unique, switchable_block


def is_unique(rep: SegmentRepresentation) -> UniquenessReport:
    """Uniqueness holds exactly when at most one block is switchable; the
    report names that block when there is one."""
    switchable = [b for b in block_decomposition(rep).blocks if b.switchable]
    if len(switchable) > 1:
        return UniquenessReport(False, None)
    return UniquenessReport(True, switchable[0] if switchable else None)


def enumerate_representations(
    rep: SegmentRepresentation, max_blocks: int = 20
) -> tuple[SegmentRepresentation, ...]:
    """All representations reachable by block flips, canonical and sorted;
    each pair, which the flips yield in both orders, is built once."""
    s = block_decomposition(rep).switchable_count
    if s > max_blocks:
        raise TooManyBlocks(
            f"{s} switchable blocks exceed the guard of {max_blocks}; "
            "raise 'max_blocks' to override"
        )
    pairs = {(l, r) if l <= r else (r, l) for l, r in block_orientations(rep)}
    return tuple(SegmentRepresentation(l, r) for l, r in sorted(pairs))


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
    end, with O(n^2) closure queries on every input.  Every representation is
    a block flip of every other, so ``count_representations`` of the outcome
    is the number of representations, and the outcome is returned only when
    it is 1.  The initial two-way choice is the chain swap and is collapsed by
    canonical form, not counted as ambiguity.
    """
    full = geom.ground.full
    det_l: tuple[int, ...] = ()
    det_r: tuple[int, ...] = ()
    first_split = None
    outcomes = 0
    while len(det_l) < geom.n or len(det_r) < geom.n:
        on_left = len(det_l) <= len(det_r)
        det_side, det_other = (det_l, det_r) if on_left else (det_r, det_l)
        remainder = full & ~mask_of(det_side)
        extreme = geom.extreme_points(remainder)
        k = extreme.bit_count()
        if k == 0 or k > 2:
            raise NotApplicable(remainder, 0)
        survivor = next((e for e in det_other if (remainder >> e) & 1), None)
        if survivor is None:
            new = next(iter_bits(extreme))
            if k == 2 and (det_l or det_r) and first_split is None:
                first_split = remainder
        elif (extreme >> survivor) & 1:
            rest = extreme & ~(1 << survivor)
            new = next(iter_bits(rest)) if rest else survivor
        else:
            break  # the survivor is not extreme: no representation
        if on_left:
            det_l += (new,)
        else:
            det_r += (new,)
    else:
        candidate = SegmentRepresentation(tuple(reversed(det_l)), tuple(reversed(det_r)))
        if verify_representation(geom, candidate)[0]:
            outcomes = count_representations(candidate)
            if outcomes == 1:
                return candidate
    raise NotApplicable(full if first_split is None else first_split, outcomes)
