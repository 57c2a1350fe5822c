"""Ground sets, subsets as bitmasks, implications, and forward-chaining closure.

A subset of the ground set is an int bitmask: bit ``i`` set means the element
with index ``i`` is a member.  All set algebra is integer arithmetic (union
``|``, intersection ``&``, difference ``& ~``), so membership is O(1) and
exhaustive subset scans stay cheap.  Labels exist only at the boundary;
everything below the parser works on indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class SegrepError(Exception):
    """Base class for errors raised by this package."""


class UnknownLabel(SegrepError):
    """A label that does not belong to the ground set."""


class GroundSetTooLarge(SegrepError):
    """An exhaustive operation was asked to run past its guard.

    The guard fails loudly instead of silently downgrading; ``flag`` names
    the parameter (or CLI flag) to raise if the caller really wants the run.
    """

    def __init__(self, operation: str, n: int, limit: int, flag: str = "max_n"):
        self.operation = operation
        self.n = n
        self.limit = limit
        self.flag = flag
        super().__init__(
            f"{operation}: ground set has {n} elements, guard is {limit}; "
            f"raise '{flag}' to override"
        )


def iter_bits(mask: int) -> Iterator[int]:
    """Yield indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key ordering subsets by size, then lexicographically by members."""
    return (mask.bit_count(), tuple(iter_bits(mask)))


def subsets_canonical(mask: int) -> list[int]:
    """Every subset of ``mask`` in canonical order."""
    subsets = [0]
    for e in iter_bits(mask):
        subsets += [s | (1 << e) for s in subsets]
    return sorted(subsets, key=canonical_key)


def prefix_masks(order: Iterable[int]) -> tuple[int, ...]:
    """The prefixes of a chain as masks, from the empty one to the whole chain."""
    prefixes = [0]
    for e in order:
        prefixes.append(prefixes[-1] | (1 << e))
    return tuple(prefixes)


@dataclass(frozen=True)
class GroundSet:
    """Ordered universe of distinct, non-empty element labels.

    Elements are addressed internally by their index in declaration order.
    """

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for i, label in enumerate(self.labels):
            if not label:
                raise ValueError("ground-set labels must be non-empty")
            if label in index:
                raise ValueError(f"duplicate ground-set label {label!r}")
            index[label] = i
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        """Mask of the whole ground set."""
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown element {label!r}") from None

    def mask(self, labels: Iterable[str]) -> int:
        out = 0
        for label in labels:
            out |= 1 << self.index(label)
        return out

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in iter_bits(mask))

    def format_set(self, mask: int) -> str:
        return "{" + ",".join(self.labels_of(mask)) + "}"

    def restrict(self, mask: int) -> "GroundSet":
        """Ground set of the elements in ``mask``, keeping declaration order."""
        return GroundSet(self.labels_of(mask))


@dataclass(frozen=True)
class Implication:
    """One rule ``premise -> conclusion`` over ground-set index masks.

    The conclusion may overlap the premise; overlapping elements are no-ops
    under closure.
    """

    premise: int
    conclusion: int


@dataclass(frozen=True)
class ImplicationBasis:
    """A finite list of implications plus the closure operator they generate.

    ``closure`` computes the least fixpoint by forward chaining: a queue of
    newly added elements drives per-implication missing-premise counters, so
    each implication fires at most once per query and a call costs
    O(m + k + n) in the number of implications, their total size, and the
    ground-set size.
    """

    ground: GroundSet
    implications: tuple[Implication, ...]
    _watch: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        full = self.ground.full
        watch: list[list[int]] = [[] for _ in range(self.ground.n)]
        for i, imp in enumerate(self.implications):
            if imp.premise & ~full or imp.conclusion & ~full:
                raise ValueError("implication references elements outside the ground set")
            for e in iter_bits(imp.premise):
                watch[e].append(i)
        object.__setattr__(self, "_watch", tuple(tuple(w) for w in watch))

    @property
    def m(self) -> int:
        """Number of implications."""
        return len(self.implications)

    @property
    def size(self) -> int:
        """Total size: sum of premise and conclusion cardinalities."""
        return sum(
            imp.premise.bit_count() + imp.conclusion.bit_count()
            for imp in self.implications
        )

    def closure(self, seed: int) -> int:
        """Least superset of ``seed`` closed under every implication."""
        if seed & ~self.ground.full:
            raise ValueError("seed is not a subset of the ground set")
        closed = seed
        missing = [(imp.premise & ~seed).bit_count() for imp in self.implications]
        stack: list[int] = []
        for i, cnt in enumerate(missing):
            if cnt == 0:
                new = self.implications[i].conclusion & ~closed
                if new:
                    closed |= new
                    stack.extend(iter_bits(new))
        while stack:
            e = stack.pop()
            for i in self._watch[e]:
                missing[i] -= 1
                if missing[i] == 0:
                    new = self.implications[i].conclusion & ~closed
                    if new:
                        closed |= new
                        stack.extend(iter_bits(new))
        return closed


def restrict_basis(basis: ImplicationBasis, subset: int) -> ImplicationBasis:
    """Sub-basis of the implications whose premises lie inside ``subset``.

    The result is re-indexed over the restricted ground set.  Conclusions are
    intersected with ``subset``; implications whose intersected conclusion is
    empty are dropped.
    """
    if subset & ~basis.ground.full:
        raise ValueError("subset is not a subset of the ground set")
    positions = {e: i for i, e in enumerate(iter_bits(subset))}

    def compress(mask: int) -> int:
        out = 0
        for e in iter_bits(mask):
            out |= 1 << positions[e]
        return out

    kept = []
    for imp in basis.implications:
        if imp.premise & ~subset:
            continue
        conclusion = imp.conclusion & subset
        if not conclusion:
            continue
        kept.append(Implication(compress(imp.premise), compress(conclusion)))
    return ImplicationBasis(basis.ground.restrict(subset), tuple(kept))
