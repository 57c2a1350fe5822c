"""Seeded input generator for the benchmark workloads (standard library only).

Every input is a ``Case``: the ``.geom`` text handed to segrep, plus the
structured form (labels, implications as bitmask pairs) and the answer the
generator knows by construction.  The reference checker in ``ref.py`` works
from the structured form only, so it never depends on segrep's parser.

``cases(workload, seed)`` yields an endless, deterministic sequence: the
k-th case depends only on ``(workload, seed, k)``.  Each workload cycles
over a fixed list of shapes, so a run of any length sees the shapes in the
same proportions; the seed changes the chains, labels and element order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

WORKLOADS = ("chains", "blocks", "refuse", "cli")

# n = 28 takes about 1.5 s, so a run holds few samples.  The shares of the
# sizes put the median in the middle of the n = 16 inputs and the p78 tail
# inside the n = 24 inputs, each away from the edge between two sizes, with
# ten samples beyond the tail.
CHAINS_SIZES = (12, 12, 12, 12, 16, 16, 16, 20, 24, 24, 28)
BLOCKS_SIZES = (8, 10, 12, 14, 16)
# (family, size parameter): free -> n; disjoint -> group sizes;
# notsuf -> length of the chain padded on top; mutual -> n.  Thirteen
# shapes, so the median verdict falls inside one shape, disjoint (3,3,3,3),
# whose work does not depend on the seed: six shapes are always cheaper and
# six always dearer.
REFUSE_SHAPES = (
    ("notsuf", 4), ("mutual", 10), ("free", 10), ("disjoint", (3, 3, 3)),
    ("notsuf", 8), ("mutual", 12), ("free", 12), ("disjoint", (3, 3, 3, 3)),
    ("notsuf", 12), ("free", 14), ("disjoint", (3, 3, 3, 2, 2)),
    ("disjoint", (3, 3, 3, 3, 3)), ("disjoint", (4, 4, 4, 4)),
)
CLI_SHAPES = (
    ("chains", 12), ("chains", 16), ("blocks", 12), ("blocks", 16),
    ("free", 12), ("disjoint", (3, 3, 3, 3)), ("notsuf", 8), ("mutual", 12),
)
CLI_COMMANDS = ("check", "represent", "unique")

# The shipped fixtures and their answers, stated here independently of the
# package's own expectations manifest: (verdict, representation count,
# whether 2Ex holds).
FIXTURES = {
    "notsuf": ("no", 0, True),
    "un": ("yes", 1, True),
    "switch": ("yes", 2, True),
    "unique": ("yes", 1, True),
    "seven": ("yes", 1, True),
    "triangle": ("no", 0, False),
    "fivepoint": ("no", 0, False),
}

YES, NO, NOT_A_GEOMETRY = "yes", "no", "not-a-geometry"


@dataclass(frozen=True)
class Case:
    """One generated input and its known answer.

    ``implications`` are ``(premise, conclusion)`` bitmasks over label
    indices.  ``count`` is the number of segment representations (0 unless
    ``expect`` is ``"yes"``).  ``two_ex`` is the outcome of the 2Ex check
    where the construction fixes it, else None.  ``chains`` is the
    generating chain pair, bottom to top, for representable inputs.
    """

    id: str
    family: str
    labels: tuple[str, ...]
    implications: tuple[tuple[int, int], ...]
    expect: str
    count: int = 0
    two_ex: Optional[bool] = None
    chains: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def text(self) -> str:
        return geom_text(self.labels, self.implications, f"{self.family} {self.id}")


def geom_text(labels, implications, comment: str) -> str:
    lines = [f"# {comment}", "elements " + " ".join(labels)]
    for premise, conclusion in implications:
        lines.append(
            "imp " + " ".join(_members(labels, premise))
            + " -> " + " ".join(_members(labels, conclusion))
        )
    return "\n".join(lines) + "\n"


def _members(labels, mask: int) -> list[str]:
    return [labels[i] for i in range(len(labels)) if (mask >> i) & 1]


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def _mask(items) -> int:
    out = 0
    for i in items:
        out |= 1 << i
    return out


def chain_pair_basis(left, right) -> tuple[tuple[int, int], ...]:
    """Pairwise basis of the geometry generated by two chains.

    One implication per element and per pair whose segment closure adds
    something: the same construction as ``segrep.geometry_from_chains``.
    """
    n = len(left)
    lrank = {e: i for i, e in enumerate(left)}
    rrank = {e: i for i, e in enumerate(right)}
    lpref = [_mask(left[: i + 1]) for i in range(n)]
    rpref = [_mask(right[: i + 1]) for i in range(n)]

    def seg(xs) -> int:
        return lpref[max(lrank[x] for x in xs)] & rpref[max(rrank[x] for x in xs)]

    out = []
    for x in range(n):
        extra = seg((x,)) & ~(1 << x)
        if extra:
            out.append((1 << x, extra))
    for x in range(n):
        for y in range(x + 1, n):
            seed = (1 << x) | (1 << y)
            extra = seg((x, y)) & ~seed
            if extra:
                out.append((seed, extra))
    return tuple(out)


def switchable_blocks(left, right) -> int:
    """Number of switchable blocks of a chain pair.

    Blocks are cut at every position where both chains have placed the same
    elements; a block is switchable when its two sub-chains differ.
    """
    s = 0
    start = 0
    acc_l = acc_r = 0
    for pos, (l, r) in enumerate(zip(left, right), start=1):
        acc_l |= 1 << l
        acc_r |= 1 << r
        if acc_l == acc_r:
            if tuple(left[start:pos]) != tuple(right[start:pos]):
                s += 1
            start = pos
    return s


def representation_count(left, right) -> int:
    s = switchable_blocks(left, right)
    return 1 if s <= 1 else 2 ** (s - 1)


def _from_chains(case_id: str, family: str, left, right) -> Case:
    left, right = tuple(left), tuple(right)
    return Case(
        case_id, family, _labels(len(left)), chain_pair_basis(left, right),
        YES, representation_count(left, right), True, (left, right),
    )


def chains_case(case_id: str, rng: random.Random, n: int) -> Case:
    """Two independent random shuffles of the ground set."""
    left = list(range(n))
    right = list(range(n))
    rng.shuffle(left)
    rng.shuffle(right)
    return _from_chains(case_id, "chains", left, right)


def block_sizes(n: int) -> list[int]:
    """Blocks of 2 and 3 elements, round(n / 2.5) of them."""
    count = round(n / 2.5)
    threes = n - 2 * count
    return [3] * threes + [2] * (count - threes)


def blocks_case(case_id: str, rng: random.Random, n: int) -> Case:
    """A random chain cut into consecutive blocks of 2-3 elements; the
    second chain reverses or shuffles each block, never leaving it as is,
    so every block is switchable."""
    left = list(range(n))
    rng.shuffle(left)
    sizes = block_sizes(n)
    rng.shuffle(sizes)
    right: list[int] = []
    pos = 0
    for size in sizes:
        block = left[pos: pos + size]
        pos += size
        if rng.random() < 0.5:
            moved = block[::-1]
        else:
            moved = block[:]
            while moved == block:
                rng.shuffle(moved)
        right.extend(moved)
    return _from_chains(case_id, "blocks", left, right)


def _relabel(rng: random.Random, n: int, implications) -> tuple[tuple[int, int], ...]:
    """Move construction element i to a random index, so the declaration
    order carries no structure."""
    perm = list(range(n))
    rng.shuffle(perm)

    def move(mask: int) -> int:
        return _mask(perm[i] for i in range(n) if (mask >> i) & 1)

    return tuple((move(p), move(c)) for p, c in implications)


def free_case(case_id: str, rng: random.Random, n: int) -> Case:
    """No implications: every subset is closed (2^n closed sets) and any
    three elements are extreme together, so 2Ex fails."""
    return Case(case_id, "free", _labels(n), (), NO, 0, False)


def disjoint_case(case_id: str, rng: random.Random, sizes) -> Case:
    """Separate chains, each element pulling in its predecessor; the tops of
    three groups form a 2Ex triple."""
    n = sum(sizes)
    imps = []
    offset = 0
    for size in sizes:
        for i in range(1, size):
            imps.append((1 << (offset + i), 1 << (offset + i - 1)))
        offset += size
    return Case(case_id, "disjoint", _labels(n), _relabel(rng, n, imps), NO, 0, False)


def notsuf_case(case_id: str, rng: random.Random, k: int) -> Case:
    """The ``notsuf`` pattern on four elements with a chain of ``k`` more on
    top: the first chain element pulls in all four, each later one its
    predecessor.  2Ex holds and Sq fails."""
    a, b, c, d = 1, 2, 4, 8
    imps = [(a | b, c), (b | c, d), (a, d), (1 << 4, a | b | c | d)]
    for i in range(5, 4 + k):
        imps.append((1 << i, 1 << (i - 1)))
    n = 4 + k
    return Case(case_id, "notsuf", _labels(n), _relabel(rng, n, imps), NO, 0, True)


def mutual_case(case_id: str, rng: random.Random, n: int) -> Case:
    """A random chain-pair basis with one planted mutual pair x -> y,
    y -> x, which breaks anti-exchange at the empty set."""
    left = list(range(n))
    right = list(range(n))
    rng.shuffle(left)
    rng.shuffle(right)
    imps = list(chain_pair_basis(left, right))
    x, y = rng.sample(range(n), 2)
    imps.insert(rng.randrange(len(imps) + 1), (1 << x, 1 << y))
    imps.insert(rng.randrange(len(imps) + 1), (1 << y, 1 << x))
    return Case(case_id, "mutual", _labels(n), tuple(imps), NOT_A_GEOMETRY)


FAMILIES = {
    "chains": chains_case,
    "blocks": blocks_case,
    "free": free_case,
    "disjoint": disjoint_case,
    "notsuf": notsuf_case,
    "mutual": mutual_case,
}


def read_geom(text: str) -> tuple[tuple[str, ...], tuple[tuple[int, int], ...]]:
    """Minimal reader for the ``.geom`` grammar, used for the shipped
    fixtures only."""
    labels: tuple[str, ...] = ()
    imps = []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "elements":
            labels = tuple(fields[1:])
        elif fields[0] == "imp":
            arrow = fields.index("->")
            index = {label: i for i, label in enumerate(labels)}
            imps.append((
                _mask(index[x] for x in fields[1:arrow]),
                _mask(index[x] for x in fields[arrow + 1:]),
            ))
    return labels, tuple(imps)


def fixture_cases(data_dir: Path) -> list[Case]:
    out = []
    for name, (expect, count, two_ex) in FIXTURES.items():
        labels, imps = read_geom((data_dir / f"{name}.geom").read_text(encoding="utf-8"))
        out.append(Case(f"fixture-{name}", "fixture", labels, imps, expect, count, two_ex))
    return out


def _shapes(workload: str):
    if workload == "chains":
        return [("chains", n) for n in CHAINS_SIZES]
    if workload == "blocks":
        return [("blocks", n) for n in BLOCKS_SIZES]
    if workload == "refuse":
        return list(REFUSE_SHAPES)
    if workload == "cli":
        return list(CLI_SHAPES)
    raise ValueError(f"unknown workload {workload!r}")


def _size_tag(param) -> str:
    if isinstance(param, tuple):
        return "g" + "-".join(map(str, param))
    return str(param)


def cases(workload: str, seed: int, data_dir: Optional[Path] = None) -> Iterator[Case]:
    """Endless deterministic case sequence of one workload.

    ``cli`` alternates the shipped fixtures (read from ``data_dir``) with
    fresh generated files of n <= 16, so a partial cycle at the end of a run
    holds both kinds in about the same share as a whole one.
    """
    shapes = _shapes(workload)
    fixtures = fixture_cases(data_dir) if workload == "cli" else []
    for cycle in itertools.count():
        generated = []
        for slot, (family, param) in enumerate(shapes):
            rng = random.Random(f"{workload}:{seed}:{cycle}:{slot}")
            case_id = f"{workload}-{seed}-{cycle:04d}-{slot:02d}-{family}{_size_tag(param)}"
            generated.append(FAMILIES[family](case_id, rng, param))
        for pair in itertools.zip_longest(fixtures, generated):
            yield from (case for case in pair if case is not None)


def cycle_length(workload: str) -> int:
    """Number of cases in one cycle of the workload."""
    extra = len(FIXTURES) if workload == "cli" else 0
    return len(_shapes(workload)) + extra
