"""Ground sets, subsets as bitmasks, implications, and forward-chaining closure.

A subset of the ground set is an int bitmask: bit ``i`` set means the element
with index ``i`` is a member.  All set algebra is integer arithmetic (union
``|``, intersection ``&``, difference ``& ~``), so membership is O(1) and
exhaustive subset scans stay cheap.  Labels exist only at the boundary;
everything below the parser works on indices.
"""

from __future__ import annotations


class SegrepError(Exception):
    """Base class for errors raised by this package."""


class UnknownLabel(SegrepError):
    """A label that does not belong to the ground set."""


class GroundSetTooLarge(SegrepError):
    """An exhaustive operation was asked to run past its guard; the guard
    fails loudly instead of silently downgrading."""

    def __init__(self, operation: str, n: int, limit: int):
        self.operation = operation
        self.n = n
        self.limit = limit
        super().__init__(
            f"{operation}: ground set has {n} elements, guard is {limit}; "
            "raise 'max_n' (--max-n) to override"
        )


def iter_bits(mask: int):
    """Yield indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


_FLIP = str.maketrans("01", "10")


def canonical_key(mask: int) -> tuple[int, str]:
    """Sort key ordering subsets by size, then lexicographically by members:
    the bits from element 0 up, with 0 and 1 swapped, compare as strings."""
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP))


def prefix_masks(order) -> tuple[int, ...]:
    """The prefixes of a chain as masks, from the empty one to the whole chain."""
    prefixes = [0]
    for e in order:
        prefixes.append(prefixes[-1] | (1 << e))
    return tuple(prefixes)


class Value:
    """Base of the classes compared by value: two instances of one class are
    equal, and hash alike, when their ``_fields`` are equal.  Nothing assigns
    to a field after ``__init__``; the hash relies on that.  A cache that is
    not a field may be filled later."""

    __slots__ = _fields = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))


class GroundSet(Value):
    """Ordered universe of element labels, kept as a tuple.

    A label is non-empty and distinct, holds no whitespace and no '#', is
    not '->' or '∇', and holds none of ',', '{' and '}'; a ground set built
    through the library obeys this as a parsed one does, or raises
    ValueError.  Elements are addressed internally by their index in
    declaration order; ``full``, the mask of the whole ground set, and
    ``bit``, each label's one-element mask, are set once at construction.
    """

    __slots__ = ("labels", "full", "bit")
    _fields = ("labels",)

    def __init__(self, labels):
        self.labels = labels = tuple(labels)
        for label in labels:  # the reserved forms first; "" fails below
            if label and (label in ("->", "∇") or label.split() != [label]
                          or any(c in label for c in "#,{}")):
                raise ValueError(f"{label!r} cannot be an element label")
        self.bit = bit = {}
        for i, label in enumerate(labels):
            if not label:
                raise ValueError("ground-set labels must be non-empty")
            if label in bit:
                raise ValueError(f"duplicate ground-set label {label!r}")
            bit[label] = 1 << i
        self.full = (1 << len(labels)) - 1

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.mask((label,)).bit_length() - 1

    def mask(self, labels) -> int:
        bit = self.bit
        out = 0
        try:
            for label in labels:
                out |= bit[label]
        except KeyError as exc:
            raise UnknownLabel(f"unknown element {exc.args[0]!r}") from None
        return out

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in iter_bits(mask))

    def format_set(self, mask: int) -> str:
        return "{" + ",".join(self.labels_of(mask)) + "}"


class Implication(Value):
    """One rule ``premise -> conclusion`` over ground-set index masks.

    The conclusion may overlap the premise; overlapping elements are no-ops
    under closure.
    """

    __slots__ = _fields = ("premise", "conclusion")

    def __init__(self, premise: int, conclusion: int):
        self.premise = premise
        self.conclusion = conclusion


# Elements per block of the basis tables.  A kernel round or a walk step
# reads one entry per block, so a wider block means fewer reads, but each
# block holds 2**_WIDTH entries of each table, built at load.  Widths 4 to 6
# ran alike on the chains benchmark and 3 was slower; on refuse, whose small
# bases close in a microsecond or two, 4 was the fastest.
_WIDTH = 4
_SLICE = (1 << _WIDTH) - 1
_STEP = 1 << _WIDTH


def _columns(rows, n: int) -> list[int]:
    """The columns of a bit matrix: entry ``e`` is the mask of the ``r``
    with bit ``e`` set in ``rows[r]``, each row a mask over ``range(n)``.
    ``bin(row | 1 << n)`` is ``"0b1"`` and then the row's n bits, bit n - 1
    first, so bit ``e`` sits at offset ``n + 2 - e`` of its n + 3
    characters.  With the rows joined last first, every (n + 3)-th
    character from there spells column ``e`` in binary, and base-2 ``int``
    has no digit limit.  With no rows the slice is empty and reads as 0."""
    top = 1 << n
    text = "".join([bin(row | top) for row in reversed(rows)])
    return [int(text[n + 2 - e::n + 3] or "0", 2) for e in range(n)]


class ImplicationBasis(Value):
    """A tuple of implications plus the closure operator they generate.

    ``closure`` computes the least fixpoint over tables built once per basis.
    The elements are cut into blocks of four, and each block has a table
    over its subsets: the rules with a premise element in the subset, and
    the rules with a gain element in it.  One bit-parallel round reads the
    entry of each block's slice of the elements outside the closed set: the
    rules they block and the rules that could gain one of them.  Every rule
    of the second kind and not the first fires, and the round adds its gain.
    That is n/4 table reads plus one OR per rule that fires, on m-bit masks
    (n elements, m implications).  A round that fires nothing ends the
    call.  When the first round fires, a second one runs, and on a direct
    (iteration-free) basis such as the pairwise basis of a chain pair it
    fires nothing.  When the second fires too, a worklist over its
    additions fires the rules they complete, at the cost of the rules it
    touches: a long implication chain closes there, not in n rounds.

    Loading the basis takes one loop over the premise bits, which fills
    ``_uses`` and ``_rules``, and one transposition of the gain rows for
    ``_adds`` (:func:`_columns`), whose per-bit work runs in C.
    """

    # _uses[e] / _adds[e]: masks over implication indices whose premise /
    # conclusion-minus-premise contains e; _adds is _gains transposed.
    # _uses_of[b << _WIDTH | s] / _adds_of[...]: the OR of _uses[e] /
    # _adds[e] over e = b * _WIDTH + j for the bits j of s, and
    # _twice_of[...]: the rules in _uses[e] of two or more of those e; the
    # top block's tables stop at the ground set.
    # _gains[r]: the conclusion-minus-premise of rule r.  _ruled: the
    # elements that some premise or gain names.  _rules[e]: (premise, gain)
    # of the implications with e in the premise and a gain.
    __slots__ = ("ground", "implications", "_uses", "_adds", "_uses_of",
                 "_adds_of", "_twice_of", "_gains", "_ruled", "_rules")
    _fields = ("ground", "implications")

    def __init__(self, ground: GroundSet, implications):
        self.implications = implications = tuple(implications)
        n = ground.n
        full = ground.full
        uses = [0] * n
        rules: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        gains = []
        ruled = 0
        for i, imp in enumerate(implications):
            if imp.premise & ~full or imp.conclusion & ~full:
                raise ValueError("implication references elements outside the ground set")
            gain = imp.conclusion & ~imp.premise
            gains.append(gain)
            rule = (imp.premise, gain)
            ruled |= imp.premise | gain
            bit = 1 << i
            rest = imp.premise
            while rest:
                low = rest & -rest
                e = low.bit_length() - 1
                uses[e] |= bit
                if gain:
                    rules[e].append(rule)
                rest ^= low
        # the dense side (a chain pair's rule has one or two premise elements
        # and gains about eight): no gain bit is visited in Python
        adds = _columns(gains, n)
        # each block's tables double per element: the new entries are the
        # old ones with the element in
        uses_of, adds_of, twice_of = [], [], []
        for base in range(0, n, _WIDTH):
            u_tab, a_tab, t_tab = [0], [0], [0]
            for u, a in zip(uses[base:base + _WIDTH], adds[base:base + _WIDTH]):
                t_tab += [t | v & u for t, v in zip(t_tab, u_tab)]
                u_tab += [v | u for v in u_tab]
                a_tab += [v | a for v in a_tab]
            uses_of += u_tab
            adds_of += a_tab
            twice_of += t_tab
        self.ground = ground
        self._uses = tuple(uses)
        self._adds = tuple(adds)
        self._uses_of = tuple(uses_of)
        self._adds_of = tuple(adds_of)
        self._twice_of = tuple(twice_of)
        self._gains = tuple(gains)
        self._ruled = ruled
        self._rules = tuple(tuple(r) for r in rules)

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

    def extreme_points_of_closed(self, closed: int) -> int:
        """Members ``x`` of the closed set ``closed`` with ``closed - x``
        closed too: those that no implication with its premise inside
        ``closed`` gains.  Such a premise misses ``x``, and the closure of
        ``closed - x`` stays inside ``closed``.  The rules blocked from
        ``closed`` come from the tables as in a kernel round; then one pass
        over the members tests the rules that gain each."""
        uses_of, adds = self._uses_of, self._adds
        blocked = i = 0
        rest = self.ground.full & ~closed & self._ruled
        while rest:
            blocked |= uses_of[i | (rest & _SLICE)]
            rest >>= _WIDTH
            i += _STEP
        live = ~blocked
        out = closed
        rest = closed & self._ruled
        while rest:
            low = rest & -rest
            if adds[low.bit_length() - 1] & live:
                out ^= low
            rest ^= low
        return out

    def closed_sets_by_extension(self, start: int) -> frozenset[int] | tuple[int, int]:
        """The closed sets reached from the closed set ``start`` by adding
        one element at a time, each step to a closed set, with no closure
        call; or, when one of them is a dead end, ``(y, part)``: ``y`` is a
        closed set of the walk in ``part`` (:meth:`parts`), short of it,
        with no closed one-element extension inside it.

        The walk goes part by part, in :meth:`parts` order: every rule lies
        inside one part, so a set is closed iff its trace on each part is
        closed in that part, and the family is the product of the part
        families.  A closed set dead-ends iff its trace dead-ends in some
        part, and a trace that dead-ends in its part does so in the whole
        with the other parts full; so the walk finds a dead end iff some
        part's walk, from ``start`` inside that part, does.  That walk
        finishes the level that holds its first dead end and returns the
        canonically least one of the level (:func:`canonical_key`).  It
        need not be the part's least dead end, which the walk may never
        reach.

        Within a part, for closed ``y`` and ``x`` outside it, ``y + x`` is
        closed unless a rule whose only premise element outside ``y`` is
        ``x`` gains an element outside ``y`` (its gain never holds ``x``).
        The tables give, one entry per block from the part's lowest block
        up, the rules with a premise element outside ``y`` (``once``), with
        two or more (``twice``: two in one block's slice, or one there and
        one in a block below) and with a gain element outside (``gout``):
        n/4 table reads per closed set.
        When no set dead-ends, every closed ``Y`` is reached: a chain of
        closed sets grows from ``start`` to the ground set, its
        intersections with ``Y`` grow by at most one element a step, so
        ``Y - y`` is closed for some ``y``; induct on ``|Y|``.  So a walk
        that meets no dead end leaves none unreached.

        When no rule fires, every ``y + x`` is closed and needs no test of
        its own (always so on a part with no premises); otherwise one pass
        over the elements outside ``y`` tests each.  The walk goes one size
        at a time: every set of the next level has one element more than a
        set of this one, so a plain set per level holds each once.  The
        parts are disjoint, so every union of their closed sets is new, and
        the family comes back as an unordered frozenset.
        """
        uses, uses_of, adds_of, twice_of = (
            self._uses, self._uses_of, self._adds_of, self._twice_of)
        ruled = self._ruled
        walks = []
        for part in self.parts():
            levels = []
            level = {start & part}
            block = ((part & -part).bit_length() - 1) // _WIDTH
            shift, first = block * _WIDTH, block << _WIDTH
            while level:
                levels.append(level)
                up = set()
                add = up.add
                dead = []
                for y in level:
                    outside = part & ~y
                    once = twice = gout = 0
                    rest = (outside & ruled) >> shift
                    i = first
                    while rest:
                        k = i | (rest & _SLICE)
                        u = uses_of[k]
                        twice |= twice_of[k] | (once & u)
                        once |= u
                        gout |= adds_of[k]
                        rest >>= _WIDTH
                        i += _STEP
                    # uses[x] lies inside once, as x is outside y: y + x is
                    # closed unless one of its rules is in fires
                    fires = gout & ~twice
                    rest = outside
                    if not fires:
                        while rest:
                            low = rest & -rest
                            add(y | low)
                            rest ^= low
                        continue
                    extended = False
                    while rest:
                        low = rest & -rest
                        if not uses[low.bit_length() - 1] & fires:
                            extended = True
                            add(y | low)
                        rest ^= low
                    if not extended:
                        dead.append(y)
                if dead:
                    return min(dead, key=canonical_key), part
                level = up
            walks.append(levels)
        family = [0]
        for levels in walks:
            family = [y | z for level in levels for z in level for y in family]
        return frozenset(family)

    def parts(self) -> list[int]:
        """The ground set split into its parts, as masks in the order of
        their least elements: the classes of elements linked by naming a
        common rule, in its premise or its gain.  An element that no rule
        names is a part of its own.  Each round ORs up the rules of the
        elements last added and then adds every element outside the part
        that names one of them, in O(n) mask operations and no loop over
        the rules."""
        links = [u | a for u, a in zip(self._uses, self._adds)]
        parts = []
        rest = self.ground.full
        while rest:
            part = new = rest & -rest
            while new:
                rest &= ~new
                rules = 0
                for e in iter_bits(new):
                    rules |= links[e]
                new = 0
                if rules:
                    for e in iter_bits(rest):
                        if links[e] & rules:
                            new |= 1 << e
                part |= new
            parts.append(part)
        return parts

    def closure(self, seed: int) -> int:
        """Least superset of ``seed`` closed under every implication."""
        full = self.ground.full
        if seed & ~full:
            raise ValueError("seed is not a subset of the ground set")
        outside = full & ~seed
        uses_of = self._uses_of
        adds_of = self._adds_of
        gains = self._gains
        ruled = self._ruled
        closed = seed
        second = False
        while True:
            # One round (see the class docstring): a rule is blocked if a
            # premise element lies outside and pending if a gain element does;
            # every pending one not blocked (empty premises included) fires.
            blocked = pending = i = 0
            rest = outside & ruled
            while rest:
                k = i | (rest & _SLICE)
                blocked |= uses_of[k]
                pending |= adds_of[k]
                rest >>= _WIDTH
                i += _STEP
            fire = pending & ~blocked
            if not fire:
                return closed
            added = 0
            while fire:
                low = fire & -fire
                added |= gains[low.bit_length() - 1]
                fire ^= low
            added &= outside
            closed |= added
            outside ^= added
            if second:
                break
            second = True
        # Worklist: every rule whose premise was closed before the last round
        # fired in it, so a rule fires later only through an element that
        # round or the worklist adds, and is checked when the last is popped.
        stack = added
        rules = self._rules
        while stack:
            low = stack & -stack
            stack ^= low
            for premise, gain in rules[low.bit_length() - 1]:
                if not premise & ~closed:
                    new = gain & ~closed
                    if new:
                        closed |= new
                        stack |= new
        return closed
