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
    """Ordered universe of distinct, non-empty element labels.

    Elements are addressed internally by their index in declaration order.
    """

    __slots__ = ("labels", "_index")
    _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not label:
                raise ValueError("ground-set labels must be non-empty")
            if label in index:
                raise ValueError(f"duplicate ground-set label {label!r}")
            index[label] = i
        self.labels = labels
        self._index = index

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

    def mask(self, labels) -> int:
        out = 0
        for label in labels:
            out |= 1 << self.index(label)
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


class ImplicationBasis(Value):
    """A finite list of implications plus the closure operator they generate.

    ``closure`` computes the least fixpoint over tables built once per basis.
    One bit-parallel round: the elements outside the closed set OR together
    the masks of the implications they block, and every element that an
    unblocked implication concludes is added, in O(n) big-integer operations
    on m-bit masks (n elements, m implications).  The round runs again only
    when the added elements times the mean number of gaining rules per
    element exceed the elements still outside, and at most twice; a round
    that adds nothing ends the call, as the second does on a direct
    (iteration-free) basis such as the pairwise basis of a chain pair.
    Otherwise a worklist over the last round's additions fires the rules
    they complete, at the cost of the rules it touches.
    """

    # _uses[e] / _adds[e]: masks over implication indices whose premise /
    # conclusion-minus-premise contains e.  _premised / _concluded: the
    # elements in some premise / some conclusion-minus-premise.  _rules[e]:
    # (premise, gain) of the implications with e in the premise and a gain.
    # _full: the ground-set mask.  _fanout: the mean length of _rules[e],
    # the rules the worklist scans per element it pops.
    __slots__ = ("ground", "implications", "_uses", "_adds", "_premised",
                 "_concluded", "_rules", "_full", "_fanout")
    _fields = ("ground", "implications")

    def __init__(self, ground: GroundSet, implications: tuple[Implication, ...]):
        n = ground.n
        full = ground.full
        uses = [0] * n
        adds = [0] * n
        rules: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        premised = concluded = 0
        for i, imp in enumerate(implications):
            if imp.premise & ~full or imp.conclusion & ~full:
                raise ValueError("implication references elements outside the ground set")
            gain = imp.conclusion & ~imp.premise
            rule = (imp.premise, gain)
            premised |= imp.premise
            concluded |= gain
            bit = 1 << i
            rest = imp.premise
            while rest:
                low = rest & -rest
                e = low.bit_length() - 1
                uses[e] |= bit
                if gain:
                    rules[e].append(rule)
                rest ^= low
            rest = gain
            while rest:
                low = rest & -rest
                adds[low.bit_length() - 1] |= bit
                rest ^= low
        self.ground = ground
        self.implications = implications
        self._uses = tuple(uses)
        self._adds = tuple(adds)
        self._premised = premised
        self._concluded = concluded
        self._rules = tuple(tuple(r) for r in rules)
        self._full = full
        self._fanout = sum(map(len, rules)) // n if n else 0

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
        ``closed - x`` stays inside ``closed``.  One pass over the rules that
        the kernel's first round from ``closed`` leaves live."""
        uses, adds = self._uses, self._adds
        blocked = 0
        rest = self._full & ~closed & self._premised
        while rest:
            low = rest & -rest
            blocked |= uses[low.bit_length() - 1]
            rest ^= low
        live = ~blocked
        out = closed
        rest = closed & self._concluded
        while rest:
            low = rest & -rest
            if adds[low.bit_length() - 1] & live:
                out ^= low
            rest ^= low
        return out

    def closed_sets_by_extension(self, start: int) -> frozenset[int] | None:
        """The closed sets reached from the closed set ``start`` by adding
        one element at a time, each step to a closed set, with no closure
        call; None when one of them, other than the ground set, has no
        closed one-element extension.

        The walk goes part by part (:meth:`parts`): every rule lies inside
        one part, so a set is closed iff its trace on each part is closed
        in that part, and the family is the product of the part families.
        A closed set dead-ends iff its trace dead-ends in some part, and a
        trace that dead-ends in its part does so in the whole with the
        other parts full; so the walk returns None iff some part's walk,
        from ``start`` inside that part, dead-ends.

        Within a part, for closed ``y`` and ``x`` outside it, ``y + x`` is
        closed unless a rule whose only premise element outside ``y`` is
        ``x`` gains an element outside ``y`` (its gain never holds ``x``).
        One pass over the elements outside ``y`` that some rule names ORs
        up the rules with a premise element outside (``once``), with two
        or more (``twice``) and with a gain element outside (``gout``).
        When no set dead-ends, every closed ``Y`` is reached: a chain of
        closed sets grows from ``start`` to the ground set, its
        intersections with ``Y`` grow by at most one element a step, so
        ``Y - y`` is closed for some ``y``; induct on ``|Y|``.

        When no rule fires, every ``y + x`` is closed and needs no test of
        its own (always so on a part with no premises); otherwise one pass
        over the elements outside ``y`` tests each.  The walk goes one size
        at a time: every set of the next level has one element more than a
        set of this one, so a plain set per level holds each once.  The
        parts are disjoint, so every union of their closed sets is new, and
        the family comes back as an unordered frozenset.
        """
        uses, adds = self._uses, self._adds
        ruled = self._premised | self._concluded
        walks = []
        for part in self.parts():
            levels = []
            level = {start & part}
            while level:
                levels.append(level)
                up = set()
                add = up.add
                for y in level:
                    outside = part & ~y
                    once = twice = gout = 0
                    rest = outside & ruled
                    while rest:
                        low = rest & -rest
                        e = low.bit_length() - 1
                        twice |= once & uses[e]
                        once |= uses[e]
                        gout |= adds[e]
                        rest ^= low
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
                        return None
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
        rest = self._full
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
        full = self._full
        if seed & ~full:
            raise ValueError("seed is not a subset of the ground set")
        outside = full & ~seed
        uses = self._uses
        adds = self._adds
        closed = seed
        second = False
        while True:
            # One bit-parallel round: an implication is blocked if a premise
            # element lies outside; every unblocked one (empty premises
            # included) fires now.
            blocked = 0
            rest = outside & self._premised
            while rest:
                low = rest & -rest
                blocked |= uses[low.bit_length() - 1]
                rest ^= low
            live = ~blocked
            added = 0
            rest = outside & self._concluded
            while rest:
                low = rest & -rest
                if adds[low.bit_length() - 1] & live:
                    added |= low
                rest ^= low
            if not added:
                return closed
            closed |= added
            outside ^= added
            # A second round runs only when the worklist would scan more
            # rules than this round visits elements.
            if second or added.bit_count() * self._fanout <= outside.bit_count():
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
