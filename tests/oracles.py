"""Exponential oracles and lemma checks that cross-check the polynomial test.

Test-only code: it lives under ``tests/`` and is not part of the
``segrep`` package, so nothing that ``import segrep`` loads can reach it.

* ``extreme_points_by_definition`` tests each member of a subset with one
  closure of the rest, the definition that ``ConvexGeometry.extreme_points``
  answers with one closure and one pass;
* ``check_2ex_exhaustive`` and ``check_sq_exhaustive`` evaluate the defining
  quantifier of each polynomial check literally over all subsets, and
  ``verify_representation_exhaustive`` compares a representation with the
  geometry on every subset instead of only on pairs;
* ``check_sq_by_pair_scan`` runs the square-condition scan of
  ``check_sq_exhaustive`` (and ``check_exr``) over the pair closures only,
  asking ``geom.extreme_points`` for every set, the scan that ``check_sq``
  answers from the pair table and its extreme-point index;
* ``verify_representation_by_pairs`` closes every seed of at most two
  elements, the scan that ``verify_representation`` reads off the table of
  ``ConvexGeometry.pair_closures``, and ``verify_representation_by_proof``
  settles most seeds with a lower bound read off the basis and closes only
  the rest;
* ``pair_closures_by_kernel`` closes every pair through ``geom.closure``,
  the rows that ``ConvexGeometry.pair_closures`` fill from the singleton
  closures, with 0 for the singletons;
* ``build_by_insertion`` is the package's former builder, the reference for
  the walk's: it peels extreme points and re-inserts each one by a search
  over block orientations, exponential in the switchable blocks.
  ``insert_by_table`` is its insertion, reading the pair table;
  ``insert_by_kernel`` closes its own point and each pair it checks again
  instead, and ``insert_closing_own`` closes only its own point again;
* ``reconstruct_by_peeling_reference`` is the reconstruction walk with its
  bookkeeping redone from scratch at every step, and
  ``reconstruct_mismatches`` compares the two walk for walk;
* ``brute_force_cdim2`` finds every representation by pairing the maximal
  chains of the closed-set lattice;
* ``check_caratheodory``, ``reduce_to_binary_basis`` and ``check_exr`` test
  the lemmas between the two-extreme-points bound and the square condition;
* ``join_alignments`` and ``linear_alignment`` build families of closed sets
  as joins of chains (Edelman and Jamison, 1985), ``closed_sets_by_definition``
  keeps every subset equal to its closure, on any basis, and
  ``extendability_witness`` tests the alignment-style definition of a
  convex geometry;
* ``index_mismatches``, ``sq_recheck_faults``, ``peel_and_scan_faults``,
  ``sq_scan_mismatches``, ``block_cache_mismatches`` and
  ``verify_mismatches`` are the comparisons of the gates on the
  extreme-point index, the Sq re-check, the index reads after decide,
  ``check_sq``, the block cache and ``verify_representation``; each looks
  up the package function it checks at call time, so the mutant rows of
  ``tests/test_mutants.py`` run the same comparison on a patched one;
* ``fixpoint`` closes by firing every rule until nothing changes, the
  closure that ``ImplicationBasis.closure`` reads off its tables, and
  ``kernel_mismatches`` compares the two; ``walk_by_definition`` pairs the
  closed-set walk with what it must return, read off
  ``closed_sets_by_definition`` and ``dead_end_by_definition``, the walk's
  first dead end found with ``fixpoint`` closures over the classes of
  elements that share a rule; ``anti_exchange_witness_by_definition``
  names the witness that validation must report there, and
  ``anti_exchange_mismatches`` compares the two;
* ``basis_tables_by_bits`` loads the basis tables by visiting every premise
  and gain bit in Python, the loop that ``ImplicationBasis`` replaced by a
  transposition of the gain rows, and ``parse_geometry_reference`` is the
  file parser's former line loop;
* ``closed_sets`` is the family that ``closed_family`` walks, sorted into
  canonical order;
* ``normalize_layout`` reads a chain pair off arbitrary segments on a line,
  raising ``DuplicateEndpoint`` on shared or degenerate endpoints, and
  ``parse_layout_table`` re-reads through it the layout table that
  ``segrep represent`` prints.

The subset scans are guarded at ``max_n`` elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from segrep import core, geometry, properties, representation, uniqueness
from segrep.cli import ParseError
from segrep.core import (
    GroundSet,
    GroundSetTooLarge,
    Implication,
    ImplicationBasis,
    SegrepError,
    canonical_key,
    iter_bits,
    mask_of,
    prefix_masks,
)
from segrep.geometry import ConvexGeometry, closed_family
from segrep.properties import PropertyReport, SqWitness, TwoExWitness
from segrep.representation import (
    Infeasible,
    SegmentRepresentation,
    segment_closure,
    verify_representation,
)
from segrep.uniqueness import (
    NotApplicable,
    block_orientations,
    count_representations,
    reconstruct_by_peeling,
)


def _all_subsets(mask: int, operation: str, max_n: int, min_size: int = 0) -> list[int]:
    """Every subset of ``mask`` with at least ``min_size`` members, in
    canonical order, for the exhaustive ``operation``; guarded at ``max_n``
    elements."""
    if mask.bit_count() > max_n:
        raise GroundSetTooLarge(operation, mask.bit_count(), max_n)
    subsets = [0]
    for e in iter_bits(mask):
        subsets += [s | (1 << e) for s in subsets]
    return sorted((s for s in subsets if s.bit_count() >= min_size), key=canonical_key)


def extreme_points_by_definition(geom: ConvexGeometry, subset: int) -> int:
    """Members of ``subset`` outside the closure of the rest of it: one
    closure per member."""
    out = 0
    for x in iter_bits(subset):
        if not (geom.closure(subset & ~(1 << x)) >> x) & 1:
            out |= 1 << x
    return out


def check_2ex_exhaustive(geom: ConvexGeometry, max_n: int = 15) -> PropertyReport:
    """Literal evaluation of the two-extreme-points bound over all subsets."""
    for subset in _all_subsets(geom.ground.full, "check_2ex_exhaustive", max_n, 3):
        extreme = geom.extreme_points(subset)
        if extreme.bit_count() > 2:
            triple = mask_of(list(iter_bits(extreme))[:3])
            return PropertyReport("TwoEx", TwoExWitness(triple))
    return PropertyReport("TwoEx")


def check_sq_exhaustive(geom: ConvexGeometry, max_n: int = 15) -> PropertyReport:
    """Square condition evaluated over every subset of the ground set."""
    subsets = _all_subsets(geom.ground.full, "check_sq_exhaustive", max_n, 3)
    return _pair_scan(geom, "Sq", subsets, _sq_violation)


def check_sq_by_pair_scan(geom: ConvexGeometry) -> PropertyReport:
    """Square condition over the distinct pair closures in canonical order,
    each pair closed again and each extreme-point set asked with
    ``geom.extreme_points``: the scan that ``check_sq`` answers from
    ``pair_closures()`` and the extreme-point index it fills."""
    closed = {geom.closure((1 << i) | (1 << j)) for i, j in combinations(range(geom.n), 2)}
    return _pair_scan(geom, "Sq", sorted(closed, key=canonical_key), _sq_violation)


def _pair_scan(geom: ConvexGeometry, name: str, subsets, violation) -> PropertyReport:
    """First ``violation(geom, subset, a, b)`` witness over the subsets with
    exactly two extreme points, trying both labellings of the pair."""
    for subset in subsets:
        extreme = geom.extreme_points(subset)
        if extreme.bit_count() != 2:
            continue
        first, second = iter_bits(extreme)
        for a, b in ((first, second), (second, first)):
            witness = violation(geom, subset, a, b)
            if witness is not None:
                return PropertyReport(name, witness)
    return PropertyReport(name)


def _replacement(geom: ConvexGeometry, subset: int, a: int, b: int) -> Optional[int]:
    """The ``c != b`` with ``{c, b}`` the extreme points of ``subset`` minus
    ``a``; None when removing ``a`` leaves other extreme points."""
    after_a = geom.extreme_points(subset & ~(1 << a))
    if not (after_a >> b) & 1 or after_a.bit_count() != 2:
        return None
    return next(iter_bits(after_a & ~(1 << b)))


def _sq_violation(geom: ConvexGeometry, subset: int, a: int, b: int) -> Optional[SqWitness]:
    """Evaluate one labelled instance of the square condition.

    Premise: extreme points of ``subset`` are exactly ``{a, b}``, removing
    ``a`` leaves ``{c, b}`` with ``c != b``, and removing both leaves
    ``{c, d}`` with ``d != c``.  Instances with ``c == d`` hold automatically
    and are skipped.  Returns a witness when the conclusion (removing ``b``
    leaves ``{a, d}`` or ``{a}``) fails.
    """
    c = _replacement(geom, subset, a, b)
    if c is None:
        return None
    after_ab = geom.extreme_points(subset & ~(1 << a) & ~(1 << b))
    if not (after_ab >> c) & 1 or after_ab.bit_count() != 2:
        return None
    d = next(iter_bits(after_ab & ~(1 << c)))
    after_b = geom.extreme_points(subset & ~(1 << b))
    if after_b == (1 << a) | (1 << d) or after_b == (1 << a):
        return None
    return SqWitness(subset, a, b, c, d, after_b)


def verify_representation_exhaustive(
    geom: ConvexGeometry, rep: SegmentRepresentation, max_n: int = 12
) -> tuple[bool, Optional[int]]:
    """``verify_representation`` on every subset of the represented elements,
    not only on seeds of size <= 2; guarded at ``max_n`` elements."""
    domain = rep.elements
    for seed in _all_subsets(domain, "verify_representation", max_n):
        if segment_closure(rep, seed) != geom.closure(seed) & domain:
            return (False, seed)
    return (True, None)


def verify_representation_by_pairs(
    geom: ConvexGeometry, rep: SegmentRepresentation
) -> tuple[bool, Optional[int]]:
    """``verify_representation`` by one closure query per seed of at most
    two elements, in canonical order: the reference whose ``(ok, seed)``
    the package's pass, which closes only the seeds its bound off the basis
    cannot settle, must return."""
    members = list(iter_bits(rep.elements))
    seeds = [0]
    seeds.extend(1 << e for e in members)
    seeds.extend((1 << x) | (1 << y) for x, y in combinations(members, 2))
    for seed in seeds:
        if segment_closure(rep, seed) != geom.closure(seed):
            return (False, seed)
    return (True, None)


def verify_representation_by_proof(
    geom: ConvexGeometry, rep: SegmentRepresentation
) -> tuple[bool, Optional[int]]:
    """``verify_representation`` closing only the seeds that a proof read off
    the basis cannot settle, with the same ``(ok, seed)``.

    One pass over the basis first checks (a): every implication ``A -> B``
    has ``B`` inside ρ(A).  Then every ρ-closed set is closed under the
    basis, so φ lies inside ρ, and a seed agrees as soon as its ρ lies
    inside a lower bound on its φ: the seed plus the gains of the rules
    whose premise it is and, for a pair, the ρ of both its elements, which
    agree with φ by then.  Only a seed whose ρ exceeds that bound goes to
    ``geom.closure``; without (a) every seed does.  Between the singletons
    and the pairs it settles the empty seed off the basis, as
    ``verify_representation`` does."""
    if rep.elements != geom.ground.full:
        raise ValueError("representation must order the whole ground set")
    gains = _premise_gains(geom, rep)
    proven = gains is not None
    closure = geom.closure
    lrank, rrank, lpref, rpref = rep._derive()
    n = rep.n
    ranks = [(lrank[e], rrank[e]) for e in range(n)]
    below = []  # ρ({x}) per element x, equal to φ({x}) once x is passed
    for x, (lx, rx) in enumerate(ranks):
        seed = 1 << x
        closed = lpref[lx] & rpref[rx]
        below.append(closed)
        if proven and not closed & ~(seed | gains.get(seed, 0)):
            continue
        if closed != closure(seed):
            return (False, seed)
    if n and rep.left[0] == rep.right[0]:
        bottom = 1 << rep.left[0]
        if geom.basis.extreme_points_of_closed(bottom) != bottom:
            return (False, 0)
    for x, (lx, rx) in enumerate(ranks):
        for y in range(x + 1, n):
            ly, ry = ranks[y]
            seed = (1 << x) | (1 << y)
            closed = lpref[max(lx, ly)] & rpref[max(rx, ry)]
            if proven and not closed & ~(below[x] | below[y] | gains.get(seed, 0)):
                continue
            if closed != closure(seed):
                return (False, seed)
    return (True, None)


def _premise_gains(geom: ConvexGeometry, rep: SegmentRepresentation) -> Optional[dict]:
    """Fact (a) of ``verify_representation_by_proof``: None when some
    conclusion leaves the segment closure of its premise, else the gains of
    the rules with at most two premise elements, ORed up by premise."""
    gains: dict[int, int] = {}
    for imp in geom.basis.implications:
        premise = imp.premise
        gain = imp.conclusion & ~premise
        if not gain:
            continue
        if gain & ~segment_closure(rep, premise):
            return None
        if premise.bit_count() <= 2:
            gains[premise] = gains.get(premise, 0) | gain
    return gains


def pair_closures_by_kernel(geom: ConvexGeometry) -> list[list[int]]:
    """``ConvexGeometry.pair_closures`` with one closure query per pair and
    0 on the diagonal: the first call closes every ``{i, j}`` with ``i < j``
    through ``geom.closure``, in the package's order, fills both
    ``rows[i][j]`` and ``rows[j][i]`` and keeps the rows on the geometry,
    so that later calls ask nothing.  ``check_sq`` skips the 0 entries, as
    they have no extreme point.  The package's ``verify_representation``
    and ``insert_by_table`` read the diagonal, so patch this in only
    together with ``verify_representation_by_proof`` (or ``..._by_pairs``)
    and ``insert_by_kernel``."""
    if geom._pairs is None:
        rows = [[0] * geom.n for _ in range(geom.n)]
        for i, j in combinations(range(geom.n), 2):
            rows[i][j] = rows[j][i] = geom.closure((1 << i) | (1 << j))
        geom._pairs = rows
    return geom._pairs


def insert_by_table(
    geom: ConvexGeometry, subset: int, a: int, sub: SegmentRepresentation
) -> SegmentRepresentation:
    """Re-enter ``a``, an extreme point of ``subset``, into ``sub``, a
    representation of ``subset`` without ``a``: on top of the left chain and,
    in the right chain, just above its own closure.  Seeds without ``a`` keep
    their closures (``a`` tops the left chain and is in no closure of the
    rest); ``{a}``, and ``{a, x}`` with ``x`` below the cut, hold when the
    prefix below the cut is ``a``'s closure.  So only the pairs with ``x``
    above the cut are checked; a sole extreme point closes to all of
    ``subset`` and goes on top of both chains unchecked.  ``subset`` is
    closed, so every closure in ``a``'s row of
    :meth:`ConvexGeometry.pair_closures` lies inside it, and the insertion
    reads them there, asking no closure query.  Raise Infeasible, with the
    subset and ``a``, if no block orientation of ``sub`` admits it."""
    row = geom.pair_closures()[a]
    own = row[a]
    below_a = own & ~(1 << a)
    cut = below_a.bit_count()
    for left, right in block_orientations(sub):
        if mask_of(right[:cut]) != below_a:
            continue
        prefix = own
        for x in right[cut:]:
            prefix |= 1 << x
            if row[x] != prefix:
                break
        else:
            return SegmentRepresentation(left + (a,), right[:cut] + (a,) + right[cut:])
    raise Infeasible("insertion", (subset, 1 << a))


def build_by_insertion(geom: ConvexGeometry, insert=insert_by_table) -> SegmentRepresentation:
    """The package's builder before it read the reconstruction walk: a
    verified representation, or Infeasible.

    Peel the least extreme point of the remaining set (at most two exist when
    construction can succeed) down to at most one element, then re-insert
    the peeled points in reverse order by one rule: the point goes on top of
    the left chain and just above its own closure in the right chain.  The
    representation of the rest may need some of its interchangeable blocks
    flipped for that, so insertion searches the block orientations, checking
    only the seeds through the new point; that search is exponential in the
    switchable blocks.  ``insert`` does one insertion.  The result is
    verified once through ``representation.verify_representation``, looked
    up at call time, so a test that patches the package's verifier patches
    this one's too.

    The build first fills the pair table, and past it the peel asks n - 1
    extreme-point queries, one closure each; the insertions by the table
    and the verification read the table.
    """
    geom.pair_closures()
    subset = geom.ground.full
    peeled = []
    while subset.bit_count() > 1:
        # the index answers outside subset only off a convex geometry
        extreme = geom.extreme_points(subset) & subset
        k = extreme.bit_count()
        if k == 0:
            raise Infeasible("no-extreme-point", subset)
        if k > 2:
            raise Infeasible("extreme-count", (subset, extreme))
        a = next(iter_bits(extreme))
        peeled.append((subset, a))
        subset &= ~(1 << a)
    last = tuple(iter_bits(subset))
    rep = SegmentRepresentation(last, last)
    for subset, a in reversed(peeled):
        rep = insert(geom, subset, a, rep)
    ok, seed = representation.verify_representation(geom, rep)
    if not ok:
        raise Infeasible("verification", seed)
    return rep


def insert_by_kernel(
    geom: ConvexGeometry, subset: int, a: int, sub: SegmentRepresentation
) -> SegmentRepresentation:
    """``insert_by_table`` with ``{a}`` and every pair ``{a, x}`` it checks
    closed again through ``geom.closure``, where ``insert_by_table`` reads
    the table."""
    own = geom.closure(1 << a) & subset
    below_a = own & ~(1 << a)
    cut = below_a.bit_count()
    for left, right in block_orientations(sub):
        if mask_of(right[:cut]) != below_a:
            continue
        prefix = own
        for x in right[cut:]:
            prefix |= 1 << x
            if geom.closure((1 << a) | (1 << x)) & subset != prefix:
                break
        else:
            return SegmentRepresentation(left + (a,), right[:cut] + (a,) + right[cut:])
    raise Infeasible("insertion", (subset, 1 << a))


def insert_closing_own(
    geom: ConvexGeometry, subset: int, a: int, sub: SegmentRepresentation
) -> SegmentRepresentation:
    """``insert_by_table`` after closing ``{a}`` again through
    ``geom.closure``, which must give the table's singleton entry."""
    if geom.closure(1 << a) & subset != geom.pair_closures()[a][a]:
        raise AssertionError(f"the table's closure of {{{a}}} is not the kernel's")
    return insert_by_table(geom, subset, a, sub)


def reconstruct_by_peeling_reference(geom: ConvexGeometry) -> SegmentRepresentation:
    """``reconstruct_by_peeling`` with its bookkeeping redone at every step:
    the removed elements' mask rebuilt from the chain, and the other chain
    scanned from its top for its surviving maximum.  The same extreme-point
    queries, in the same order, give the same result or the same
    ``NotApplicable``."""
    full = geom.ground.full
    det_l: tuple[int, ...] = ()
    det_r: tuple[int, ...] = ()
    first_split = None
    outcomes = 0
    while len(det_l) < geom.n or len(det_r) < geom.n:
        on_left = len(det_l) <= len(det_r)
        det_side, det_other = (det_l, det_r) if on_left else (det_r, det_l)
        remainder = full & ~mask_of(det_side)
        # the index answers outside remainder only off a convex geometry
        extreme = geom.extreme_points(remainder) & remainder
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
            break
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


class RecordingGeometry(ConvexGeometry):
    """A geometry that lists the subsets it is asked extreme points of."""

    __slots__ = ("queries",)

    def __init__(self, basis):
        super().__init__(basis)
        self.queries = []

    def extreme_points(self, subset):
        self.queries.append(subset)
        return super().extreme_points(subset)


def reconstruct_mismatches(bases, table: bool = False) -> tuple[list, list]:
    """Run ``reconstruct_by_peeling`` and
    :func:`reconstruct_by_peeling_reference` on a fresh
    :class:`RecordingGeometry` over each basis, its pair table filled first
    when ``table``.  Returns the bases on which the two differ in outcome,
    in the subsets asked extreme points of or in closure queries, and the
    outcome of ``reconstruct_by_peeling`` on each basis: ``("rep", left,
    right)`` or ``("NotApplicable", witness, outcomes)``."""
    mismatches, outcomes = [], []
    for basis in bases:
        runs = []
        for walk in (reconstruct_by_peeling, reconstruct_by_peeling_reference):
            geom = RecordingGeometry(basis)
            if table:
                geom.pair_closures()
            try:
                rep = walk(geom)
                outcome = ("rep", rep.left, rep.right)
            except NotApplicable as err:
                outcome = ("NotApplicable", err.witness, err.outcomes)
            runs.append((outcome, geom.queries, geom.closure_calls))
        if runs[0] != runs[1]:
            mismatches.append(basis)
        outcomes.append(runs[0][0])
    return mismatches, outcomes


@dataclass(frozen=True)
class BruteForceResult:
    """Exhaustive-search outcome: the decision plus every valid representation."""

    cdim2: bool
    representations: tuple[SegmentRepresentation, ...]


def brute_force_cdim2(geom: ConvexGeometry, max_n: int = 8) -> BruteForceResult:
    """Search all chain pairs for representations; independent of the
    polynomial decision path.

    A chain can take part in a valid pair only if all of its prefixes are
    closed (each prefix is itself a member of the joined family), so the scan
    enumerates the maximal chains of the closed-set family instead of all
    n! orders, then keeps the pairs whose prefix intersections reproduce the
    family exactly.  A family larger than (n+1)^2 cannot be a join of two
    chains at all and short-circuits to "no".

    Every meet-irreducible closed set X (not the full set, and not the
    intersection of strictly larger closed sets) must be a prefix of one of
    the two chains: were X = L_i & R_j with X != L_i and X != R_j, the closed
    sets L_i and R_j would be strictly larger with intersection X.  Only pairs
    of chains whose prefixes cover every irreducible are joined and compared.
    """
    n = geom.n
    if n > max_n:
        raise GroundSetTooLarge("brute_force_cdim2", n, max_n)
    family = set(closed_sets(geom))
    if len(family) > (n + 1) ** 2:
        return BruteForceResult(False, ())

    full = geom.ground.full
    chains: list[tuple[int, ...]] = []

    def grow(current: int, order: list[int]):
        if current == full:
            chains.append(tuple(order))
            return
        for x in iter_bits(full & ~current):
            nxt = current | (1 << x)
            if nxt in family:
                order.append(x)
                grow(nxt, order)
                order.pop()

    if 0 in family:
        grow(0, [])
    prefix_sets = [prefix_masks(chain) for chain in chains]

    # Group the chains by the meet-irreducibles among their prefixes; only
    # groups that together hold every irreducible can pair (see docstring).
    irreducible = _meet_irreducible_bits(family, full)
    groups: dict[int, list[int]] = {}
    for i, prefixes in enumerate(prefix_sets):
        covered = 0
        for p in prefixes:
            covered |= irreducible.get(p, 0)
        groups.setdefault(covered, []).append(i)
    every = (1 << len(irreducible)) - 1
    masks = list(groups)

    found: set[SegmentRepresentation] = set()
    for a, mask_a in enumerate(masks):
        for mask_b in masks[a:]:
            if mask_a | mask_b != every:
                continue
            for i in groups[mask_a]:
                for j in groups[mask_b]:
                    if mask_a == mask_b and j < i:
                        continue
                    lo, hi = sorted((i, j))
                    joined = {u & v for u in prefix_sets[lo] for v in prefix_sets[hi]}
                    if joined == family:
                        found.add(SegmentRepresentation(chains[lo], chains[hi]))
    reps = tuple(sorted(found, key=lambda r: (r.left, r.right)))
    return BruteForceResult(bool(reps), reps)


def _meet_irreducible_bits(family: set[int], full: int) -> dict[int, int]:
    """Map each meet-irreducible set of ``family`` to its own bit."""
    irreducible: dict[int, int] = {}
    for x in family:
        if x == full:
            continue
        meet = full
        for y in family:
            if y != x and y & x == x:
                meet &= y
        if meet != x:
            irreducible[x] = 1 << len(irreducible)
    return irreducible


@dataclass(frozen=True)
class CaratheodoryWitness:
    """A membership ``element in closure(subset)`` no part of the subset with
    at most ``order`` members explains."""

    subset: int
    element: int
    order: int

    def describe(self, ground: GroundSet) -> str:
        return (
            f"{ground.labels[self.element]} in closure of {ground.format_set(self.subset)} "
            f"but in no small-part closure"
        )

    def verify(self, geom: ConvexGeometry) -> bool:
        """Recompute the witness from the definition."""
        if not (geom.closure(self.subset) >> self.element) & 1:
            return False
        members = list(iter_bits(self.subset))
        return _generating_part(geom, members, self.element, self.order) is None


class CaratheodoryFails(SegrepError):
    """Binary-premise reduction was requested but the 2-part property fails."""

    def __init__(self, witness: CaratheodoryWitness):
        self.witness = witness
        super().__init__("cannot reduce to binary premises: 2-part generation fails")


def check_caratheodory(geom: ConvexGeometry, order: int, max_n: int = 15) -> PropertyReport:
    """Every closure membership is witnessed by at most ``order`` generators."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    name = f"Caratheodory({order})"
    for subset in _all_subsets(geom.ground.full, "check_caratheodory", max_n, order + 1):
        closed = geom.closure(subset)
        members = list(iter_bits(subset))
        for a in iter_bits(closed & ~subset):
            if _generating_part(geom, members, a, order) is None:
                return PropertyReport(name, CaratheodoryWitness(subset, a, order))
    return PropertyReport(name)


def _generating_part(
    geom: ConvexGeometry, members: list[int], a: int, order: int
) -> Optional[int]:
    """First part of ``members`` with at most ``order`` elements, smallest
    first, whose closure contains ``a``; None when there is none."""
    for size in range(1, order + 1):
        for part in combinations(members, size):
            if (geom.closure(mask_of(part)) >> a) & 1:
                return mask_of(part)
    return None


def reduce_to_binary_basis(geom: ConvexGeometry, max_n: int = 15) -> ImplicationBasis:
    """Rewrite the basis so every premise has at most two elements.

    Requires the 2-part generation property; each oversized premise is
    replaced by the first 1- or 2-element part of it that already generates
    the conclusion.  A basis that is already binary is returned unchanged.
    The rewritten basis is checked to generate the same closure operator on
    every subset; like the Carathéodory check, that is guarded at ``max_n``
    elements.
    """
    report = check_caratheodory(geom, 2, max_n=max_n)
    if not report.holds:
        raise CaratheodoryFails(report.witness)
    basis = geom.basis
    if all(imp.premise.bit_count() <= 2 for imp in basis.implications):
        return basis

    units: list[tuple[int, int]] = []
    for imp in basis.implications:
        for b in iter_bits(imp.conclusion & ~imp.premise):
            if imp.premise.bit_count() <= 2:
                units.append((imp.premise, b))
                continue
            replacement = _generating_part(geom, list(iter_bits(imp.premise)), b, 2)
            if replacement is None:
                raise CaratheodoryFails(CaratheodoryWitness(imp.premise, b, 2))
            units.append((replacement, b))

    grouped: dict[int, int] = {}
    for premise, b in units:
        grouped[premise] = grouped.get(premise, 0) | (1 << b)
    implications = tuple(
        Implication(premise, grouped[premise] & ~premise)
        for premise in sorted(grouped, key=canonical_key)
        if grouped[premise] & ~premise
    )
    reduced = ImplicationBasis(basis.ground, implications)

    for seed in range(1 << geom.n):
        if reduced.closure(seed) != basis.closure(seed):
            raise AssertionError("binary reduction changed the closure operator")
    return reduced


@dataclass(frozen=True)
class ExRWitness:
    """An implication through a removed extreme point that its replacement misses.

    ``a`` is extreme in ``subset`` alongside ``b``; ``c`` replaces ``a`` once
    it is removed; ``y`` is generated by ``a`` (with ``z``) yet not by
    ``{c, z}``.
    """

    subset: int
    a: int
    b: int
    c: int
    y: int
    z: int

    def describe(self, ground: GroundSet) -> str:
        label = ground.labels
        return (
            f"X'={ground.format_set(self.subset)} a={label[self.a]} "
            f"b={label[self.b]} c={label[self.c]}: "
            f"{label[self.y]} follows from {label[self.a]} with "
            f"{label[self.z]} but not from {label[self.c]} with {label[self.z]}"
        )

    def verify(self, geom: ConvexGeometry) -> bool:
        """Recompute the witness from the definition."""
        return (
            geom.extreme_points(self.subset) == (1 << self.a) | (1 << self.b)
            and geom.extreme_points(self.subset & ~(1 << self.a))
            == (1 << self.c) | (1 << self.b)
            and not (geom.closure(1 << self.a) >> self.z) & 1
            and (
                (geom.closure(1 << self.a) >> self.y) & 1
                or (geom.closure((1 << self.a) | (1 << self.z)) >> self.y) & 1
            )
            and not (geom.closure((1 << self.c) | (1 << self.z)) >> self.y) & 1
        )


def check_exr(geom: ConvexGeometry, max_n: int = 15, closed_only: bool = False) -> PropertyReport:
    """Extreme-point replacement: the element replacing a removed extreme
    point inherits its implications.

    For a subset with extreme points ``{a, b}`` where removing ``a`` makes
    ``c`` extreme (``c != b``): whenever ``z`` is not generated by ``a`` but
    ``y`` is generated by ``a`` (alone or with ``z``), then ``{c, z}`` must
    generate ``y``.  Instances with ``c == b`` hold vacuously.
    """
    if closed_only:
        subsets = [s for s in closed_sets(geom) if s.bit_count() >= 2]
    else:
        subsets = _all_subsets(geom.ground.full, "check_exr", max_n, 2)
    return _pair_scan(geom, "ExR", subsets, _exr_violation)


def _exr_violation(geom: ConvexGeometry, subset: int, a: int, b: int) -> Optional[ExRWitness]:
    c = _replacement(geom, subset, a, b)
    if c is None:
        return None
    from_a = geom.closure(1 << a)
    rest = subset & ~(1 << a)
    for z in iter_bits(rest & ~from_a):
        from_az = geom.closure((1 << a) | (1 << z))
        from_cz = geom.closure((1 << c) | (1 << z))
        for y in iter_bits(rest & ~(1 << z)):
            if not ((from_a >> y) & 1 or (from_az >> y) & 1):
                continue
            if not (from_cz >> y) & 1:
                return ExRWitness(subset, a, b, c, y, z)
    return None


class GroundSetMismatch(SegrepError):
    """Two alignments over different ground sets cannot be joined."""


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


def closed_sets(geom: ConvexGeometry) -> tuple[int, ...]:
    """Every closed set of ``geom``, in canonical order: :func:`closed_family`
    sorted by ``core.canonical_key``, looked up at call time."""
    return tuple(sorted(closed_family(geom.basis), key=core.canonical_key))


def closed_sets_by_definition(basis: ImplicationBasis, max_n: int = 20) -> tuple[int, ...]:
    """Every subset equal to its closure, in canonical order, with no
    assumption on the basis."""
    subsets = _all_subsets(basis.ground.full, "closed_sets_by_definition", max_n)
    return tuple(s for s in subsets if basis.closure(s) == s)


def extendability_witness(basis: ImplicationBasis, max_n: int = 20):
    """Witness against the alignment-style definition, or None if it holds.

    The alternative definition asks that the empty set be closed and that
    every proper closed set grow by a single element inside the family.
    Returns ``("empty-set-not-closed", mask)`` or ``("no-extension", mask)``,
    the first dead end in canonical order.
    """
    empty = basis.closure(0)
    if empty:
        return ("empty-set-not-closed", empty)
    family = closed_sets_by_definition(basis, max_n=max_n)
    members, full = set(family), basis.ground.full
    for y in family:
        if y != full and not any(y | (1 << x) in members for x in iter_bits(full & ~y)):
            return ("no-extension", y)
    return None


def fixpoint(basis: ImplicationBasis, seed: int) -> int:
    """Fire every implication whose premise lies inside until nothing
    changes: the closure with none of the kernel's tables."""
    closed = seed
    while True:
        grown = closed
        for imp in basis.implications:
            if imp.premise & ~grown == 0:
                grown |= imp.conclusion
        if grown == closed:
            return closed
        closed = grown


def basis_tables_by_bits(basis: ImplicationBasis) -> dict:
    """The tables that ``ImplicationBasis`` loads before its block tables,
    by attribute name, built by visiting every premise bit and every gain
    bit in Python: the loop that loaded them before ``_adds`` came from a
    transposition of the gain rows."""
    n = basis.ground.n
    full = basis.ground.full
    uses = [0] * n
    adds = [0] * n
    rules: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    gains = []
    ruled = 0
    for i, imp in enumerate(basis.implications):
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
        rest = gain
        while rest:
            low = rest & -rest
            adds[low.bit_length() - 1] |= bit
            rest ^= low
    return {
        "_uses": tuple(uses),
        "_adds": tuple(adds),
        "_rules": tuple(tuple(r) for r in rules),
        "_gains": tuple(gains),
        "_ruled": ruled,
    }


def parse_geometry_reference(text: str) -> ImplicationBasis:
    """``cli.parse_geometry`` as it read each line before it tested for
    '#' first, split each line once and found '->' in one scan."""
    ground: GroundSet | None = None
    implications: list[Implication] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0], fields[1:]
        if keyword == "elements":
            if ground is not None:
                raise ParseError(lineno, "duplicate 'elements' line")
            if not args:
                raise ParseError(lineno, "'elements' needs at least one label")
            for label in args:
                if label in ("->", "∇") or any(c in label for c in ",{}"):
                    raise ParseError(lineno, f"{label!r} cannot be an element label")
            try:
                ground = GroundSet(tuple(args))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            bit = {label: 1 << i for i, label in enumerate(args)}
        elif keyword == "imp":
            if ground is None:
                raise ParseError(lineno, "'imp' before 'elements' line")
            if "->" not in args:
                raise ParseError(lineno, "'imp' needs '->' between premise and conclusion")
            arrow = args.index("->")
            if not arrow:
                raise ParseError(lineno, "empty premise side")
            if arrow == len(args) - 1:
                raise ParseError(lineno, "empty conclusion side")
            premise = conclusion = 0
            try:
                for label in args[:arrow]:
                    premise |= bit[label]
                for label in args[arrow + 1:]:
                    conclusion |= bit[label]
            except KeyError as exc:
                raise ParseError(lineno, f"unknown element {exc.args[0]!r}") from None
            implications.append(Implication(premise, conclusion))
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")
    if ground is None:
        raise ParseError(len(lines) + 1, "missing 'elements' line")
    return ImplicationBasis(ground, tuple(implications))


def kernel_mismatches(cases) -> list[tuple[ImplicationBasis, int]]:
    """The ``(basis, seed)`` pairs of ``cases``, given as ``(basis, seeds)``,
    where ``basis.closure(seed)`` differs from :func:`fixpoint`."""
    return [(basis, seed) for basis, seeds in cases for seed in seeds
            if basis.closure(seed) != fixpoint(basis, seed)]


def walk_by_definition(basis: ImplicationBasis) -> tuple:
    """``(walked, expected, family)``: the walk from the least closed set
    (:meth:`ImplicationBasis.closed_sets_by_extension`), what it must
    return, and :func:`closed_sets_by_definition`.  It must return the
    dead end of :func:`dead_end_by_definition` when there is one, and else
    the whole family."""
    family = closed_sets_by_definition(basis)
    walked = basis.closed_sets_by_extension(family[0])
    return walked, dead_end_by_definition(basis, family[0]) or set(family), family


def parts_by_definition(basis: ImplicationBasis) -> list[int]:
    """The classes of elements that share a rule, in its premise or its
    conclusion, as masks in the order of their least elements; an element
    that no rule names is a class of its own."""
    classes = [1 << i for i in range(basis.ground.n)]
    for imp in basis.implications:
        named = imp.premise | imp.conclusion
        if named:
            joined = sum(c for c in classes if c & named)
            classes = [c for c in classes if not c & named] + [joined]
    return sorted(classes, key=lambda c: c & -c)


def dead_end_by_definition(basis: ImplicationBasis, start: int):
    """``(y, part)``, the dead end that the closed-set walk from the closed
    set ``start`` must report, or None when it meets none.

    For each class of :func:`parts_by_definition` in turn, the sets reached
    from ``start``'s trace on it by closed one-element extensions inside it
    (a trace is closed when :func:`fixpoint` adds nothing to it in the
    class), one level at a time.  The first level that holds a dead end, a
    set short of the class with no such extension, gives its least dead
    end by members."""
    for part in parts_by_definition(basis):
        level = {start & part}
        while level:
            up, dead = set(), []
            for y in level:
                grown = [y | 1 << x for x in iter_bits(part & ~y)]
                closed = [s for s in grown if fixpoint(basis, s) & part == s]
                up.update(closed)
                if grown and not closed:
                    dead.append(y)
            if dead:
                return min(dead, key=lambda s: list(iter_bits(s))), part
            level = up
    return None


def anti_exchange_witness_by_definition(basis: ImplicationBasis):
    """The anti-exchange witness ``(y, x, z)`` that validation must name on
    a basis whose empty set is closed, or None when the walk from it meets
    no dead end.  At the dead end ``y`` in ``part`` of
    :func:`dead_end_by_definition`, ``x`` is the element of ``part - y``
    whose ``y + x`` has the smallest :func:`fixpoint` closure, the least on
    a tie, ``z`` the least element that closure adds to ``y + x``, and the
    pair comes back in increasing order."""
    found = dead_end_by_definition(basis, 0)
    if found is None:
        return None
    y, part = found
    closures = {e: fixpoint(basis, y | 1 << e) for e in iter_bits(part & ~y)}
    x = min(closures, key=lambda e: (closures[e].bit_count(), e))
    added = closures[x] & ~(y | 1 << x)
    z = (added & -added).bit_length() - 1
    return y, min(x, z), max(x, z)


def anti_exchange_mismatches(bases) -> list[ImplicationBasis]:
    """The bases of ``bases`` whose empty set is closed and on which
    ``geometry.closed_family``, looked up at call time, names another
    anti-exchange witness than :func:`anti_exchange_witness_by_definition`,
    or names one where it names none or the reverse."""
    mismatches = []
    for basis in bases:
        if fixpoint(basis, 0):
            continue
        try:
            geometry.closed_family(basis)
            witness = None
        except geometry.NotAGeometry as err:
            witness = err.witness
        if witness != anti_exchange_witness_by_definition(basis):
            mismatches.append(basis)
    return mismatches


def index_mismatches(geoms) -> list[tuple[ImplicationBasis, int]]:
    """The ``(basis, closed)`` pairs, over every closed set of each of
    ``geoms``, where a fresh geometry with its pair table filled answers
    extreme points otherwise than one pass over the basis."""
    mismatches = []
    for geom in geoms:
        basis = geom.basis
        fresh = ConvexGeometry(basis)
        fresh.pair_closures()
        mismatches += [(basis, closed) for closed in closed_family(basis)
                       if fresh.extreme_points_of_closed(closed)
                       != basis.extreme_points_of_closed(closed)]
    return mismatches


def verify_mismatches(cases) -> list[tuple[ConvexGeometry, SegmentRepresentation]]:
    """The ``(geom, rep)`` pairs of ``cases`` on which
    ``verify_representation`` answers otherwise than
    :func:`verify_representation_by_pairs`, witness included."""
    return [(geom, rep) for geom, rep in cases
            if representation.verify_representation(geom, rep)
            != verify_representation_by_pairs(geom, rep)]


def sq_recheck_faults(geom: ConvexGeometry) -> list[str]:
    """Plant in the index of ``geom``, which must fail Sq, the entry that a
    forged witness needs: the failing report's own, with its observed set
    replaced by ``{c}``.  Then re-check both witnesses, which must read the
    basis: the faults are the true one failing or asking other than four
    closures, and the forged one verifying."""
    report = properties.check_sq(geom)
    w = report.witness
    forged = SqWitness(w.subset, w.a, w.b, w.c, w.d, 1 << w.c)
    geom._extreme[geom.closure(w.subset & ~(1 << w.b))] = forged.observed
    faults = []
    calls = geom.closure_calls
    if not properties.verify_witness(geom, report):
        faults.append("the true witness fails")
    if geom.closure_calls != calls + 4:
        faults.append(f"the re-check asked {geom.closure_calls - calls} closures")
    if properties.verify_witness(geom, PropertyReport("Sq", forged)):
        faults.append("the forged witness verifies")
    return faults


def peel_and_scan_faults(geom: ConvexGeometry, passes: list) -> list[str]:
    """Decide, ``check_sq``, build and reconstruct on ``geom``, which must
    be a yes.  ``passes`` lists the closed sets whose extreme points are
    read off the basis.  After decide, every extreme-point set of a yes is
    an index entry, so each set listed is a fault, and so is a build or a
    reconstruction asking other than one closure per walk step, 2n."""
    passes.clear()
    faults = []
    if not (properties.decide_cdim2(geom).cdim2 and properties.check_sq(geom).holds):
        faults.append("not a yes")
    for stage in (representation.build_representation, uniqueness.reconstruct_by_peeling):
        calls = geom.closure_calls
        try:
            stage(geom)
        except NotApplicable as exc:
            if exc.outcomes < 2:
                faults.append("no representation")
        if geom.closure_calls != calls + 2 * geom.n:
            faults.append(f"{stage.__name__} asked {geom.closure_calls - calls} closures")
    return faults + [f"extreme points of {closed:#x} read off the basis" for closed in passes]


def sq_scan_mismatches(geoms) -> list[ImplicationBasis]:
    """The bases of ``geoms`` on which ``check_sq`` and
    :func:`check_sq_by_pair_scan` give different reports, witness
    included."""
    return [geom.basis for geom in geoms
            if properties.check_sq(geom).witness != check_sq_by_pair_scan(geom).witness]


def block_cache_mismatches(pairs) -> list[SegmentRepresentation]:
    """The representations of ``(geom, rep)`` ``pairs`` whose second block
    decomposition is not the tuple of the first, or differs from that of
    a fresh representation of the same chains."""
    def fields(blocks):
        return [(b.start, b.end, b.members, b.left_sub, b.right_sub) for b in blocks]

    mismatches = []
    for _geom, rep in pairs:
        blocks = uniqueness.block_decomposition(rep)
        fresh = SegmentRepresentation(rep.left, rep.right)
        if (uniqueness.block_decomposition(rep) is not blocks
                or fields(uniqueness.block_decomposition(fresh)) != fields(blocks)):
            mismatches.append(rep)
    return mismatches


class DuplicateEndpoint(SegrepError):
    """Interval input with coinciding endpoints cannot be normalized."""


def normalize_layout(intervals) -> SegmentRepresentation:
    """Read a representation off arbitrary segments on a line.

    When the segments do not already share a common point, the right
    endpoints are first shifted by a uniform constant so they do (the shift
    preserves containment of left and of right endpoints separately, hence
    the induced closure).  The chains are then the elements by descending
    left endpoint and ascending right endpoint.  All 2n endpoints must be
    distinct and each interval non-degenerate.
    """
    starts = [float(a) for a, _ in intervals]
    ends = [float(b) for _, b in intervals]
    for a, b in zip(starts, ends):
        if not a < b:
            raise DuplicateEndpoint(f"degenerate interval [{a}, {b}]")
    endpoints = starts + ends
    if len(set(endpoints)) != len(endpoints):
        raise DuplicateEndpoint("segments must not share endpoints")
    if intervals and min(ends) < max(starts):
        shift = (max(starts) - min(ends)) + 1.0
        ends = [b + shift for b in ends]
    order = range(len(starts))
    left = tuple(sorted(order, key=lambda e: -starts[e]))
    right = tuple(sorted(order, key=lambda e: ends[e]))
    return SegmentRepresentation(left, right)


def parse_layout_table(ground: GroundSet, text: str) -> SegmentRepresentation:
    """Re-read a layout table into its canonical representation.

    Line numbers in errors count from the header line; a missing element is
    reported at the line after the table, a repeated one at its second row.
    """
    lines = text.strip().splitlines()
    intervals: dict[int, tuple[float, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            label, lo, hi = line.split()
            interval = (float(lo), float(hi))
            e = ground.index(label)
        except (ValueError, SegrepError) as exc:
            raise ParseError(lineno, f"bad layout row ({exc})") from None
        if e in intervals:
            raise ParseError(lineno, f"second row for element {label!r}")
        intervals[e] = interval
    for e in range(ground.n):
        if e not in intervals:
            raise ParseError(len(lines) + 1, f"no row for element {ground.labels[e]!r}")
    return normalize_layout([intervals[e] for e in range(ground.n)])
