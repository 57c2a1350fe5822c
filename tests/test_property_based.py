"""Property-based differential tests: the closure kernel against a naive
fixpoint (on small random bases, on wide chain-pair bases and on long
implication chains), the basis tables against the loop over every premise
and gain bit on the small random bases, the pair table against the kernel
on the wide bases, extreme points against their definition, before and
after decide, and the extreme-point index against the basis on the wide bases that are convex
geometries, the closed-set walk against the brute-force family on the wide
bases with n <= 10, the polynomial decision and builder against the
brute-force oracle on generated bases with n <= 7, and the round trip from a
chain pair through its basis back to the chain pair with n <= 10."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from segrep import (  # noqa: E402
    ConvexGeometry,
    GroundSet,
    Implication,
    ImplicationBasis,
    NotAGeometry,
    NotApplicable,
    SegmentRepresentation,
    build_representation,
    closed_family,
    count_representations,
    decide_cdim2,
    enumerate_representations,
    reconstruct_by_peeling,
    validate_geometry,
    verify_representation,
)
from fixtures import geometry_from_chains  # noqa: E402
from oracles import (  # noqa: E402
    anti_exchange_witness_by_definition, basis_tables_by_bits, brute_force_cdim2,
    dead_end_by_definition, extreme_points_by_definition, fixpoint,
    verify_representation_exhaustive,
)


def ground(n):
    return GroundSet(tuple(f"e{i}" for i in range(n)))


@st.composite
def random_bases(draw):
    """Up to eight single-conclusion implications over up to seven elements."""
    n = draw(st.integers(1, 7))
    rules = draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, n - 1)),
                          max_size=8))
    imps = tuple(Implication(premise & ~(1 << z), 1 << z) for premise, z in rules)
    return ImplicationBasis(ground(n), imps)


@st.composite
def chain_pair_bases(draw):
    """Bases of geometries drawn from two chains; always representable."""
    n = draw(st.integers(1, 7))
    left = draw(st.permutations(range(n)))
    right = draw(st.permutations(range(n)))
    return geometry_from_chains(ground(n), left, right).basis


@st.composite
def kernel_cases(draw):
    """A basis with n <= 12 and some seeds: empty premises, conclusions that
    overlap their premise, duplicate implications and m = 0 all occur."""
    n = draw(st.integers(0, 12))
    full = (1 << n) - 1
    subsets = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    imps = draw(st.lists(st.builds(Implication, subsets, subsets), max_size=16))
    if imps:
        imps += draw(st.lists(st.sampled_from(imps), max_size=4))
    seeds = [0, full] + draw(st.lists(st.integers(0, full), max_size=6))
    return ImplicationBasis(ground(n), tuple(draw(st.permutations(imps)))), seeds


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_closure_matches_naive_fixpoint(case):
    basis, seeds = case
    for seed in seeds:
        assert basis.closure(seed) == fixpoint(basis, seed)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_basis_tables_match_the_bit_loop(case):
    basis, _seeds = case
    tables = basis_tables_by_bits(basis)
    assert {name: getattr(basis, name) for name in tables} == tables


@st.composite
def wide_bases(draw):
    """The pairwise basis of a chain pair with n <= 16, plus an implication
    chain and up to four random implications, and some seeds.  Every exit of
    the kernel occurs: the first round fires nothing, the second fires
    nothing, and the second fires so that the worklist finishes."""
    n = draw(st.integers(1, 16))
    full = (1 << n) - 1
    left = draw(st.permutations(range(n)))
    right = draw(st.permutations(range(n)))
    imps = list(geometry_from_chains(ground(n), left, right).basis.implications)
    order = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    imps += [Implication(1 << a, 1 << b) for a, b in zip(order, order[1:])]
    subsets = st.integers(0, full)
    imps += draw(st.lists(st.builds(Implication, subsets, subsets), max_size=4))
    singletons = st.integers(0, n - 1).map(lambda i: 1 << i)
    seeds = [0, full] + draw(st.lists(st.one_of(subsets, singletons), max_size=6))
    return ImplicationBasis(ground(n), tuple(imps)), seeds


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(wide_bases())
def test_closure_on_wide_bases_matches_naive_fixpoint(case):
    basis, seeds = case
    for seed in seeds:
        assert basis.closure(seed) == fixpoint(basis, seed)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(wide_bases())
def test_pair_table_on_wide_bases_matches_the_kernel(case):
    # filled from the singleton closures, n symmetric rows with C_i at
    # [i][i], on geometries and other bases alike
    basis, _seeds = case
    n = basis.ground.n
    rows = ConvexGeometry(basis).pair_closures()
    assert rows == [
        [basis.closure((1 << i) | (1 << j)) for j in range(n)] for i in range(n)
    ]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(wide_bases())
def test_extreme_points_on_wide_geometries_match_the_definition(case):
    basis, seeds = case
    try:
        geom = validate_geometry(basis)
    except NotAGeometry:
        assume(False)
    for seed in seeds:
        closed = geom.closure(seed)
        for subset in (seed, closed):
            assert geom.extreme_points(subset) == extreme_points_by_definition(geom, subset)
    # once more through the extreme-point index that decide fills
    decide_cdim2(geom)
    for seed in seeds:
        closed = geom.closure(seed)
        for subset in (seed, closed):
            assert geom.extreme_points(subset) == extreme_points_by_definition(geom, subset)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(wide_bases())
def test_extreme_index_on_wide_geometries_matches_the_basis(case):
    # after the pair table, on every closed set of the family
    basis, _seeds = case
    try:
        geom = validate_geometry(basis)
    except NotAGeometry:
        assume(False)
    geom.pair_closures()
    for closed in closed_family(basis):
        assert geom.extreme_points_of_closed(closed) == basis.extreme_points_of_closed(closed)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(wide_bases())
def test_closed_set_walk_on_wide_bases_matches_the_brute_force_family(case):
    # the walk gives the whole family, or the dead end of the oracle's walk
    # when some closed set other than the ground set has no closed
    # one-element extension; validation names the oracle's witness there
    basis, _seeds = case
    assume(basis.ground.n <= 10)
    full = basis.ground.full
    family = {s for s in range(full + 1) if basis.closure(s) == s}
    start = basis.closure(0)
    walked = basis.closed_sets_by_extension(start)
    assert walked == (dead_end_by_definition(basis, start) or family)
    if start == 0 and isinstance(walked, tuple):
        with pytest.raises(NotAGeometry) as err:
            validate_geometry(basis)
        assert err.value.witness == anti_exchange_witness_by_definition(basis)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((60, 120)).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.integers(0, n - 1))))
def test_closure_follows_long_implication_chains(case):
    # order[0] -> order[1] -> ... -> order[n-1], over shuffled indices, so
    # the worklist pass runs up to n - 1 steps deep
    order, start = case
    n = len(order)
    imps = tuple(Implication(1 << a, 1 << b) for a, b in zip(order, order[1:]))
    basis = ImplicationBasis(ground(n), imps)
    expected = fixpoint(basis, 1 << order[start])
    assert expected == sum(1 << e for e in order[start:])
    assert basis.closure(1 << order[start]) == expected
    assert basis.closure(1 << order[0]) == basis.ground.full
    assert basis.closure(0) == 0


@pytest.mark.parametrize("n", [0, 1, 5])
def test_elements_outside_the_ground_set_are_rejected(n):
    basis = ImplicationBasis(ground(n), ())
    with pytest.raises(ValueError):
        basis.closure(1 << n)
    for imp in (Implication(1 << n, 0), Implication(0, 1 << n)):
        with pytest.raises(ValueError):
            ImplicationBasis(ground(n), (imp,))


def convex_or_none(basis):
    try:
        return validate_geometry(basis)
    except NotAGeometry:
        return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(random_bases(), chain_pair_bases()))
def test_decision_matches_brute_force_and_build_verifies(basis):
    geom = convex_or_none(basis)
    assume(geom is not None)
    brute = brute_force_cdim2(geom)
    decision = decide_cdim2(geom)
    assert decision.cdim2 == brute.cdim2
    if decision.cdim2:
        rep = build_representation(geom)
        assert verify_representation_exhaustive(geom, rep) == (True, None)
        assert rep in brute.representations


def switchable_blocks(left, right):
    """Blocks of the chain pair (position ranges where both chains hold the
    same elements) whose two sub-chains differ."""
    count = start = 0
    seen_l = seen_r = 0
    for pos, (x, y) in enumerate(zip(left, right), start=1):
        seen_l |= 1 << x
        seen_r |= 1 << y
        if seen_l == seen_r:
            count += left[start:pos] != right[start:pos]
            start = pos
    return count


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_chain_pair_round_trip(chains):
    left, right = chains
    expected = SegmentRepresentation(left, right)
    geom = geometry_from_chains(ground(len(left)), left, right)
    assert decide_cdim2(geom).cdim2
    rep = build_representation(geom)
    assert verify_representation(geom, rep) == (True, None)
    s = switchable_blocks(left, right)
    count = count_representations(rep)
    assert count == 2 ** max(s - 1, 0)
    reps = enumerate_representations(rep)
    assert len(reps) == count and expected in reps
    if count == 1:
        assert reconstruct_by_peeling(geom) == expected
    else:
        with pytest.raises(NotApplicable) as err:
            reconstruct_by_peeling(geom)
        assert err.value.outcomes == count
