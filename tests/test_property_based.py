"""Property-based differential tests: the polynomial decision and builder
against the brute-force oracle on generated bases with n <= 7."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from segrep import (  # noqa: E402
    GroundSet,
    Implication,
    ImplicationBasis,
    NotAGeometry,
    brute_force_cdim2,
    build_representation,
    decide_cdim2,
    geometry_from_chains,
    validate_geometry,
    verify_representation,
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
        assert verify_representation(geom, rep, exhaustive=True) == (True, None)
        assert rep in brute.representations
