"""Fixture corpus loading and the randomized generator."""

import random

import pytest

from segrep import (
    GroundSet,
    Implication,
    SegmentRepresentation,
    check_2ex,
    decide_cdim2,
    segment_closure,
)
from fixtures import (
    FIXTURE_NAMES,
    RejectionBudgetExceeded,
    UnknownFixture,
    geometry_from_chains,
    load_fixture,
    random_geometry,
)


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_expectations_reverify_on_load(self, name):
        fixture = load_fixture(name)
        assert fixture.name == name
        assert decide_cdim2(fixture.geometry).cdim2 == fixture.cdim2

    def test_unknown_name(self):
        with pytest.raises(UnknownFixture):
            load_fixture("nope")

    def test_decisions(self):
        assert not load_fixture("notsuf").cdim2
        assert load_fixture("un").cdim2
        assert load_fixture("switch").cdim2

    def test_fivepoint_ships_its_stated_basis(self):
        fixture = load_fixture("fivepoint")
        gs = fixture.geometry.ground
        assert fixture.geometry.basis.implications == (
            Implication(gs.mask("bc"), gs.mask("d")),
            Implication(gs.mask("ad"), gs.mask("x")),
        )

    def test_triangle_ships_its_stated_basis(self):
        fixture = load_fixture("triangle")
        gs = fixture.geometry.ground
        assert fixture.geometry.basis.implications == (
            Implication(gs.mask("ab"), gs.mask("x")),
        )


class TestGeometryFromChains:
    def test_beyond_the_default_guard(self):
        # 24 elements: past validate_geometry's default guard of 20
        rng = random.Random(24)
        left, right = rng.sample(range(24), 24), rng.sample(range(24), 24)
        geom = geometry_from_chains(GroundSet(tuple(f"e{i}" for i in range(24))), left, right)
        rep = SegmentRepresentation(left, right)
        assert geom.n == 24
        for x in range(24):
            for y in range(x, 24):
                seed = (1 << x) | (1 << y)
                assert geom.closure(seed) == segment_closure(rep, seed)


class TestRandomGeometry:
    def test_single_element(self):
        geom = random_geometry(1, seed=5)
        assert geom.n == 1 and geom.basis.m == 0

    def test_density_zero_is_free(self):
        geom = random_geometry(3, seed=0, density=0.0)
        assert geom.basis.m == 0
        assert not decide_cdim2(geom).cdim2
        assert not check_2ex(geom).holds

    def test_deterministic_per_seed(self):
        a = random_geometry(5, seed=77, density=0.2)
        b = random_geometry(5, seed=77, density=0.2)
        assert a.ground.labels == b.ground.labels
        assert a.basis.implications == b.basis.implications
        c = random_geometry(5, seed=78, density=0.2)
        assert c.basis.implications != a.basis.implications

    def test_budget_exceeded_is_loud(self):
        with pytest.raises(RejectionBudgetExceeded):
            # density 1 wires every element to every other; never a geometry
            random_geometry(4, seed=0, density=1.0, budget=5)
