"""Shared sample pools for the randomized differential tests.

Pools are generated once per session from fixed seeds, so every run sees the
same geometries.  Generation is rejection sampling; seeds that fail to
produce a convex geometry within the budget are skipped deterministically.
"""

from __future__ import annotations

import random

import pytest

from segrep import (
    GroundSet,
    ImplicationBasis,
    Infeasible,
    build_representation,
    check_2ex,
    enumerate_representations,
)
from fixtures import (
    FIXTURE_NAMES,
    RejectionBudgetExceeded,
    geometry_from_chains,
    load_fixture,
    random_geometry,
)

DENSITIES = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4)


def sample_pool(ns, per_cell, seed_base):
    pool = []
    seed = seed_base
    for n in ns:
        for density in DENSITIES:
            for _ in range(per_cell):
                seed += 1
                try:
                    pool.append(random_geometry(n, seed, density, budget=500))
                except RejectionBudgetExceeded:
                    continue
    return pool


def chain_pool(count, max_n, seed):
    """Geometries built from explicit chain pairs; always representable."""
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        left = list(range(n))
        right = list(range(n))
        rng.shuffle(left)
        rng.shuffle(right)
        ground = GroundSet(tuple("abcdefghij"[:n]))
        pool.append(geometry_from_chains(ground, left, right))
    return pool


@pytest.fixture(scope="session")
def pool_small():
    """At least 1000 random convex geometries with n <= 5."""
    pool = sample_pool((2, 3, 4, 5), per_cell=40, seed_base=0)
    assert len(pool) >= 1000
    return pool


@pytest.fixture(scope="session")
def pool_n6():
    """At least 500 random convex geometries with n <= 6."""
    pool = sample_pool((3, 4, 5, 6), per_cell=25, seed_base=100_000)
    assert len(pool) >= 500
    return pool


@pytest.fixture(scope="session")
def pool_two_ex(pool_n6):
    """At least 500 geometries with n <= 6 satisfying the two-extreme bound."""
    passing = [g for g in pool_n6 if check_2ex(g).holds]
    filler = chain_pool(max(0, 500 - len(passing)), max_n=6, seed=424242)
    pool = passing + filler
    assert len(pool) >= 500
    return pool


@pytest.fixture(scope="session")
def pool_representations(pool_small):
    """``(geometry, representation)`` for every representation of every
    representable geometry in ``pool_small`` and the fixtures: the built
    one first, then each output of ``enumerate_representations``."""
    geoms = pool_small + [load_fixture(name).geometry for name in FIXTURE_NAMES]
    pairs = []
    for geom in geoms:
        try:
            rep = build_representation(geom)
        except Infeasible:
            continue
        pairs += [(geom, r) for r in (rep, *enumerate_representations(rep))]
    return pairs


@pytest.fixture()
def basis_passes(monkeypatch):
    """Closed sets whose extreme points are read off the basis, in call order."""
    passes = []
    original = ImplicationBasis.extreme_points_of_closed

    def counting(basis, closed):
        passes.append(closed)
        return original(basis, closed)

    monkeypatch.setattr(ImplicationBasis, "extreme_points_of_closed", counting)
    return passes
