"""Closure calls per stage, stated as formulas in n and the basis."""

import random
from itertools import combinations

import pytest

from segrep import (
    ConvexGeometry,
    NotApplicable,
    build_representation,
    check_sq,
    count_representations,
    decide_cdim2,
    enumerate_representations,
    is_unique,
    reconstruct_by_peeling,
    verify_representation,
)
from fixtures import FIXTURE_NAMES, load_fixture, seeded_chain_pair


def _calls(geom, run, *args):
    """The closure calls that ``run(*args)`` makes on ``geom``, and its result."""
    before = geom.closure_calls
    result = run(*args)
    return geom.closure_calls - before, result


def _reconstruct(geom):
    """``reconstruct_by_peeling`` on a representable geometry: its chain
    pair, or the number of representations when there are more than one."""
    try:
        return reconstruct_by_peeling(geom)
    except NotApplicable as exc:
        assert exc.outcomes > 1
        return exc.outcomes


@pytest.mark.parametrize("source", ["pool_small", "pool_n6", "fixtures", "chain-pairs"])
def test_closure_calls_per_stage_follow_their_formulas(request, source):
    # on a fresh geometry, the closure table costs the n singletons and each
    # pair that neither singleton closure holds: a first decide, or
    # `check_sq` alone, pays it, and a second decide asks nothing.  On a
    # yes, the build then asks one extreme-point query per peeled point, or
    # pays the table first when nothing filled it; verification reads the
    # table, and the block counts read the representation alone.
    # Reconstruction asks one extreme-point query per step, 2n in all,
    # whether it returns or finds more than one representation
    if source == "fixtures":
        geoms = [load_fixture(name).geometry for name in FIXTURE_NAMES]
    elif source == "chain-pairs":
        rng = random.Random(64)
        geoms = [seeded_chain_pair(rng, n)[0] for n in range(6, 65)]
    else:
        geoms = request.getfixturevalue(source)
    representable = 0
    for index, basis in enumerate(g.basis for g in geoms):
        geom = ConvexGeometry(basis)
        n = geom.n
        own = [basis.closure(1 << i) for i in range(n)]
        table = n + sum(not (own[i] >> j) & 1 and not (own[j] >> i) & 1
                        for i, j in combinations(range(n), 2))
        seen = {}
        seen["decide"], decision = _calls(geom, decide_cdim2, geom)
        seen["decide_again"], _ = _calls(geom, decide_cdim2, geom)
        alone = ConvexGeometry(basis)
        seen["check_sq_alone"], _ = _calls(alone, check_sq, alone)
        expected = dict(decide=table, decide_again=0, check_sq_alone=table)
        if decision.cdim2:
            representable += 1
            seen["build"], rep = _calls(geom, build_representation, geom)
            seen["verify"], _ = _calls(geom, verify_representation, geom, rep)
            seen["blocks"] = sum(_calls(geom, stage, rep)[0] for stage in (
                count_representations, is_unique, enumerate_representations))
            seen["reconstruct"], _ = _calls(geom, _reconstruct, geom)
            alone = ConvexGeometry(basis)
            seen["build_alone"], _ = _calls(alone, build_representation, alone)
            peel = max(n - 1, 0)
            expected.update(build=peel, verify=0, blocks=0, reconstruct=2 * n,
                            build_alone=table + peel)
        assert seen == expected, f"{source}[{index}], n = {n}"
    assert representable
