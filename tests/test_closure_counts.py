"""Closure calls per stage, stated as formulas in n and the basis."""

import random
from itertools import combinations

import pytest

from segrep import (
    ConvexGeometry,
    ImplicationBasis,
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


def _calls(kernel, geom, run, *args):
    """The closure calls that ``run(*args)`` makes on ``geom``, and its
    result.  ``kernel`` logs every kernel call, so none may pass the count by."""
    before, logged = geom.closure_calls, len(kernel)
    result = run(*args)
    calls = geom.closure_calls - before
    assert len(kernel) - logged == calls, f"{run.__name__} bypassed the count"
    return calls, result


def _fresh(kernel, basis, run, *args):
    """``_calls`` of ``run(geom, *args)`` on a fresh geometry of ``basis``."""
    geom = ConvexGeometry(basis)
    return _calls(kernel, geom, run, geom, *args)


def _reconstruct(geom):
    """``reconstruct_by_peeling`` on a representable geometry: its chain
    pair, or the number of representations when there are more than one."""
    try:
        return reconstruct_by_peeling(geom)
    except NotApplicable as exc:
        assert exc.outcomes > 1
        return exc.outcomes


@pytest.mark.parametrize("source", ["pool_small", "pool_n6", "fixtures", "chain-pairs"])
def test_closure_calls_per_stage_follow_their_formulas(request, monkeypatch, source):
    # on a fresh geometry, the closure table costs the n singletons and each
    # pair that neither singleton closure holds: a first decide, or
    # `check_sq` alone, pays it, and a second decide asks nothing.  On a
    # yes, the build then asks the walk's one extreme-point query per step,
    # 2n in all, or pays the table first when nothing filled it;
    # verification reads the table, or pays it alone, and the block counts
    # read the representation.  Reconstruction runs the same walk, whether
    # it returns or finds more than one representation, and pays the table
    # alone for its verification.  Every kernel call is counted
    if source == "fixtures":
        geoms = [load_fixture(name).geometry for name in FIXTURE_NAMES]
    elif source == "chain-pairs":
        rng = random.Random(64)
        geoms = [seeded_chain_pair(rng, n)[0] for n in range(6, 65)]
    else:
        geoms = request.getfixturevalue(source)
    kernel = []
    closure = ImplicationBasis.closure
    monkeypatch.setattr(ImplicationBasis, "closure",
                        lambda basis, seed: kernel.append(seed) or closure(basis, seed))
    representable = 0
    for index, basis in enumerate(g.basis for g in geoms):
        geom = ConvexGeometry(basis)
        n = geom.n
        own = [closure(basis, 1 << i) for i in range(n)]
        table = n + sum(not (own[i] >> j) & 1 and not (own[j] >> i) & 1
                        for i, j in combinations(range(n), 2))
        seen = {}
        seen["decide"], decision = _calls(kernel, geom, decide_cdim2, geom)
        seen["decide_again"], _ = _calls(kernel, geom, decide_cdim2, geom)
        seen["check_sq_alone"], _ = _fresh(kernel, basis, check_sq)
        expected = dict(decide=table, decide_again=0, check_sq_alone=table)
        if decision.cdim2:
            representable += 1
            seen["build"], rep = _calls(kernel, geom, build_representation, geom)
            seen["verify"], _ = _calls(kernel, geom, verify_representation, geom, rep)
            seen["blocks"] = sum(_calls(kernel, geom, stage, rep)[0] for stage in (
                count_representations, is_unique, enumerate_representations))
            seen["reconstruct"], _ = _calls(kernel, geom, _reconstruct, geom)
            seen["build_alone"], _ = _fresh(kernel, basis, build_representation)
            seen["verify_alone"], _ = _fresh(kernel, basis, verify_representation, rep)
            seen["reconstruct_alone"], _ = _fresh(kernel, basis, _reconstruct)
            expected.update(build=2 * n, verify=0, blocks=0, reconstruct=2 * n,
                            build_alone=table + 2 * n, verify_alone=table,
                            reconstruct_alone=2 * n + table)
        assert seen == expected, f"{source}[{index}], n = {n}"
    assert representable
