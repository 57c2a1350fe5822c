"""Basis invariance: a verdict depends on the closure operator alone, not on
the implications that state it.  Every geometry here comes with three bases
of one closure operator: the one it is given with (the pairwise basis of a
chain pair, or a fixture file's), the split basis with one gain element per
rule, and the given basis padded with implied rules.  The CLI must print the
same report from each, and on the split bases, whose rules chain through
one another, the kernel runs its second round and its worklist at sizes
that the chain-pair bases never take it to."""

import contextlib
import io
import json
import random
from functools import cache

import pytest

from segrep.cli import main, parse_geometry
from fixtures import (
    FIXTURE_NAMES, basis_text, fixture_text, padded_basis, seeded_chain_pair, split_basis,
)
from oracles import fixpoint

CHAIN_NS = (12, 16, 24, 32)
NAMES = [f"chain-{n}-{k}" for n in CHAIN_NS for k in range(3)] + list(FIXTURE_NAMES)


@cache
def given_bases():
    """Three seeded chain pairs for each n of :data:`CHAIN_NS`, drawn in
    turn from one generator, then the fixtures: name -> basis."""
    rng = random.Random(8)
    bases = [seeded_chain_pair(rng, n)[0].basis for n in CHAIN_NS for _ in range(3)]
    bases += [parse_geometry(fixture_text(name)) for name in FIXTURE_NAMES]
    return dict(zip(NAMES, bases))


def reports(tmp_path, basis):
    """command -> (exit code, ``--json`` report, stderr) of ``check``,
    ``represent`` and ``unique`` with the guard at n, without the report
    fields that describe the file or its basis."""
    path = tmp_path / "basis.geom"
    path.write_text(basis_text(basis))
    out = {}
    for command in ("check", "represent", "unique"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, str(path), "--json", "--max-n", str(basis.ground.n)])
        report = json.loads(stdout.getvalue())
        for key in ("input", "sha256", "implications", "basis_size"):
            del report[key]
        out[command] = code, report, stderr.getvalue()
    return out


@pytest.mark.parametrize("name", NAMES)
def test_reports_do_not_depend_on_the_basis(tmp_path, name):
    basis = given_bases()[name]
    split = split_basis(basis)
    padded = padded_basis(basis, random.Random(name))
    expected = reports(tmp_path, basis)
    assert reports(tmp_path, split) == expected
    assert reports(tmp_path, padded) == expected


def rounds(basis, seed):
    """The rounds that fire every rule whose premise the set holds, until
    one adds nothing: the kernel's worklist adds to the set when more
    than two rounds add."""
    closed, count = seed, 0
    while True:
        grown = closed
        for imp in basis.implications:
            if not imp.premise & ~closed:
                grown |= imp.conclusion
        if grown == closed:
            return count
        closed, count = grown, count + 1


@pytest.mark.parametrize("name", NAMES)
def test_kernel_on_split_bases_matches_the_fixpoint(name):
    split = split_basis(given_bases()[name])
    n = split.ground.n
    if name.startswith("chain"):
        assert max(rounds(split, 1 << i) for i in range(n)) > 2
    for i in range(n):
        for j in range(i, n):
            seed = 1 << i | 1 << j
            assert split.closure(seed) == fixpoint(split, seed), (name, i, j)
