"""The work the benchmark times: segrep's library pipeline and its CLI.

Functions are looked up on their modules at call time, so the span
wrappers of a traced run (``layers.install``) see every call.
"""

from __future__ import annotations

import subprocess
import sys

from segrep import cli, geometry, properties, representation, uniqueness
from segrep.geometry import NotAGeometry
from segrep.uniqueness import NotApplicable

from gen import NO, NOT_A_GEOMETRY, YES


def run_library(text: str, max_n: int) -> dict:
    """One verdict from file text, the way ``segrep unique`` reaches it,
    followed by every uniqueness query on a yes and a witness re-check on
    a no.  Returns segrep's own result objects."""
    basis = cli.parse_geometry(text)
    try:
        geom = geometry.validate_geometry(basis, max_n=max_n)
    except NotAGeometry as exc:
        return {"verdict": NOT_A_GEOMETRY, "error_object": exc}
    decision = properties.decide_cdim2(geom)
    if not decision.cdim2:
        failing = [r for r in (decision.two_ex, decision.sq) if not r.holds]
        verified = [properties.verify_witness(geom, r) for r in failing]
        return {"verdict": NO, "decision": decision, "failing": failing, "verified": verified}
    rep = representation.build_representation(geom)
    count = uniqueness.count_representations(rep)
    report = uniqueness.is_unique(rep)
    reps = uniqueness.enumerate_representations(rep)
    try:
        rebuilt = uniqueness.reconstruct_by_peeling(geom)
    except NotApplicable:
        rebuilt = None
    return {
        "verdict": YES, "decision": decision, "rep": rep, "count": count,
        "unique": report.unique, "reps": reps, "rebuilt": rebuilt,
    }


def _witness(w) -> dict:
    if hasattr(w, "triple"):
        return {"kind": "TwoEx", "triple": w.triple}
    return {
        "kind": "Sq", "subset": w.subset, "a": w.a, "b": w.b, "c": w.c, "d": w.d,
        "observed": w.observed,
    }


def _chains(rep):
    return (tuple(rep.left), tuple(rep.right))


def answer(raw: dict) -> dict:
    """Plain-data form of ``run_library``'s result, for the reference checker."""
    verdict = raw["verdict"]
    if verdict == NOT_A_GEOMETRY:
        exc = raw["error_object"]
        return {"verdict": verdict, "reason": exc.reason, "witness": exc.witness}
    out = {"verdict": verdict, "two_ex": raw["decision"].two_ex.holds}
    if verdict == NO:
        out["witnesses"] = [_witness(r.witness) for r in raw["failing"]]
        out["witness_verified"] = list(raw["verified"])
        return out
    rebuilt = raw["rebuilt"]
    out.update(
        representation=_chains(raw["rep"]),
        count=raw["count"],
        unique=raw["unique"],
        representations=[_chains(r) for r in raw["reps"]],
        reconstructed=None if rebuilt is None else _chains(rebuilt),
    )
    return out


def run_cli(argv_prefix: list[str], command: str, path: str, max_n: int, env, cwd):
    """One CLI process; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, *argv_prefix, command, "--json", "--max-n", str(max_n), path],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr
