"""Reference checker: re-derives every verdict from the definitions.

Nothing here imports segrep.  Closure is a naive fixpoint over the
generator's own implications, and a representation is checked by the
certificate argument: two chains ρ equal the basis closure φ on every
subset when they agree on all seeds of size at most 2 and every
implication ``A -> B`` satisfies ``B ⊆ ρ(A)``.

Each ``check_*`` function returns a list of problems; an empty list means
the answer is right.  Answers are plain data (see ``pipeline.answer``), so
tests can plant wrong ones.
"""

from __future__ import annotations

import json
import re

from gen import NO, NOT_A_GEOMETRY, YES, Case


def closure(imps, seed: int) -> int:
    """Least superset of ``seed`` closed under ``imps``, by repeated passes."""
    closed = seed
    changed = True
    while changed:
        changed = False
        for premise, conclusion in imps:
            if not premise & ~closed and conclusion & ~closed:
                closed |= conclusion
                changed = True
    return closed


def extreme_points(imps, subset: int) -> int:
    out = 0
    for x in _bits(subset):
        if not (closure(imps, subset & ~(1 << x)) >> x) & 1:
            out |= 1 << x
    return out


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def small_seeds(n: int) -> list[int]:
    seeds = [0] + [1 << i for i in range(n)]
    seeds.extend((1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n))
    return seeds


def pair_table(case: Case) -> dict[int, int]:
    """Reference closure of every seed of size <= 2."""
    return {seed: closure(case.implications, seed) for seed in small_seeds(case.n)}


def segment_closure(left, right):
    """Closure of the two chains: the seed's maxima cut both chains, and the
    closure is the intersection of the two prefixes."""
    lrank = {e: i for i, e in enumerate(left)}
    rrank = {e: i for i, e in enumerate(right)}
    lpref = [sum(1 << e for e in left[: i + 1]) for i in range(len(left))]
    rpref = [sum(1 << e for e in right[: i + 1]) for i in range(len(right))]

    def close(seed: int) -> int:
        if not seed:
            return 0
        members = _bits(seed)
        return lpref[max(lrank[e] for e in members)] & rpref[max(rrank[e] for e in members)]

    return close


def check_representation(case: Case, chains, table: dict[int, int]) -> list[str]:
    """Problems with a chain pair claimed to represent ``case``."""
    left, right = chains
    if sorted(left) != list(range(case.n)) or sorted(right) != list(range(case.n)):
        return [f"chains are not permutations of the ground set: {chains}"]
    close = segment_closure(left, right)
    for seed, expected in table.items():
        got = close(seed)
        if got != expected:
            return [f"representation closes seed {seed:#x} to {got:#x}, reference {expected:#x}"]
    for premise, conclusion in case.implications:
        if conclusion & ~close(premise):
            return [f"representation violates implication {premise:#x} -> {conclusion:#x}"]
    return []


def unordered(chains) -> tuple:
    left, right = (tuple(c) for c in chains)
    return (left, right) if left <= right else (right, left)


def check_two_ex_witness(case: Case, triple: int) -> list[str]:
    members = _bits(triple)
    if len(members) != 3:
        return [f"2Ex witness {triple:#x} is not a triple"]
    for x in members:
        others = triple & ~(1 << x)
        if (closure(case.implications, others) >> x) & 1:
            return [f"2Ex witness {triple:#x}: element {x} lies in the closure of the others"]
    return []


def check_sq_witness(case: Case, w: dict) -> list[str]:
    imps = case.implications
    a, b, c, d, subset = w["a"], w["b"], w["c"], w["d"], w["subset"]
    ab = (1 << a) | (1 << b)
    ok = (
        extreme_points(imps, subset) == ab
        and extreme_points(imps, subset & ~(1 << a)) == (1 << c) | (1 << b)
        and extreme_points(imps, subset & ~ab) == (1 << c) | (1 << d)
        and extreme_points(imps, subset & ~(1 << b)) == w["observed"]
        and w["observed"] not in ((1 << a) | (1 << d), 1 << a)
    )
    return [] if ok else [f"Sq witness {w} does not re-derive"]


def check_witness(case: Case, w: dict) -> list[str]:
    if w["kind"] == "TwoEx":
        return check_two_ex_witness(case, w["triple"])
    if w["kind"] == "Sq":
        return check_sq_witness(case, w)
    return [f"unexpected witness kind {w['kind']!r}"]


def check_not_a_geometry(case: Case, reason: str, witness) -> list[str]:
    imps = case.implications
    if reason == "empty-set-not-closed":
        empty = closure(imps, 0)
        if not empty or witness != empty:
            return [f"empty-set witness {witness!r} does not re-derive (closure of {{}} is {empty:#x})"]
        return []
    if reason == "anti-exchange":
        y, x, z = witness
        ok = (
            x != z
            and closure(imps, y) == y
            and not (y >> x) & 1
            and not (y >> z) & 1
            and (closure(imps, y | (1 << x)) >> z) & 1
            and (closure(imps, y | (1 << z)) >> x) & 1
        )
        return [] if ok else [f"anti-exchange witness {witness!r} does not re-derive"]
    return [f"unknown not-a-geometry reason {reason!r}"]


def check_answer(case: Case, answer: dict) -> list[str]:
    """Problems with a library-pipeline answer (see ``pipeline.answer``)."""
    verdict = answer["verdict"]
    if verdict != case.expect:
        return [f"verdict {verdict!r}, expected {case.expect!r}"]
    if verdict == NOT_A_GEOMETRY:
        return check_not_a_geometry(case, answer["reason"], answer["witness"])
    if case.two_ex is not None and answer["two_ex"] != case.two_ex:
        return [f"2Ex holds={answer['two_ex']}, expected {case.two_ex}"]
    if verdict == NO:
        problems = []
        if not answer["witnesses"]:
            problems.append("'no' without a witness")
        for w in answer["witnesses"]:
            problems += check_witness(case, w)
        if not all(answer["witness_verified"]):
            problems.append("verify_witness rejected a witness")
        return problems
    return check_yes(case, answer)


def check_yes(case: Case, answer: dict) -> list[str]:
    table = pair_table(case)
    problems = check_representation(case, answer["representation"], table)
    if answer["count"] != case.count:
        problems.append(f"count {answer['count']}, expected {case.count}")
    if answer["unique"] != (case.count == 1):
        problems.append(f"unique={answer['unique']} with {case.count} representations")
    reps = answer["representations"]
    if len({unordered(r) for r in reps}) != case.count or len(reps) != case.count:
        problems.append(f"enumerated {len(reps)} representations, expected {case.count} distinct")
    for rep in reps:
        problems += check_representation(case, rep, table)
    rebuilt = answer["reconstructed"]
    if case.count == 1:
        if rebuilt is None or unordered(rebuilt) != unordered(answer["representation"]):
            problems.append(f"reconstruction gave {rebuilt}, expected the unique representation")
    elif rebuilt is not None:
        problems.append("reconstruction claimed a unique result for a non-unique geometry")
    return problems


# ---------------------------------------------------------------- CLI reports

EXIT_CODES = {YES: 0, NO: 1, NOT_A_GEOMETRY: 2}
_SET = r"\{([^}]*)\}"


def _label_set(case: Case, text: str) -> int:
    index = {label: i for i, label in enumerate(case.labels)}
    return sum(1 << index[x] for x in text.split(",") if x)


def chains_from_segments(case: Case, table: str):
    """Chains from a ``segments`` table: endpoints are -left_rank, +right_rank."""
    index = {label: i for i, label in enumerate(case.labels)}
    ranks = []
    for line in table.strip().splitlines()[1:]:
        label, lo, hi = line.split()
        ranks.append((index[label], -int(lo), int(hi)))
    left = tuple(e for e, _, _ in sorted(ranks, key=lambda r: r[1]))
    right = tuple(e for e, _, _ in sorted(ranks, key=lambda r: r[2]))
    return left, right


def chains_from_display(case: Case, display: str):
    """Chains from ``(top..bottom ∇ bottom..top)``."""
    index = {label: i for i, label in enumerate(case.labels)}
    tokens = display.strip("()").split()
    origin = tokens.index("∇")
    left = tuple(index[x] for x in reversed(tokens[:origin]))
    right = tuple(index[x] for x in tokens[origin + 1:])
    return left, right


def witness_from_text(case: Case, text: str):
    """Parse a ``two_ex_witness``/``sq_witness`` description into a witness."""
    index = {label: i for i, label in enumerate(case.labels)}
    m = re.search(r"triple " + _SET, text)
    if m:
        return {"kind": "TwoEx", "triple": _label_set(case, m.group(1))}
    m = re.search(
        r"X'=" + _SET + r" a=(\S+) b=(\S+) c=(\S+) d=(\S+) observed Ex\(X'-b\)=" + _SET, text
    )
    if m:
        return {
            "kind": "Sq", "subset": _label_set(case, m.group(1)),
            "a": index[m.group(2)], "b": index[m.group(3)], "c": index[m.group(4)],
            "d": index[m.group(5)], "observed": _label_set(case, m.group(6)),
        }
    return None


def not_a_geometry_from_text(case: Case, text: str):
    index = {label: i for i, label in enumerate(case.labels)}
    m = re.search(r"anti-exchange fails at closed set " + _SET + r" with x=(\S+), z=(\S+)", text)
    if m:
        return "anti-exchange", (_label_set(case, m.group(1)), index[m.group(2)], index[m.group(3)])
    m = re.search(r"closure of \{\} is " + _SET, text)
    if m:
        return "empty-set-not-closed", _label_set(case, m.group(1))
    return None


def check_cli(case: Case, command: str, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one ``segrep <command> --json`` run on ``case``."""
    want = EXIT_CODES[case.expect]
    if code != want:
        return [f"{command}: exit {code}, expected {want}: {stderr.strip()[-200:]}"]
    if case.expect == NOT_A_GEOMETRY:
        parsed = not_a_geometry_from_text(case, stderr)
        if parsed is None:
            return [f"{command}: no not-a-geometry witness in {stderr.strip()!r}"]
        return check_not_a_geometry(case, *parsed)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{command}: report is not JSON"]
    if report.get("elements") != case.n:
        return [f"{command}: elements={report.get('elements')}, expected {case.n}"]
    if report.get("cdim2") != (case.expect == YES):
        return [f"{command}: cdim2={report.get('cdim2')}"]
    if command == "check":
        if case.two_ex is not None and report["two_ex"] != case.two_ex:
            return [f"check: two_ex={report['two_ex']}, expected {case.two_ex}"]
        problems = []
        for key in ("two_ex_witness", "sq_witness"):
            if key in report:
                w = witness_from_text(case, report[key])
                problems += [f"check: unreadable {key}"] if w is None else check_witness(case, w)
        if case.expect == NO and not ("two_ex_witness" in report or "sq_witness" in report):
            problems.append("check: 'no' without a witness")
        return problems
    if case.expect == NO:
        return []
    table = pair_table(case)
    if command == "represent":
        return check_representation(case, chains_from_segments(case, report["segments"]), table)
    problems = check_representation(case, chains_from_display(case, report["representation"]), table)
    if report["representation_count"] != case.count:
        problems.append(f"unique: representation_count={report['representation_count']}, expected {case.count}")
    if report["unique"] != (case.count == 1):
        problems.append(f"unique: unique={report['unique']} with {case.count} representations")
    return problems
