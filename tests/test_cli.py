"""File grammar, commands, exit codes, reports, and renderers."""

import io
import json
import contextlib
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import segrep
from segrep import (
    ConvexGeometry,
    Implication,
    build_representation,
    cli,
    count_representations,
    decide_cdim2,
    iter_bits,
    normalize_layout,
    properties,
    representation,
    uniqueness,
)
from segrep.cli import (
    ParseError,
    chain_display,
    layout_table,
    main,
    parse_geometry,
    parse_layout_table,
)
from fixtures import FIXTURE_NAMES, fixture_text, load_fixture, seeded_chain_pair
from oracles import (
    brute_force_cdim2,
    check_2ex_exhaustive,
    check_sq_by_pair_scan,
    check_sq_exhaustive,
    extreme_points_by_definition,
    insert_by_kernel,
    insert_closing_own,
    pair_closures_by_kernel,
    verify_representation_by_pairs,
    verify_representation_by_proof,
)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name in ("notsuf", "un", "switch", "unique"):
        path = tmp_path / f"{name}.geom"
        path.write_text(fixture_text(name))
        paths[name] = str(path)
    return paths


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _pin_id(command, name, per_member, by_pairs, pair_scan, by_kernel, by_proof, calls):
    """Test id of a closure-call pin.  The pins with the kernel pair path
    patched in keep the ids of the counts they pin, and of those, the pins
    with the pair scan patched in for ``check_sq`` carry no mode.  The other
    pins name every mode and end in ``from-singletons``, or in
    ``reads-table`` for the pins without the proof-reading verification,
    since a count alone does not tell them apart."""
    if by_kernel and pair_scan:
        return f"{name}-{calls}" if command == "check" else f"{command}-{name}-{calls}"
    modes = ["by-member"] * per_member + ["by-pairs"] * by_pairs
    if not by_kernel:
        modes += ["pair-scan"] * pair_scan
        modes.append("from-singletons" if by_proof else "reads-table")
    return "-".join([command, name, *modes, str(calls)])


class TestParse:
    def test_notsuf_text(self):
        basis = parse_geometry("elements a b c d\nimp a b -> c\nimp b c -> d\nimp a -> d")
        gs = basis.ground
        assert gs.labels == ("a", "b", "c", "d")
        assert basis.m == 3
        assert basis.implications[0].premise == gs.mask("ab")
        assert basis.implications[0].conclusion == gs.mask("c")

    def test_lone_elements_line(self):
        basis = parse_geometry("elements a")
        assert basis.ground.labels == ("a",) and basis.m == 0

    def test_missing_elements_line(self):
        with pytest.raises(ParseError):
            parse_geometry("imp a -> b")

    def test_error_positions_and_reasons(self):
        with pytest.raises(ParseError) as err:
            parse_geometry("elements a b\nimp a -> c")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_geometry("elements a b\nimp -> b")
        with pytest.raises(ParseError):
            parse_geometry("elements a b\nimp a ->")
        with pytest.raises(ParseError):
            parse_geometry("elements a b\nelements c")
        with pytest.raises(ParseError):
            parse_geometry("elements a a")
        with pytest.raises(ParseError):
            parse_geometry("elements a b\nfrobnicate a")
        # errors come in file order: the unknown label before the bad directive
        with pytest.raises(ParseError) as err:
            parse_geometry("elements a b\nimp a -> z\nfoo")
        assert err.value.line == 2 and "'z'" in err.value.reason
        with pytest.raises(ParseError) as err:
            parse_geometry("# arrow label\nelements a -> b\nimp a -> b")
        assert err.value.line == 2 and "'->'" in err.value.reason
        # reports print ',', '{', '}' and '∇' around labels
        for line, label in (("elements a,b c d", "a,b"), ("elements a {b", "{b"),
                            ("elements a} b", "a}"), ("elements ∇ a", "∇")):
            with pytest.raises(ParseError) as err:
                parse_geometry(f"# label\n{line}\nimp a -> c")
            assert err.value.line == 2 and repr(label) in err.value.reason
        # a missing 'elements' line is reported after the last line
        for text, line in (("# only a comment\n", 2), ("", 1)):
            with pytest.raises(ParseError) as err:
                parse_geometry(text)
            assert err.value.line == line and "missing 'elements'" in err.value.reason
        with pytest.raises(ParseError) as err:
            parse_geometry("# bare\nelements\n")
        assert err.value.line == 2 and "at least one label" in err.value.reason
        with pytest.raises(ParseError) as err:
            parse_geometry("elements a b\nimp a b")
        assert err.value.line == 2 and "'->'" in err.value.reason

    def test_error_texts(self):
        # the first unknown label, premise side before conclusion side, and
        # the empty sides, each with its line
        for text, message in (
            ("elements a b\nimp a -> c", "line 2: unknown element 'c'"),
            ("elements a b\n\nimp x a -> y", "line 3: unknown element 'x'"),
            ("elements a b\nimp a -> b y z", "line 2: unknown element 'y'"),
            ("elements a b\nimp a -> b -> a", "line 2: unknown element '->'"),
            ("elements a b\nimp -> b", "line 2: empty premise side"),
            ("elements a b\nimp a ->", "line 2: empty conclusion side"),
            ("elements a b\nimp -> ", "line 2: empty premise side"),
        ):
            with pytest.raises(ParseError) as err:
                parse_geometry(text)
            assert str(err.value) == message, text

    def test_masks_follow_the_elements_line(self):
        basis = parse_geometry("elements c a b\nimp b c -> a a\nimp a -> b c")
        assert basis.implications == (
            Implication(0b101, 0b010), Implication(0b010, 0b101))

    def test_comments_and_blank_lines(self):
        basis = parse_geometry("# intro\n\nelements a b  # trailing\nimp a -> b\n")
        assert basis.m == 1


class TestExitCodes:
    def test_check_outcomes(self, files):
        assert run("check", files["notsuf"])[0] == 1
        assert run("check", files["un"])[0] == 0

    def test_invalid_inputs_exit_two(self, tmp_path):
        bad = tmp_path / "bad.geom"
        bad.write_text("imp a -> b\n")
        assert run("check", str(bad))[0] == 2
        not_geometry = tmp_path / "loop.geom"
        not_geometry.write_text("elements a b\nimp a -> b\nimp b -> a\n")
        assert run("check", str(not_geometry))[0] == 2
        assert run("check", str(tmp_path / "missing.geom"))[0] == 2
        not_utf8 = tmp_path / "bytes.geom"
        not_utf8.write_bytes(b"elements a b\nimp a -> \xff\n")
        code, out, err = run("check", str(not_utf8))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: ") and "UTF-8" in err

    def test_byte_order_mark_is_accepted(self, tmp_path, files):
        bom = tmp_path / "bom.geom"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(files["un"]).read_bytes())
        plain = json.loads(run("check", files["un"], "--json")[1])
        code, out, err = run("check", str(bom), "--json")
        assert (code, err) == (0, "")
        assert list(json.loads(out).items()) == list({**plain, "input": str(bom)}.items())

    @pytest.mark.parametrize("argv", [
        ("render", "--json"), ("check", "--exhaustive"), ("represent", "--builder", "paper"),
        ("check", "--max-n", "-1"), ("represent", "--exhaustive"), ("unique", "--exhaustive"),
        ("oracle",), ("check", "--max-n", "abc"),
    ])
    def test_removed_flags_are_rejected(self, files, argv):
        with pytest.raises(SystemExit) as exit_info, \
                contextlib.redirect_stderr(io.StringIO()):
            main([argv[0], files["un"], *argv[1:]])
        assert exit_info.value.code == 2

    def test_guard_exits_three(self, files):
        assert run("check", files["un"], "--max-n", "2")[0] == 3

    def test_guard_counts_the_ground_set_not_its_parts(self, tmp_path):
        # 21 free elements are 21 parts of one element each; the default
        # guard of 20 still refuses the walk
        path = tmp_path / "free21.geom"
        path.write_text("elements " + " ".join(f"e{i}" for i in range(21)) + "\n")
        code, out, err = run("check", str(path))
        assert (code, out) == (3, "")
        assert "ground set has 21 elements, guard is 20" in err

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    def test_resource_exhaustion_exits_three(self, files, monkeypatch, exc):
        def exhausted(*args, **kwargs):
            raise exc()

        monkeypatch.setattr(cli, "build_representation", exhausted)
        code, out, err = run("represent", files["un"])
        assert (code, out) == (3, "")
        assert err.startswith("error: represent: ran out of ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_keeps_the_verdict(self, files, unbuffered):
        # the read end of stdout is closed before the run: the write fails,
        # stderr stays empty and the exit code is the verdict's
        env = dict(os.environ, PYTHONPATH=str(Path(segrep.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        outcomes = []
        for argv in (("check", files["un"]), ("check", files["notsuf"]),
                     ("render", files["un"])):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run([sys.executable, "-m", "segrep", *argv], stdout=write_end,
                                      stderr=subprocess.PIPE, env=env, timeout=60)
            finally:
                os.close(write_end)
            outcomes.append((proc.returncode, proc.stderr))
        assert outcomes == [(0, b""), (1, b""), (0, b"")]

    @pytest.mark.parametrize("command", ["check", "represent", "unique", "closure"])
    def test_max_n_zero_is_a_guard_not_unset(self, files, command):
        code, _, err = run(command, files["un"], "--max-n", "0")
        assert code == 3
        assert "guard is 0" in err
        assert "--max-n" in err


class TestCheck:
    def test_notsuf_report_carries_sq_witness(self, files):
        code, out, _ = run("check", files["notsuf"])
        assert code == 1
        assert "two_ex: True" in out
        assert "sq: False" in out
        assert "X'={a,b,c,d}" in out and "{a,c}" in out
        assert "cdim2: False" in out

    def test_reports_are_byte_identical(self, files):
        first = run("check", files["switch"])
        second = run("check", files["switch"])
        assert first == second

    def test_json_report_field_order(self, files):
        code, out, _ = run("check", files["un"], "--json")
        assert code == 0
        payload = json.loads(out)
        keys = list(payload)
        assert keys[:3] == ["command", "input", "sha256"]
        assert payload["cdim2"] is True
        assert keys[-1] == "closure_calls"

    def test_timing_appends_elapsed_ms(self, files):
        plain = json.loads(run("check", files["un"], "--json")[1])
        code, out, _ = run("check", files["un"], "--json", "--timing")
        assert code == 0
        timed = json.loads(out)
        assert list(timed)[-2:] == ["closure_calls", "elapsed_ms"]
        elapsed = timed.pop("elapsed_ms")
        assert isinstance(elapsed, (int, float)) and elapsed >= 0
        assert list(timed.items()) == list(plain.items())

    # Every closure query counts.  The key sequence of each report is pinned
    # alongside.  Each count is pinned twice: as shipped, where an
    # extreme-point query is one closure, and with the per-member oracle
    # patched in, one closure per member.  The second pin holds every other
    # closure query of each command where it was before extreme points took
    # one pass.  The two `check` rows are equal: `check_sq` reads its extreme
    # points from the pair table's index, or off the basis where the index
    # misses, and `check` asks no other extreme-point query.
    # On the four fixtures that get a representation, `represent` and
    # `unique` are pinned once more with the pair scan patched in for
    # `verify_representation`, one closure per seed of at most two elements:
    # those pins hold every other closure query where it was before
    # verification read its proof off the basis.  Every pin is repeated
    # with `check_sq_by_pair_scan` patched in for `check_sq`, which closes
    # each pair again and asks every extreme-point set with a closure; those
    # pins hold every other closure query where it was before `check_sq`
    # read the pair table and the basis.  Last, every pin is repeated with
    # the kernel pair path patched in: `pair_closures_by_kernel` closes each
    # pair once through the kernel, and `insert_by_kernel` closes the pairs
    # that an insertion checks again.  Those pins hold every other closure
    # query where it was before the pair table was filled from the
    # singleton closures and the builder read it; they differ from the
    # `from-singletons` pins by exactly those queries.  On a geometry where
    # no pair is nested (fivepoint, triangle) the table costs n queries more
    # than the kernel pair path, the n singleton closures.  All of these
    # pins run with `verify_representation_by_proof` patched in for the
    # verification, where `by-pairs` does not replace it, and with
    # `insert_closing_own` for the insertion, where `insert_by_kernel` does
    # not: they hold every closure query where it was before verification
    # and insertion read the singleton closures off the table.  `check`
    # neither verifies nor builds, so its pins are the shipped counts too.
    # The `reads-table` pins are the shipped counts of `represent` and
    # `unique` on the four fixtures that get a representation; after decide
    # they differ from the `from-singletons` pins by the insertions' n - 1
    # singleton closures and, without `by-pairs`, the proof's closures.
    @pytest.mark.parametrize(
        "command, name, per_member, by_pairs, pair_scan, by_kernel, by_proof, calls", [
            pytest.param(command, name, per_member, by_pairs, pair_scan, by_kernel, by_proof,
                         calls, id=_pin_id(command, name, per_member, by_pairs, pair_scan,
                                           by_kernel, by_proof, calls))
            for command, by_pairs, pair_scan, by_kernel, by_proof, one_pass, by_member in (
                ("check", False, False, False, True,
                 (15, 9, 11, 9, 10, 8, 10), (15, 9, 11, 9, 10, 8, 10)),
                ("represent", False, False, False, True,
                 (15, 9, 26, 21, 10, 14, 18), (15, 9, 47, 36, 10, 20, 28)),
                ("unique", False, False, False, True,
                 (15, 9, 26, 21, 10, 14, 18), (15, 9, 47, 36, 10, 20, 28)),
                ("represent", True, False, False, True,
                 (None, None, 52, 41, None, 25, 34), (None, None, 73, 56, None, 31, 44)),
                ("unique", True, False, False, True,
                 (None, None, 52, 41, None, 25, 34), (None, None, 73, 56, None, 31, 44)),
                ("check", False, True, False, True,
                 (59, 35, 53, 38, 36, 31, 43), (75, 54, 118, 68, 45, 49, 81)),
                ("represent", False, True, False, True,
                 (59, 35, 68, 50, 36, 37, 51), (75, 54, 154, 95, 45, 61, 99)),
                ("unique", False, True, False, True,
                 (59, 35, 68, 50, 36, 37, 51), (75, 54, 154, 95, 45, 61, 99)),
                ("represent", True, True, False, True,
                 (None, None, 94, 70, None, 48, 67), (None, None, 180, 115, None, 72, 115)),
                ("unique", True, True, False, True,
                 (None, None, 94, 70, None, 48, 67), (None, None, 180, 115, None, 72, 115)),
                ("check", False, False, True, True,
                 (10, 6, 21, 15, 6, 6, 10), (10, 6, 21, 15, 6, 6, 10)),
                ("represent", False, False, True, True,
                 (10, 6, 40, 30, 6, 17, 23), (10, 6, 61, 45, 6, 23, 33)),
                ("unique", False, False, True, True,
                 (10, 6, 40, 30, 6, 17, 23), (10, 6, 61, 45, 6, 23, 33)),
                ("represent", True, False, True, True,
                 (None, None, 66, 50, None, 28, 39), (None, None, 87, 65, None, 34, 49)),
                ("unique", True, False, True, True,
                 (None, None, 66, 50, None, 28, 39), (None, None, 87, 65, None, 34, 49)),
                ("check", False, True, True, True,
                 (54, 32, 63, 44, 32, 29, 43), (70, 51, 128, 74, 41, 47, 81)),
                ("represent", False, True, True, True,
                 (54, 32, 82, 59, 32, 40, 56), (70, 51, 168, 104, 41, 64, 104)),
                ("unique", False, True, True, True,
                 (54, 32, 82, 59, 32, 40, 56), (70, 51, 168, 104, 41, 64, 104)),
                ("represent", True, True, True, True,
                 (None, None, 108, 79, None, 51, 72), (None, None, 194, 124, None, 75, 120)),
                ("unique", True, True, True, True,
                 (None, None, 108, 79, None, 51, 72), (None, None, 194, 124, None, 75, 120)),
                ("represent", False, False, False, False,
                 (None, None, 17, 14, None, 11, 14), (None, None, 38, 29, None, 17, 24)),
                ("unique", False, False, False, False,
                 (None, None, 17, 14, None, 11, 14), (None, None, 38, 29, None, 17, 24)),
                ("represent", True, False, False, False,
                 (None, None, 46, 36, None, 22, 30), (None, None, 67, 51, None, 28, 40)),
                ("unique", True, False, False, False,
                 (None, None, 46, 36, None, 22, 30), (None, None, 67, 51, None, 28, 40)),
            )
            for per_member, counts in ((False, one_pass), (True, by_member))
            for name, calls in zip(
                ("fivepoint", "notsuf", "seven", "switch", "triangle", "un", "unique"), counts)
            if calls is not None
        ])
    def test_closure_calls_pinned_on_fixtures(self, tmp_path, monkeypatch, command, name,
                                              per_member, by_pairs, pair_scan, by_kernel,
                                              by_proof, calls):
        if per_member:
            monkeypatch.setattr(ConvexGeometry, "extreme_points", extreme_points_by_definition)
        if by_pairs or by_proof:
            verify = verify_representation_by_pairs if by_pairs else verify_representation_by_proof
            for module in (representation, uniqueness):
                monkeypatch.setattr(module, "verify_representation", verify)
        if pair_scan:
            monkeypatch.setattr(properties, "check_sq", check_sq_by_pair_scan)
        if by_kernel or by_proof:
            insert = insert_by_kernel if by_kernel else insert_closing_own
            monkeypatch.setattr(representation, "_insert", insert)
        if by_kernel:
            monkeypatch.setattr(ConvexGeometry, "pair_closures", pair_closures_by_kernel)
        path = tmp_path / f"{name}.geom"
        path.write_text(fixture_text(name))
        code, out, _ = run(command, str(path), "--json")
        payload = json.loads(out)
        assert payload["closure_calls"] == calls
        head = ["command", "input", "sha256", "elements", "implications", "basis_size"]
        if command == "check":
            body = ["two_ex"] + (["two_ex_witness"] if name in ("fivepoint", "triangle") else [])
            body += ["sq"] + (["sq_witness"] if name == "notsuf" else []) + ["cdim2"]
        elif code == 1:
            body = ["cdim2"]
        elif command == "represent":
            body = ["cdim2", "representation", "segments"]
        else:
            body = ["cdim2", "representation", "blocks", "representation_count", "unique"]
        assert list(payload) == head + body + ["closure_calls"]

    def test_decide_on_a_long_chain_pair_skips_the_nested_pairs(self, tmp_path):
        # a pair is nested when both chains order it the same way; decide
        # closes the n singletons and then only the pairs the chains cross on
        n = 40
        geom, left, right = seeded_chain_pair(random.Random(7), n)
        labels = geom.ground.labels
        lines = ["elements " + " ".join(labels)]
        for imp in geom.basis.implications:
            premise = " ".join(labels[e] for e in iter_bits(imp.premise))
            conclusion = " ".join(labels[e] for e in iter_bits(imp.conclusion))
            lines.append(f"imp {premise} -> {conclusion}")
        path = tmp_path / "chains.geom"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run("check", str(path), "--json", "--max-n", str(n))
        assert code == 0
        lrank, rrank = {e: r for r, e in enumerate(left)}, {e: r for r, e in enumerate(right)}
        crossing = sum((lrank[i] < lrank[j]) != (rrank[i] < rrank[j])
                       for i in range(n) for j in range(i + 1, n))
        assert json.loads(out)["closure_calls"] == n + crossing == 428 < n * (n - 1) // 2

    # The exact witness text that `check --json` reports.
    @pytest.mark.parametrize("name, key, text", [
        ("triangle", "two_ex_witness", "TwoEx: fails (triple {a,b,c} has three extreme points)"),
        ("fivepoint", "two_ex_witness", "TwoEx: fails (triple {a,b,c} has three extreme points)"),
        ("notsuf", "sq_witness",
         "Sq: fails (X'={a,b,c,d} a=a b=b c=c d=d observed Ex(X'-b)={a,c})"),
    ])
    def test_witness_text_pinned(self, tmp_path, name, key, text):
        path = tmp_path / f"{name}.geom"
        path.write_text(fixture_text(name))
        _, out, _ = run("check", str(path), "--json")
        assert json.loads(out)[key] == text


class TestRepresent:
    def test_un_prints_origin_chain_display(self, files):
        code, out, _ = run("represent", files["un"])
        assert code == 0
        assert "(d c b a ∇ c b d a)" in out

    def test_non_representable_exits_one(self, files):
        code, out, _ = run("represent", files["notsuf"])
        assert code == 1
        assert "representation:" not in out

    def test_output_round_trips(self, files):
        fixture = load_fixture("un")
        code, out, _ = run("represent", files["un"])
        table_lines = [line for line in out.splitlines()
                       if line and line.split()[0] in ("element",) + fixture.geometry.ground.labels]
        rep = parse_layout_table(fixture.geometry.ground, "\n".join(table_lines))
        assert rep == build_representation(fixture.geometry)


class TestUnique:
    def test_switch_count(self, files):
        code, out, _ = run("unique", files["switch"])
        assert code == 0
        assert "representation_count: 2" in out
        assert "unique: False" in out
        assert "switchable yes" in out

    def test_switch_blocks_text(self, files):
        # one line per block, bottom up, as demo 03 prints them too
        code, out, _ = run("unique", files["switch"])
        assert code == 0
        assert "\nblocks: \n" + "\n".join([
            "block 1: positions [1..3], members {1,2,3}, switchable yes",
            "block 2: positions [4..4], members {c}, switchable no",
            "block 3: positions [5..6], members {a,b}, switchable yes",
        ]) + "\nrepresentation_count: 2\n" in out

    def test_unique_fixture(self, files):
        code, out, _ = run("unique", files["unique"])
        assert code == 0
        assert "representation_count: 1" in out
        assert "unique: True" in out


class TestClosureCmd:
    def test_closure_and_extreme_points(self, files):
        code, out, _ = run("closure", files["notsuf"], "a")
        assert code == 0
        assert "closure: {a,d}" in out
        assert "extreme_points: {a}" in out
        # the closed set's extreme points are read off the basis: the seed's
        # closure is the one closure query
        code, out, _ = run("closure", files["notsuf"], "a", "--json")
        assert code == 0
        assert json.loads(out)["closure_calls"] == 1


class TestOracle:
    """The differential that the test oracles hold the fast decision to."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_no_mismatch_on_fixtures(self, name):
        geom = load_fixture(name).geometry
        decision = decide_cdim2(geom)
        assert decision.two_ex.holds == check_2ex_exhaustive(geom).holds
        assert decision.sq.holds == check_sq_exhaustive(geom).holds
        brute = brute_force_cdim2(geom)
        assert decision.cdim2 == brute.cdim2
        if decision.cdim2:
            rep = build_representation(geom)
            assert count_representations(rep) == len(brute.representations)

    def test_package_holds_no_test_module(self, files):
        # a fresh interpreter with only the package's source on its path, so
        # neither tests/ nor an earlier test's imports are in reach
        probe = (
            "import importlib.util, sys\n"
            "print(importlib.util.find_spec('segrep.oracles'),"
            " importlib.util.find_spec('segrep.fixtures'))\n"
            "import segrep, segrep.cli\n"
            "code = segrep.cli.main(['unique', sys.argv[1]])\n"
            "print(sorted(name for name, module in sys.modules.items()\n"
            "             if getattr(module, '__file__', None)\n"
            "             and module.__file__.startswith(sys.argv[2])))\n"
            "sys.exit(code)\n"
        )
        tests_dir = Path(__file__).parent
        env = dict(os.environ, PYTHONPATH=str(Path(segrep.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe, files["un"], str(tests_dir)],
                              capture_output=True, text=True, env=env, timeout=60,
                              cwd=Path(files["un"]).parent)
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0, proc.stderr
        assert lines[0] == "None None"
        assert "unique: True" in proc.stdout
        assert lines[-1] == "[]"


class TestStartup:
    def test_import_leaves_out_dataclasses_inspect_typing_and_json(self):
        # a fresh interpreter under -S, since a site module may import
        # typing on its own; only what importing segrep.cli adds counts.
        # json loads only when a --json report is printed.
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import segrep.cli\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(added & {'dataclasses', 'inspect', 'json', 'typing'}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(segrep.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-S", "-c", probe],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestRender:
    def test_ascii(self, files):
        code, out, _ = run("render", files["un"], "--format", "ascii")
        assert code == 0
        assert "∇" in out
        assert out.count("[") == 4 and out.count("]") == 4
        assert run("render", files["un"], "--format", "ascii") == (code, out, "")

    def test_svg_is_well_formed(self, files):
        code, out, _ = run("render", files["un"], "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        lines = [el for el in root if el.tag.endswith("line")]
        assert len(lines) == 5  # four segments plus the origin marker

    @pytest.mark.parametrize("label", ["<x>", "a&b"])
    def test_svg_escapes_labels(self, tmp_path, label):
        path = tmp_path / "labels.geom"
        path.write_text(f"elements {label} b\nimp b -> {label}\n")
        code, out, _ = run("render", str(path), "--format", "svg")
        assert code == 0
        texts = [el.text for el in ET.fromstring(out) if el.tag.endswith("text")]
        assert sorted(texts) == sorted([label, "b"])

    def test_render_refuses_non_representable(self, files):
        code, _, err = run("render", files["notsuf"], "--format", "ascii")
        assert code == 1 and "not representable" in err


class TestDisplayHelpers:
    def test_chain_display_matches_layout_table(self):
        fixture = load_fixture("un")
        rep = build_representation(fixture.geometry)
        gs = fixture.geometry.ground
        assert chain_display(gs, rep) == "(d c b a ∇ c b d a)"
        table = layout_table(gs, rep)
        assert table.splitlines()[0] == "element left_endpoint right_endpoint"
        assert parse_layout_table(gs, table) == rep
        intervals = []
        for line in table.splitlines()[1:]:
            _, lo, hi = line.split()
            intervals.append((float(lo), float(hi)))
        assert normalize_layout(intervals) == rep

    @pytest.mark.parametrize("body, line", [
        ("a 1\nb -2 2\nc -3 3\nd -4 4", 2),
        ("a -1 one\nb -2 2\nc -3 3\nd -4 4", 2),
        ("a -1 1\nb -2 2\nc -3 3", 5),
        ("a -1 1\nb -2 2\nc -3 3\nd -4 4\na -5 5", 6),
    ], ids=["short-row", "non-numeric", "missing-element", "duplicate-row"])
    def test_bad_layout_tables_raise_parse_error(self, body, line):
        gs = load_fixture("un").geometry.ground
        with pytest.raises(ParseError) as err:
            parse_layout_table(gs, "element left_endpoint right_endpoint\n" + body)
        assert err.value.line == line

