"""File grammar, commands, exit codes, reports, and renderers."""

import io
import json
import contextlib
import hashlib
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
)
from fixtures import FIXTURE_NAMES, basis_text, fixture_text, load_fixture, seeded_chain_pair
from oracles import (
    brute_force_cdim2,
    build_by_insertion,
    check_2ex_exhaustive,
    check_sq_by_pair_scan,
    check_sq_exhaustive,
    extreme_points_by_definition,
    insert_by_kernel,
    insert_by_table,
    insert_closing_own,
    normalize_layout,
    pair_closures_by_kernel,
    parse_geometry_reference,
    parse_layout_table,
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


def mutate(text: str, rng: random.Random) -> str:
    """``text`` with one seeded edit: on one line, a token dropped, repeated
    or swapped with another, '->' deleted or doubled, or one side of '->'
    emptied; a line repeated or swapped with another; or a '#', a tab or a
    CRLF inserted anywhere."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    tokens = lines[i].split(" ")
    kind = rng.choice(("drop", "repeat", "swap", "arrow", "arrow",
                       "side", "line", "#", "tab", "crlf"))
    if kind == "line":
        k = rng.randrange(len(lines))
        if rng.random() < 0.5:
            lines.insert(k, lines[i])
        else:
            lines[i], lines[k] = lines[k], lines[i]
        return "\n".join(lines)
    j = rng.randrange(len(tokens))
    arrow = tokens.index("->") if "->" in tokens else j
    if kind == "drop":
        del tokens[j]
    elif kind == "repeat":
        tokens.insert(j, tokens[j])
    elif kind == "swap":
        k = rng.randrange(len(tokens))
        tokens[j], tokens[k] = tokens[k], tokens[j]
    elif kind == "arrow":
        tokens[arrow:arrow + 1] = rng.choice(([], ["->", "->"]))
    elif kind == "side":
        tokens = tokens[:1] + tokens[arrow:] if rng.random() < 0.5 else tokens[:arrow + 1]
    else:
        at = rng.randrange(len(text) + 1)
        return text[:at] + {"#": "#", "tab": "\t", "crlf": "\r\n"}[kind] + text[at:]
    lines[i] = " ".join(tokens)
    return "\n".join(lines)


class TestParseDifferential:
    """The parser against the reference copy of its former line loop, on
    seeded mutations of the fixtures and of chain-pair files."""

    @staticmethod
    def mutants():
        rng = random.Random(34)
        texts = [fixture_text(name) for name in FIXTURE_NAMES]
        texts += [basis_text(seeded_chain_pair(rng, n)[0].basis) for n in (3, 6, 9)]
        for text in texts:
            for _ in range(40):
                mutant = text
                for _ in range(rng.randint(1, 3)):
                    mutant = mutate(mutant, rng)
                yield mutant

    @staticmethod
    def outcome(parse, text):
        """The parsed basis, or the error's text and line."""
        try:
            return parse(text)
        except ParseError as exc:
            return str(exc), exc.line

    def test_mutants_parse_like_the_reference(self):
        reasons = []
        for text in self.mutants():
            got = self.outcome(parse_geometry, text)
            assert got == self.outcome(parse_geometry_reference, text), repr(text)
            if isinstance(got, tuple):
                reasons.append(got[0].split(": ", 1)[1])
        # the edits reach every error that a line of a file can raise
        for start in ("empty premise side", "empty conclusion side", "unknown element",
                      "'imp' needs '->'", "'imp' before 'elements'", "duplicate 'elements'",
                      "unknown directive", "'->' cannot be an element label",
                      "'elements' needs at least one label", "duplicate ground-set label"):
            assert any(r.startswith(start) for r in reasons), start

    def test_mutants_exit_cleanly_through_check(self, tmp_path):
        path = tmp_path / "mutant.geom"
        codes = set()
        for text in self.mutants():
            path.write_bytes(text.encode())
            code, _, err = run("check", str(path))
            codes.add(code)
            assert 0 <= code <= 3 and err.count("\n") <= 1, (repr(text), code, err)
            assert "Traceback" not in err, repr(text)
        assert {0, 1, 2} <= codes

    # each command's runs on one mutant: unique and render in both formats,
    # closure of {a}, which some files do not name
    EXTRA_ARGS = {"represent": [[]], "unique": [[], ["--json"]], "closure": [["a"]],
                  "render": [[], ["--format", "svg"]]}

    @pytest.mark.parametrize("command", EXTRA_ARGS)
    def test_mutants_exit_cleanly_through_every_command(self, tmp_path, command):
        path = tmp_path / "mutant.geom"
        codes = set()
        for text in self.mutants():
            path.write_bytes(text.encode())
            for extra in self.EXTRA_ARGS[command]:
                code, _, err = run(command, str(path), *extra)
                codes.add(code)
                assert 0 <= code <= 3 and err.count("\n") <= 1, (repr(text), extra, code, err)
                assert "Traceback" not in err, repr(text)
        assert codes >= ({0, 2} if command == "closure" else {0, 1, 2})


# The characters other than a line feed and a carriage return at which
# str.splitlines breaks a line; str.split counts each as whitespace.
NOT_LINE_BREAKS = {
    "vt": "\v", "ff": "\f", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e",
    "nel": "\x85", "ls": "\u2028", "ps": "\u2029",
}


class TestLineBreaks:
    """Only a line feed, a carriage return or the two together end a line."""

    @pytest.mark.parametrize("name", NOT_LINE_BREAKS)
    def test_other_separators_are_blanks_within_a_line(self, tmp_path, name):
        sep = NOT_LINE_BREAKS[name]
        text = f"# note{sep} more\nelements a b{sep}c\nimp a ->{sep}b{sep}\n"
        basis = parse_geometry(text)
        assert basis.ground.labels == ("a", "b", "c")
        assert basis.implications == (Implication(0b001, 0b010),)
        with pytest.raises(ParseError) as err:
            parse_geometry(text + "imp a -> zz\n")
        assert (err.value.line, err.value.reason) == (4, "unknown element 'zz'")
        path = tmp_path / "sep.geom"
        path.write_bytes((text + "imp a -> zz\n").encode())
        assert run("check", str(path)) == (2, "", "error: line 4: unknown element 'zz'\n")

    @pytest.mark.parametrize("raw, code, err", [
        (b"elements a b\n# x\xe2\x80\xa8 y\nimp a -> b\n", 0, ""),
        (b"elements a b\x0c\nimp a -> zz\n", 2, "error: line 2: unknown element 'zz'\n"),
        (b"elements a b\rimp a -> \xff\r", 2,
         "error: line 2: not valid UTF-8 (invalid start byte)\n"),
    ], ids=["line-separator-in-a-comment", "form-feed-ends-line-1", "bad-byte-after-a-bare-cr"])
    def test_files_with_other_separators(self, tmp_path, raw, code, err):
        path = tmp_path / "sep.geom"
        path.write_bytes(raw)
        got = run("check", str(path))
        assert (got[0], got[2]) == (code, err)

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_are_counted_as_splitlines_counts_them(self, brk):
        # a final break opens no line, an empty text has none
        for body in ("", "# a", "# a{0}", "# a{0}{0}", "{0}", "elements a{0}imp a -> b{0}zz"):
            text = body.format(brk)
            outcome = TestParseDifferential.outcome
            assert outcome(parse_geometry, text) == outcome(parse_geometry_reference, text), text


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

    def test_anti_exchange_is_named_at_the_walks_dead_end(self, tmp_path):
        # {} extends to {c}, and {c} has no closed one-element extension:
        # {a,c} and {b,c} both close to {a,b,c}
        path = tmp_path / "dead_end.geom"
        path.write_text("elements a b c\nimp a -> b\nimp b -> a\nimp a c -> b\n")
        assert run("check", str(path)) == (2, "", (
            "error: not a convex geometry: anti-exchange fails at closed set "
            "{c} with x=a, z=b\n"))

    def test_byte_order_mark_is_accepted(self, tmp_path, files):
        bom = tmp_path / "bom.geom"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(files["un"]).read_bytes())
        plain = json.loads(run("check", files["un"], "--json")[1])
        code, out, err = run("check", str(bom), "--json")
        assert (code, err) == (0, "")
        assert list(json.loads(out).items()) == list({**plain, "input": str(bom)}.items())

    @pytest.mark.parametrize("mark, end", [
        (b"", b"\n"), (b"\xef\xbb\xbf", b"\r\n"), (b"\xef\xbb\xbf", b"\r"), (b"", b"\r\n"),
    ])
    def test_sha256_is_that_of_the_lf_statements_after_the_mark(self, tmp_path, mark, end):
        statements = ["elements a é ő", "imp é -> ő", "# ű"]
        path = tmp_path / "hashed.geom"
        path.write_bytes(mark + end.join(s.encode() for s in statements) + end)
        code, out, _ = run("check", str(path), "--json")
        lf = "".join(s + "\n" for s in statements).encode()
        assert (code, json.loads(out)["sha256"]) == (0, hashlib.sha256(lf).hexdigest())

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
    # The `reads-table` pins are the counts of `represent` and `unique` on
    # the four fixtures that get a representation with nothing else patched
    # in; after decide they differ from the `from-singletons` pins by the
    # insertions' n - 1 singleton closures and, without `by-pairs`, the
    # proof's closures.  All of these pins build with the former builder,
    # `build_by_insertion`, whose peel asks n - 1 extreme-point queries after
    # decide; the eight `shipped` pins patch nothing and build with the
    # package's walk, 2n extreme-point queries after decide.
    @pytest.mark.parametrize(
        "command, name, per_member, by_pairs, pair_scan, by_kernel, by_proof, shipped, calls", [
            pytest.param(command, name, per_member, by_pairs, pair_scan, by_kernel, by_proof,
                         False, calls, id=_pin_id(command, name, per_member, by_pairs,
                                                  pair_scan, by_kernel, by_proof, calls))
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
        ] + [
            pytest.param(command, name, False, False, False, False, False, True, calls,
                         id=f"{command}-{name}-shipped")
            for command in ("represent", "unique")
            for name, calls in (("seven", 25), ("switch", 21), ("un", 16), ("unique", 20))
        ])
    def test_closure_calls_pinned_on_fixtures(self, tmp_path, monkeypatch, command, name,
                                              per_member, by_pairs, pair_scan, by_kernel,
                                              by_proof, shipped, calls):
        if per_member:
            monkeypatch.setattr(ConvexGeometry, "extreme_points", extreme_points_by_definition)
        if by_pairs or by_proof:
            verify = verify_representation_by_pairs if by_pairs else verify_representation_by_proof
            for module in (representation, uniqueness):
                monkeypatch.setattr(module, "verify_representation", verify)
        if pair_scan:
            monkeypatch.setattr(properties, "check_sq", check_sq_by_pair_scan)
        if not shipped:
            insert = (insert_by_kernel if by_kernel else
                      insert_closing_own if by_proof else insert_by_table)
            monkeypatch.setattr(cli, "build_representation",
                                lambda geom: build_by_insertion(geom, insert))
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
        path = tmp_path / "chains.geom"
        path.write_text(basis_text(geom.basis))
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


class TestOutputEncoding:
    # a legacy console's stdout encoding ('∇' is in neither, 'ő' not in
    # latin-1) changes no byte that a command prints, nor its exit code
    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    @pytest.mark.parametrize("command", ["represent", "unique", "render", "closure", "help"])
    def test_reports_are_utf8_in_any_locale(self, files, tmp_path, command, encoding):
        accented = tmp_path / "accented.geom"
        accented.write_text("elements é ő\nimp é -> ő\n", encoding="utf-8")
        argv = {"closure": ["closure", str(accented), "é"],
                "help": ["--help"]}.get(command, [command, files["un"]])
        results = []
        for stdout_encoding in ("utf-8", encoding):
            env = dict(os.environ, PYTHONPATH=str(Path(segrep.__file__).parents[1]),
                       PYTHONIOENCODING=stdout_encoding)
            proc = subprocess.run([sys.executable, "-m", "segrep", *argv],
                                  capture_output=True, env=env, timeout=60)
            results.append((proc.returncode, proc.stdout, proc.stderr))
        assert results[1] == results[0] == (0, results[0][1], b"")
        assert ("ő" if command == "closure" else "∇").encode() in results[0][1]

    # an error message names the label as a UTF-8 locale prints it ('ű' is
    # in neither encoding), with the same exit code
    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_errors_are_utf8_in_any_locale(self, tmp_path, encoding):
        accented = tmp_path / "accented.geom"
        accented.write_text("elements é ő\nimp é -> ű\n", encoding="utf-8")
        results = []
        for stderr_encoding in ("utf-8", encoding):
            env = dict(os.environ, PYTHONPATH=str(Path(segrep.__file__).parents[1]),
                       PYTHONIOENCODING=stderr_encoding)
            proc = subprocess.run([sys.executable, "-m", "segrep", "check", str(accented)],
                                  capture_output=True, env=env, timeout=60)
            results.append((proc.returncode, proc.stdout, proc.stderr))
        assert results[1] == results[0] == (2, b"", results[0][2])
        assert "unknown element 'ű'".encode() in results[0][2]


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


class TestReadme:
    def test_quick_start_prints_its_comments(self):
        # the README's python block runs as written, and each print prints
        # the comment on its line; a public name it uses that goes away
        # fails here
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        expected = [line.rsplit("# ", 1)[1] for line in block.splitlines()
                    if line.startswith("print(")]
        assert expected == ["(d c b a ∇ c b d a)", "1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        assert out.getvalue().splitlines() == expected
