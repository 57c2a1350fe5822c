"""File grammar, commands, exit codes, reports, and renderers."""

import io
import json
import contextlib
import xml.etree.ElementTree as ET

import pytest

from segrep import build_representation, normalize_layout
from segrep.cli import (
    ParseError,
    chain_display,
    layout_table,
    main,
    parse_geometry,
    parse_layout_table,
)
from segrep.fixtures import fixture_text, load_fixture


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

    @pytest.mark.parametrize("argv", [
        ("render", "--json"), ("check", "--exhaustive"), ("represent", "--builder", "paper"),
    ])
    def test_removed_flags_are_rejected(self, files, argv):
        with pytest.raises(SystemExit) as exit_info, \
                contextlib.redirect_stderr(io.StringIO()):
            main([argv[0], files["un"], *argv[1:]])
        assert exit_info.value.code == 2

    def test_guard_exits_three(self, files):
        assert run("oracle", files["un"], "--max-n", "2")[0] == 3

    @pytest.mark.parametrize("command", ["check", "represent", "unique", "oracle"])
    def test_max_n_zero_is_a_guard_not_unset(self, files, command):
        code, _, err = run(command, files["un"], "--max-n", "0")
        assert code == 3
        assert "guard is 0" in err


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

    # Every closure query counts, answered from the cache or not, so these
    # match the counts from before the operation-scoped closure cache.  The
    # key sequence of each report is pinned alongside.
    @pytest.mark.parametrize("command, name, calls", [
        pytest.param(command, name, calls,
                     id=f"{name}-{calls}" if command == "check" else f"{command}-{name}-{calls}")
        for command, counts in (
            ("check", (70, 51, 128, 74, 41, 47, 81)),
            ("represent", (70, 51, 276, 179, 41, 97, 151)),
            ("unique", (70, 51, 276, 179, 41, 97, 151)),
        )
        for name, calls in zip(
            ("fivepoint", "notsuf", "seven", "switch", "triangle", "un", "unique"), counts)
    ])
    def test_closure_calls_pinned_on_fixtures(self, tmp_path, command, name, calls):
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


class TestOracle:
    @pytest.mark.parametrize("name", ("notsuf", "un", "switch", "unique"))
    def test_no_mismatch_on_fixtures(self, files, name):
        code, out, _ = run("oracle", files[name])
        assert "mismatch: none" in out
        assert code == (0 if load_fixture(name).cdim2 else 1)


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
    ], ids=["short-row", "non-numeric", "missing-element"])
    def test_bad_layout_tables_raise_parse_error(self, body, line):
        gs = load_fixture("un").geometry.ground
        with pytest.raises(ParseError) as err:
            parse_layout_table(gs, "element left_endpoint right_endpoint\n" + body)
        assert err.value.line == line


class TestExhaustiveFlag:
    @pytest.mark.parametrize("command", ["represent", "unique"])
    def test_reports_exhaustive_verification(self, files, command):
        code, out, _ = run(command, files["un"], "--exhaustive")
        assert code == 0
        assert "verified_exhaustively: True" in out
        assert out.index("verified_exhaustively") < out.index("representation:")
