"""Command-line front end: parse geometry files, run checks, emit reports.

File grammar (UTF-8, one statement per line, ``#`` starts a comment):

    elements <label>+          exactly one, before any implication
    imp <label>+ -> <label>+   zero or more

A label is not '->' or '∇' and holds no ',', '{' or '}': reports print these.

Exit codes: 0 the geometry is representable by segments (convex dimension at
most 2), 1 it is not, 2 invalid input or not a convex geometry, 3 the guard
on validation's closed-set walk was hit (the message names the flag to raise)
or the run ran out of recursion depth or memory.  When stdout is closed
before the report is written, nothing is printed on stderr and the exit code
is the verdict's.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

from .core import GroundSet, GroundSetTooLarge, Implication, ImplicationBasis, SegrepError
from .geometry import ConvexGeometry, validate_geometry
from .properties import decide_cdim2
# Unused here, verify_representation stays bound for perfbench/layers.py.
from .representation import (  # noqa: F401
    SegmentRepresentation,
    build_representation,
    normalize_layout,
    segment_layout,
    verify_representation,
)
from .uniqueness import block_decomposition, count_representations, is_unique


class ParseError(SegrepError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


def parse_geometry(text: str) -> ImplicationBasis:
    """Parse the geometry file grammar into an implicational basis."""
    ground: GroundSet | None = None
    implications: list[Implication] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0], fields[1:]
        if keyword == "elements":
            if ground is not None:
                raise ParseError(lineno, "duplicate 'elements' line")
            if not args:
                raise ParseError(lineno, "'elements' needs at least one label")
            for label in args:
                if label in ("->", "∇") or any(c in label for c in ",{}"):
                    raise ParseError(lineno, f"{label!r} cannot be an element label")
            try:
                ground = GroundSet(tuple(args))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            bit = {label: 1 << i for i, label in enumerate(args)}
        elif keyword == "imp":
            if ground is None:
                raise ParseError(lineno, "'imp' before 'elements' line")
            if "->" not in args:
                raise ParseError(lineno, "'imp' needs '->' between premise and conclusion")
            arrow = args.index("->")
            if not arrow:
                raise ParseError(lineno, "empty premise side")
            if arrow == len(args) - 1:
                raise ParseError(lineno, "empty conclusion side")
            premise = conclusion = 0
            try:
                for label in args[:arrow]:
                    premise |= bit[label]
                for label in args[arrow + 1:]:
                    conclusion |= bit[label]
            except KeyError as exc:
                raise ParseError(lineno, f"unknown element {exc.args[0]!r}") from None
            implications.append(Implication(premise, conclusion))
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")
    if ground is None:
        raise ParseError(len(lines) + 1, "missing 'elements' line")
    return ImplicationBasis(ground, tuple(implications))


def chain_display(ground: GroundSet, rep: SegmentRepresentation) -> str:
    """Print a representation with the left chain reversed toward the origin."""
    parts = [ground.labels[e] for e in reversed(rep.left)]
    parts.append("∇")
    parts.extend(ground.labels[e] for e in rep.right)
    return "(" + " ".join(parts) + ")"


def block_table(ground: GroundSet, rep: SegmentRepresentation) -> str:
    """One line per block of the representation, from the bottom up."""
    return "\n".join(
        f"block {i}: positions [{b.start}..{b.end}], "
        f"members {ground.format_set(b.members)}, "
        f"switchable {'yes' if b.switchable else 'no'}"
        for i, b in enumerate(block_decomposition(rep), start=1)
    )


def layout_table(ground: GroundSet, rep: SegmentRepresentation) -> str:
    rows = {e: (lo, hi) for e, lo, hi in segment_layout(rep)}
    lines = ["element left_endpoint right_endpoint"]
    for e in range(ground.n):
        lo, hi = rows[e]
        lines.append(f"{ground.labels[e]} {lo} {hi}")
    return "\n".join(lines)


def parse_layout_table(ground: GroundSet, text: str) -> SegmentRepresentation:
    """Re-read a layout table into its canonical representation.

    Line numbers in errors count from the header line; a missing element is
    reported at the line after the table, a repeated one at its second row.
    """
    lines = text.strip().splitlines()
    intervals: dict[int, tuple[float, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            label, lo, hi = line.split()
            interval = (float(lo), float(hi))
            e = ground.index(label)
        except (ValueError, SegrepError) as exc:
            raise ParseError(lineno, f"bad layout row ({exc})") from None
        if e in intervals:
            raise ParseError(lineno, f"second row for element {label!r}")
        intervals[e] = interval
    for e in range(ground.n):
        if e not in intervals:
            raise ParseError(len(lines) + 1, f"no row for element {ground.labels[e]!r}")
    return normalize_layout([intervals[e] for e in range(ground.n)])


def render_ascii(ground: GroundSet, rep: SegmentRepresentation) -> str:
    """Nested-segment diagram; one row per element, top of the left chain first."""
    n = rep.n
    if n == 0:
        return "∇"
    width = 2 * n + 1
    label_pad = max(len(ground.labels[e]) for e in rep.left)
    lines = []
    for e in reversed(rep.left):
        lo = n - rep.left_rank(e)
        hi = n + rep.right_rank(e)
        row = [" "] * width
        for x in range(lo + 1, hi):
            row[x] = "-"
        row[lo] = "["
        row[hi] = "]"
        lines.append(f"{ground.labels[e]:>{label_pad}} " + "".join(row))
    lines.append(" " * (label_pad + 1 + n) + "∇")
    return "\n".join(lines)


def render_svg(ground: GroundSet, rep: SegmentRepresentation) -> str:
    """SVG 1.1 drawing: one horizontal segment per element, stacked by left
    rank (40px rows), dashed vertical origin line."""
    n = rep.n
    scale, row_h, margin = 24, 40, 20
    width = 2 * n * scale + 2 * margin
    height = max(n, 1) * row_h + 2 * margin
    x0 = margin + n * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<line x1="{x0}" y1="{margin // 2}" x2="{x0}" y2="{height - margin // 2}" '
        f'stroke="gray" stroke-dasharray="4,4"/>',
    ]
    for i, e in enumerate(reversed(rep.left)):
        y = margin + i * row_h + row_h // 2
        x1 = x0 - rep.left_rank(e) * scale
        x2 = x0 + rep.right_rank(e) * scale
        parts.append(
            f'<line x1="{x1}" y1="{y}" x2="{x2}" y2="{y}" stroke="black" stroke-width="3"/>'
        )
        label = ground.labels[e].replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{x1 - 14}" y="{y + 5}" font-size="14">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


class Report:
    """Ordered key/value payload, printable as text or JSON.

    Identical inputs produce byte-identical reports; wall-clock timing is
    only included when explicitly requested.
    """

    def __init__(self, command: str, path: str, text: str):
        self.items: list[tuple[str, object]] = []
        self.add("command", command)
        self.add("input", path)
        self.add("sha256", hashlib.sha256(text.encode()).hexdigest())

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def emit(self, as_json: bool) -> str:
        if as_json:
            import json  # only here: text reports skip its import cost

            return json.dumps(dict(self.items), indent=2)
        return "\n".join(f"{key}: {value}" for key, value in self.items)


def _max_n_keyword(text: str) -> dict:
    """Parse ``--max-n`` into the ``max_n`` keyword of ``validate_geometry``,
    whose closed-set walk is the one guarded call; a guard counts elements,
    so it is 0 or more.  Without the flag the guard keeps its default."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a guard is 0 or more, not {value}")
    return {"max_n": value}


def _load(args, command: str) -> tuple[Report, ConvexGeometry]:
    """Read, parse and validate the input file; start the command's report."""
    with open(args.file, "rb") as handle:
        raw = handle.read()
    try:
        # utf-8-sig drops a byte-order mark, so sha256 hashes the text after it.
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"not valid UTF-8 ({exc.reason})") from None
    # The newline translation that reading in text mode does.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    geom = validate_geometry(parse_geometry(text), **args.guard)
    return Report(command, args.file, text), geom


def _describe_basis(report: Report, geom: ConvexGeometry) -> None:
    report.add("elements", geom.n)
    report.add("implications", geom.basis.m)
    report.add("basis_size", geom.basis.size)


def _represent(report: Report, geom: ConvexGeometry) -> SegmentRepresentation | None:
    """Decide; on a yes, build the representation and report its chain
    display.  None on a no."""
    _describe_basis(report, geom)
    decision = decide_cdim2(geom)
    report.add("cdim2", decision.cdim2)
    if not decision.cdim2:
        return None
    rep = build_representation(geom)
    report.add("representation", chain_display(geom.ground, rep))
    return rep


def cmd_check(args, report: Report, geom: ConvexGeometry) -> int:
    _describe_basis(report, geom)
    decision = decide_cdim2(geom)
    report.add("two_ex", decision.two_ex.holds)
    if not decision.two_ex.holds:
        report.add("two_ex_witness", decision.two_ex.describe(geom.ground))
    report.add("sq", decision.sq.holds)
    if not decision.sq.holds:
        report.add("sq_witness", decision.sq.describe(geom.ground))
    report.add("cdim2", decision.cdim2)
    return 0 if decision.cdim2 else 1


def cmd_represent(args, report: Report, geom: ConvexGeometry) -> int:
    rep = _represent(report, geom)
    if rep is None:
        return 1
    report.add("segments", "\n" + layout_table(geom.ground, rep))
    return 0


def cmd_unique(args, report: Report, geom: ConvexGeometry) -> int:
    rep = _represent(report, geom)
    if rep is None:
        return 1
    report.add("blocks", "\n" + block_table(geom.ground, rep))
    report.add("representation_count", count_representations(rep))
    report.add("unique", is_unique(rep).unique)
    return 0


def cmd_closure(args, report: Report, geom: ConvexGeometry) -> int:
    seed = geom.ground.mask(args.set)
    closed = geom.closure(seed)
    report.add("seed", geom.ground.format_set(seed))
    report.add("closure", geom.ground.format_set(closed))
    extreme = geom.basis.extreme_points_of_closed(closed)
    report.add("extreme_points", geom.ground.format_set(extreme))
    return 0


def cmd_render(args, report: Report, geom: ConvexGeometry) -> int:
    rep = _represent(report, geom)
    if rep is None:
        print("not representable by segments on a line", file=sys.stderr)
        return 1
    draw = render_ascii if args.format == "ascii" else render_svg
    print(draw(geom.ground, rep))
    return 0


_FLAGS = {
    "--json": dict(action="store_true", help="machine-readable report"),
    "--timing": dict(action="store_true", help="include elapsed time"),
    "--max-n": dict(type=_max_n_keyword, default={}, dest="guard",
                    help="override the guard on validation's closed-set walk"),
}
_REPORT = ("--json", "--timing", "--max-n")

# Each subcommand with its handler, help line, and the flags it reads.
# Commands that take --json print their report; render prints a drawing.
_COMMANDS = {
    "check": (cmd_check, "decide representability by segments", _REPORT),
    "represent": (cmd_represent, "print chain display and interval table", _REPORT),
    "unique": (cmd_unique, "block report, count, uniqueness verdict", _REPORT),
    "closure": (cmd_closure, "closure and extreme points of a set", _REPORT),
    "render": (cmd_render, "draw the nested segments", ("--max-n",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segrep",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("file", help="geometry file")
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(handler=handler)
    sub.choices["closure"].add_argument("set", nargs="*", help="element labels")
    sub.choices["render"].add_argument("--format", choices=("ascii", "svg"), default="ascii")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    code = 0  # render writes only on a yes
    try:
        report, geom = _load(args, args.command)
        code = args.handler(args, report, geom)
        if "json" in args:
            report.add("closure_calls", geom.closure_calls)
            if args.timing:
                report.add("elapsed_ms", round((time.monotonic() - started) * 1000, 3))
            print(report.emit(args.json))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads stdout any more: the verdict stands, and the flush at
        # exit goes to the null device instead of failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (OSError, SegrepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GroundSetTooLarge) else 2
    except (RecursionError, MemoryError) as exc:
        limit = "recursion depth" if isinstance(exc, RecursionError) else "memory"
        print(f"error: {args.command}: ran out of {limit}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
