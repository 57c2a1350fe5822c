"""Command-line front end: parse geometry files, run checks, emit reports.

File grammar (UTF-8, one statement per line, ``#`` starts a comment):

    elements <label>+          exactly one, before any implication
    imp <label>+ -> <label>+   zero or more

Exit codes: 0 the geometry is representable by segments (convex dimension at
most 2), 1 it is not, 2 invalid input or not a convex geometry, 3 a guard on
an exhaustive operation was hit (the message names the flag to raise).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .core import GroundSet, GroundSetTooLarge, Implication, ImplicationBasis, SegrepError
from .geometry import ConvexGeometry, NotAGeometry, validate_geometry
from .properties import decide_cdim2
from .representation import (
    Infeasible,
    SegmentRepresentation,
    brute_force_cdim2,
    build_representation,
    normalize_layout,
    segment_layout,
    verify_representation,
)
from .uniqueness import block_decomposition, count_representations, is_unique
from . import properties


class ParseError(SegrepError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


def parse_geometry(text: str) -> ImplicationBasis:
    """Parse the geometry file grammar into an implicational basis."""
    ground: GroundSet | None = None
    implications: list[tuple[int, list[str], list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            try:
                ground = GroundSet(tuple(args))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif keyword == "imp":
            if ground is None:
                raise ParseError(lineno, "'imp' before 'elements' line")
            if "->" not in args:
                raise ParseError(lineno, "'imp' needs '->' between premise and conclusion")
            arrow = args.index("->")
            premise, conclusion = args[:arrow], args[arrow + 1:]
            if not premise:
                raise ParseError(lineno, "empty premise side")
            if not conclusion:
                raise ParseError(lineno, "empty conclusion side")
            implications.append((lineno, premise, conclusion))
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")
    if ground is None:
        raise ParseError(0, "missing 'elements' line")
    built = []
    for lineno, premise, conclusion in implications:
        try:
            built.append(Implication(ground.mask(premise), ground.mask(conclusion)))
        except SegrepError as exc:
            raise ParseError(lineno, str(exc)) from None
    return ImplicationBasis(ground, tuple(built))


def chain_display(ground: GroundSet, rep: SegmentRepresentation) -> str:
    """Print a representation with the left chain reversed toward the origin."""
    parts = [ground.labels[e] for e in reversed(rep.left)]
    parts.append("∇")
    parts.extend(ground.labels[e] for e in rep.right)
    return "(" + " ".join(parts) + ")"


def layout_table(ground: GroundSet, rep: SegmentRepresentation) -> str:
    rows = {e: (lo, hi) for e, lo, hi in segment_layout(rep)}
    lines = ["element left_endpoint right_endpoint"]
    for e in range(ground.n):
        lo, hi = rows[e]
        lines.append(f"{ground.labels[e]} {lo} {hi}")
    return "\n".join(lines)


def parse_layout_table(ground: GroundSet, text: str) -> SegmentRepresentation:
    """Re-read a layout table into its canonical representation."""
    intervals: dict[int, tuple[float, float]] = {}
    for line in text.strip().splitlines()[1:]:
        label, lo, hi = line.split()
        intervals[ground.index(label)] = (float(lo), float(hi))
    ordered = [intervals[e] for e in range(ground.n)]
    return normalize_layout(ordered)


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
        parts.append(
            f'<text x="{x1 - 14}" y="{y + 5}" font-size="14">{ground.labels[e]}</text>'
        )
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
            return json.dumps(dict(self.items), indent=2)
        return "\n".join(f"{key}: {value}" for key, value in self.items)


def _guard(args, default: int) -> int:
    """The ``--max-n`` value if one was given (0 included), else ``default``."""
    return default if args.max_n is None else args.max_n


def _load(args) -> tuple[str, ConvexGeometry]:
    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    basis = parse_geometry(text)
    return text, validate_geometry(basis, max_n=_guard(args, 20))


def _describe_basis(report: Report, geom: ConvexGeometry) -> None:
    report.add("elements", geom.n)
    report.add("implications", geom.basis.m)
    report.add("basis_size", geom.basis.size)


def _finish(report: Report, geom: ConvexGeometry, args, started: float) -> None:
    report.add("closure_calls", geom.stats.closures)
    if args.timing:
        report.add("elapsed_ms", round((time.monotonic() - started) * 1000, 3))
    print(report.emit(args.json))


def cmd_check(args) -> int:
    started = time.monotonic()
    text, geom = _load(args)
    report = Report("check", args.file, text)
    _describe_basis(report, geom)
    decision = decide_cdim2(geom)
    report.add("two_ex", decision.two_ex.holds)
    if not decision.two_ex.holds:
        report.add("two_ex_witness", decision.two_ex.describe(geom.ground))
    report.add("sq", decision.sq.holds)
    if not decision.sq.holds:
        report.add("sq_witness", decision.sq.describe(geom.ground))
    report.add("cdim2", decision.cdim2)
    _finish(report, geom, args, started)
    return 0 if decision.cdim2 else 1


def cmd_represent(args) -> int:
    started = time.monotonic()
    text, geom = _load(args)
    report = Report("represent", args.file, text)
    _describe_basis(report, geom)
    decision = decide_cdim2(geom)
    report.add("cdim2", decision.cdim2)
    if not decision.cdim2:
        _finish(report, geom, args, started)
        return 1
    rep = build_representation(geom, strategy=args.builder)
    if args.exhaustive:
        ok, _ = verify_representation(geom, rep, exhaustive=True, max_n=_guard(args, 12))
        report.add("verified_exhaustively", ok)
    report.add("representation", chain_display(geom.ground, rep))
    report.add("segments", "\n" + layout_table(geom.ground, rep))
    _finish(report, geom, args, started)
    return 0


def cmd_unique(args) -> int:
    started = time.monotonic()
    text, geom = _load(args)
    report = Report("unique", args.file, text)
    _describe_basis(report, geom)
    decision = decide_cdim2(geom)
    report.add("cdim2", decision.cdim2)
    if not decision.cdim2:
        _finish(report, geom, args, started)
        return 1
    rep = build_representation(geom, strategy=args.builder)
    if args.exhaustive:
        ok, _ = verify_representation(geom, rep, exhaustive=True, max_n=_guard(args, 12))
        report.add("verified_exhaustively", ok)
    report.add("representation", chain_display(geom.ground, rep))
    report.add("blocks", "\n" + block_decomposition(rep).describe(geom.ground))
    report.add("representation_count", count_representations(rep))
    verdict = is_unique(rep)
    report.add("unique", verdict.unique)
    _finish(report, geom, args, started)
    return 0


def cmd_closure(args) -> int:
    started = time.monotonic()
    text, geom = _load(args)
    report = Report("closure", args.file, text)
    seed = geom.ground.mask(args.set)
    closed = geom.closure(seed)
    report.add("seed", geom.ground.format_set(seed))
    report.add("closure", geom.ground.format_set(closed))
    report.add("extreme_points", geom.ground.format_set(geom.extreme_points(closed)))
    _finish(report, geom, args, started)
    return 0


def cmd_oracle(args) -> int:
    started = time.monotonic()
    text, geom = _load(args)
    report = Report("oracle", args.file, text)
    _describe_basis(report, geom)
    decision = decide_cdim2(geom)
    subset_guard = _guard(args, 15)
    exhaustive_2ex = properties.check_2ex_exhaustive(geom, max_n=subset_guard)
    exhaustive_sq = properties.check_sq_exhaustive(geom, max_n=subset_guard)
    brute = brute_force_cdim2(geom, max_n=_guard(args, 8))
    report.add("cdim2", decision.cdim2)
    report.add("two_ex", decision.two_ex.holds)
    report.add("two_ex_exhaustive", exhaustive_2ex.holds)
    report.add("sq", decision.sq.holds)
    report.add("sq_exhaustive", exhaustive_sq.holds)
    report.add("brute_force_cdim2", brute.cdim2)
    report.add("brute_force_representations", len(brute.representations))
    mismatches = []
    if decision.two_ex.holds != exhaustive_2ex.holds:
        mismatches.append("two_ex")
    if decision.sq.holds != exhaustive_sq.holds:
        mismatches.append("sq")
    if decision.cdim2 != brute.cdim2:
        mismatches.append("cdim2")
    report.add("mismatch", ",".join(mismatches) if mismatches else "none")
    _finish(report, geom, args, started)
    return 0 if decision.cdim2 else 1


def cmd_render(args) -> int:
    text, geom = _load(args)
    decision = decide_cdim2(geom)
    if not decision.cdim2:
        print("not representable by segments on a line", file=sys.stderr)
        return 1
    rep = build_representation(geom, strategy=args.builder)
    if args.format == "ascii":
        print(render_ascii(geom.ground, rep))
    else:
        print(render_svg(geom.ground, rep))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segrep",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, builder=False):
        p.add_argument("file", help="geometry file")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--timing", action="store_true", help="include elapsed time")
        p.add_argument("--exhaustive", action="store_true",
                       help="verify representations on every subset, not only pairs")
        p.add_argument("--max-n", type=int, default=None, dest="max_n",
                       help="override the guards on exhaustive scans")
        if builder:
            p.add_argument("--builder", choices=("paper", "backtrack"),
                           default="paper", help="construction strategy")

    common(sub.add_parser("check", help="decide representability by segments"))
    common(sub.add_parser("represent", help="print chain display and interval table"),
           builder=True)
    common(sub.add_parser("unique", help="block report, count, uniqueness verdict"),
           builder=True)
    closure = sub.add_parser("closure", help="closure and extreme points of a set")
    common(closure)
    closure.add_argument("set", nargs="*", help="element labels")
    oracle = sub.add_parser("oracle", help="diff exhaustive checks against the fast ones")
    common(oracle)
    render = sub.add_parser("render", help="draw the nested segments")
    common(render, builder=True)
    render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "represent": cmd_represent,
        "unique": cmd_unique,
        "closure": cmd_closure,
        "oracle": cmd_oracle,
        "render": cmd_render,
    }
    try:
        return handlers[args.command](args)
    except GroundSetTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, NotAGeometry, OSError, Infeasible, SegrepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
