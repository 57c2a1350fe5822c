"""Deciding representability by segments on a line, with both outcomes.

One geometry passes both property checks and gets an explicit nested-segment
layout; the other passes the first check but fails the second, and the
failure report pins down exactly which subset breaks.
"""

from importlib import resources

from segrep import build_representation, decide_cdim2, segment_layout, validate_geometry
from segrep.cli import chain_display, parse_geometry, render_ascii

data = resources.files("segrep") / "data"
for name in ("un", "notsuf"):
    geom = validate_geometry(parse_geometry((data / f"{name}.geom").read_text()))
    gs = geom.ground
    decision = decide_cdim2(geom)
    print(f"== {name}: two_ex={decision.two_ex.holds} sq={decision.sq.holds} "
          f"-> representable: {decision.cdim2}")
    if not decision.cdim2:
        failing = decision.sq if not decision.sq.holds else decision.two_ex
        print("  ", failing.describe(gs))
        continue
    rep = build_representation(geom)
    print("  chains:", chain_display(gs, rep))
    print("  intervals:", {gs.labels[e]: (lo, hi) for e, lo, hi in segment_layout(rep)})
    print(render_ascii(gs, rep))
    print()
