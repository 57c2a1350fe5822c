"""How many representations does a geometry have, and why.

Whether chains can be partially flipped is visible in the block structure:
positions where the two chains have accumulated the same elements cut the
representation into blocks, and every block whose two sub-chains differ can
be flipped independently.
"""

from importlib import resources

from segrep import (
    NotApplicable,
    build_representation,
    count_representations,
    enumerate_representations,
    is_unique,
    reconstruct_by_peeling,
    validate_geometry,
)
from segrep.cli import block_table, chain_display, parse_geometry

data = resources.files("segrep") / "data"
for name in ("un", "switch", "unique", "seven"):
    geom = validate_geometry(parse_geometry((data / f"{name}.geom").read_text()))
    gs = geom.ground
    rep = build_representation(geom)
    print(f"== {name}: {chain_display(gs, rep)}")
    print(block_table(gs, rep))
    print("representations:", count_representations(rep))
    for other in enumerate_representations(rep):
        print("  ", chain_display(gs, other))
    print("unique:", is_unique(rep).unique)

    # reconstruction from extreme points alone works exactly when unique
    try:
        rebuilt = reconstruct_by_peeling(geom)
        print("reconstructed from extreme points:", rebuilt == rep)
    except NotApplicable as err:
        print("reconstruction ambiguous at", gs.format_set(err.witness))
    print()
