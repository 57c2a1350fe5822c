"""Closure basics: implications, closed sets, extreme points.

A geometry is described by a ground set plus implications: whenever all the
premise elements are present, the conclusion elements must be too.  The
closure of a seed set is what forward chaining adds to it.
"""

from segrep import closed_family, validate_geometry
from segrep.cli import parse_geometry
from segrep.core import canonical_key

TEXT = """
elements a b c d
imp d -> b c
imp a c -> b
"""

basis = parse_geometry(TEXT)
geom = validate_geometry(basis)
gs = geom.ground

# singleton closures: what each element drags in
for label in gs.labels:
    seed = gs.mask(label)
    print(f"closure({{{label}}}) = {gs.format_set(geom.closure(seed))}")

# the whole family of closed sets, smallest first
print("\nclosed sets:")
for member in sorted(closed_family(basis), key=canonical_key):
    print(" ", gs.format_set(member))

# extreme points: members a set cannot re-generate after dropping them
full = gs.full
print("\nextreme points of the whole set:", gs.format_set(geom.extreme_points(full)))
sub = gs.mask("bcd")
print("extreme points of {b,c,d}:", gs.format_set(geom.extreme_points(sub)))
