"""Span wrappers around segrep's public layer functions.

Each wrapper replaces the name where callers resolve it at call time:

* class methods (``ImplicationBasis.closure``,
  ``ConvexGeometry.extreme_points``) are patched on the class;
* module functions are patched in their own module, which is where calls
  inside that module and the benchmark's pipeline look them up;
* ``uniqueness`` and ``cli`` bind names from other modules at import, so
  those bindings are patched too;
* ``representation._insert`` imports ``block_orientations`` from
  ``uniqueness`` at call time, which the ``uniqueness`` patch covers.

``install`` is called only in a traced process and returns a function that
puts every original back.
"""

from __future__ import annotations

from segrep import cli, core, geometry, properties, representation, uniqueness


def _verified(result):
    ok, _seed = result
    yield "verified_ok", int(ok)


def _representations(reps):
    yield "representations", len(reps)


# span name -> (function owner, attribute, counter extractor).  The owner
# list of each entry names every place callers look the function up.
TARGETS = {
    "core.closure": ((core.ImplicationBasis,), "closure", None),
    "geometry.extreme_points": ((geometry.ConvexGeometry,), "extreme_points", None),
    "geometry.validate": ((geometry, cli), "validate_geometry", None),
    "properties.decide": ((properties, cli), "decide_cdim2", None),
    "properties.check_2ex": ((properties,), "check_2ex", None),
    "properties.check_sq": ((properties,), "check_sq", None),
    "properties.verify_witness": ((properties,), "verify_witness", None),
    "representation.build": ((representation, cli), "build_representation", None),
    "representation.verify": (
        (representation, uniqueness, cli), "verify_representation", _verified,
    ),
    "uniqueness.count": ((uniqueness, cli), "count_representations", None),
    "uniqueness.is_unique": ((uniqueness, cli), "is_unique", None),
    "uniqueness.enumerate": ((uniqueness,), "enumerate_representations", _representations),
    "uniqueness.reconstruct": ((uniqueness,), "reconstruct_by_peeling", None),
    "cli.parse": ((cli,), "parse_geometry", None),
}


def install(tracer):
    """Patch every target with a span wrapper; return the undo function."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for name, (owners, attr, count) in TARGETS.items():
        original = owners[0].__dict__[attr]
        wrapped = tracer.wrap(name, original, count)
        for owner in owners:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}'s function")
            patch(owner, attr, wrapped)

    original_family = geometry.closed_family

    def closed_family(*args, **kwargs):
        family = original_family(*args, **kwargs)
        tracer.count("closed_sets", len(family))
        return family

    patch(geometry, "closed_family", closed_family)

    original_orientations = uniqueness.block_orientations

    def block_orientations(rep):
        for pair in original_orientations(rep):
            tracer.count("orientations")
            yield pair

    patch(uniqueness, "block_orientations", block_orientations)

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
