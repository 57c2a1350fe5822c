"""Convex geometries from implicational bases: decide representability by
segments on a line, construct the representation, and count them."""

from .core import (
    GroundSet,
    GroundSetTooLarge,
    Implication,
    ImplicationBasis,
    SegrepError,
    UnknownLabel,
    iter_bits,
    mask_of,
)
from .geometry import ConvexGeometry, NotAGeometry, closed_family, validate_geometry
from .properties import (
    Decision,
    PropertyReport,
    SqWitness,
    TwoExWitness,
    check_2ex,
    check_sq,
    decide_cdim2,
    verify_witness,
)
from .representation import (
    Infeasible,
    SegmentRepresentation,
    build_representation,
    segment_closure,
    segment_layout,
    verify_representation,
)
from .uniqueness import (
    Block,
    NotApplicable,
    TooManyBlocks,
    UniquenessReport,
    block_decomposition,
    block_orientations,
    count_representations,
    enumerate_representations,
    is_unique,
    reconstruct_by_peeling,
)

__version__ = "0.1.0"
