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
    restrict_basis,
)
from .geometry import (
    Alignment,
    ConvexGeometry,
    GroundSetMismatch,
    NotAGeometry,
    closed_family,
    extendability_witness,
    join_alignments,
    linear_alignment,
    validate_geometry,
)
from .properties import (
    CaratheodoryFails,
    CaratheodoryWitness,
    Decision,
    ExRWitness,
    PropertyReport,
    SqWitness,
    TwoExWitness,
    check_2ex,
    check_2ex_exhaustive,
    check_caratheodory,
    check_exr,
    check_sq,
    check_sq_exhaustive,
    decide_cdim2,
    reduce_to_binary_basis,
    verify_witness,
)
from .representation import (
    BruteForceResult,
    DuplicateEndpoint,
    Infeasible,
    SegmentRepresentation,
    brute_force_cdim2,
    build_representation,
    normalize_layout,
    segment_closure,
    segment_layout,
    verify_representation,
)
from .uniqueness import (
    Block,
    BlockDecomposition,
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
from .fixtures import (
    Fixture,
    RejectionBudgetExceeded,
    UnknownFixture,
    disjoint_chains_geometry,
    geometry_from_chains,
    load_fixture,
    random_geometry,
)

__version__ = "0.1.0"
