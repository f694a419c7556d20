"""Point selection with certified two-sided L2 norm discretization.

Given an orthonormal system sampled on a discrete probability space,
the selectors pick a small subset of points (equal or nonnegative
weights) so that the discrete quadratic mean over the subset stays
within verified constants of the norm on the whole span.  Every
certificate is backed by a direct eigenvalue computation, never by the
construction alone.
"""

from .errors import (
    DiscretizationError,
    DomainError,
    DuplicationOverflowError,
    EigensolverError,
    MappingMismatchError,
    ParseError,
    PartitionSizeError,
    PreconditionError,
    RefinementError,
    SearchFailureError,
    StageError,
)
from .frame_core import (
    FrameBounds,
    FrameSystem,
    extreme_eigenvalues,
    frame_bounds,
    frame_operator,
    subset_bounds,
    verify_tight,
    weighted_bounds,
)
from .partition_oracle import (
    OracleConfig,
    PartitionRequest,
    PartitionResult,
    partition_targets,
    spectral_partition,
)
from .halving_select import (
    HalvingCertificate,
    HalvingSchedule,
    check_cardinality_sandwich,
    halving_schedule,
    halving_select,
)
from .weighted_sparsify import (
    DuplicationMap,
    WeightedCertificate,
    duplicate_normalize,
    weighted_select,
)
from .discretize import (
    BasisChange,
    ComplexRealMap,
    ContinuousSystemSpec,
    DiscretizationCertificate,
    NikolskiiReport,
    SampledSystem,
    build_frame_from_samples,
    complexify_via_real,
    condition_e_constant,
    discretize_continuous,
    discretize_equal_weight,
    discretize_weighted,
    monte_carlo_refine,
    recompute_constants,
    reorthonormalize,
    transfer_certificate,
)
from .systems_io import (
    SystemDescriptor,
    load_certificate,
    load_system,
    make_system,
    save_certificate,
    save_system,
)
from .verify import VerifyReport, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "BasisChange",
    "ComplexRealMap",
    "ContinuousSystemSpec",
    "DiscretizationCertificate",
    "DiscretizationError",
    "DomainError",
    "DuplicationMap",
    "DuplicationOverflowError",
    "EigensolverError",
    "FrameBounds",
    "FrameSystem",
    "HalvingCertificate",
    "HalvingSchedule",
    "MappingMismatchError",
    "NikolskiiReport",
    "OracleConfig",
    "ParseError",
    "PartitionRequest",
    "PartitionResult",
    "PartitionSizeError",
    "PreconditionError",
    "RefinementError",
    "SampledSystem",
    "SearchFailureError",
    "StageError",
    "SystemDescriptor",
    "VerifyReport",
    "WeightedCertificate",
    "build_frame_from_samples",
    "check_cardinality_sandwich",
    "complexify_via_real",
    "condition_e_constant",
    "discretize_continuous",
    "discretize_equal_weight",
    "discretize_weighted",
    "duplicate_normalize",
    "extreme_eigenvalues",
    "frame_bounds",
    "frame_operator",
    "halving_schedule",
    "halving_select",
    "load_certificate",
    "load_system",
    "make_system",
    "monte_carlo_refine",
    "partition_targets",
    "recompute_constants",
    "reorthonormalize",
    "save_certificate",
    "save_system",
    "spectral_partition",
    "subset_bounds",
    "transfer_certificate",
    "verify_certificate",
    "verify_tight",
    "weighted_bounds",
    "weighted_select",
]
