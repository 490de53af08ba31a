"""Noncoherent random linear coding networks as subspace channels.

Models a network performing uniform random linear combining over GF(q) as a
discrete memoryless channel whose symbols are subspaces of F_q^T, provides
the exact transition law and closed-form capacity, and verifies both against
exhaustive enumeration, Monte Carlo simulation, and a generic Blahut-Arimoto
solver.
"""

from .capacity import (
    BaSolution,
    CapacityReport,
    ComponentCapacity,
    blahut_arimoto,
    capacity_closed_form,
    component_capacity,
    mutual_information,
    strongly_symmetric_capacity,
    symmetric_capacity_from_components,
)
from .channel import (
    ChannelSpec,
    Dmc,
    DmcComponent,
    OutputAlphabet,
    RankDefDist,
    build_dmc,
    channel_spec_from_dict,
    channel_spec_to_dict,
    components,
    conditional_prob_given_rank,
    dmc_to_csv,
    dmc_to_json,
    estimate_rank_def_dist,
    simulate_one_use,
    transition_prob,
)
from .errors import (
    AmbientMismatchError,
    DimensionMismatchError,
    DistributionInvalidError,
    EnumerationTooLargeError,
    FieldMismatchError,
    InsufficientDataError,
    InvalidParameterError,
    NonConvergenceError,
    NotPrimePowerError,
    NotRowStochasticError,
    ObservationOutOfRangeError,
    SubchanError,
)
from .gf import GF
from .grassmann import (
    DEFAULT_ENUM_CAP,
    GrassmannianIndex,
    Subspace,
    contains,
    count_ordered_bases,
    enumerate_grassmannian,
    enumerate_subspaces_of,
    gaussian_coefficient,
    random_ordered_basis,
    span,
    subspace_label,
)
from .matrix import (
    Mat,
    matmul,
    rank,
    rref,
    sample_full_rank,
)
from .mc import (
    McReport,
    PipelineReport,
    empirical_capacity_pipeline,
    mc_report_to_csv,
    mc_report_to_dict,
    run_mc,
)

__version__ = "0.1.0"
