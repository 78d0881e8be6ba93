"""Concurrence evolution of few-qubit states under local Pauli channels."""

from .channels import (
    PauliChannel,
    apply,
    channel_from_json,
    flip_channel,
    identity_channel,
    parse_channel,
    parse_channel_list,
    sample_channel,
)
from .concurrence import (
    Bipartition,
    ConcurrenceBreakdown,
    PairTerm,
    bipartite_concurrence,
    cut_concurrence,
    parse_cut,
    tau3,
)
from .errors import (
    DimensionMismatchError,
    InvalidPermutationError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
)
from .experiments import (
    Figure1Result,
    RankRow,
    figure1_scan,
    rank_table,
    rank_table_csv,
)
from .factorization import (
    CampaignConfig,
    CampaignReport,
    FactorizationIdentity,
    IdentityReport,
    default_cut,
    evaluate_identity,
    identity_for,
    run_campaign,
)
from .linalg import (
    DensityMatrix,
    permutation_indices,
)
from .states import PureState, bell, ghz, parse_state, random_pure, state_from_json, w

__version__ = "0.1.0"
