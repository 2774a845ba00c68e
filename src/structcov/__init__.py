"""Robust estimation of structured scatter matrices for heavy-tailed data.

Minimizes Tyler's scatter cost under structural constraints
(linear spans, sums of known rank-one atoms, Toeplitz and banded
Toeplitz via circulant embedding, spiked, and Kronecker products) with
majorization-minimization loops, plus a Monte Carlo benchmark harness
and a MUSIC direction-of-arrival pipeline.
"""

from .exceptions import (
    DegenerateDataError,
    DegenerateSpectrumWarning,
    EstimationError,
    FailedToConvergeError,
    InfeasibleConstraintError,
    InvalidInputError,
    NumericalFailureError,
)
from .kronecker import KroneckerFactors, estimate_kronecker, kron_objective
from .linalg import pd_geometric_mean
from .linear import (
    LinearStructure,
    banded_toeplitz_basis,
    circulant_basis,
    diagonal_basis,
    estimate_linear,
    full_symmetric_basis,
    hermitian_basis,
    stationarity_residual,
    structure_from_name,
    toeplitz_basis,
)
from .rankone import RankOneDictionary, estimate_rank_one
from .simulate import (
    MusicResult,
    angles_recovered,
    ar_cov,
    banded_ar_cov,
    default_music_grid,
    doa_cov,
    music_spectrum,
    nmse,
    sample_cov,
    sample_elliptical,
    spiked_cov,
    steering_vector,
    subspace_error,
    ula_dictionary,
)
from .spiked import SpikedModel, estimate_spiked, project_spiked
from .toeplitz import (
    BandedSpec,
    CirculantEmbedding,
    banded_inner_update,
    diagonal_spread,
    estimate_banded_toeplitz,
    estimate_toeplitz,
)
from .tyler import (
    EstimatorResult,
    MMSettings,
    SampleSet,
    fixed_point_residual,
    mm_drive,
    tyler_cost,
    tyler_unconstrained,
    weighted_scatter,
)
from .bench import ExperimentConfig, run_experiment

__version__ = "0.1.0"
