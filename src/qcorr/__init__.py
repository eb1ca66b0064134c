"""Quantumness of correlations for indistinguishable particles.

Fock-space simulation of fermions and bosons, single-particle measurement
families, an entanglement-activation protocol, and minimization of the
measurement disturbance over the single-particle unitary group.
"""

from .activation import (
    JointState,
    Subsystem,
    entanglement_maxcorr,
    max_corr_coefficients,
    partial_trace,
    run_protocol,
    verify_maximally_correlated,
)
from .correlations import (
    Classification,
    ClassificationReport,
    ClassicalStateSpec,
    OptimizerConfig,
    QuantumnessReport,
    classify,
    classify_report,
    geometric_quantumness,
    make_classical_state,
    one_particle_rdm,
    projected_entropy,
    quantumness,
    quantumness_oracle,
    relative_entropy,
    shannon_entropy,
    slater_rank_two_particle,
    von_neumann_entropy,
)
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    InvalidDimension,
    InvalidSpec,
    InvalidState,
    NotMaxCorrelated,
    QcorrError,
    StateFileError,
    UnknownOccupation,
    UnsupportedParticleNumber,
)
from .fock import (
    FockBasis,
    Statistics,
    check_density_matrix,
    creation_matrix,
    enumerate_basis,
    slater_state,
)
from .lift import (
    haar_random_unitary,
    lift_observable,
    lift_unitary,
)
from .measurement import MeasurementFamily, build_family, dephase
from .statefile import ParsedState, parse_state_file, parse_state_text, write_state_file, write_state_text

__version__ = "0.1.0"
