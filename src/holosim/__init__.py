"""Twin-beam interferometer-pair simulator.

Quantifies how the entanglement-enhanced phase-correlation uncertainty
of a pair of power-recycled interferometers fed by twin-beam light
degrades under weak thermal-environment coupling and under a small
deformation of the canonical commutation relations.  Two cross-checking
backends are provided: a truncated occupation-basis oracle and Gaussian
analytics (moment factorization plus an independent quadrature route).
"""

from .environment import (
    EnvironmentParams,
    KossakowskiMatrix,
    boltzmann_factor,
    flight_time,
    fokker_planck_coefficients,
    kossakowski,
    planck_coupling_estimate,
)
from .errors import (
    AmplitudeTooLarge,
    ConfigError,
    CutoffTooSmall,
    DegenerateDenominator,
    DegreeTooHigh,
    HolosimError,
    InvalidModeIndex,
    NegativeParameter,
    NonPositiveExponent,
    NonPositiveLength,
    ParameterOutOfRange,
    UnsupportedPhase,
    ZeroAmplitude,
)
from .estimator import (
    Backend,
    PairedAverages,
    PhaseNoiseModel,
    UncertaintyResult,
    classical_uncertainty,
    correlation_estimate,
    difference_power_terms,
    four_mode_input,
    paired_phase_average,
    required_monomials,
    uncertainty_env_approx,
    uncertainty_env_full,
    uncertainty_modccr_analytic,
    uncertainty_modccr_fock,
)
from .fock import (
    CoherentInput,
    FockCutoff,
    MultiModeFockState,
    SqueezeParams,
    apply_beam_splitter,
    basis_state,
    build_coherent,
    build_twb,
    expectation,
    number_difference_moment,
    tensor_product,
)
from .gaussian import (
    TwoModeGaussianState,
    WignerMonomial,
    as_ladder_sequence,
    evolve,
    from_squeezing,
    glauber_moment,
    isserlis_moment,
)
from .modccr import (
    AuxiliaryModeMap,
    CommutatorCheckReport,
    DeformationParams,
    closed_form_correction,
    deformed_commutator_check,
    duhamel_first_order,
    perturbation_generator_action,
)

__version__ = "0.1.0"
