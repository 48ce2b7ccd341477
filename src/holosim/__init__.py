"""Twin-beam interferometer-pair simulator.

Quantifies how the entanglement-enhanced phase-correlation uncertainty
of a pair of power-recycled interferometers fed by twin-beam light
degrades under weak thermal-environment coupling and under a small
deformation of the canonical commutation relations.  Two cross-checking
backends are provided: a truncated occupation-basis oracle and Gaussian
analytics (moment factorization plus an independent quadrature route).
Exports the README's API session; import the rest from its submodule.
"""

from .errors import HolosimError
from .estimator import (
    PhaseNoiseModel,
    four_mode_input,
    paired_phase_average,
    uncertainty_env_approx,
    uncertainty_env_full,
    uncertainty_modccr_analytic,
    uncertainty_modccr_fock,
)
from .fock import CoherentInput, FockCutoff, SqueezeParams

__version__ = "0.1.0"
