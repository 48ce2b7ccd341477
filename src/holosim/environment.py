"""Thermal-environment parameter layer.

Holds the coupling-channel parameters (rate lambda, effective thermal
occupation M, photon flight time tau), the diagonal damping-coefficient
matrix of the weak-coupling master equation, the drift/diffusion
coefficients of the equivalent phase-space equation, and the Planck-scale
order-of-magnitude estimate for the dimensionless coupling lambda*tau.

Constants: c = 299792458 m/s (SI exact); Planck mass 1.22e19 GeV (PDG
rounded value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HolosimError,
    NegativeParameter,
    NonPositiveExponent,
    NonPositiveLength,
)

C_LIGHT = 299792458.0          # m/s
PLANCK_MASS_GEV = 1.22e19      # GeV
EV_PER_GEV = 1e9
_CLOSURE_TOL = 1e-12


def boltzmann_factor(beta: float, omega: float) -> float:
    """Mean thermal occupation 1/(e^{beta*omega} - 1) of a bath mode."""
    if not beta * omega > 0.0:
        raise NonPositiveExponent(
            f"beta*omega must be positive, got {beta!r} * {omega!r}")
    return 1.0 / math.expm1(beta * omega)


def flight_time(length: float, c: float = C_LIGHT) -> float:
    """Round-trip photon dwell time 4*L/c for arm length L."""
    if not length > 0.0:
        raise NonPositiveLength(f"arm length must be positive, got {length!r}")
    return 4.0 * length / c


@dataclass(frozen=True)
class EnvironmentParams:
    """Coupling rate lam (1/time), thermal parameter M, flight time tau.

    M is a free effective parameter; optionally it can be tied to a bath
    inverse temperature and mode energy, and tau to an arm length, via
    ``from_provenance`` — in that case the stored values must close with
    ``boltzmann_factor`` and ``flight_time`` to within 1e-12.
    """

    lam: float
    M: float
    tau: float = 0.0
    provenance: tuple = None  # (beta, omega, length) when derived

    def __post_init__(self):
        if not (self.lam >= 0.0 and self.M >= 0.0 and self.tau >= 0.0):
            raise NegativeParameter(
                f"lam, M, tau must be non-negative, got "
                f"({self.lam!r}, {self.M!r}, {self.tau!r})")
        if self.provenance is not None:
            beta, omega, length = self.provenance
            m_ref = boltzmann_factor(beta, omega)
            tau_ref = flight_time(length)
            if (abs(self.M - m_ref) > _CLOSURE_TOL * max(1.0, abs(m_ref))
                    or abs(self.tau - tau_ref) > _CLOSURE_TOL * max(1.0, abs(tau_ref))):
                raise HolosimError(
                    "provenance does not close: M/tau disagree with "
                    "boltzmann_factor/flight_time beyond 1e-12")

    @classmethod
    def from_provenance(cls, lam: float, beta: float, omega: float,
                        length: float) -> "EnvironmentParams":
        return cls(lam=lam, M=boltzmann_factor(beta, omega),
                   tau=flight_time(length), provenance=(beta, omega, length))

    @property
    def lambda_tau(self) -> float:
        return self.lam * self.tau


@dataclass(frozen=True)
class KossakowskiMatrix:
    """Damping-coefficient matrix over the operator vector (a1, a1', a2, a2').

    For the thermal channel it is lam * diag(1+M, M, 1+M, M); positive
    semi-definiteness is the complete-positivity condition.
    """

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (4, 4):
            raise HolosimError("damping matrix must be 4x4")

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    def is_positive_semidefinite(self, tol: float = 0.0) -> bool:
        return bool(np.all(self.eigenvalues() >= -tol))


def kossakowski(env: EnvironmentParams) -> KossakowskiMatrix:
    """Thermal-channel damping matrix lam * diag(1+M, M, 1+M, M)."""
    return KossakowskiMatrix(
        np.diag([env.lam * (1.0 + env.M), env.lam * env.M,
                 env.lam * (1.0 + env.M), env.lam * env.M]))


def fokker_planck_coefficients(env: EnvironmentParams) -> tuple:
    """(drift, diffusion) of the phase-space drift-diffusion equation.

    drift multiplies (d/dx x + d/dy y), diffusion multiplies
    (d2/dx2 + d2/dy2) per mode: (lam/2, lam*(2M+1)/2).
    """
    return env.lam / 2.0, env.lam * (2.0 * env.M + 1.0) / 2.0


def planck_coupling_estimate(omega_gamma_ev: float) -> float:
    """Order-of-magnitude lambda*tau ~ omega/M_Planck for photon energy in eV."""
    if omega_gamma_ev < 0.0:
        raise NegativeParameter(
            f"photon energy must be non-negative, got {omega_gamma_ev!r}")
    return (omega_gamma_ev / EV_PER_GEV) / PLANCK_MASS_GEV
