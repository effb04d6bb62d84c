"""Two-pure-state unambiguous discrimination and its retrodictive dual.

The instance is parametrized by the state half-angle alpha, with input states
cos(alpha)|0> +- sin(alpha)|1> and overlap s = cos(2*alpha).  The overlap
angle theta (cos(theta) = s) is exposed as a derived accessor only: keeping a
single canonical angle avoids the factor-of-two confusion between the two
conventions.

Everything admits two routes: a closed form and a numerical construction
through the generic transform machinery.  The tests hold the two against each
other; an independent grid search over the feasible (mu_1, mu_2) region backs
the optimal success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import linalg
from .ensembles import PRIORS_TOL, DensityOperator, Ensemble, Povm, PureState, Violation
from .errors import SingularOperator, ValidationError
from .retrodiction import PROB_CLAMP_TOL, RetroDual, retro_transform

# Positivity tolerance of the source remainder left after the conclusive
# weights: its diagonal and determinant may dip this far below zero.
REMAINDER_PSD_TOL = 1e-12

# Below this weight the failure outcome never fires and its state is an
# arbitrary convention; the balanced superposition of the retro basis is used.
_MU0_FLOOR = 1e-14


@dataclass(frozen=True)
class UdInstance:
    """Two equally-shaped real qubit states with priors (eta_1, eta_2)."""

    alpha: float
    eta: tuple[float, float]

    def __post_init__(self):
        violations = []
        if not (0.0 < self.alpha <= math.pi / 4):
            violations.append(
                Violation("alpha_range", float(self.alpha), "alpha must lie in (0, pi/4]")
            )
        e1, e2 = self.eta
        if not (e1 > 0.0 and e2 > 0.0):
            violations.append(Violation("eta_positive", min(e1, e2), "priors must be positive"))
        if abs(e1 + e2 - 1.0) > PRIORS_TOL:
            violations.append(
                Violation("eta_sum", abs(e1 + e2 - 1.0), "priors must sum to 1")
            )
        if violations:
            raise ValidationError(violations)
        object.__setattr__(self, "eta", (float(e1), float(e2)))

    @classmethod
    def from_overlap(cls, overlap: float, eta: tuple[float, float]) -> "UdInstance":
        """Build from the state overlap s = <psi_1|psi_2> in [0, 1)."""
        if not (0.0 <= overlap < 1.0):
            raise ValidationError(
                [Violation("overlap_range", float(overlap), "overlap must lie in [0, 1)")]
            )
        return cls(math.acos(overlap) / 2.0, eta)

    @property
    def s(self) -> float:
        """State overlap cos(2*alpha)."""
        return math.cos(2.0 * self.alpha)

    @property
    def theta(self) -> float:
        """Overlap angle: cos(theta) = s."""
        return math.acos(self.s)

    @property
    def eta_max(self) -> float:
        return max(self.eta)

    @property
    def eta_min(self) -> float:
        return min(self.eta)


def ud_states(instance: UdInstance) -> tuple[PureState, PureState]:
    """The two input states cos(alpha)|0> +- sin(alpha)|1>."""
    c, s = math.cos(instance.alpha), math.sin(instance.alpha)
    return PureState(np.array([c, s])), PureState(np.array([c, -s]))


def ud_ensemble(instance: UdInstance) -> Ensemble:
    psi1, psi2 = ud_states(instance)
    return Ensemble.from_pure_states([psi1, psi2], np.array(instance.eta))


def omega_matrix(instance: UdInstance) -> np.ndarray:
    """Source function in the computational basis."""
    c, s = math.cos(instance.alpha), math.sin(instance.alpha)
    delta = instance.eta[0] - instance.eta[1]
    return np.array([[c * c, delta * s * c], [delta * s * c, s * s]], dtype=np.complex128)


@dataclass(frozen=True)
class OmegaClosedForm:
    """Spectrum of the source function: eigenvalues w1 >= w2 and the basis angle."""

    w1: float
    w2: float
    omega_angle: float


def omega_closed_form(instance: UdInstance) -> OmegaClosedForm:
    """Eigenvalues and eigenvector angle of the source function, in closed form.

    w_{1,2} = (1 +- sqrt(1 - 4 eta_1 eta_2 sin^2(2 alpha))) / 2 and
    tan(2 omega) = (eta_1 - eta_2) tan(2 alpha), with 2*omega in (-pi/2, pi/2]
    (the boundary is reached only at alpha = pi/4 with unequal priors).
    """
    e1, e2 = instance.eta
    two_alpha = 2.0 * instance.alpha
    disc = max(0.0, 1.0 - 4.0 * e1 * e2 * math.sin(two_alpha) ** 2)
    root = math.sqrt(disc)
    w1 = 0.5 * (1.0 + root)
    w2 = 0.5 * (1.0 - root)
    if w2 < linalg.MIN_EIG_DEFAULT:
        raise SingularOperator(
            f"source function eigenvalue {w2:.3e} below {linalg.MIN_EIG_DEFAULT:.0e}"
            " (states nearly identical)"
        )
    angle = 0.5 * math.atan2((e1 - e2) * math.sin(two_alpha), math.cos(two_alpha))
    return OmegaClosedForm(w1, w2, angle)


@dataclass(frozen=True)
class RetroBasis:
    """The orthonormal retrodictive basis built from the input pair and the source spectrum."""

    phi1: PureState
    phi2: PureState
    omega_spectrum: linalg.Spectrum

    def matrix(self) -> np.ndarray:
        """Basis-change unitary with phi1, phi2 as columns."""
        return np.column_stack([self.phi1.amplitudes, self.phi2.amplitudes])


def retro_basis(instance: UdInstance) -> RetroBasis:
    """phi_i = Omega^{-1/2} sqrt(eta_i) psi_i, computed numerically from one spectrum of Omega."""
    omega_closed_form(instance)  # reject singular sources with the closed-form witness
    psi1, psi2 = ud_states(instance)
    spectrum = linalg.hermitian_eig(omega_matrix(instance))
    inv_root = spectrum.inv_sqrt()
    phi1 = inv_root @ (math.sqrt(instance.eta[0]) * psi1.amplitudes)
    phi2 = inv_root @ (math.sqrt(instance.eta[1]) * psi2.amplitudes)
    return RetroBasis(PureState(phi1), PureState(phi2), spectrum)


def retro_basis_closed_form(instance: UdInstance) -> RetroBasis:
    """The same basis from the closed-form coefficients in the eigenbasis of the source."""
    cf = omega_closed_form(instance)
    e1, e2 = instance.eta
    a, w = instance.alpha, cf.omega_angle
    omega1 = np.array([math.cos(w), math.sin(w)])
    omega2 = np.array([-math.sin(w), math.cos(w)])
    phi1 = math.sqrt(e1) * (
        math.cos(a - w) / math.sqrt(cf.w1) * omega1
        + math.sin(a - w) / math.sqrt(cf.w2) * omega2
    )
    phi2 = math.sqrt(e2) * (
        math.cos(a + w) / math.sqrt(cf.w1) * omega1
        - math.sin(a + w) / math.sqrt(cf.w2) * omega2
    )
    spectrum = linalg.Spectrum(np.array([cf.w2, cf.w1]), np.column_stack([omega2, omega1]))
    return RetroBasis(PureState(phi1), PureState(phi2), spectrum)


def omega_in_retro_basis(instance: UdInstance) -> np.ndarray:
    """Matrix of the source function in the retrodictive basis."""
    e1, e2 = instance.eta
    off = math.sqrt(e1 * e2) * instance.s
    return np.array([[e1, off], [off, e2]], dtype=np.complex128)


Regime = Literal["interior", "clamped"]


@dataclass(frozen=True, eq=False)
class DualOptimum:
    """Optimal weights of the retrodictive source decomposition.

    mu1/mu2 weight the conclusive retro-basis states, mu0 the failure state.
    rho0_ret is the failure state as an operator in the computational basis;
    at the optimum it is pure (the weighted remainder has zero determinant).
    basis is the numeric retro_basis the failure state was built in.
    """

    mu1: float
    mu2: float
    mu0: float
    rho0_ret: DensityOperator
    p_success: float
    regime: Regime
    basis: RetroBasis


def _optimal_mu(instance: UdInstance) -> tuple[float, float, Regime]:
    e1, e2 = instance.eta
    s = instance.s
    if instance.eta_max >= 1.0 / (1.0 + s * s):
        # Positivity pins the unlikely state's weight at zero.
        mu_max = instance.eta_max * (1.0 - s * s)
        return (mu_max, 0.0, "clamped") if e1 >= e2 else (0.0, mu_max, "clamped")
    cross = math.sqrt(e1 * e2) * s
    return e1 - cross, e2 - cross, "interior"


def optimal_dual(instance: UdInstance) -> DualOptimum:
    """Maximize mu_1 + mu_2 subject to the remainder of the source staying PSD."""
    e1, e2 = instance.eta
    mu1, mu2, regime = _optimal_mu(instance)
    mu0 = 1.0 - mu1 - mu2
    basis = retro_basis(instance)
    # Weighted failure state in the retrodictive basis (remainder of the source).
    off = math.sqrt(e1 * e2) * instance.s
    remainder = np.array([[e1 - mu1, off], [off, e2 - mu2]])
    if mu0 <= _MU0_FLOOR:
        phi0 = (basis.phi1.amplitudes + basis.phi2.amplitudes) / math.sqrt(2.0)
        rho0 = DensityOperator(linalg.outer(phi0))
    else:
        u = basis.matrix()
        op = u @ (remainder / mu0) @ linalg.dag(u)
        rho0 = DensityOperator((op + linalg.dag(op)) / 2.0)
    return DualOptimum(mu1, mu2, mu0, rho0, mu1 + mu2, regime, basis)


def brute_force_dual(instance: UdInstance, grid_step: float) -> tuple[float, float, float]:
    """Grid-search oracle for the dual optimum.

    Scans mu_1 on a grid and pairs it with the largest grid mu_2 keeping the
    source remainder PSD (non-negative diagonal, determinant >=
    -REMAINDER_PSD_TOL, the tolerance no_signaling_check applies); returns the
    feasible grid point maximizing mu_1 + mu_2.  Within O(grid_step) of the
    closed form by construction.
    """
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")
    e1, e2 = instance.eta
    s2 = instance.s ** 2
    mu1 = np.arange(0.0, e1 + grid_step / 2.0, grid_step)
    mu1 = mu1[mu1 <= e1]
    numerator = e1 * e2 * s2 - REMAINDER_PSD_TOL
    if numerator <= 0.0:
        # Determinant constraint inactive at tolerance: orthogonal-state case.
        return float(e1), float(e2), float(e1 + e2)
    slack = e1 - mu1
    with np.errstate(divide="ignore"):
        bound = e2 - numerator / slack
    feasible = (slack > 0.0) & (bound >= 0.0)
    mu2 = np.where(feasible, np.floor(bound / grid_step) * grid_step, -np.inf)
    mu2 = np.minimum(mu2, e2)
    total = mu1 + mu2
    best = int(np.argmax(total))
    return float(mu1[best]), float(mu2[best]), float(total[best])


@dataclass(frozen=True, eq=False)
class PredictiveUdPovm:
    """The rank-one unambiguous measurement with its transmission weights."""

    povm: Povm
    c: tuple[float, float]


def optimal_predictive_povm(instance: UdInstance) -> PredictiveUdPovm:
    """Detectors Pi_i = c_i |psi_j-perp><psi_j-perp| realizing the optimal weights.

    c_i is fixed by the duality eta_i <psi_i|Pi_i|psi_i> = mu_i, so the
    predictive success probability coincides with the retrodictive optimum.
    """
    omega_closed_form(instance)
    e1, e2 = instance.eta
    mu1, mu2, _ = _optimal_mu(instance)
    one_minus_s2 = 1.0 - instance.s ** 2
    c1 = mu1 / (e1 * one_minus_s2)
    c2 = mu2 / (e2 * one_minus_s2)
    if not all(-PROB_CLAMP_TOL <= c <= 1.0 + PROB_CLAMP_TOL for c in (c1, c2)):
        raise ValidationError(
            [Violation("c_range", max(c1, c2), "transmission weight outside [0, 1]")]
        )
    c1, c2 = min(max(c1, 0.0), 1.0), min(max(c2, 0.0), 1.0)
    ca, sa = math.cos(instance.alpha), math.sin(instance.alpha)
    psi1_perp = np.array([-sa, ca])
    psi2_perp = np.array([sa, ca])
    pi1 = c1 * linalg.outer(psi2_perp)
    pi2 = c2 * linalg.outer(psi1_perp)
    pi0 = np.eye(2) - pi1 - pi2
    return PredictiveUdPovm(Povm((pi1, pi2, pi0)), (c1, c2))


def predictive_success_probability(instance: UdInstance, ud_povm: PredictiveUdPovm) -> float:
    """Average success probability sum_i eta_i <psi_i|Pi_i|psi_i>."""
    psi1, psi2 = ud_states(instance)
    p1 = float(np.vdot(psi1.amplitudes, ud_povm.povm.elements[0] @ psi1.amplitudes).real)
    p2 = float(np.vdot(psi2.amplitudes, ud_povm.povm.elements[1] @ psi2.amplitudes).real)
    return instance.eta[0] * p1 + instance.eta[1] * p2


def ud_retro_dual(instance: UdInstance) -> RetroDual:
    """Transform of the instance against its optimal predictive measurement."""
    return retro_transform(ud_ensemble(instance), optimal_predictive_povm(instance).povm)


@dataclass(frozen=True, eq=False)
class PurityIdentificationReport:
    """Residuals tying the conclusive retrodictive states to the retro basis.

    Outcomes with click probability below the floor (a clamped instance's
    unlikely state) carry NaN residuals.  verify.checks_for_ud holds the
    defined residuals to their tolerances; the report carries no verdict.
    """

    purity_residuals: tuple[float, float]
    projector_residuals: tuple[float, float]
    sqrt_route_residuals: tuple[float, float]
    failure_det_residual: float


def verify_purity_identification(
    instance: UdInstance, opt: DualOptimum, dual: RetroDual
) -> PurityIdentificationReport:
    """Check that each conclusive retrodictive state is the matching basis projector.

    Three routes are compared: dual (the instance's ud_retro_dual), the
    projectors of opt.basis (opt is its optimal_dual), and sqrt(Omega)|psi_perp>
    renormalized, with sqrt(Omega) from the basis's source spectrum.  Also
    reports det of the weighted failure state, which vanishes at the optimum.
    """
    basis = opt.basis
    om_root = basis.omega_spectrum.sqrt()
    ca, sa = math.cos(instance.alpha), math.sin(instance.alpha)
    perps = (np.array([sa, ca]), np.array([-sa, ca]))  # psi_2-perp, psi_1-perp

    purity = []
    projector = []
    sqrt_route = []
    for j, phi in enumerate((basis.phi1, basis.phi2)):
        state = dual.retro_states[j]
        if state is None:
            purity.append(math.nan)
            projector.append(math.nan)
            sqrt_route.append(math.nan)
            continue
        purity.append(abs(state.purity() - 1.0))
        projector.append(linalg.maxabs(state.matrix - phi.projector()))
        vec = om_root @ perps[j]
        vec = vec / np.linalg.norm(vec)
        sqrt_route.append(linalg.maxabs(state.matrix - linalg.outer(vec)))

    weighted = opt.mu0 * opt.rho0_ret.matrix
    det = abs(complex(np.linalg.det(weighted)))
    return PurityIdentificationReport(
        (purity[0], purity[1]),
        (projector[0], projector[1]),
        (sqrt_route[0], sqrt_route[1]),
        det,
    )
