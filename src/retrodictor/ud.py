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

The closed forms and constructions are array-valued: each function that takes
a UdInstance also takes a UdBatch of N instances and then returns its results
with a leading axis of length N, from one pass of the same code (stacked
eigendecompositions, each derived stack validated once).  For one instance
the results have no batch axis, and the dataclasses' operator accessors
(RetroBasis.phi1, DualOptimum.rho0_ret, PredictiveUdPovm.povm) are views of
that instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from . import linalg
from .ensembles import (
    PRIORS_TOL,
    DensityOperator,
    Ensemble,
    Povm,
    PureState,
    Violation,
    _frozen,
    _validated,
    validate_operator_stack,
    validate_povm_stack,
    validate_vector_stack,
)
from .errors import SingularOperator, ValidationError
from .retrodiction import PROB_CLAMP_TOL, DualStack, RetroDual, retro_transform, transform_stack

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


@dataclass(frozen=True, eq=False)
class UdBatch:
    """N UD instances as arrays: alpha is (N,) and eta is (2, N).

    The layout mirrors UdInstance (e1, e2 = batch.eta), so the array-valued
    functions below read an instance and a batch alike.
    """

    alpha: np.ndarray
    eta: np.ndarray

    @classmethod
    def of(cls, instances) -> "UdBatch":
        instances = list(instances)
        return cls(np.array([i.alpha for i in instances]), np.array([i.eta for i in instances]).T)

    @property
    def s(self) -> np.ndarray:
        return np.cos(2.0 * self.alpha)

    @property
    def eta_max(self) -> np.ndarray:
        return np.maximum(self.eta[0], self.eta[1])


Instances = UdInstance | UdBatch


def _mat2(a, b, c, d) -> np.ndarray:
    """The 2 x 2 matrices [[a, b], [c, d]] from entries of one shape: (..., 2, 2)."""
    out = np.array([[a, b], [c, d]])
    return out if out.ndim == 2 else np.moveaxis(out, (0, 1), (-2, -1)).copy()


def _eta(x: Instances) -> np.ndarray:
    """(eta_1, eta_2) along the last axis."""
    return np.asarray(x.eta).T


def ud_state_vectors(x: Instances) -> np.ndarray:
    """The input states as rows: [..., i, :] is psi_{i+1} = (cos(alpha), +-sin(alpha))."""
    c, s = np.cos(x.alpha), np.sin(x.alpha)
    return _mat2(c, s, c, -s)


def ud_states(instance: UdInstance) -> tuple[PureState, PureState]:
    """The two input states cos(alpha)|0> +- sin(alpha)|1>."""
    psi = ud_state_vectors(instance)
    return PureState(psi[0]), PureState(psi[1])


def ud_ensemble(instance: UdInstance) -> Ensemble:
    psi1, psi2 = ud_states(instance)
    return Ensemble.from_pure_states([psi1, psi2], np.array(instance.eta))


def omega_matrix(x: Instances) -> np.ndarray:
    """Source function in the computational basis."""
    c, s = np.cos(x.alpha), np.sin(x.alpha)
    e1, e2 = x.eta
    delta = e1 - e2
    return _mat2(c * c, delta * s * c, delta * s * c, s * s).astype(np.complex128)


@dataclass(frozen=True)
class OmegaClosedForm:
    """Spectrum of the source function: eigenvalues w1 >= w2 and the basis angle."""

    w1: float
    w2: float
    omega_angle: float


def omega_closed_form(x: Instances) -> OmegaClosedForm:
    """Eigenvalues and eigenvector angle of the source function, in closed form.

    w_{1,2} = (1 +- sqrt(1 - 4 eta_1 eta_2 sin^2(2 alpha))) / 2 and
    tan(2 omega) = (eta_1 - eta_2) tan(2 alpha), with 2*omega in (-pi/2, pi/2]
    (the boundary is reached only at alpha = pi/4 with unequal priors).
    Raises SingularOperator if w2 (of any instance) is below the source floor.
    """
    e1, e2 = x.eta
    two_alpha = 2.0 * np.asarray(x.alpha)
    root = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * e1 * e2 * np.sin(two_alpha) ** 2))
    w1 = 0.5 * (1.0 + root)
    w2 = 0.5 * (1.0 - root)
    if np.any(w2 < linalg.MIN_EIG_DEFAULT):
        raise SingularOperator(
            f"source function eigenvalue {np.min(w2):.3e} below {linalg.MIN_EIG_DEFAULT:.0e}"
            " (states nearly identical)"
        )
    angle = 0.5 * np.arctan2((e1 - e2) * np.sin(two_alpha), np.cos(two_alpha))
    return OmegaClosedForm(w1, w2, angle)


@dataclass(frozen=True, eq=False)
class RetroBasis:
    """The orthonormal retrodictive basis built from the input pair and the source spectrum.

    vectors[..., :, i] is phi_{i+1}, validated as unit vectors on
    construction; omega_spectrum is the source spectrum it was built from.
    """

    vectors: np.ndarray
    omega_spectrum: linalg.Spectrum

    def __post_init__(self):
        phis = np.swapaxes(self.vectors, -1, -2)
        validate_vector_stack(phis, "retro basis vector").raise_if_failed()
        object.__setattr__(self, "vectors", _frozen(self.vectors))

    @cached_property
    def phi1(self) -> PureState:
        return _validated(PureState, amplitudes=self.vectors[..., :, 0])

    @cached_property
    def phi2(self) -> PureState:
        return _validated(PureState, amplitudes=self.vectors[..., :, 1])

    def matrix(self) -> np.ndarray:
        """Basis-change unitary with phi1, phi2 as columns."""
        return self.vectors


def retro_basis(x: Instances) -> RetroBasis:
    """phi_i = Omega^{-1/2} sqrt(eta_i) psi_i, computed numerically from one spectrum of Omega."""
    omega_closed_form(x)  # reject singular sources with the closed-form witness
    spectrum = linalg.hermitian_eig(omega_matrix(x))
    weighted = np.sqrt(_eta(x))[..., :, None] * ud_state_vectors(x)
    phis = (spectrum.inv_sqrt()[..., None, :, :] @ weighted[..., :, :, None])[..., 0]
    return RetroBasis(np.swapaxes(phis, -1, -2), spectrum)


def retro_basis_closed_form(x: Instances) -> RetroBasis:
    """The same basis from the closed-form coefficients in the eigenbasis of the source."""
    cf = omega_closed_form(x)
    e1, e2 = x.eta
    a, w = x.alpha, cf.omega_angle
    cw, sw = np.broadcast_arrays(np.cos(w), np.sin(w))
    omega1 = np.stack([cw, sw], axis=-1)
    omega2 = np.stack([-sw, cw], axis=-1)

    def along(coefficient):
        return np.asarray(coefficient)[..., None]

    phi1 = along(np.sqrt(e1)) * (
        along(np.cos(a - w) / np.sqrt(cf.w1)) * omega1
        + along(np.sin(a - w) / np.sqrt(cf.w2)) * omega2
    )
    phi2 = along(np.sqrt(e2)) * (
        along(np.cos(a + w) / np.sqrt(cf.w1)) * omega1
        - along(np.sin(a + w) / np.sqrt(cf.w2)) * omega2
    )
    spectrum = linalg.Spectrum(
        np.stack(np.broadcast_arrays(cf.w2, cf.w1), axis=-1), np.stack([omega2, omega1], axis=-1)
    )
    return RetroBasis(np.stack([phi1, phi2], axis=-1), spectrum)


def omega_in_retro_basis(x: Instances) -> np.ndarray:
    """Matrix of the source function in the retrodictive basis."""
    e1, e2 = x.eta
    off = np.sqrt(e1 * e2) * x.s
    return _mat2(e1, off, off, e2).astype(np.complex128)


def source_remainder(x: Instances, mu1, mu2) -> np.ndarray:
    """The source in the retrodictive basis less the conclusive weights: mu_0 rho_0 in that basis."""
    e1, e2 = x.eta
    off = np.sqrt(e1 * e2) * x.s
    return _mat2(e1 - mu1, off, off, e2 - mu2)


Regime = Literal["interior", "clamped"]


@dataclass(frozen=True, eq=False)
class DualOptimum:
    """Optimal weights of the retrodictive source decomposition.

    mu1/mu2 weight the conclusive retro-basis states, mu0 the failure state.
    rho0 is the failure state's matrix in the computational basis (rho0_ret
    the operator); at the optimum it is pure (the weighted remainder has zero
    determinant).  basis is the numeric retro_basis the failure state was
    built in.
    """

    mu1: float
    mu2: float
    mu0: float
    rho0: np.ndarray
    p_success: float
    regime: Regime
    basis: RetroBasis

    @cached_property
    def rho0_ret(self) -> DensityOperator:
        return _validated(DensityOperator, matrix=self.rho0)


def _optimal_mu(x: Instances) -> tuple[float, float, Regime]:
    e1, e2 = x.eta
    s = x.s
    # Positivity pins the unlikely state's weight at zero in the clamped regime.
    clamped = x.eta_max >= 1.0 / (1.0 + s * s)
    mu_max = x.eta_max * (1.0 - s * s)
    cross = np.sqrt(e1 * e2) * s
    first = e1 >= e2
    mu1 = np.where(clamped, np.where(first, mu_max, 0.0), e1 - cross)
    mu2 = np.where(clamped, np.where(first, 0.0, mu_max), e2 - cross)
    return mu1[()], mu2[()], np.where(clamped, "clamped", "interior")[()]


def optimal_dual(x: Instances) -> DualOptimum:
    """Maximize mu_1 + mu_2 subject to the remainder of the source staying PSD."""
    mu1, mu2, regime = _optimal_mu(x)
    mu0 = 1.0 - mu1 - mu2
    basis = retro_basis(x)
    u = basis.vectors
    # Weighted failure state in the retrodictive basis (remainder of the source).
    # Where mu0 is below _MU0_FLOOR the balanced state is used instead, and the
    # unused quotient divides by 1 so that it stays finite.
    remainder = source_remainder(x, mu1, mu2)
    balanced = np.asarray(mu0 <= _MU0_FLOOR)[..., None, None]
    op = u @ (remainder / np.where(balanced, 1.0, np.asarray(mu0)[..., None, None])) @ linalg.dag(u)
    phi0 = (u[..., :, 0] + u[..., :, 1]) / math.sqrt(2.0)
    rho0 = np.where(balanced, linalg.outer(phi0), (op + linalg.dag(op)) / 2.0)
    validate_operator_stack(rho0, "failure state", unit_trace=True).raise_if_failed()
    return DualOptimum(mu1, mu2, mu0, _frozen(rho0), mu1 + mu2, regime, basis)


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
    """The rank-one unambiguous measurement with its transmission weights.

    elements (..., 3, 2, 2) are Pi_1, Pi_2, Pi_0; povm is the Povm of one instance.
    """

    elements: np.ndarray
    c: tuple[float, float]

    @cached_property
    def povm(self) -> Povm:
        return _validated(Povm, elements=self.elements, sum_target=None)


def optimal_predictive_povm(x: Instances) -> PredictiveUdPovm:
    """Detectors Pi_i = c_i |psi_j-perp><psi_j-perp| realizing the optimal weights.

    c_i is fixed by the duality eta_i <psi_i|Pi_i|psi_i> = mu_i, so the
    predictive success probability coincides with the retrodictive optimum.
    """
    omega_closed_form(x)
    e1, e2 = x.eta
    mu1, mu2, _ = _optimal_mu(x)
    one_minus_s2 = 1.0 - x.s ** 2
    c = np.asarray([mu1 / (e1 * one_minus_s2), mu2 / (e2 * one_minus_s2)]).T
    outside = ~((c >= -PROB_CLAMP_TOL) & (c <= 1.0 + PROB_CLAMP_TOL))
    if np.any(outside):
        worst = float(c[np.any(outside, axis=-1)].max())
        raise ValidationError([Violation("c_range", worst, "transmission weight outside [0, 1]")])
    c = np.clip(c, 0.0, 1.0)
    ca, sa = np.cos(x.alpha), np.sin(x.alpha)
    # Rows psi_2-perp and psi_1-perp: Pi_1 = c_1 |psi_2-perp><psi_2-perp|, Pi_2 likewise.
    conclusive = c[..., :, None, None] * linalg.outer(_mat2(sa, ca, -sa, ca))
    pi0 = np.eye(2) - conclusive[..., 0, :, :] - conclusive[..., 1, :, :]
    elements = np.concatenate([conclusive, pi0[..., None, :, :]], axis=-3)
    validate_povm_stack(elements, "predictive POVM").raise_if_failed()
    return PredictiveUdPovm(_frozen(elements), (c[..., 0][()], c[..., 1][()]))


def _conclusive_clicks(x: Instances, ud_povm: PredictiveUdPovm) -> np.ndarray:
    """<psi_i|Pi_i|psi_i> for i = 1, 2, along the last axis."""
    psi = ud_state_vectors(x)
    hits = (ud_povm.elements[..., :2, :, :] @ psi[..., None])[..., 0]
    return (psi.conj() * hits).sum(axis=-1).real


def predictive_success_probability(x: Instances, ud_povm: PredictiveUdPovm) -> float:
    """Average success probability sum_i eta_i <psi_i|Pi_i|psi_i>."""
    e1, e2 = x.eta
    clicks = _conclusive_clicks(x, ud_povm)
    return e1 * clicks[..., 0] + e2 * clicks[..., 1]


def duality_bridge(x: Instances, ud_povm: PredictiveUdPovm) -> np.ndarray:
    """eta_i <psi_i|Pi_i|psi_i>, which the duality equates with mu_i, along the last axis."""
    return _eta(x) * _conclusive_clicks(x, ud_povm)


def ud_retro_dual(x: Instances, ud_povm: PredictiveUdPovm | None = None) -> RetroDual | DualStack:
    """Transform of the instance (each of a batch) against its optimal predictive measurement.

    ud_povm, if given, is x's optimal_predictive_povm.  One instance goes
    through retro_transform, a batch through the same stacked core at once.
    """
    ud_povm = optimal_predictive_povm(x) if ud_povm is None else ud_povm
    if isinstance(x, UdBatch):
        states = linalg.outer(ud_state_vectors(x))
        return transform_stack(_eta(x), states, ud_povm.elements)
    return retro_transform(ud_ensemble(x), ud_povm.povm)


@dataclass(frozen=True, eq=False)
class PurityIdentificationReport:
    """Residuals tying the conclusive retrodictive states to the retro basis.

    Each residual pair runs over the two conclusive outcomes, along the last
    axis.  Outcomes with click probability below the floor (a clamped
    instance's unlikely state) carry NaN residuals.  verify.checks_for_ud
    holds the defined residuals to their tolerances; the report carries no
    verdict.
    """

    purity_residuals: np.ndarray
    projector_residuals: np.ndarray
    sqrt_route_residuals: np.ndarray
    failure_det_residual: float


def verify_purity_identification(
    x: Instances, opt: DualOptimum, dual: RetroDual | DualStack
) -> PurityIdentificationReport:
    """Check that each conclusive retrodictive state is the matching basis projector.

    Three routes are compared: dual (the instance's ud_retro_dual), the
    projectors of opt.basis (opt is its optimal_dual), and sqrt(Omega)|psi_perp>
    renormalized, with sqrt(Omega) from the basis's source spectrum.  Also
    reports det of the weighted failure state, which vanishes at the optimum.
    """
    basis = opt.basis
    om_root = basis.omega_spectrum.sqrt()
    ca, sa = np.cos(x.alpha), np.sin(x.alpha)
    perps = _mat2(sa, ca, -sa, ca)  # psi_2-perp, psi_1-perp
    states = dual.state_stack[..., :2, :, :]
    defined = dual.defined[..., :2]

    def where_defined(residuals):
        return np.where(defined, residuals, math.nan)

    purity = np.abs(np.trace(states @ states, axis1=-2, axis2=-1).real - 1.0)
    projectors = linalg.outer(np.swapaxes(basis.vectors, -1, -2))
    vec = (om_root[..., None, :, :] @ perps[..., None])[..., 0]
    vec = vec / linalg.norm_each(vec)[..., None]
    weighted = np.asarray(opt.mu0)[..., None, None] * opt.rho0
    return PurityIdentificationReport(
        where_defined(purity),
        where_defined(linalg.maxabs_each(states - projectors)),
        where_defined(linalg.maxabs_each(states - linalg.outer(vec))),
        np.abs(np.linalg.det(weighted))[()],
    )
