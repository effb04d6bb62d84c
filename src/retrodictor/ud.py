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

A UdInstance is a stack of n instances, alpha of shape (n,) and eta of
shape (2, n); one instance is a stack of one, and an integer index gives
its instance as one, so stack[k] is stack[k:k+1].  Any other shape, or input
that is not an array of real numbers, is rejected with a named
ValidationError.  The closed forms, constructions and the grid oracle are
array-valued: their results run over the stack's n instances first ((n,),
(n, 2, 2), ...), from one pass of the same code (stacked
eigendecompositions, each derived stack validated once).  Each result is its
validated arrays; ud_ensemble, which builds one Ensemble, raises ValueError
on a stack of more than one instance.

The grid oracle scans a coarse subsample of its grid first, then the full
grid only in the window where the concave feasibility bound leaves room for
a maximiser: the same optimum and the same first argmax as a scan of the
whole grid, from about sqrt(n) coarse points and the window instead of all
n points of an instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensembles import (
    Ensemble,
    Violation,
    _as_array,
    _frozen,
    _stack_label,
    validate_operator_stack,
    validate_povm_stack,
    validate_vector_stack,
)
from .errors import SingularOperator, ValidationError
from .retrodiction import RetroDual, transform_stack
from .tolerances import (
    MAX_GRID_STEP,
    MIN_EIG_DEFAULT,
    MIN_GRID_STEP,
    PRIORS_TOL,
    PROB_CLAMP_TOL,
    REMAINDER_PSD_TOL,
)


def _real_array(values, name: str) -> np.ndarray:
    """values as a float array, or ValidationError when they are not an array of real numbers."""
    arr = _as_array(values, float)
    if arr is None:
        raise ValidationError([Violation("real_entries", 0.0, f"{name} is not an array of real numbers")])
    return arr


def _instance_violations(checks) -> list[Violation]:
    """A Violation for each failing instance of each check, instance by instance.

    checks are (name, failed, residual, message) with failed and residual over the
    (n,) stack; each message names its instance as the stack validators name rows.
    """
    failed = np.array([bad for _, bad, _, _ in checks])
    instance = _stack_label("instance", failed.shape[1:])
    return [
        Violation(name, float(residual[k]), f"{message} ({instance(k)})")
        for k in np.flatnonzero(failed.any(axis=0)).tolist()
        for name, bad, residual, message in checks
        if bad[k]
    ]


def _require_shapes(name: str, values: np.ndarray, eta: np.ndarray) -> None:
    """Raise ValidationError (instance_shape) unless values has shape (n,) and eta shape (2, n)."""
    if values.ndim != 1 or eta.shape != (2, len(values)):
        message = f"{name} of shape {values.shape} and eta of shape {eta.shape} must have shapes (n,) and (2, n)"
        raise ValidationError([Violation("instance_shape", 0.0, message)])


def _require_valid(alpha, e1, e2) -> None:
    """Raise ValidationError unless alpha is in (0, pi/4] and the priors are positive and sum to 1.

    Each violation names its failing instance of the (n,) stacks.
    """
    with np.errstate(invalid="ignore"):  # inf + -inf: a NaN sum, flagged below
        off = np.abs(e1 + e2 - 1.0)
    violations = _instance_violations([
        ("alpha_range", ~((alpha > 0.0) & (alpha <= math.pi / 4)), alpha, "alpha must lie in (0, pi/4]"),
        ("eta_positive", ~((e1 > 0.0) & (e2 > 0.0)), np.minimum(e1, e2), "priors must be positive"),
        ("eta_sum", ~(off <= PRIORS_TOL), off, "priors must sum to 1"),
    ])
    if violations:
        raise ValidationError(violations)


# libm acos and pow, elementwise: np.arccos and np.power differ from them in the last
# bit at some inputs (overlap 0.5 among them), which would move the reported angles.
# One libm call per element also gives a stack its slices' bits on any SIMD build.
_acos = np.vectorize(math.acos, otypes=[float])
_pow = np.vectorize(math.pow, otypes=[float])


@dataclass(frozen=True, eq=False)
class UdInstance:
    """A stack of n pairs of equally-shaped real qubit states, each with priors (eta_1, eta_2).

    alpha has shape (n,) and eta shape (2, n), so e1, e2 = x.eta reads the
    priors of every instance; one instance is a stack of one, shape (1,).
    Any other shape raises ValidationError (instance_shape), and input that
    is not an array of real numbers raises it too (real_entries).  Indexing
    gives a stack: an integer k gives instance k as the stack of one
    stack[k:k+1], so iterating gives len(stack) stacks of one.
    """

    alpha: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        alpha, eta = _real_array(self.alpha, "alpha").copy(), _real_array(self.eta, "eta").copy()
        _require_shapes("alpha", alpha, eta)
        _require_valid(alpha, *eta)
        for name, values in (("alpha", alpha), ("eta", eta)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @classmethod
    def from_overlap(cls, overlap, eta) -> "UdInstance":
        """Build from the (n,) state overlaps s = <psi_1|psi_2>, each in [0, 1).

        Each overlap outside [0, 1) is named by its instance, after the shapes are checked.
        """
        overlap, eta = _real_array(overlap, "overlap"), _real_array(eta, "eta")
        _require_shapes("overlap", overlap, eta)
        outside = ~((overlap >= 0.0) & (overlap < 1.0))
        violations = _instance_violations([("overlap_range", outside, overlap, "overlap must lie in [0, 1)")])
        if violations:
            raise ValidationError(violations)
        return cls(_acos(overlap) / 2.0, eta)

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, index) -> "UdInstance":
        """The instances at index, as a stack; an integer k gives the stack of one self[k:k+1]."""
        if isinstance(index, (int, np.integer)):
            k = range(len(self))[index]  # IndexError out of range, which ends iteration
            index = slice(k, k + 1)
        return UdInstance(self.alpha[index], self.eta[:, index])

    @property
    def s(self) -> np.ndarray:
        """State overlap cos(2*alpha)."""
        return np.cos(2.0 * self.alpha)

    @property
    def theta(self) -> np.ndarray:
        """Overlap angle: cos(theta) = s."""
        return _acos(self.s)

    @property
    def eta_max(self) -> np.ndarray:
        return np.maximum(*self.eta)


def _mat2(a, b, c, d) -> np.ndarray:
    """The 2 x 2 matrices [[a, b], [c, d]] from (n,) entries: (n, 2, 2)."""
    return np.stack([a, b, c, d], axis=-1).reshape(-1, 2, 2)


def _eta(x: UdInstance) -> np.ndarray:
    """(eta_1, eta_2) of each instance: (n, 2)."""
    return x.eta.T


def ud_state_vectors(x: UdInstance) -> np.ndarray:
    """The input states as rows, (n, 2, 2): [k, i, :] is psi_{i+1} = (cos(alpha), +-sin(alpha))."""
    c, s = np.cos(x.alpha), np.sin(x.alpha)
    return _mat2(c, s, c, -s)


def ud_ensemble(x: UdInstance) -> Ensemble:
    """The two input states cos(alpha)|0> +- sin(alpha)|1> of x's one instance as projectors, with priors eta."""
    if len(x) != 1:
        raise ValueError(f"ud_ensemble takes one instance, not a stack of {len(x)}")
    return Ensemble(linalg.outer(ud_state_vectors(x)[0]), x.eta[:, 0])


def omega_matrix(x: UdInstance) -> np.ndarray:
    """Source function in the computational basis, (n, 2, 2)."""
    c, s = np.cos(x.alpha), np.sin(x.alpha)
    e1, e2 = x.eta
    delta = e1 - e2
    return _mat2(c * c, delta * s * c, delta * s * c, s * s).astype(np.complex128)


@dataclass(frozen=True)
class OmegaClosedForm:
    """Spectrum of the source function: eigenvalues w1 >= w2 and the basis angle, each (n,)."""

    w1: np.ndarray
    w2: np.ndarray
    omega_angle: np.ndarray


def omega_closed_form(x: UdInstance) -> OmegaClosedForm:
    """Eigenvalues and eigenvector angle of the source function, in closed form.

    w_{1,2} = (1 +- r) / 2 and tan(2 omega) = (eta_1 - eta_2) tan(2 alpha), where
    r = hypot(cos 2 alpha, (eta_1 - eta_2) sin 2 alpha) = sqrt(1 - 4 eta_1 eta_2 sin^2(2 alpha))
    does not cancel near Omega = I/2, and 2*omega is in (-pi/2, pi/2] (the
    boundary is reached only at alpha = pi/4 with unequal priors).
    Raises SingularOperator if w2 (of any instance) is below the source floor,
    naming the stack's rows below it: w1 w2 = det(Omega) = eta_1 eta_2 (1 - s^2),
    so either the states are nearly identical or a prior is near 0.
    """
    e1, e2 = x.eta
    two_alpha = 2.0 * x.alpha
    root = np.hypot(np.cos(two_alpha), (e1 - e2) * np.sin(two_alpha))
    w1 = 0.5 * (1.0 + root)
    w2 = 0.5 * (1.0 - root)
    if np.any(w2 < MIN_EIG_DEFAULT):
        raise SingularOperator(
            f"source function eigenvalue {np.min(w2):.3e} below {MIN_EIG_DEFAULT:.0e}"
            " (states nearly identical, or a prior near 0)",
            np.argwhere(w2 < MIN_EIG_DEFAULT),
        )
    angle = 0.5 * np.arctan2((e1 - e2) * np.sin(two_alpha), np.cos(two_alpha))
    return OmegaClosedForm(w1, w2, angle)


@dataclass(frozen=True, eq=False)
class RetroBasis:
    """The orthonormal retrodictive basis built from the input pair and the source spectrum.

    vectors (n, 2, 2) has phi_{i+1} of instance k at [k, :, i], validated as
    unit vectors on construction (the basis-change unitary with phi_1, phi_2
    as columns); omega_spectrum is the source spectrum it was built from.
    """

    vectors: np.ndarray
    omega_spectrum: linalg.Spectrum

    def __post_init__(self):
        phis = np.swapaxes(self.vectors, -1, -2)
        validate_vector_stack(phis, "retro basis vector").raise_if_failed()
        object.__setattr__(self, "vectors", _frozen(self.vectors))


def retro_basis(x: UdInstance) -> RetroBasis:
    """phi_i = Omega^{-1/2} sqrt(eta_i) psi_i, computed numerically from one spectrum of Omega."""
    omega_closed_form(x)  # reject singular sources with the closed-form witness
    spectrum = linalg.hermitian_eig(omega_matrix(x))
    weighted = np.sqrt(_eta(x))[..., :, None] * ud_state_vectors(x)
    phis = (spectrum.inv_sqrt()[..., None, :, :] @ weighted[..., :, :, None])[..., 0]
    return RetroBasis(np.swapaxes(phis, -1, -2), spectrum)


def retro_basis_closed_form(x: UdInstance) -> RetroBasis:
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


def omega_in_retro_basis(x: UdInstance) -> np.ndarray:
    """Matrix of the source function in the retrodictive basis, (n, 2, 2)."""
    e1, e2 = x.eta
    off = np.sqrt(e1 * e2) * x.s
    return _mat2(e1, off, off, e2).astype(np.complex128)


def source_remainder(x: UdInstance, mu1, mu2) -> np.ndarray:
    """The source in the retrodictive basis less the conclusive weights: mu_0 rho_0 in that basis, (n, 2, 2)."""
    e1, e2 = x.eta
    off = np.sqrt(e1 * e2) * x.s
    return _mat2(e1 - mu1, off, off, e2 - mu2)


@dataclass(frozen=True, eq=False)
class DualOptimum:
    """Optimal weights of the retrodictive source decomposition, and the measurement realizing them.

    mu1/mu2 weight the conclusive retro-basis states, mu0 the failure state,
    and regime is "interior" or "clamped", each (n,).  rho0 (n, 2, 2) is
    the failure state's validated matrix in the computational basis; at the
    optimum it is pure (the weighted remainder has zero determinant).  basis
    is the numeric retro_basis the failure state was built in.  elements
    (n, 3, 2, 2) are the validated detectors Pi_1, Pi_2, Pi_0 of the optimal
    unambiguous measurement and c its transmission weights (c_1, c_2), each (n,).
    """

    mu1: np.ndarray
    mu2: np.ndarray
    mu0: np.ndarray
    rho0: np.ndarray
    p_success: np.ndarray
    regime: np.ndarray
    basis: RetroBasis
    elements: np.ndarray
    c: tuple[np.ndarray, np.ndarray]


def _optimal_mu(x: UdInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    e1, e2 = x.eta
    s = x.s
    # Positivity pins the unlikely state's weight at zero in the clamped regime.
    clamped = x.eta_max >= 1.0 / (1.0 + s * s)
    mu_max = x.eta_max * (1.0 - s * s)
    cross = np.sqrt(e1 * e2) * s
    first = e1 >= e2
    mu1 = np.where(clamped, np.where(first, mu_max, 0.0), e1 - cross)
    mu2 = np.where(clamped, np.where(first, 0.0, mu_max), e2 - cross)
    return mu1, mu2, np.where(clamped, "clamped", "interior")


def optimal_dual(x: UdInstance) -> DualOptimum:
    """Maximize mu_1 + mu_2 subject to the remainder of the source staying PSD.

    The optimal measurement comes with the optimum: Pi_i = c_i |psi_j-perp><psi_j-perp|,
    with c_i fixed by the duality eta_i <psi_i|Pi_i|psi_i> = mu_i, so its predictive
    success probability coincides with the retrodictive optimum.
    """
    mu1, mu2, regime = _optimal_mu(x)
    mu0 = 1.0 - mu1 - mu2
    basis = retro_basis(x)
    # The failure state is pure: the source remainder is v v^T up to its weight, in the
    # retro basis with v = (1, 1) in the interior regime and (sqrt(eta_1) s, sqrt(eta_2))
    # when clamped with eta_1 >= eta_2 (mirrored otherwise); this avoids dividing by mu0.
    e1, e2 = x.eta
    r1, r2 = np.sqrt(e1), np.sqrt(e2)
    first = e1 >= e2
    v = np.where(
        regime == "clamped", [np.where(first, r1 * x.s, r1), np.where(first, r2, r2 * x.s)], 1.0
    )
    v = (v / np.hypot(*v)).T
    rho0 = linalg.outer((basis.vectors @ v[..., None])[..., 0])
    rho0 = (rho0 + linalg.dag(rho0)) / 2.0
    validate_operator_stack(rho0, "failure state", unit_trace=True).raise_if_failed()

    one_minus_s2 = 1.0 - x.s ** 2
    c = np.stack([mu1 / (e1 * one_minus_s2), mu2 / (e2 * one_minus_s2)], axis=-1)
    outside = ~((c >= -PROB_CLAMP_TOL) & (c <= 1.0 + PROB_CLAMP_TOL))
    if np.any(outside):
        raise ValidationError(_instance_violations(
            [("c_range", outside.any(axis=-1), c.max(axis=-1), "transmission weight outside [0, 1]")]
        ))
    c = np.clip(c, 0.0, 1.0)
    ca, sa = np.cos(x.alpha), np.sin(x.alpha)
    # Rows psi_2-perp and psi_1-perp: Pi_1 = c_1 |psi_2-perp><psi_2-perp|, Pi_2 likewise.
    conclusive = c[..., :, None, None] * linalg.outer(_mat2(sa, ca, -sa, ca))
    # Pi_0 = I - Pi_1 - Pi_2 is rank one: |v><v|, with v = psi_2 or psi_1 when clamped, else
    # sqrt(s)/2 ((q + 1/q)/cos(alpha), (q - 1/q)/sin(alpha)) for q = (eta_2/eta_1)^(1/4).  The
    # subtraction leaves its zero eigenvalue at roundoff, which 1/mu_0 amplifies in rho_0^ret.
    q = _pow(e2 / e1, 0.25)
    r = np.sqrt(x.s) / 2.0
    clamped = [ca, np.where(first, -sa, sa)]
    interior = [r * (q + 1 / q) / ca, r * (q - 1 / q) / sa]
    v = np.where(regime == "clamped", clamped, interior)
    pi0 = linalg.outer(v.T)
    elements = np.concatenate([conclusive, pi0[..., None, :, :]], axis=-3)
    validate_povm_stack(elements, "predictive POVM").raise_if_failed()
    c = (c[..., 0], c[..., 1])
    return DualOptimum(mu1, mu2, mu0, _frozen(rho0), mu1 + mu2, regime, basis, _frozen(elements), c)


def _grid_points(e1, e2, numerator, k, step):
    """The grid points mu_1 = k * step, each paired with the largest grid mu_2 keeping the remainder PSD.

    Returns mu_1, mu_2 and the total mu_1 + mu_2, and the bound
    mu_1 + e2 - numerator / (e1 - mu_1) that the total stays below, both
    -inf where no mu_2 is feasible.  The parameters are broadcast against k.
    """
    mu1 = k * step
    slack = e1 - mu1
    with np.errstate(divide="ignore"):
        bound = e2 - numerator / slack
    feasible = (slack > 0.0) & (bound >= 0.0)
    mu2 = np.minimum(np.where(feasible, np.floor(bound / step) * step, -np.inf), e2)
    return mu1, mu2, mu1 + mu2, np.where(feasible, mu1 + bound, -np.inf)


def _runs(start, count, stride):
    """Grid indices start_i + j * stride_i (j < count_i) of each run i, flat; with each point's run and each run's offset."""
    offsets = np.cumsum(count) - count
    run = np.repeat(np.arange(len(count)), count)
    return run, offsets, start[run] + stride[run] * (np.arange(run.size) - offsets[run])


def _chunks(sizes, budget):
    """Slices of consecutive runs whose sizes add up to at most budget (a larger run alone)."""
    ends = np.cumsum(sizes)
    first = 0
    while first < len(sizes):
        stop = int(np.searchsorted(ends, ends[first] - sizes[first] + budget, side="right"))
        yield slice(first, max(stop, first + 1))
        first = max(stop, first + 1)


def brute_force_dual(x: UdInstance, grid_step: float):
    """Grid-search oracle for the dual optimum: (mu_1, mu_2, mu_1 + mu_2), each (n,).

    Scans mu_1 on the grid k * grid_step <= eta_1 and pairs it with the
    largest grid mu_2 keeping the source remainder PSD (non-negative
    diagonal, determinant >= -REMAINDER_PSD_TOL, the tolerance
    no_signaling_check applies); returns the feasible grid point maximizing
    mu_1 + mu_2, the first one on ties.  Within O(grid_step) of the closed
    form by construction, and independent of it.

    Every total lies below the concave bound g(mu_1) = mu_1 + eta_2 -
    (eta_1 eta_2 s^2 - REMAINDER_PSD_TOL) / (eta_1 - mu_1), and the feasible
    mu_1 form an interval (the mu_2 bound falls as mu_1 grows).  A scan of
    every stride-th point (stride about sqrt of the grid size) gives a lower
    bound L on the best total, so every maximiser lies where the point is
    feasible and g >= L - grid_step, an interval; the full grid is scanned
    there, widened by one stride on each side.
    Instances are scanned in chunks of at most one instance's full grid of
    points.  grid_step must be finite and in [MIN_GRID_STEP, MAX_GRID_STEP].
    """
    if not (math.isfinite(grid_step) and MIN_GRID_STEP <= grid_step <= MAX_GRID_STEP):
        raise ValueError(
            f"grid_step must be finite and at least {MIN_GRID_STEP:g}, and at most {MAX_GRID_STEP:g},"
            f" got {grid_step!r}"
        )
    e1, e2 = x.eta
    numerator = e1 * e2 * x.s ** 2 - REMAINDER_PSD_TOL
    # Determinant constraint inactive at tolerance (orthogonal states): the whole source.
    best = np.array([e1, e2, e1 + e2])
    scan = np.flatnonzero(numerator > 0.0)
    e1, e2, numerator = e1[scan], e2[scan], numerator[scan]
    # The grid of np.arange(0, e1 + step / 2, step), less a last point above e1.
    size = np.ceil((e1 + grid_step / 2.0) / grid_step).astype(np.int64)
    size -= (size - 1) * grid_step > e1
    stride = np.maximum(np.sqrt(size).astype(np.int64), 1)
    budget = int(size.max(initial=1))

    lo, hi = np.zeros_like(size), np.zeros_like(size)
    coarse = -(-size // stride)
    for part in _chunks(coarse, budget):
        run, offsets, k = _runs(np.zeros_like(coarse[part]), coarse[part], stride[part])
        _, _, total, cap = _grid_points(e1[part][run], e2[part][run], numerator[part][run], k, grid_step)
        lower = np.maximum.reduceat(total, offsets)
        near = cap >= (lower - grid_step)[run]
        first = np.minimum.reduceat(np.where(near, k, budget), offsets)
        last = np.maximum.reduceat(np.where(near, k, -1), offsets)
        lo[part] = np.maximum(first - stride[part], 0)
        hi[part] = np.minimum(last + stride[part], size[part] - 1)

    window = hi - lo + 1
    for part in _chunks(window, budget):
        run, offsets, k = _runs(lo[part], window[part], np.ones_like(lo[part]))
        mu1, mu2, total, _ = _grid_points(e1[part][run], e2[part][run], numerator[part][run], k, grid_step)
        peak = np.maximum.reduceat(total, offsets)
        at = np.minimum.reduceat(np.where(total == peak[run], np.arange(total.size), total.size), offsets)
        best[:, scan[part]] = mu1[at], mu2[at], total[at]
    return tuple(best)


def duality_bridge(x: UdInstance, opt: DualOptimum) -> np.ndarray:
    """eta_i <psi_i|Pi_i|psi_i>, which the duality equates with mu_i, as (n, 2).

    opt is x's optimal_dual; the terms sum to the predictive success probability.
    """
    psi = ud_state_vectors(x)
    hits = (opt.elements[..., :2, :, :] @ psi[..., None])[..., 0]
    return _eta(x) * (psi.conj() * hits).sum(axis=-1).real


def ud_retro_dual(x: UdInstance, opt: DualOptimum) -> RetroDual:
    """Transform of each instance against opt.elements, opt being x's optimal_dual: a RetroDual over (n,)."""
    return transform_stack(_eta(x), linalg.outer(ud_state_vectors(x)), opt.elements)


@dataclass(frozen=True, eq=False)
class PurityIdentificationReport:
    """Residuals tying the conclusive retrodictive states to the retro basis.

    Each residual pair is (n, 2), over the two conclusive outcomes.  Outcomes with click probability below the floor (a clamped
    instance's unlikely state) carry NaN residuals.  verify.checks_for_ud
    holds the defined residuals to their tolerances; the report carries no
    verdict.
    """

    purity_residuals: np.ndarray
    projector_residuals: np.ndarray
    sqrt_route_residuals: np.ndarray
    failure_det_residual: np.ndarray


def verify_purity_identification(
    x: UdInstance, opt: DualOptimum, dual: RetroDual
) -> PurityIdentificationReport:
    """Check that each conclusive retrodictive state is the matching basis projector.

    Three routes are compared: dual (the instance's ud_retro_dual), the
    projectors of opt.basis (opt is its optimal_dual), and sqrt(Omega)|psi_perp>
    renormalized, with sqrt(Omega) from the basis's source spectrum.  Also
    reports |det| of the source remainder at opt's weights (the weighted
    failure state), which vanishes at the optimum.
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
    return PurityIdentificationReport(
        where_defined(purity),
        where_defined(linalg.maxabs_each(states - projectors)),
        where_defined(linalg.maxabs_each(states - linalg.outer(vec))),
        np.abs(np.linalg.det(source_remainder(x, opt.mu1, opt.mu2))),
    )
