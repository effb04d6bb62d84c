"""Domain types for states, priors, and measurements, plus the source function.

Constructors enforce the domain invariants and raise ValidationError naming
every violated check with its measured residual; the validate_* functions
return the same findings as a report without raising, so callers (the CLI in
particular) can show all problems in malformed input at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, ValidationError

PSD_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
PRIORS_TOL = 1e-12
UNBIASED_TOL = 1e-10


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which check, how badly, and where."""

    check: str
    residual: float
    message: str

    def __str__(self) -> str:
        return f"{self.check}: {self.message} (residual {self.residual:.3e})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise ValidationError(self.violations)


def _finite_complex(value, label: str) -> tuple[np.ndarray | None, list[Violation]]:
    arr = np.asarray(value, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        bad = float(np.sum(~np.isfinite(arr)))
        return None, [Violation("finite_entries", bad, f"{label} has non-finite entries")]
    return arr, []


def validate_state_vector(amplitudes, label: str = "state") -> ValidationReport:
    """Check a pure-state amplitude vector: finite and unit norm."""
    arr, violations = _finite_complex(amplitudes, label)
    if arr is not None:
        if arr.ndim != 1 or arr.shape[0] < 1:
            violations.append(Violation("vector_shape", 0.0, f"{label} is not a vector"))
        else:
            res = abs(float(np.linalg.norm(arr)) - 1.0)
            if res > NORM_TOL:
                violations.append(Violation("unit_norm", res, f"{label} norm differs from 1"))
    return ValidationReport(tuple(violations))


def validate_hermitian_matrix(matrix, label: str = "operator") -> ValidationReport:
    """Check squareness, finiteness, and Hermiticity of one matrix."""
    arr, violations = _finite_complex(matrix, label)
    if arr is not None:
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            violations.append(Violation("square_shape", 0.0, f"{label} is not square"))
        else:
            res = linalg.hermiticity_residual(arr)
            if res > linalg.TOL_HERM:
                violations.append(Violation("hermiticity", res, f"{label} is not Hermitian"))
    return ValidationReport(tuple(violations))


def _psd_violations(matrix: np.ndarray, label: str) -> list[Violation]:
    # Spectral checks run on the Hermitian part so they stay meaningful even
    # when a Hermiticity violation was already recorded.
    herm = (matrix + matrix.conj().T) / 2.0
    w_min = float(np.linalg.eigvalsh(herm)[0])
    if w_min < -PSD_TOL:
        return [Violation("psd", -w_min, f"{label} has negative eigenvalue {w_min:.3e}")]
    return []


def validate_density_matrix(matrix, label: str = "state") -> ValidationReport:
    """Check a density matrix: Hermitian, PSD, unit trace."""
    report = validate_hermitian_matrix(matrix, label)
    violations = list(report.violations)
    if not any(v.check in ("finite_entries", "square_shape") for v in violations):
        arr = np.asarray(matrix, dtype=np.complex128)
        violations.extend(_psd_violations(arr, label))
        res = abs(float(np.trace(arr).real) - 1.0)
        if res > TRACE_TOL:
            violations.append(Violation("unit_trace", res, f"{label} trace differs from 1"))
    return ValidationReport(tuple(violations))


def _real_array(values) -> np.ndarray | None:
    """values as a float64 array, or None when they are not real numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        return None


def validate_priors(priors) -> ValidationReport:
    """Check prior probabilities: a vector of reals, non-negative, summing to 1 within 1e-12."""
    arr = _real_array(priors)
    if arr is None or arr.ndim != 1 or arr.shape[0] < 1:
        what = "a vector of real numbers" if arr is None else "a non-empty vector"
        return ValidationReport((Violation("priors_shape", 0.0, f"priors is not {what}"),))
    if not np.all(np.isfinite(arr)):
        return ValidationReport((Violation("finite_entries", 0.0, "priors has non-finite entries"),))
    violations = []
    if np.any(arr < 0.0):
        violations.append(Violation("priors_nonnegative", -float(arr.min()), "negative prior"))
    res = abs(float(arr.sum()) - 1.0)
    if res > PRIORS_TOL:
        violations.append(Violation("priors_sum", res, "priors do not sum to 1"))
    return ValidationReport(tuple(violations))


def _ensemble_report(priors, n_states: int, dims: set[int], state_violations) -> ValidationReport:
    """The Ensemble invariants: valid priors, one per state, states of one dimension.

    The states' own violations are reported between the length and dimension checks.
    """
    violations = list(validate_priors(priors).violations)
    arr = _real_array(priors)
    n_priors = None if arr is None else len(np.atleast_1d(arr))
    if n_states < 1:
        violations.append(Violation("states_count", 0.0, "ensemble has no states"))
    elif n_priors not in (None, n_states):
        violations.append(
            Violation("states_priors_length", float(abs(n_states - n_priors)),
                      "states and priors differ in length")
        )
    violations.extend(state_violations)
    if len(dims) > 1:
        violations.append(Violation("common_dim", 0.0, f"states have mixed dims {sorted(dims)}"))
    return ValidationReport(tuple(violations))


def validate_ensemble(state_matrices, priors) -> ValidationReport:
    """Report every violated Ensemble invariant for raw state matrices and priors."""
    mats = list(state_matrices)
    state_violations = [
        v for i, m in enumerate(mats) for v in validate_density_matrix(m, f"state[{i}]").violations
    ]
    dims = {np.shape(m)[0] for m in mats if np.ndim(m) == 2}
    return _ensemble_report(priors, len(mats), dims, state_violations)


def validate_povm(elements, sum_target=None) -> ValidationReport:
    """Report every violated Povm invariant: per-element PSD, sum to identity.

    sum_target overrides the identity as the completeness target (used for
    measurements restricted to the support of a singular source).
    """
    elems = list(elements)
    if len(elems) < 1:
        return ValidationReport((Violation("elements_count", 0.0, "POVM has no elements"),))
    violations: list[Violation] = []
    dims = set()
    arrays = []
    for j, e in enumerate(elems):
        report = validate_hermitian_matrix(e, f"element[{j}]")
        violations.extend(report.violations)
        arr = np.asarray(e, dtype=np.complex128)
        if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
            arrays.append(arr)
            dims.add(arr.shape[0])
            if not any(v.check == "finite_entries" for v in report.violations):
                violations.extend(_psd_violations(arr, f"element[{j}]"))
    if len(dims) > 1:
        violations.append(Violation("common_dim", 0.0, f"elements have mixed dims {sorted(dims)}"))
    elif arrays and len(arrays) == len(elems):
        total = sum(arrays)
        target = np.eye(arrays[0].shape[0]) if sum_target is None else np.asarray(sum_target)
        res = linalg.maxabs(total - target)
        if res > PSD_TOL:
            what = "identity" if sum_target is None else "completeness target"
            violations.append(Violation("completeness", res, f"elements do not sum to the {what}"))
    return ValidationReport(tuple(violations))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        validate_state_vector(self.amplitudes).raise_if_failed()
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        return linalg.outer(self.amplitudes)

    def density(self) -> "DensityOperator":
        return DensityOperator(self.projector())

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, trace-one operator."""

    matrix: np.ndarray

    def __post_init__(self):
        validate_density_matrix(self.matrix).raise_if_failed()
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States with prior probabilities: Alice's side of the preparation."""

    states: tuple[DensityOperator, ...]
    priors: np.ndarray

    def __post_init__(self):
        states = tuple(self.states)
        _ensemble_report(self.priors, len(states), {s.dim for s in states}, ()).raise_if_failed()
        priors = np.array(self.priors, dtype=np.float64)
        priors.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    @classmethod
    def from_pure_states(cls, states: list[PureState], priors) -> "Ensemble":
        return cls(tuple(s.density() for s in states), priors)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to the identity: Bob's detectors.

    sum_target replaces the identity as the completeness target; it is only
    used by the support-restricted transform of a singular source.
    """

    elements: tuple[np.ndarray, ...]
    sum_target: np.ndarray | None = None

    def __post_init__(self):
        validate_povm(self.elements, self.sum_target).raise_if_failed()
        object.__setattr__(self, "elements", tuple(_frozen(e) for e in self.elements))
        if self.sum_target is not None:
            object.__setattr__(self, "sum_target", _frozen(self.sum_target))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class SourceFunction:
    """Prior-weighted average state of the source, with the unbiasedness flag."""

    omega: DensityOperator
    unbiased: bool = field(init=False)

    def __post_init__(self):
        eye_over_d = np.eye(self.omega.dim) / self.omega.dim
        res = linalg.maxabs(self.omega.matrix - eye_over_d)
        object.__setattr__(self, "unbiased", bool(res <= UNBIASED_TOL))

    @property
    def dim(self) -> int:
        return self.omega.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.omega.matrix


def source_from_ensemble(ensemble: Ensemble) -> SourceFunction:
    """Mix the ensemble into its source function."""
    omega = sum(
        eta * state.matrix for eta, state in zip(ensemble.priors, ensemble.states)
    )
    return SourceFunction(DensityOperator(omega))


def require_same_dim(dim_a: int, dim_b: int, what: str) -> None:
    if dim_a != dim_b:
        raise DimensionMismatch(f"{what}: {dim_a} != {dim_b}")
