"""Domain types for states, priors, and measurements, plus the source function.

Constructors enforce the domain invariants and raise ValidationError naming
every violated check with its measured residual; the validate_* functions
return the same findings as a report without raising, so callers (the CLI in
particular) can show all problems in malformed input at once.

Povm.elements and Ensemble.matrices are read-only (n, d, d) stacks, and
operators are validated per stack, with one reduction per invariant after each
item's own conversion and shape check; a density matrix is a stack of one.
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


def _as_array(values, dtype) -> np.ndarray | None:
    """values as an array of dtype, or None when they are not numbers of that kind."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        return None


def _entry_violation(arr: np.ndarray | None, label: str) -> Violation | None:
    """Why arr's entries are not finite complex numbers, or None when they are."""
    if arr is None:
        return Violation("complex_entries", 0.0, f"{label} is not an array of complex numbers")
    bad = np.count_nonzero(~np.isfinite(arr))
    return Violation("finite_entries", float(bad), f"{label} has non-finite entries") if bad else None


def validate_state_vector(amplitudes, label: str = "state") -> ValidationReport:
    """Check a pure-state amplitude vector: numeric, finite and unit norm."""
    arr = _as_array(amplitudes, np.complex128)
    violation = _entry_violation(arr, label)
    if violation is None and (arr.ndim != 1 or arr.shape[0] < 1):
        violation = Violation("vector_shape", 0.0, f"{label} is not a vector")
    if violation is None:
        return validate_vector_stack(arr, label)
    return ValidationReport((violation,))


def validate_vector_stack(vectors: np.ndarray, label) -> ValidationReport:
    """Check each vector of a complex (..., d) stack: finite and unit norm.

    label is a name, which violations suffix with the vector's index, or
    label(k) for the k-th vector in flat order.
    """
    flat = vectors.reshape(-1, vectors.shape[-1])
    if isinstance(label, str):
        label = _stack_label(label, vectors.shape[:-1])
    finite = np.isfinite(flat).all(axis=1)
    with np.errstate(over="ignore"):
        norm_residual = np.abs(linalg.norm_each(flat) - 1.0)
    flagged = ~finite | (norm_residual > NORM_TOL)
    if not flagged.any():
        return ValidationReport(())
    violations = []
    for k in np.flatnonzero(flagged).tolist():
        if not finite[k]:
            violations.append(_entry_violation(flat[k], label(k)))
        else:
            violations.append(Violation("unit_norm", float(norm_residual[k]), f"{label(k)} norm differs from 1"))
    return ValidationReport(tuple(violations))


def _validate_operators(items, label, unit_trace: bool = False):
    """Violations in element order, the items as arrays (None if not numeric), and their stack.

    label(k) names item k.  The d x d items of each d are checked as one
    stack: finiteness, then Hermiticity, PSD (eigvalsh of the Hermitian part)
    and, for states, trace.  A numeric (n, d, d) array is that stack already.
    The stack is returned when every item is a d x d matrix of one d.
    """
    if isinstance(items, np.ndarray) and items.ndim == 3 and items.shape[1] == items.shape[2] >= 1:
        stack = _as_array(items, np.complex128)
    else:
        stack = None
    found: dict[int, list[Violation]] = {}
    if stack is not None:
        arrays = stack
        groups = [(np.arange(len(stack)), stack)]
    else:
        arrays = [_as_array(m, np.complex128) for m in items]
        by_dim: dict[int, list[int]] = {}
        for k, arr in enumerate(arrays):
            if arr is not None and arr.ndim == 2 and arr.shape[0] == arr.shape[1] >= 1:
                by_dim.setdefault(arr.shape[0], []).append(k)
            else:
                not_square = Violation("square_shape", 0.0, f"{label(k)} is not square")
                found[k] = [_entry_violation(arr, label(k)) or not_square]
        groups = [(np.array(ks), np.array([arrays[k] for k in ks])) for ks in by_dim.values()]
        if len(groups) == 1 and len(groups[0][0]) == len(arrays):
            stack = groups[0][1]
    for ks, group in groups:
        finite = np.isfinite(group).all(axis=(1, 2))
        rows, ops = ks, group
        if not finite.all():
            for k in ks[~finite].tolist():
                found.setdefault(k, []).append(_entry_violation(arrays[k], label(k)))
            rows, ops = ks[finite], group[finite]
        adj = linalg.dag(ops)
        # Entries near the float64 limit must not overflow: halving before adding
        # keeps the Hermitian part finite, and an overflowed residual or trace
        # is reported as the violation it is.
        with np.errstate(over="ignore"):
            herm = np.abs(ops - adj).max(axis=(1, 2))
            traces = ops.trace(axis1=1, axis2=2).real
        w_min = np.linalg.eigvalsh(ops / 2.0 + adj / 2.0)[:, 0]
        flagged = (herm > linalg.TOL_HERM) | (w_min < -PSD_TOL)
        if unit_trace:
            flagged |= np.abs(traces - 1.0) > TRACE_TOL
        if not flagged.any():
            continue
        for k, res, w, tr in zip(
            rows[flagged].tolist(), herm[flagged].tolist(), w_min[flagged].tolist(), traces[flagged].tolist()
        ):
            vs = found.setdefault(k, [])
            if res > linalg.TOL_HERM:
                vs.append(Violation("hermiticity", res, f"{label(k)} is not Hermitian"))
            if w < -PSD_TOL:
                vs.append(Violation("psd", -w, f"{label(k)} has negative eigenvalue {w:.3e}"))
            if unit_trace and abs(tr - 1.0) > TRACE_TOL:
                vs.append(Violation("unit_trace", abs(tr - 1.0), f"{label(k)} trace differs from 1"))
    return [v for k in sorted(found) for v in found[k]], arrays, stack


def _stack_label(label: str, shape: tuple[int, ...]):
    """label(k) for the k-th item, in flat order, of a stack with leading shape (none: label)."""
    if not shape:
        return lambda k: label
    return lambda k: f"{label}[{', '.join(map(str, np.unravel_index(k, shape)))}]"


def validate_operator_stack(ops: np.ndarray, label, unit_trace: bool = False) -> ValidationReport:
    """Check each matrix of a (..., d, d) stack of derived operators, as one stack.

    unit_trace=True checks density operators.  label is a name, which
    violations suffix with the matrix's index, or label(k) for the k-th
    matrix in flat order.
    """
    flat = ops.reshape(-1, *ops.shape[-2:])
    if isinstance(label, str):
        label = _stack_label(label, ops.shape[:-2])
    violations = _validate_operators(flat, label, unit_trace)[0]
    return ValidationReport(tuple(violations))


def validate_hermitian_matrix(matrix, label: str = "operator") -> ValidationReport:
    """Check squareness, finiteness, and Hermiticity of one matrix."""
    violations = _validate_operators([matrix], lambda k: label)[0]
    return ValidationReport(tuple(v for v in violations if v.check != "psd"))


def validate_density_matrix(matrix, label: str = "state") -> ValidationReport:
    """Check a density matrix: Hermitian, PSD, unit trace (a stack of one)."""
    return ValidationReport(tuple(_validate_operators([matrix], lambda k: label, unit_trace=True)[0]))


def _priors_violations(rows: np.ndarray, where) -> list[Violation]:
    """The finite, nonnegative and sum-to-1 (within PRIORS_TOL) checks of each row of (N, n) priors.

    where(k) is appended to the messages of row k ("" for a lone vector).
    """
    finite = np.isfinite(rows).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        low = rows.min(axis=1)
        off = np.abs(rows.sum(axis=1) - 1.0)
    violations = []
    for k in np.flatnonzero(~finite | (low < 0.0) | (off > PRIORS_TOL)).tolist():
        if not finite[k]:
            violations.append(Violation("finite_entries", 0.0, f"priors has non-finite entries{where(k)}"))
            continue
        if low[k] < 0.0:
            violations.append(Violation("priors_nonnegative", -float(low[k]), f"negative prior{where(k)}"))
        if off[k] > PRIORS_TOL:
            violations.append(Violation("priors_sum", float(off[k]), f"priors do not sum to 1{where(k)}"))
    return violations


def validate_priors(priors) -> ValidationReport:
    """Check prior probabilities: a vector of reals, non-negative, summing to 1 within 1e-12."""
    arr = _as_array(priors, np.float64)
    if arr is None or arr.ndim != 1 or arr.shape[0] < 1:
        what = "a vector of real numbers" if arr is None else "a non-empty vector"
        return ValidationReport((Violation("priors_shape", 0.0, f"priors is not {what}"),))
    return ValidationReport(tuple(_priors_violations(arr[None], lambda k: "")))


def validate_priors_stack(priors: np.ndarray, label: str) -> ValidationReport:
    """Check each row of a (..., n) stack of derived priors as validate_priors does, in one pass.

    Violations name the row as label[index].
    """
    name = _stack_label(label, priors.shape[:-1])
    rows = priors.reshape(-1, priors.shape[-1])
    return ValidationReport(tuple(_priors_violations(rows, lambda k: f" ({name(k)})")))


def _ensemble_report(priors, n_states: int, dims: set[int], state_violations) -> ValidationReport:
    """The Ensemble invariants: valid priors, one per state, states of one dimension.

    The states' own violations are reported between the length and dimension checks.
    """
    violations = list(validate_priors(priors).violations)
    arr = _as_array(priors, np.float64)
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
    state_violations, arrays, _ = _validate_operators(mats, lambda k: f"state[{k}]", unit_trace=True)
    dims = {a.shape[0] for a in arrays if a is not None and a.ndim == 2}
    return _ensemble_report(priors, len(mats), dims, state_violations)


def validate_povm(elements, sum_target=None) -> ValidationReport:
    """Report every violated Povm invariant: per-element PSD, sum to identity.

    The elements are validated as one stack.  sum_target overrides the
    identity as the completeness target (used for measurements restricted to
    the support of a singular source).
    """
    elems = list(elements)
    if len(elems) < 1:
        return ValidationReport((Violation("elements_count", 0.0, "POVM has no elements"),))
    violations, arrays, stack = _validate_operators(elems, lambda k: f"element[{k}]")
    dims = {a.shape[0] for a in arrays if a is not None and a.ndim == 2 and a.shape[0] == a.shape[1]}
    if len(dims) > 1:
        violations.append(Violation("common_dim", 0.0, f"elements have mixed dims {sorted(dims)}"))
    elif stack is not None:
        violations.extend(_completeness_violations(stack, sum_target, lambda k: "elements"))
    return ValidationReport(tuple(violations))


def _completeness_violations(elements: np.ndarray, sum_target, label) -> list[Violation]:
    """The completeness check of each POVM of a (..., n, d, d) stack; label(k) names the k-th POVM."""
    target = np.eye(elements.shape[-1]) if sum_target is None else np.asarray(sum_target)
    residual = linalg.maxabs_each(elements.sum(axis=-3) - target).reshape(-1)
    what = "identity" if sum_target is None else "completeness target"
    return [
        Violation("completeness", float(residual[k]), f"{label(k)} do not sum to the {what}")
        for k in np.flatnonzero(residual > PSD_TOL).tolist()
    ]


def validate_povm_stack(elements: np.ndarray, label: str, sum_target=None) -> ValidationReport:
    """Check each POVM of a (..., n, d, d) stack of derived measurements, as one operator stack.

    sum_target, if given, is the (..., d, d) completeness target of each POVM.
    """
    report = validate_operator_stack(elements, f"{label} element")
    lead = elements.shape[:-3]
    completeness = _completeness_violations(
        elements, sum_target, lambda k: f"{_stack_label(label, lead)(k)} elements"
    )
    return ValidationReport(report.violations + tuple(completeness))


def _frozen(arr: np.ndarray, dtype=np.complex128) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
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
    """States with prior probabilities: Alice's side of the preparation; matrices stacks the states."""

    states: tuple[DensityOperator, ...]
    priors: np.ndarray
    matrices: np.ndarray = field(init=False)

    def __post_init__(self):
        states = tuple(self.states)
        _ensemble_report(self.priors, len(states), {s.dim for s in states}, ()).raise_if_failed()
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", _frozen(self.priors, np.float64))
        object.__setattr__(self, "matrices", _frozen([s.matrix for s in states]))

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

    elements is one read-only complex128 (n, d, d) stack.  sum_target replaces
    the identity as the completeness target; it is only used by the
    support-restricted transform of a singular source.
    """

    elements: np.ndarray
    sum_target: np.ndarray | None = None

    def __post_init__(self):
        validate_povm(self.elements, self.sum_target).raise_if_failed()
        object.__setattr__(self, "elements", _frozen(self.elements))
        if self.sum_target is not None:
            object.__setattr__(self, "sum_target", _frozen(self.sum_target))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]


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
    omega = (ensemble.priors[:, None, None] * ensemble.matrices).sum(axis=0)
    return SourceFunction(DensityOperator(omega))


def require_same_dim(dim_a: int, dim_b: int, what: str) -> None:
    if dim_a != dim_b:
        raise DimensionMismatch(f"{what}: {dim_a} != {dim_b}")
