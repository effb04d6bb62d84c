"""Input types for states, priors, and measurements, and the checks behind them.

Constructors enforce the domain invariants and raise ValidationError naming
every violated check with its measured residual; the validate_* functions
return the same findings as a report without raising, so callers (the CLI in
particular) can show all problems in malformed input at once.

One stack validator per kind checks every invariant over leading axes:
validate_operator_stack, validate_povm_stack, validate_priors_stack and
validate_vector_stack.  The one-object validators and the input types
Ensemble and Povm (each holding a read-only (n, d, d) stack) read what a
caller passes, an (n, d, d) array, a sequence or a generator (read once),
through one front end that converts it to one complex array and names its
shape errors; items that form no one stack are checked one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, ValidationError
from .tolerances import NORM_TOL, PRIORS_TOL, PSD_TOL, TOL_HERM, TRACE_TOL, UNBIASED_TOL


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
    if arr is not None and arr.ndim == 1 and arr.shape[0] >= 1:
        return validate_vector_stack(arr, label)
    not_vector = Violation("vector_shape", 0.0, f"{label} is not a vector")
    return ValidationReport((_entry_violation(arr, label) or not_vector,))


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
    violations = []
    for k in np.flatnonzero(~finite | (norm_residual > NORM_TOL)).tolist():
        if not finite[k]:
            violations.append(_entry_violation(flat[k], label(k)))
        else:
            violations.append(Violation("unit_norm", float(norm_residual[k]), f"{label(k)} norm differs from 1"))
    return ValidationReport(tuple(violations))


def _items(items) -> np.ndarray | list | None:
    """The front end: items as one complex (n, d, d) array when they form one, else as a list.

    items is an (n, d, d) array, a sequence or a generator (read once) of
    d x d array-likes; None if it is not a collection.
    """
    try:
        items = items if isinstance(items, np.ndarray) and items.ndim else list(items)
    except TypeError:
        return None
    stack = _as_array(items, np.complex128)
    if stack is not None and stack.ndim == 3 and stack.shape[1] == stack.shape[2] >= 1:
        return stack
    return list(items)


def _each_item(items: list, name: str, unit_trace: bool) -> list[Violation]:
    """The violations of items that form no one stack, each checked on its own, in element order.

    Item k is named name[k]; then common_dim if the square items have mixed dimensions, so
    an item that is not square is named once.
    """
    arrays = [_as_array(item, np.complex128) for item in items]
    violations = [v for k, arr in enumerate(arrays) for v in _matrix_violations(arr, f"{name}[{k}]", unit_trace)]
    dims = {arr.shape[0] for arr in arrays if arr is not None and arr.ndim == 2 and arr.shape[0] == arr.shape[1] >= 1}
    if len(dims) > 1:
        violations.append(Violation("common_dim", 0.0, f"{name}s have mixed dims {sorted(dims)}"))
    return violations


def _matrix_violations(arr: np.ndarray | None, label: str, unit_trace: bool) -> tuple[Violation, ...]:
    """One converted operator's entry or shape violation, or its findings as a stack of one."""
    if arr is None or arr.ndim != 2 or not arr.shape[0] == arr.shape[1] >= 1:
        return (_entry_violation(arr, label) or Violation("square_shape", 0.0, f"{label} is not square"),)
    return validate_operator_stack(arr, label, unit_trace).violations


def _stack_label(label: str, shape: tuple[int, ...]):
    """label(k) for the k-th item, in flat order, of a stack with leading shape (none: label)."""
    if not shape:
        return lambda k: label
    return lambda k: f"{label}[{', '.join(map(str, np.unravel_index(k, shape)))}]"


def validate_operator_stack(ops: np.ndarray, label, unit_trace: bool = False) -> ValidationReport:
    """Check each matrix of a complex (..., d, d) stack, as one stack.

    Finiteness, Hermiticity, PSD (one Cholesky gate of the Hermitian parts,
    and one eigvalsh only when it fails) and, with unit_trace=True (density
    operators), the trace.  label is a name, which violations suffix with the
    matrix's index, or label(k) for the k-th matrix in flat order.
    """
    return _checked_stack(ops, label, unit_trace)[0]


def _psd_gate(herm: np.ndarray) -> np.ndarray:
    """The PSD check's reading of a Hermitian (k, d, d) stack: each matrix's smallest eigenvalue, or 0.

    One Cholesky factorisation of the stack shifted by PSD_TOL I gates it: when
    every shifted matrix is positive definite, every eigenvalue is above
    -PSD_TOL, and zeros stand in for them.  Only a stack that fails the gate
    runs eigvalsh, whose eigenvalues flag and name the failing matrices.
    """
    try:
        np.linalg.cholesky(herm + PSD_TOL * np.eye(herm.shape[-1]))
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(herm)[:, 0]
    return np.zeros(len(herm))


def _checked_stack(ops: np.ndarray, label, unit_trace: bool, decompose: bool = False):
    """validate_operator_stack's report, and with decompose=True ops' linalg.hermitian_eig Spectrum.

    The decomposition runs only when every matrix passes the finite, Hermitian and
    trace checks (else it is None), and the PSD check then reads its eigenvalues.
    """
    flat = ops.reshape(-1, *ops.shape[-2:])
    if isinstance(label, str):
        label = _stack_label(label, ops.shape[:-2])
    finite = np.isfinite(flat).all(axis=(1, 2))
    found = {k: [_entry_violation(flat[k], label(k))] for k in np.flatnonzero(~finite).tolist()}
    rows = np.flatnonzero(finite)
    if found:
        flat = flat[finite]
    adj = linalg.dag(flat)
    # Entries near the float64 limit must not overflow: halving before adding
    # keeps the Hermitian part finite, and an overflowed residual or trace
    # is reported as the violation it is.
    with np.errstate(over="ignore"):
        herm = np.abs(flat - adj).max(axis=(1, 2))
        traces = flat.trace(axis1=1, axis2=2).real
    flagged = herm > TOL_HERM
    if unit_trace:
        flagged |= np.abs(traces - 1.0) > TRACE_TOL
    spectrum = None
    if decompose and not found and not flagged.any():
        spectrum = linalg.hermitian_eig(ops)
        w_min = spectrum.eigenvalues.reshape(len(flat), -1)[:, 0]
    else:
        w_min = _psd_gate(flat / 2.0 + adj / 2.0)
    flagged |= w_min < -PSD_TOL
    for k, res, w, tr in zip(
        rows[flagged].tolist(), herm[flagged].tolist(), w_min[flagged].tolist(), traces[flagged].tolist()
    ):
        vs = found.setdefault(k, [])
        if res > TOL_HERM:
            vs.append(Violation("hermiticity", res, f"{label(k)} is not Hermitian"))
        if w < -PSD_TOL:
            vs.append(Violation("psd", -w, f"{label(k)} has negative eigenvalue {w:.3e}"))
        if unit_trace and abs(tr - 1.0) > TRACE_TOL:
            vs.append(Violation("unit_trace", abs(tr - 1.0), f"{label(k)} trace differs from 1"))
    return ValidationReport(tuple(v for k in sorted(found) for v in found[k])), spectrum


def validate_hermitian_matrix(matrix, label: str = "operator") -> ValidationReport:
    """Check squareness, finiteness, and Hermiticity of one matrix."""
    violations = _matrix_violations(_as_array(matrix, np.complex128), label, False)
    return ValidationReport(tuple(v for v in violations if v.check != "psd"))


def validate_density_matrix(matrix, label: str = "state") -> ValidationReport:
    """Check a density matrix: Hermitian, PSD, unit trace (a stack of one)."""
    return ValidationReport(_matrix_violations(_as_array(matrix, np.complex128), label, True))


def validate_priors(priors) -> ValidationReport:
    """Check prior probabilities: a vector of reals, non-negative, summing to 1 within PRIORS_TOL."""
    arr = _as_array(priors, np.float64)
    if arr is None or arr.ndim != 1 or arr.shape[0] < 1:
        what = "a vector of real numbers" if arr is None else "a non-empty vector"
        return ValidationReport((Violation("priors_shape", 0.0, f"priors is not {what}"),))
    return validate_priors_stack(arr, "")


def validate_priors_stack(priors: np.ndarray, label: str) -> ValidationReport:
    """Check each row of a (..., n) stack of priors, in one pass: finite, nonnegative, summing to 1.

    The sum is held to PRIORS_TOL.  Violations name the row as label[index];
    an empty label names no row.
    """
    name = _stack_label(label, priors.shape[:-1])
    rows = priors.reshape(-1, priors.shape[-1])
    finite = np.isfinite(rows).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        low = rows.min(axis=1)
        off = np.abs(rows.sum(axis=1) - 1.0)
    violations = []
    for k in np.flatnonzero(~finite | (low < 0.0) | (off > PRIORS_TOL)).tolist():
        where = f" ({name(k)})" if label else ""
        if not finite[k]:
            violations.append(Violation("finite_entries", 0.0, f"priors has non-finite entries{where}"))
            continue
        if low[k] < 0.0:
            violations.append(Violation("priors_nonnegative", -float(low[k]), f"negative prior{where}"))
        if off[k] > PRIORS_TOL:
            violations.append(Violation("priors_sum", float(off[k]), f"priors do not sum to 1{where}"))
    return ValidationReport(tuple(violations))


def validate_ensemble(state_matrices, priors) -> ValidationReport:
    """Report every violated Ensemble invariant for raw state matrices and priors.

    The states are an (n, d, d) array, a sequence or a generator of d x d
    array-likes.  Valid priors, one per state, then the states' own
    violations, then one dimension for all states.
    """
    states = _items(state_matrices)
    violations = list(validate_priors(priors).violations)
    if states is None:
        return ValidationReport((*violations, Violation("states_shape", 0.0, "states is not a sequence of matrices")))
    arr = _as_array(priors, np.float64)
    n_priors = None if arr is None else len(np.atleast_1d(arr))
    if len(states) < 1:
        violations.append(Violation("states_count", 0.0, "ensemble has no states"))
    elif n_priors not in (None, len(states)):
        violations.append(
            Violation("states_priors_length", float(abs(len(states) - n_priors)),
                      "states and priors differ in length")
        )
    if isinstance(states, np.ndarray):
        violations.extend(validate_operator_stack(states, "state", unit_trace=True).violations)
        return ValidationReport(tuple(violations))
    violations.extend(_each_item(states, "state", unit_trace=True))
    return ValidationReport(tuple(violations))


def validate_povm(elements) -> ValidationReport:
    """Report every violated Povm invariant: per-element PSD, sum to identity.

    The elements are an (n, d, d) array, a sequence or a generator of d x d
    array-likes.
    """
    elements = _items(elements)
    if elements is None:
        return ValidationReport((Violation("elements_shape", 0.0, "POVM elements are not a sequence of matrices"),))
    if len(elements) < 1:
        return ValidationReport((Violation("elements_count", 0.0, "POVM has no elements"),))
    if isinstance(elements, np.ndarray):
        return validate_povm_stack(elements, "")
    return ValidationReport(tuple(_each_item(elements, "element", unit_trace=False)))


def validate_povm_stack(elements: np.ndarray, label: str, sum_target=None) -> ValidationReport:
    """Check each POVM of a complex (..., n, d, d) stack as one operator stack, then its completeness.

    sum_target, if given, is the (..., d, d) completeness target of each POVM
    (else the identity).  Element j of POVM k is named label[k] element[j]
    and its completeness label[k] elements; an empty label names one POVM's
    element[j] and elements.
    """
    report = validate_operator_stack(elements, f"{label} element".lstrip())
    name = _stack_label(label, elements.shape[:-3])
    target = np.eye(elements.shape[-1]) if sum_target is None else np.asarray(sum_target)
    with np.errstate(over="ignore"):  # an overflowed sum is the completeness violation it is
        residual = linalg.maxabs_each(elements.sum(axis=-3) - target).reshape(-1)
    what = "identity" if sum_target is None else "completeness target"
    completeness = tuple(
        Violation("completeness", float(residual[k]), f"{name(k)} elements do not sum to the {what}".lstrip())
        for k in np.flatnonzero(residual > PSD_TOL).tolist()
    )
    return ValidationReport(report.violations + completeness)


def _frozen(arr: np.ndarray, dtype=np.complex128) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States with prior probabilities: Alice's side of the preparation.

    matrices is one read-only complex128 (n, d, d) stack of the states and
    priors the read-only (n,) float64 vector.
    """

    matrices: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        matrices = _items(self.matrices)
        validate_ensemble(matrices, self.priors).raise_if_failed()
        object.__setattr__(self, "matrices", _frozen(matrices))
        object.__setattr__(self, "priors", _frozen(self.priors, np.float64))

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def __len__(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to the identity: Bob's detectors.

    elements is one read-only complex128 (n, d, d) stack.
    """

    elements: np.ndarray

    def __post_init__(self):
        elements = _items(self.elements)
        validate_povm(elements).raise_if_failed()
        object.__setattr__(self, "elements", _frozen(elements))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]


def is_unbiased(omega: np.ndarray) -> bool:
    """Whether a source function Omega (d, d) is I/d to within UNBIASED_TOL, entry by entry."""
    dim = omega.shape[-1]
    return bool(linalg.maxabs(omega - np.eye(dim) / dim) <= UNBIASED_TOL)


def require_same_dim(dim_a: int, dim_b: int, what: str) -> None:
    if dim_a != dim_b:
        raise DimensionMismatch(f"{what}: {dim_a} != {dim_b}")
