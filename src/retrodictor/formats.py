"""JSON file formats for ensembles, POVMs, and reports.

Complex entries are encoded as two-element [re, im] arrays in decimal,
matrices row-major.  Serialization goes through Python's shortest
round-trip float repr (at most 17 significant digits), so serialize -> parse
reproduces every value bit-exactly and identical inputs yield byte-identical
documents.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .ensembles import (
    DensityOperator,
    Ensemble,
    Povm,
    PureState,
    Violation,
    validate_ensemble,
    validate_povm,
    validate_state_vector,
)
from .errors import ValidationError


def matrix_to_rows(matrix: np.ndarray) -> list:
    """The [re, im] pair of each entry of a complex array, nested as the array is: rows of a matrix."""
    arr = np.asarray(matrix, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def vector_to_pairs(vector: np.ndarray) -> list[list[float]]:
    return matrix_to_rows(vector)


def _pair_to_complex(pair: Any, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise ValidationError(
            [Violation("file_format", 0.0, f"{where}: complex entries must be [re, im] pairs")]
        )
    return complex(float(pair[0]), float(pair[1]))


def rows_to_matrix(rows: Any, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError(
            [Violation("file_format", 0.0, f"{where}: matrix must be a list of rows")]
        )
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValidationError(
            [Violation("file_format", 0.0, f"{where}: matrix must be square, row-major")]
        )
    return np.array(
        [[_pair_to_complex(z, where) for z in row] for row in rows], dtype=np.complex128
    )


def pairs_to_vector(pairs: Any, where: str) -> np.ndarray:
    if not isinstance(pairs, list) or not pairs:
        raise ValidationError(
            [Violation("file_format", 0.0, f"{where}: vector must be a list of [re, im] pairs")]
        )
    return np.array([_pair_to_complex(z, where) for z in pairs], dtype=np.complex128)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError([Violation("file_missing", 0.0, f"cannot read {path}")])
    except json.JSONDecodeError as exc:
        raise ValidationError([Violation("file_format", 0.0, f"{path}: invalid JSON ({exc})")])


def _require_keys(doc: Any, keys: list[str], path: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError([Violation("file_format", 0.0, f"{path}: top level must be an object")])
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValidationError(
            [Violation("file_format", float(len(missing)), f"{path}: missing keys {missing}")]
        )


def parse_ensemble_file(path: str) -> Ensemble:
    """Parse and validate an ensemble file; all violations are reported at once."""
    doc = _load_json(path)
    _require_keys(doc, ["dim", "states", "priors"], path)
    dim = doc["dim"]
    states_raw = doc["states"]
    priors = doc["priors"]
    if not isinstance(states_raw, list) or not states_raw:
        raise ValidationError(
            [Violation("file_format", 0.0, f"{path}: 'states' must be a non-empty list")]
        )
    matrices = []
    pure_violations: list[Violation] = []
    for i, entry in enumerate(states_raw):
        where = f"{path}: states[{i}]"
        if isinstance(entry, dict):
            if not entry.get("pure"):
                raise ValidationError(
                    [Violation("file_format", 0.0, f"{where}: object states need \"pure\": true")]
                )
            vec = pairs_to_vector(entry.get("vector"), where)
            report = validate_state_vector(vec, f"states[{i}]")
            pure_violations.extend(report.violations)
            matrices.append(np.outer(vec, vec.conj()))
        else:
            matrices.append(rows_to_matrix(entry, where))
    for i, m in enumerate(matrices):
        if m.shape[0] != dim:
            pure_violations.append(
                Violation("dim_mismatch", float(m.shape[0]), f"states[{i}] dim != {dim}")
            )
    if pure_violations:
        raise ValidationError(pure_violations + list(validate_ensemble(matrices, priors).violations))
    try:
        return Ensemble(tuple(DensityOperator(m) for m in matrices), priors)
    except ValidationError:
        # The constructors stop at the first invalid state; report every violation at once.
        validate_ensemble(matrices, priors).raise_if_failed()
        raise


def parse_povm_file(path: str) -> Povm:
    """Parse and validate a POVM file."""
    doc = _load_json(path)
    _require_keys(doc, ["dim", "elements"], path)
    dim = doc["dim"]
    elements_raw = doc["elements"]
    if not isinstance(elements_raw, list) or not elements_raw:
        raise ValidationError(
            [Violation("file_format", 0.0, f"{path}: 'elements' must be a non-empty list")]
        )
    elements = [
        rows_to_matrix(entry, f"{path}: elements[{j}]") for j, entry in enumerate(elements_raw)
    ]
    violations = [
        Violation("dim_mismatch", float(e.shape[0]), f"elements[{j}] dim != {dim}")
        for j, e in enumerate(elements)
        if e.shape[0] != dim
    ]
    if violations:
        raise ValidationError(violations + list(validate_povm(elements).violations))
    # With the dimensions right, the constructor reports exactly validate_povm's findings.
    return Povm(tuple(elements))


def ensemble_to_payload(ensemble: Ensemble, pure_states: list[PureState] | None = None) -> dict:
    """Serializable document for an ensemble; pure_states overrides matrix encoding."""
    if pure_states is not None:
        states: list[Any] = [
            {"pure": True, "vector": vector_to_pairs(s.amplitudes)} for s in pure_states
        ]
    else:
        states = matrix_to_rows(ensemble.matrices)
    return {
        "dim": ensemble.dim,
        "states": states,
        "priors": [float(p) for p in ensemble.priors],
    }


def povm_to_payload(povm: Povm) -> dict:
    return {"dim": povm.dim, "elements": matrix_to_rows(povm.elements)}


def write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(doc))


def render_json(doc: dict) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
