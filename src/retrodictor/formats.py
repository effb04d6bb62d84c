"""JSON file formats for ensembles, POVMs, and reports.

Complex entries are encoded as two-element [re, im] arrays in decimal,
matrices row-major.  Serialization goes through Python's shortest
round-trip float repr (at most 17 significant digits), so serialize -> parse
reproduces every value bit-exactly and identical inputs yield byte-identical
documents.

The canonical form of a document is defined as the standard library's
json.dumps(doc, indent=2, sort_keys=True) plus a newline, where a float64
array stands for its .tolist().  render_json produces exactly that text,
faster; tests/test_canonical_json.py pins it.  Every block of floats in a
report (matrices through matrix_to_rows, priors, click probabilities, the
simulate tables) stays a float64 array from the program to the text; a list
renders item by item.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

import numpy as np

from .ensembles import (
    Ensemble,
    Povm,
    Violation,
    validate_ensemble,
    validate_povm,
    validate_state_vector,
)
from .errors import ValidationError


def matrix_to_rows(matrix: np.ndarray) -> np.ndarray:
    """The [re, im] pair of each entry of a complex array (ndim >= 1), as a float64 array of shape (*matrix.shape, 2).

    It is a view of the complex128 data (a copy only when matrix is not already
    C-contiguous complex128); render_json writes it as the nested [re, im]
    lists that .tolist() gives.
    """
    arr = np.ascontiguousarray(matrix, np.complex128)
    return arr.view(np.float64).reshape(*arr.shape, 2)


def _entries_to_complex(entries: list, where: str) -> np.ndarray:
    """complex128 vector of [re, im] entries, checked and converted in bulk.

    Each entry must be a list of two ints or floats (not bools), as json.load
    gives them; any other entry fails the whole matrix with one message.
    """
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
        values = list(chain.from_iterable(entries))
        if set(map(type, values)) <= {int, float}:
            return np.array(values, np.float64).view(np.complex128)
    raise ValidationError(
        [Violation("file_format", 0.0, f"{where}: complex entries must be [re, im] pairs")]
    )


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
    return _entries_to_complex(list(chain.from_iterable(rows)), where).reshape(n, n)


def pairs_to_vector(pairs: Any, where: str) -> np.ndarray:
    if not isinstance(pairs, list) or not pairs:
        raise ValidationError(
            [Violation("file_format", 0.0, f"{where}: vector must be a list of [re, im] pairs")]
        )
    return _entries_to_complex(pairs, where)


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
            # A failed vector's projector is skipped: I/d stands in, a valid state of its dimension,
            # so validate_ensemble names no second violation of the same entry.
            matrices.append(np.outer(vec, vec.conj()) if report.ok else np.eye(len(vec)) / len(vec))
        else:
            matrices.append(rows_to_matrix(entry, where))
    for i, m in enumerate(matrices):
        if m.shape[0] != dim:
            pure_violations.append(
                Violation("dim_mismatch", float(m.shape[0]), f"states[{i}] dim != {dim}")
            )
    if pure_violations:
        raise ValidationError(pure_violations + list(validate_ensemble(matrices, priors).violations))
    return Ensemble(matrices, priors)


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


def ensemble_to_payload(ensemble: Ensemble) -> dict:
    """Serializable document for an ensemble."""
    return {
        "dim": ensemble.dim,
        "states": matrix_to_rows(ensemble.matrices),
        "priors": ensemble.priors,
    }


def povm_to_payload(povm: Povm) -> dict:
    return {"dim": povm.dim, "elements": matrix_to_rows(povm.elements)}


def write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(doc))


def render_json(doc: Any) -> str:
    """Canonical rendering: exactly json.dumps(doc, indent=2, sort_keys=True) + "\\n".

    A numpy float64 array of one or more dimensions is rendered as json
    renders its .tolist(); any other numpy array, and anything else json
    rejects, raises json's own error.  json's indented encoder is pure
    Python; this one fills one %-template of the shape with the floats of
    each finite non-empty float64 array, the form in which blocks of floats
    arrive, and renders lists and tuples item by item.  A non-finite or
    empty array is rendered through .tolist(), so NaN, Infinity and [] come
    out as json writes them.  An array holds no references, so only lists
    and dicts can form a cycle, which gets json's ValueError rather than a
    hang: the walk ends in RecursionError, which hands the document to
    json.dumps.
    """
    try:
        return _render(doc, "") + "\n"
    except RecursionError:  # a cycle, or nesting too deep: json.dumps raises its own error
        return json.dumps(doc, indent=2, sort_keys=True, default=_as_lists) + "\n"


def _render(x: Any, indent: str) -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) writes it, nested at indent."""
    if isinstance(x, str):
        return _encode_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim:
        if x.size:
            block = _template(x.shape, indent) % tuple(map(float.__repr__, x.ravel().tolist()))
            if "n" not in block:  # nan and inf: json spells them NaN, Infinity
                return block
        return _render(x.tolist(), indent)  # empty, NaN or infinite: as json writes the lists
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = [_render(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(x, dict) and set(map(type, x)) <= {str}:
        if not x:
            return "{}"
        items = [_encode_str(k) + ": " + _render(x[k], inner) for k in sorted(x)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    # Non-str keys and unknown types: json's own text or error.  Newlines in
    # json text are all structural (strings escape them), so this re-indents it.
    return json.dumps(x, indent=2, sort_keys=True, default=_as_lists).replace("\n", "\n" + indent)


def _as_lists(x: Any) -> list:
    """json.dumps's default: a float64 array of one or more dimensions as its .tolist(), else json's TypeError."""
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim:
        return x.tolist()
    return json.JSONEncoder.default(None, x)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _template(shape, indent: str) -> str:
    """A nested list of this shape as json indents it, with %s for each float."""
    inner = indent + "  "
    item = _template(shape[1:], inner) if shape[1:] else "%s"
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + indent + "]"
