"""Every malformed input gets a named violation.

One table feeds the input types (Povm, Ensemble), the single-operator
validators (validate_density_matrix, validate_state_vector) and the file
parsers the same kinds of malformed input.  The input types must raise
ValidationError naming the expected check and the validators must report it;
no other exception type may escape, and the CLI exits 1 without a traceback.

Each case is marked "fixed" (another exception escaped, or nothing was
reported, before the conversion, the shape and the PSD test were guarded)
or "pin" (already rejected by name; the case holds that behaviour).
"""

import json
import math

import numpy as np
import pytest

from retrodictor.cli import main
from retrodictor.ensembles import Ensemble, Povm, validate_density_matrix, validate_state_vector
from retrodictor.errors import RetrodictorError, ValidationError
from retrodictor.formats import parse_ensemble_file, parse_povm_file

EYE2 = np.eye(2)
HALF = np.eye(2) / 2.0
THIRD = np.eye(3) / 3.0
HUGE_OFF = np.array([[0.0, 1e308], [1e308, 0.0]])

# Malformed operators: (case, value, check named for a matrix, check named for a vector, status).
BAD_OPERATORS = [
    ("0x0", np.zeros((0, 0)), "square_shape", "vector_shape", "pin"),
    ("non-square", np.full((2, 3), 0.5), "square_shape", "vector_shape", "pin"),
    ("ragged", [[0.5, 0.0], [0.5]], "complex_entries", "complex_entries", "fixed"),
    ("3-d", np.zeros((2, 2, 2)), "square_shape", "vector_shape", "pin"),
    ("nan", np.array([[np.nan, 0.0], [0.0, 0.5]]), "finite_entries", "finite_entries", "pin"),
    ("+inf", np.array([[np.inf, 0.0], [0.0, 0.5]]), "finite_entries", "finite_entries", "pin"),
    ("-inf", np.array([[-np.inf, 0.0], [0.0, 0.5]]), "finite_entries", "finite_entries", "pin"),
    ("object", np.array([[object(), 0], [0, object()]], dtype=object),
     "complex_entries", "complex_entries", "fixed"),
    ("string", np.array([["a", "b"], ["c", "d"]]), "complex_entries", "complex_entries", "fixed"),
    ("empty", (), "square_shape", "vector_shape", "pin"),
    # Finite entries whose Hermitian part (A + A^dag) / 2 overflowed to inf,
    # so eigvalsh returned NaN and the negative eigenvalue went unreported.
    ("huge", np.array([[0.5, 1e308], [1e308, 0.5]]), "psd", "vector_shape", "fixed"),
]


def _checks(excinfo) -> set[str]:
    return {v.check for v in excinfo.value.violations}


def _operator_cases(column: int, status: dict[str, str] | None = None) -> list:
    """(value, expected check) per BAD_OPERATORS row, with ids "<case>-<status>"."""
    return [
        pytest.param(row[1], row[column], id=f"{row[0]}-{(status or {}).get(row[0], row[4])}")
        for row in BAD_OPERATORS
    ]


@pytest.mark.parametrize("value, check", _operator_cases(2))
def test_density_operator_names_the_violation(value, check):
    assert check in {v.check for v in validate_density_matrix(value).violations}


# A matrix is not a vector whatever its entries, so "huge" was already named here.
PURE_STATE_CASES = _operator_cases(3, {"huge": "pin"}) + [
    pytest.param([1, [0]], "complex_entries", id="ragged-vector-pin"),
    pytest.param(["a"] * 4, "complex_entries", id="string-vector-pin"),
]


@pytest.mark.parametrize("value, check", PURE_STATE_CASES)
def test_pure_state_names_the_violation(value, check):
    assert check in {v.check for v in validate_state_vector(value).violations}


# A 0x0 POVM element is a fixed case too: it raised IndexError instead of a violation.
@pytest.mark.parametrize("value, check", _operator_cases(2, {"0x0": "fixed"}))
def test_povm_names_the_violation(value, check):
    with pytest.raises(ValidationError) as excinfo:
        Povm((EYE2, value))
    assert check in _checks(excinfo)
    # Element 1 is named; the valid element 0 is not.
    assert all("element[0]" not in v.message for v in excinfo.value.violations)


# The ensemble validates its states as one stack, so every row was already named there.
@pytest.mark.parametrize("value, check", _operator_cases(2, {row[0]: "pin" for row in BAD_OPERATORS}))
def test_ensemble_names_the_violation(value, check):
    with pytest.raises(ValidationError) as excinfo:
        Ensemble((HALF, value), [0.5, 0.5])
    assert check in _checks(excinfo)
    # State 1 is named; the valid state 0 is not.
    assert any("state[1]" in v.message for v in excinfo.value.violations if v.check == check)
    assert all("state[0]" not in v.message for v in excinfo.value.violations)


BAD_COLLECTIONS = [
    ("povm-empty", lambda: Povm(()), "elements_count", "pin"),
    ("povm-mixed-dims", lambda: Povm((EYE2, np.eye(3))), "common_dim", "pin"),
    # Completeness holds exactly; only the PSD test can reject it.
    ("povm-huge-complement", lambda: Povm((HUGE_OFF, EYE2 - HUGE_OFF)), "psd", "fixed"),
    ("ensemble-empty", lambda: Ensemble((), np.array([1.0])), "states_count", "pin"),
    ("ensemble-mixed-dims", lambda: Ensemble((HALF, THIRD), np.array([0.5, 0.5])), "common_dim", "pin"),
    ("priors-nan", lambda: Ensemble((HALF, HALF), [np.nan, 0.5]), "finite_entries", "pin"),
    ("priors-inf", lambda: Ensemble((HALF, HALF), [np.inf, 0.5]), "finite_entries", "pin"),
    ("priors-object", lambda: Ensemble((HALF, HALF), np.array([object(), object()])),
     "priors_shape", "pin"),
    ("priors-string", lambda: Ensemble((HALF, HALF), ["a", "b"]), "priors_shape", "pin"),
    ("priors-ragged", lambda: Ensemble((HALF, HALF), [[0.5], [0.25, 0.25]]), "priors_shape", "pin"),
    ("priors-2-d", lambda: Ensemble((HALF, HALF), np.full((2, 1), 0.5)), "priors_shape", "pin"),
    ("priors-empty", lambda: Ensemble((HALF, HALF), ()), "priors_shape", "pin"),
    ("priors-length", lambda: Ensemble((HALF, HALF), [1.0]), "states_priors_length", "pin"),
    # Not collections at all: list() raised a bare TypeError before they were named.
    ("ensemble-int", lambda: Ensemble(5, [1.0]), "states_shape", "fixed"),
    ("ensemble-none", lambda: Ensemble(None, [1.0]), "states_shape", "fixed"),
    ("ensemble-numpy-scalar", lambda: Ensemble(np.float64(0.5), [1.0]), "states_shape", "fixed"),
    ("povm-int", lambda: Povm(5), "elements_shape", "fixed"),
    ("povm-none", lambda: Povm(None), "elements_shape", "fixed"),
]


COLLECTION_CASES = [pytest.param(b, c, id=f"{n}-{s}") for n, b, c, s in BAD_COLLECTIONS]


@pytest.mark.parametrize("build, check", COLLECTION_CASES)
def test_collections_name_the_violation(build, check):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert check in _checks(excinfo)


# Valid items given as a generator: validation read it, then the constructor stored the
# exhausted generator and raised a bare TypeError.
GENERATOR_INPUTS = [
    pytest.param(lambda items: Ensemble(items, [0.5, 0.5]).matrices, id="ensemble-generator-fixed"),
    pytest.param(lambda items: Povm(items).elements, id="povm-generator-fixed"),
]


@pytest.mark.parametrize("build", GENERATOR_INPUTS)
def test_a_generator_is_read_once_and_stored_as_validated(build):
    stored = build(m for m in (HALF, HALF))
    assert np.array_equal(stored, np.array([HALF, HALF])) and not stored.flags.writeable


def _pair_rows(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, dtype=complex)]


# File entries standing in for a 2x2 operator; all were already rejected by name.
BAD_FILE_ENTRIES = [
    ("0x0", [], "file_format"),
    ("non-square", [[[0.5, 0.0], [0.0, 0.0]]], "file_format"),
    ("ragged", [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]], "file_format"),
    ("3-d", [[[[0.5, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[0.5, 0.0]]]], "file_format"),
    ("nan", _pair_rows([[math.nan, 0.0], [0.0, 0.5]]), "finite_entries"),
    ("+inf", _pair_rows([[math.inf, 0.0], [0.0, 0.5]]), "finite_entries"),
    ("-inf", _pair_rows([[-math.inf, 0.0], [0.0, 0.5]]), "finite_entries"),
    ("object", [[{"re": 0.5}, [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], "file_format"),
    ("string", [[["0.5", "0"], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], "file_format"),
    ("mixed-dims", _pair_rows(np.eye(3) / 3.0), "dim_mismatch"),
]


def _write(path, doc) -> str:
    # json writes NaN and Infinity literals, which json.load reads back as floats.
    path.write_text(json.dumps(doc))
    return str(path)


def _files(tmp_path, state=None, element=None) -> tuple[str, str]:
    states = [_pair_rows(HALF), _pair_rows(HALF) if state is None else state]
    elements = [_pair_rows(EYE2), _pair_rows(np.zeros((2, 2))) if element is None else element]
    return (
        _write(tmp_path / "ensemble.json", {"dim": 2, "states": states, "priors": [0.5, 0.5]}),
        _write(tmp_path / "povm.json", {"dim": 2, "elements": elements}),
    )


def _cli_exits_1(capsys, ens_path, povm_path) -> None:
    assert main(["transform", ens_path, povm_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation failed")
    assert "Traceback" not in err


FILE_CASES = [pytest.param(entry, check, id=f"{case}-pin") for case, entry, check in BAD_FILE_ENTRIES]


@pytest.mark.parametrize("entry, check", FILE_CASES)
def test_ensemble_file_names_the_violation(tmp_path, capsys, entry, check):
    ens_path, povm_path = _files(tmp_path, state=entry)
    with pytest.raises(RetrodictorError) as excinfo:
        parse_ensemble_file(ens_path)
    assert check in _checks(excinfo)
    _cli_exits_1(capsys, ens_path, povm_path)


# {"pure": true} entries standing in for a 2-vector.  The projector of a huge or
# infinite vector overflowed (or met inf * 0) in numpy before the fix, a RuntimeWarning.
BAD_PURE_ENTRIES = [
    ("non-unit", [[1.0, 0.0], [1.0, 0.0]], "unit_norm", "pin"),
    ("zero", [[0.0, 0.0], [0.0, 0.0]], "unit_norm", "pin"),
    ("nan", [[math.nan, 0.0], [0.0, 0.0]], "finite_entries", "pin"),
    ("huge", [[1e308, 0.0], [1e308, 0.0]], "unit_norm", "fixed"),
    ("inf", [[math.inf, 0.0], [0.0, 0.0]], "finite_entries", "fixed"),
    ("length-3", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "dim_mismatch", "pin"),
    ("string", [["1", "0"], [0.0, 0.0]], "file_format", "pin"),
]


@pytest.mark.parametrize(
    "vector, check", [pytest.param(v, c, id=f"{n}-{s}") for n, v, c, s in BAD_PURE_ENTRIES]
)
def test_pure_vector_file_entry_names_the_violation(tmp_path, capsys, vector, check):
    ens_path, povm_path = _files(tmp_path, state={"pure": True, "vector": vector})
    with pytest.raises(ValidationError) as excinfo:
        parse_ensemble_file(ens_path)
    assert check in _checks(excinfo)
    _cli_exits_1(capsys, ens_path, povm_path)


@pytest.mark.parametrize("entry, check", FILE_CASES)
def test_povm_file_names_the_violation(tmp_path, capsys, entry, check):
    ens_path, povm_path = _files(tmp_path, element=entry)
    with pytest.raises(RetrodictorError) as excinfo:
        parse_povm_file(povm_path)
    assert check in _checks(excinfo)
    _cli_exits_1(capsys, ens_path, povm_path)


@pytest.mark.parametrize("key", ["states", "elements"], ids=["states-pin", "elements-pin"])
def test_empty_file_lists_are_named(tmp_path, capsys, key):
    ens_path, povm_path = _files(tmp_path)
    path, parse = (ens_path, parse_ensemble_file) if key == "states" else (povm_path, parse_povm_file)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[key] = []
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(RetrodictorError) as excinfo:
        parse(path)
    assert _checks(excinfo) == {"file_format"}
    _cli_exits_1(capsys, ens_path, povm_path)
