import json
import random
import struct

import numpy as np
import pytest

from conftest import pure_ensemble_payload, random_ensemble, random_povm
from retrodictor.cli import main
from retrodictor.ensembles import Povm
from retrodictor.errors import ValidationError
from retrodictor.formats import (
    ensemble_to_payload,
    parse_ensemble_file,
    parse_povm_file,
    pairs_to_vector,
    povm_to_payload,
    render_json,
    rows_to_matrix,
    write_json,
)
from retrodictor.ud import UdInstance, optimal_dual, ud_ensemble, ud_state_vectors


def test_ensemble_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    for k in range(10):
        dim = 2 + k % 3
        ensemble = random_ensemble(rng, dim, 2 + k % 2)
        path = tmp_path / f"ens{k}.json"
        write_json(ensemble_to_payload(ensemble), str(path))
        loaded = parse_ensemble_file(str(path))
        assert loaded.priors.tolist() == ensemble.priors.tolist()
        assert np.array_equal(loaded.matrices, ensemble.matrices)


def test_povm_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(14)
    for k in range(10):
        povm = random_povm(rng, 2 + k % 3, 2 + k % 3)
        path = tmp_path / f"povm{k}.json"
        write_json(povm_to_payload(povm), str(path))
        loaded = parse_povm_file(str(path))
        for a, b in zip(loaded.elements, povm.elements):
            assert np.array_equal(a, b)


def test_pure_state_entries_parse(tmp_path):
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    ensemble = ud_ensemble(inst)
    payload = pure_ensemble_payload(ud_state_vectors(inst)[0], inst.eta[:, 0])
    path = tmp_path / "pure.json"
    write_json(payload, str(path))
    loaded = parse_ensemble_file(str(path))
    assert loaded.matrices.shape == ensemble.matrices.shape
    assert np.max(np.abs(loaded.matrices - ensemble.matrices)) < 1e-15


def test_mixed_pure_and_matrix_entries(tmp_path):
    doc = {
        "dim": 2,
        "states": [
            {"pure": True, "vector": [[1.0, 0.0], [0.0, 0.0]]},
            [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        ],
        "priors": [0.25, 0.75],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    ensemble = parse_ensemble_file(str(path))
    assert len(ensemble) == 2


def test_missing_file_is_named():
    with pytest.raises(ValidationError) as excinfo:
        parse_ensemble_file("/nonexistent/ens.json")
    assert excinfo.value.violations[0].check == "file_missing"


def test_invalid_json_is_named(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError) as excinfo:
        parse_povm_file(str(path))
    assert excinfo.value.violations[0].check == "file_format"


def test_missing_keys_are_named(tmp_path):
    path = tmp_path / "nokeys.json"
    path.write_text(json.dumps({"dim": 2}))
    with pytest.raises(ValidationError) as excinfo:
        parse_ensemble_file(str(path))
    assert "missing keys" in str(excinfo.value)


def test_unnormalized_priors_rejected_with_residual(tmp_path):
    doc = {
        "dim": 2,
        "states": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ],
        "priors": [0.5, 0.4],
    }
    path = tmp_path / "badpriors.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as excinfo:
        parse_ensemble_file(str(path))
    sums = [v for v in excinfo.value.violations if v.check == "priors_sum"]
    assert sums and abs(sums[0].residual - 0.1) < 1e-12


def _ensemble_with_priors(tmp_path, priors):
    state = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc = {"dim": 2, "states": [state], "priors": priors}
    path = tmp_path / "priors.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("priors", [{"a": 1}, ["x"]])
def test_non_numeric_priors_are_a_named_violation(tmp_path, priors):
    with pytest.raises(ValidationError) as excinfo:
        parse_ensemble_file(_ensemble_with_priors(tmp_path, priors))
    assert [v.check for v in excinfo.value.violations] == ["priors_shape"]


def test_cli_reports_non_numeric_priors_without_traceback(tmp_path, capsys):
    ens_path = _ensemble_with_priors(tmp_path, {"a": 1})
    povm_path = tmp_path / "povm.json"
    write_json({"dim": 2, "elements": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
               str(povm_path))
    assert main(["transform", ens_path, str(povm_path)]) == 1
    err = capsys.readouterr().err
    assert "error: validation failed" in err and "priors_shape" in err
    assert "Traceback" not in err


def test_dim_mismatch_rejected(tmp_path):
    doc = {
        "dim": 3,
        "states": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        "priors": [1.0],
    }
    path = tmp_path / "dimmismatch.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as excinfo:
        parse_ensemble_file(str(path))
    assert any(v.check == "dim_mismatch" for v in excinfo.value.violations)


@pytest.mark.parametrize(
    "vector, check",
    [
        ([[1e308, 0.0], [1e308, 0.0]], "unit_norm"),
        ([[float("inf"), 0.0], [0.0, 0.0]], "finite_entries"),
        ([[2.0, 0.0], [0.0, 0.0]], "unit_norm"),
    ],
    ids=["huge", "inf", "non-unit"],
)
def test_a_failed_pure_vector_is_named_once(tmp_path, vector, check):
    # Its projector (overflowed, or of trace 4) is not validated as a second violation.
    doc = {
        "dim": 2,
        "states": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], {"pure": True, "vector": vector}],
        "priors": [0.5, 0.5],
    }
    path = tmp_path / "vector.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as excinfo:
        parse_ensemble_file(str(path))
    assert [(v.check, v.message.split()[0]) for v in excinfo.value.violations] == [(check, "states[1]")]


def test_non_square_matrix_rejected(tmp_path):
    doc = {"dim": 2, "elements": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]}
    path = tmp_path / "notsquare.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        parse_povm_file(str(path))


def test_render_json_is_canonical():
    doc = {"b": 1, "a": [1.5, True]}
    text = render_json(doc)
    assert text == '{\n  "a": [\n    1.5,\n    true\n  ],\n  "b": 1\n}\n'
    # identical input renders identical bytes
    assert render_json(doc) == text


def test_ud_povm_roundtrip(tmp_path):
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    povm = Povm(optimal_dual(inst).elements[0])
    path = tmp_path / "udpovm.json"
    write_json(povm_to_payload(povm), str(path))
    loaded = parse_povm_file(str(path))
    for a, b in zip(loaded.elements, povm.elements):
        assert np.array_equal(a, b)


def _per_entry(rows) -> np.ndarray:
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows], dtype=np.complex128)


def _random_part(rng: random.Random):
    k = rng.randrange(6)
    if k == 0:  # any bit pattern but NaN: subnormals and infinities included
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        return x if x == x else -0.0
    if k == 1:
        return rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300])
    if k == 2:
        return rng.choice([0, -1, 3, 2**53 + 1, -(2**63) - 1, 2**64 + 1, 10**300 + 12345])
    return rng.uniform(-1.0, 1.0)


def test_bulk_parse_is_bit_identical_to_the_per_entry_parse():
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[[_random_part(rng), _random_part(rng)] for _ in range(n)] for _ in range(n)]
        got, want = rows_to_matrix(rows, "m"), _per_entry(rows)
        assert got.dtype == np.complex128 and got.shape == (n, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))
        vector = pairs_to_vector(rows[0], "v")
        assert vector.shape == (n,)
        assert np.array_equal(vector.view(np.uint64), want[0].view(np.uint64))


@pytest.mark.parametrize("entry", [
    [True, 0.0], [0.0, False], ["1", 0.0], [None, 0.0], [0.5], [0.5, 0.0, 0.0], [], {"re": 1.0}, 0.5, "x", None,
])
def test_a_malformed_entry_gives_the_same_validation_error(entry):
    message = "w: complex entries must be [re, im] pairs"
    for parse, doc in ((rows_to_matrix, [[[1.0, 0.0], entry], [[0.0, 0.0], [1.0, 0.0]]]), (pairs_to_vector, [[1.0, 0.0], entry])):
        with pytest.raises(ValidationError) as excinfo:
            parse(doc, "w")
        [violation] = excinfo.value.violations
        assert (violation.check, violation.message) == ("file_format", message)


@pytest.mark.parametrize("rows", [[[[1.0, 0.0]], (0.0, 0.0)], [[[1.0, 0.0]], "row"], [0.5], [], "rows", None])
def test_rows_that_are_not_lists_give_the_same_validation_error(rows):
    with pytest.raises(ValidationError) as excinfo:
        rows_to_matrix(rows, "w")
    [violation] = excinfo.value.violations
    assert (violation.check, violation.message) == ("file_format", "w: matrix must be a list of rows")


def test_an_int_beyond_float_range_raises_as_before():
    with pytest.raises(OverflowError):
        complex(float(10**400), 0.0)
    with pytest.raises(OverflowError):
        rows_to_matrix([[[10**400, 0.0]]], "w")
    with pytest.raises(OverflowError):
        pairs_to_vector([[0.0, -(10**400)]], "w")
