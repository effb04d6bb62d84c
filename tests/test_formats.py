import json

import numpy as np
import pytest

from retrodictor.cli import main
from retrodictor.ensembles import Povm
from retrodictor.errors import ValidationError
from retrodictor.formats import (
    ensemble_to_payload,
    parse_ensemble_file,
    parse_povm_file,
    povm_to_payload,
    render_json,
    write_json,
)
from retrodictor.ud import UdInstance, optimal_predictive_povm, ud_ensemble, ud_states
from retrodictor.verify import random_ensemble, random_povm


def test_ensemble_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    for k in range(10):
        dim = 2 + k % 3
        ensemble = random_ensemble(rng, dim, 2 + k % 2)
        path = tmp_path / f"ens{k}.json"
        write_json(ensemble_to_payload(ensemble), str(path))
        loaded = parse_ensemble_file(str(path))
        assert loaded.priors.tolist() == ensemble.priors.tolist()
        for a, b in zip(loaded.states, ensemble.states):
            assert np.array_equal(a.matrix, b.matrix)


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
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    ensemble = ud_ensemble(inst)
    payload = ensemble_to_payload(ensemble, pure_states=list(ud_states(inst)))
    path = tmp_path / "pure.json"
    write_json(payload, str(path))
    loaded = parse_ensemble_file(str(path))
    for a, b in zip(loaded.states, ensemble.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-15


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
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    povm = Povm(optimal_predictive_povm(inst).elements)
    path = tmp_path / "udpovm.json"
    write_json(povm_to_payload(povm), str(path))
    loaded = parse_povm_file(str(path))
    for a, b in zip(loaded.elements, povm.elements):
        assert np.array_equal(a, b)
