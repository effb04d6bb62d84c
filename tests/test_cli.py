import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import retrodictor
from conftest import pure_ensemble_payload
from retrodictor import cli
from retrodictor.cli import main
from retrodictor.ensembles import UNBIASED_TOL, Ensemble, Povm, is_unbiased
from retrodictor.formats import ensemble_to_payload, povm_to_payload, write_json
from retrodictor.ud import UdInstance, optimal_dual, ud_state_vectors


@pytest.fixture
def ud_files(tmp_path):
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    ens_path = tmp_path / "ensemble.json"
    povm_path = tmp_path / "povm.json"
    write_json(pure_ensemble_payload(ud_state_vectors(inst)[0], inst.eta[:, 0]), str(ens_path))
    write_json(povm_to_payload(Povm(optimal_dual(inst).elements[0])), str(povm_path))
    return str(ens_path), str(povm_path)


def test_transform_ud_files_pass(ud_files, tmp_path):
    ens_path, povm_path = ud_files
    out = tmp_path / "report.json"
    code = main(["transform", ens_path, povm_path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["derived"]["unbiased"] is False
    assert np.allclose(doc["derived"]["mu"], [0.25, 0.25, 0.5], atol=1e-12)
    # retro POVM elements are rank-1 projectors onto the retro basis
    for rows in doc["derived"]["retro_povm"][:2]:
        m = np.array([[complex(*z) for z in row] for row in rows])
        eig = np.linalg.eigvalsh(m)
        assert abs(eig[-1] - 1.0) < 1e-10
        assert abs(eig[0]) < 1e-10
    names = [c["name"] for c in doc["checks"]]
    assert "retro-povm-completeness" in names
    assert all(set(c) >= {"name", "value", "tolerance", "passed"} for c in doc["checks"])


def test_transform_unnormalized_priors_exit_1(ud_files, tmp_path, capsys):
    _, povm_path = ud_files
    bad = tmp_path / "bad.json"
    doc = json.loads(pathlib.Path(ud_files[0]).read_text())
    doc["priors"] = [0.5, 0.4]
    bad.write_text(json.dumps(doc))
    code = main(["transform", str(bad), povm_path])
    assert code == 1
    err = capsys.readouterr().err
    assert "priors_sum" in err
    assert "1.000e-01" in err


def test_transform_unbiased_reduction_reported(tmp_path):
    ens = tmp_path / "ens.json"
    povm = tmp_path / "povm.json"
    eye = lambda k: [[[1.0 if i == j == k else 0.0, 0.0] for j in range(2)] for i in range(2)]
    ens.write_text(json.dumps({
        "dim": 2,
        "states": [eye(0), eye(1)],
        "priors": [0.5, 0.5],
    }))
    povm.write_text(json.dumps({"dim": 2, "elements": [eye(0), eye(1)]}))
    out = tmp_path / "rep.json"
    code = main(["transform", str(ens), str(povm), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["derived"]["unbiased"] is True
    # unbiased reduction: retro POVM = D eta_i rho_i = the projectors themselves
    got = np.array([[complex(*z) for z in row] for row in doc["derived"]["retro_povm"][0]])
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-12)


def test_transform_reports_an_outcome_that_never_clicks(tmp_path):
    # The maximally mixed qubit against the POVM (I, 0): outcome 1 has no retrodictive state.
    ens, povm = tmp_path / "ens.json", tmp_path / "povm.json"
    write_json(ensemble_to_payload(Ensemble((np.eye(2) / 2.0,), [1.0])), str(ens))
    write_json(povm_to_payload(Povm((np.eye(2), np.zeros((2, 2))))), str(povm))
    out = tmp_path / "rep.json"
    assert main(["transform", str(ens), str(povm), "--out", str(out)]) == 0
    derived = json.loads(out.read_text())["derived"]
    assert derived["undefined_outcomes"] == [1]
    assert derived["retro_states"][1] is None
    assert derived["retro_states"][0] == [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    assert derived["unbiased"] is True


def test_ud_command_spot_values(tmp_path):
    out = tmp_path / "ud.json"
    code = main(["ud", "--eta1", "0.5", "--overlap", "0.5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["derived"]["p_success"] - 0.5) < 1e-12
    assert doc["derived"]["regime"] == "interior"

    code = main(["ud", "--eta1", "0.9", "--overlap", "0.7071067811865476", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["derived"]["p_success"] - 0.45) < 1e-12
    assert doc["derived"]["regime"] == "clamped"


def test_ud_command_grid_check(tmp_path):
    out = tmp_path / "ud.json"
    code = main(["ud", "--eta1", "0.7", "--overlap", "0.4", "--grid-check", "1e-4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    check = [c for c in doc["checks"] if c["name"] == "grid-oracle-deviation"][0]
    assert check["value"] <= 2e-4
    assert check["passed"] is True


@pytest.mark.parametrize("step", ["nan", "inf", "5e-7"])
def test_ud_command_bad_grid_step_exit_1(step, capsys):
    assert main(["ud", "--eta1", "0.7", "--overlap", "0.4", "--grid-check", step]) == 1
    assert "grid_step must be finite and at least 1e-06" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["10", "0.02"])
def test_ud_command_grid_step_above_the_bound_exit_1(step, capsys):
    # At step 10 the oracle scanned only mu_1 = 0 and passed against a tolerance of 20.
    assert main(["ud", "--eta1", "0.5", "--overlap", "0.5", "--grid-check", step]) == 1
    assert "at most 0.01" in capsys.readouterr().err


def test_ud_command_alpha_and_overlap_exclusive(capsys):
    code = main(["ud", "--eta1", "0.5", "--alpha", "0.3", "--overlap", "0.5"])
    assert code == 1


def test_ud_command_bad_overlap_exit_1():
    assert main(["ud", "--eta1", "0.5", "--overlap", "1.0"]) == 1
    assert main(["ud", "--eta1", "0.5", "--overlap", "-0.1"]) == 1
    assert main(["ud", "--eta1", "1.0", "--overlap", "0.5"]) == 1


def test_ud_command_singular_exit_2(capsys):
    assert main(["ud", "--eta1", "0.5", "--alpha", "1e-9"]) == 2
    # det(Omega) = eta_1 eta_2 (1 - s^2): at overlap 0.5 only the prior near 0 makes it small.
    capsys.readouterr()
    assert main(["ud", "--eta1", "0.999999", "--overlap", "0.5"]) == 2
    assert "a prior near 0" in capsys.readouterr().err


def test_channel_command(tmp_path):
    out = tmp_path / "ch.json"
    code = main(["channel", "--eta1", "0.5", "--alpha", str(math.pi / 8), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    swap = [c for c in doc["checks"] if c["name"] == "swap-residual"][0]
    assert swap["value"] < 1e-10


def test_simulate_reports_are_byte_identical(ud_files, tmp_path):
    ens_path, povm_path = ud_files
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert main(["simulate", ens_path, povm_path, "--n", "200000", "--seed", "42",
                 "--out", str(out1)]) == 0
    assert main(["simulate", ens_path, povm_path, "--n", "200000", "--seed", "42",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["inputs"]["rng_algorithm"] == "philox4x64-v3"
    assert doc["derived"]["counts"][0][1] == 0
    assert doc["derived"]["counts"][1][0] == 0
    # Identical input gives byte-identical reports for every command.
    for argv in (
        ["transform", ens_path, povm_path],
        ["transform", ens_path, povm_path, "--support-restricted"],
        ["ud", "--eta1", "0.7", "--overlap", "0.4", "--grid-check", "1e-3"],
        ["channel", "--eta1", "0.6", "--alpha", "0.3"],
    ):
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_env_default(ud_files, tmp_path, monkeypatch):
    ens_path, povm_path = ud_files
    out1 = tmp_path / "e1.json"
    out2 = tmp_path / "e2.json"
    # The subject is that $RETRODICTOR_SEED stands for --seed; whether a cell
    # lands beyond 3 sigma (exit 2) at this seed is chance, so only the two
    # exit codes and reports must agree.
    monkeypatch.setenv("RETRODICTOR_SEED", "777")
    code1 = main(["simulate", ens_path, povm_path, "--n", "10000", "--out", str(out1)])
    monkeypatch.delenv("RETRODICTOR_SEED")
    code2 = main(["simulate", ens_path, povm_path, "--n", "10000", "--seed", "777",
                  "--out", str(out2)])
    assert code1 == code2
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["inputs"]["seed"] == 777


def test_verify_failure_modes_suite(capsys):
    assert main(["verify", "--suite", "failure-modes"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "verify: PASS" in out


def test_verify_unknown_suite_exit_1():
    assert main(["verify", "--suite", "nonsense"]) == 1


def test_json_report_to_stdout(ud_files, capsys):
    ens_path, povm_path = ud_files
    assert main(["transform", ens_path, povm_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "transform"
    assert doc["passed"] is True


@pytest.mark.parametrize("command", [["transform"], ["simulate", "--n", "100", "--seed", "1"]])
def test_dimension_mismatch_between_input_files_exit_1(ud_files, tmp_path, command, capsys):
    ens_path, _ = ud_files
    povm_path = tmp_path / "povm3.json"
    write_json(povm_to_payload(Povm(tuple(np.diag(row) for row in np.eye(3)))), str(povm_path))
    assert main([command[0], ens_path, str(povm_path), *command[1:]]) == 1
    assert "ensemble vs POVM: 2 != 3" in capsys.readouterr().err


def test_missing_file_exit_1(capsys):
    assert main(["transform", "/does/not/exist.json", "/nor/this.json"]) == 1


def test_simulate_seed_outside_64_bit_range_exits_1(ud_files, monkeypatch, capsys):
    ens_path, povm_path = ud_files
    assert main(["simulate", ens_path, povm_path, "--n", "1000", "--seed", str(2**63)]) == 1
    monkeypatch.setenv("RETRODICTOR_SEED", str(2**64 - 1))
    assert main(["simulate", ens_path, povm_path, "--n", "1000"]) == 1
    assert "signed 64-bit" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [0.0, 0.4 * UNBIASED_TOL, 4 * UNBIASED_TOL, 0.25])
def test_transform_unbiased_flag_is_the_source_functions(delta, tmp_path):
    # Two orthogonal pure states with priors 1/2 +- delta: Omega is I/2 off by delta on the diagonal.
    ensemble = Ensemble([np.diag(row) for row in np.eye(2)], [0.5 + delta, 0.5 - delta])
    ens, povm, out = tmp_path / "ens.json", tmp_path / "povm.json", tmp_path / "rep.json"
    write_json(ensemble_to_payload(ensemble), str(ens))
    write_json(povm_to_payload(Povm((np.eye(2) / 2.0, np.eye(2) / 2.0))), str(povm))
    assert main(["transform", str(ens), str(povm), "--out", str(out)]) == 0
    unbiased = json.loads(out.read_text())["derived"]["unbiased"]
    assert unbiased is (delta <= UNBIASED_TOL)
    assert unbiased is is_unbiased((ensemble.priors[:, None, None] * ensemble.matrices).sum(axis=0))


def test_main_is_reusable_within_one_process(capsys, monkeypatch):
    samples = pathlib.Path(__file__).resolve().parents[1] / "sample_inputs"
    assert main(["ud", "--eta1", "0.5"]) == 1  # neither --alpha nor --overlap
    err = capsys.readouterr().err
    assert err.startswith("usage: retrodictor ud") and "error:" in err
    src = str(pathlib.Path(retrodictor.__file__).resolve().parents[1])
    for argv in (
        ["transform", str(samples / "ud_ensemble.json"), str(samples / "ud_povm.json")],
        ["ud", "--eta1", "0.7", "--overlap", "0.4", "--grid-check", "1e-3"],
        ["channel", "--eta1", "0.6", "--alpha", "0.3"],
    ):
        assert main(argv) == 0
        report = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "retrodictor.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        assert report == fresh.stdout
    # A command function rebound after the parser was built is the one that runs.
    assert cli.build_parser() is cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_ud", lambda args: calls.append(args.eta1) or 0)
    assert main(["ud", "--eta1", "0.25", "--overlap", "0.5"]) == 0
    assert calls == [0.25]
