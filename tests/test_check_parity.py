"""The CLI reports carry exactly the per-instance checks that the verify suites reduce."""

import json
import pathlib

import numpy as np
import pytest

from retrodictor import verify
from retrodictor.channel import no_signaling_check
from retrodictor.cli import main
from retrodictor.formats import parse_ensemble_file, parse_povm_file
from retrodictor.retrodiction import retro_transform
from retrodictor.ud import UdInstance, optimal_dual

SAMPLES = pathlib.Path(__file__).resolve().parents[1] / "sample_inputs"
ENSEMBLE = str(SAMPLES / "ud_ensemble.json")
POVM = str(SAMPLES / "ud_povm.json")


def _transform_checks():
    ensemble, povm = parse_ensemble_file(ENSEMBLE), parse_povm_file(POVM)
    return verify.checks_for_transform(ensemble, povm, retro_transform(ensemble, povm))


def _ud_checks(eta1, overlap):
    inst = UdInstance.from_overlap([overlap], [[eta1], [1.0 - eta1]])
    return verify.checks_for_ud(inst, optimal_dual(inst))


def _channel_checks(eta1, overlap):
    inst = UdInstance.from_overlap([overlap], [[eta1], [1.0 - eta1]])
    return verify.checks_for_channel(inst, no_signaling_check(inst))


# case: (CLI argv, the per-instance checks, the suite that reduces them)
CASES = {
    "transform": (["transform", ENSEMBLE, POVM], _transform_checks, "transform"),
    "ud-interior": (["ud", "--eta1", "0.7", "--overlap", "0.4"], lambda: _ud_checks(0.7, 0.4), "ud"),
    "ud-clamped": (["ud", "--eta1", "0.9", "--overlap", "0.7"], lambda: _ud_checks(0.9, 0.7), "ud"),
    "channel": (
        ["channel", "--eta1", "0.6", "--overlap", "0.3"],
        lambda: _channel_checks(0.6, 0.3),
        "channel",
    ),
}


@pytest.fixture(scope="module")
def suites():
    # A 2x2 grid still spans both UD regimes; the suites only need to name their checks.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "GRID_ETA_MAX", np.array([0.5, 0.9]))
        mp.setattr(verify, "GRID_OVERLAP", np.array([0.3, 0.8]))
        return {
            "transform": verify.suite_transform(count=6),
            "ud": verify.suite_ud(),
            "channel": verify.suite_channel(),
        }


@pytest.mark.parametrize("case", list(CASES))
def test_cli_report_carries_the_suite_checks(case, suites, tmp_path):
    argv, per_instance, suite = CASES[case]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    reported = [(c["name"], c["value"], c["tolerance"]) for c in json.loads(out.read_text())["checks"]]
    assert reported == [(c.name, c.value, c.tolerance) for c in per_instance()]
    tolerances = {c.name: c.tolerance for c in suites[suite].checks}
    for name, _, tolerance in reported:
        assert tolerances.get(name) == tolerance, f"{name} missing from the {suite} suite or retuned"
