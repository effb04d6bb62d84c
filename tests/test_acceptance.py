"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  The same checks back `retrodictor verify --suite all`.
"""

import json

import pytest

from retrodictor.cli import main
from retrodictor.ensembles import Povm
from retrodictor.formats import ensemble_to_payload, povm_to_payload, write_json
from retrodictor.ud import UdInstance, optimal_predictive_povm, ud_ensemble, ud_states
from retrodictor.verify import (
    suite_channel,
    suite_failure_modes,
    suite_simulate,
    suite_transform,
    suite_ud,
)


@pytest.fixture(scope="module")
def transform_result():
    return suite_transform()  # 500 seeded pairs, D in {2, 3, 4}


@pytest.fixture(scope="module")
def ud_result():
    return suite_ud()  # 25 x 25 (eta_max, s) grid, both prior orderings


@pytest.fixture(scope="module")
def channel_result():
    return suite_channel()


@pytest.fixture(scope="module")
def simulate_result():
    return suite_simulate()  # n = 1e6, seed 42


def _report(criterion, result, names):
    checks = {c.name: c for c in result.checks}
    selected = [checks[n] for n in names]
    ok = all(c.passed for c in selected)
    detail = ", ".join(f"{c.name}={c.value:.3e}@{c.tolerance:.0e}" for c in selected)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    for c in selected:
        assert c.passed, f"criterion {criterion}: {c.name} = {c.value} >= {c.tolerance}"


def test_criterion_1_symmetric_born_identity(transform_result):
    checks = {c.name: c for c in transform_result.checks}
    assert checks["symmetric-born-identity"].tolerance == 1e-9
    _report(1, transform_result, ["symmetric-born-identity"])


def test_criterion_2_transform_identities(transform_result):
    checks = {c.name: c for c in transform_result.checks}
    assert checks["retro-povm-completeness"].tolerance == 1e-10
    assert checks["retro-state-traces"].tolerance == 1e-10
    assert checks["source-identity"].tolerance == 1e-10
    _report(2, transform_result,
            ["retro-povm-completeness", "retro-state-traces", "source-identity"])


def test_criterion_3_unbiased_reduction(transform_result):
    checks = {c.name: c for c in transform_result.checks}
    assert checks["unbiased-reduction"].tolerance == 1e-10
    _report(3, transform_result, ["unbiased-reduction"])


def test_criterion_4_closed_form_vs_grid_oracle(ud_result):
    checks = {c.name: c for c in ud_result.checks}
    assert checks["closed-vs-grid-oracle"].tolerance == 2e-4
    assert checks["branch-continuity"].tolerance == 1e-9
    assert checks["spot-value-even-priors"].tolerance == 1e-12
    assert checks["spot-value-clamped"].tolerance == 1e-12
    _report(4, ud_result,
            ["closed-vs-grid-oracle", "regime-classification-mismatches",
             "branch-continuity", "spot-value-even-priors", "spot-value-clamped"])


def test_criterion_5_retrodictive_basis(ud_result):
    checks = {c.name: c for c in ud_result.checks}
    assert checks["retro-basis-orthonormality"].tolerance == 1e-9
    assert checks["retro-basis-closed-vs-numeric"].tolerance == 1e-10
    assert checks["eigenvalues-closed-vs-numeric"].tolerance == 1e-10
    _report(5, ud_result,
            ["retro-basis-orthonormality", "retro-basis-closed-vs-numeric",
             "eigenvalues-closed-vs-numeric"])


def test_criterion_6_purity_and_identification(ud_result):
    checks = {c.name: c for c in ud_result.checks}
    assert checks["retro-state-purity"].tolerance == 1e-9
    assert checks["retro-state-identification"].tolerance == 1e-9
    assert checks["failure-state-determinant"].tolerance == 1e-10
    _report(6, ud_result,
            ["retro-state-purity", "retro-state-identification", "failure-state-determinant"])


def test_criterion_7_channel_symmetry_and_no_signaling(channel_result):
    checks = {c.name: c for c in channel_result.checks}
    assert checks["swap-residual"].tolerance == 1e-10
    assert checks["reduced-states-vs-source"].tolerance == 1e-10
    assert checks["no-signaling-residual"].tolerance == 1e-10
    assert checks["sqrt-source-symmetry"].tolerance == 1e-12
    _report(7, channel_result,
            ["swap-residual", "reduced-states-vs-source", "no-signaling-residual",
             "sqrt-source-symmetry"])


def test_criterion_8_monte_carlo(simulate_result):
    checks = {c.name: c for c in simulate_result.checks}
    assert checks["mu0-deviation"].tolerance == 0.0015
    assert checks["runtime-seconds"].tolerance == 10.0
    _report(8, simulate_result,
            ["structural-zero-cells", "mu0-deviation",
             "retro-conditionals-3sigma-violations", "rerun-mismatch", "runtime-seconds"])


def test_criterion_9_failure_mode_contract(tmp_path):
    result = suite_failure_modes()
    ok = result.passed

    # CLI part: invalid files exit 1 with named residuals.
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    ens_path = tmp_path / "ens.json"
    povm_path = tmp_path / "povm.json"
    write_json(ensemble_to_payload(ud_ensemble(inst), pure_states=list(ud_states(inst))),
               str(ens_path))
    write_json(povm_to_payload(Povm(optimal_predictive_povm(inst).elements)), str(povm_path))
    bad = json.loads(ens_path.read_text())
    bad["priors"] = [0.5, 0.4]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))

    cli_bad_input = main(["transform", str(bad_path), str(povm_path)]) == 1
    cli_singular = main(["ud", "--eta1", "0.5", "--alpha", "1e-9"]) == 2
    ok = ok and cli_bad_input and cli_singular

    detail = ", ".join(
        [f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in result.checks]
        + [f"cli-invalid-file-exit1={'ok' if cli_bad_input else 'FAIL'}",
           f"cli-singular-exit2={'ok' if cli_singular else 'FAIL'}"]
    )
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 9: {detail}")
    for c in result.checks:
        assert c.passed, f"criterion 9: {c.name}"
    assert cli_bad_input, "invalid file must exit 1"
    assert cli_singular, "singular source must exit 2"
