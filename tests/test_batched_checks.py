"""The suites evaluate the per-instance checks over whole stacks at once.

Each batched residual row must equal, exactly, what checks_for_ud,
checks_for_channel and checks_for_transform report for that instance, and a
batch must fail the way its instances fail one at a time.
"""

import math

import numpy as np
import pytest

from retrodictor import verify
from retrodictor.channel import no_signaling_check
from retrodictor.ensembles import DensityOperator, Ensemble, Povm, source_from_ensemble
from retrodictor.errors import RetrodictorError, ValidationError
from retrodictor.linalg import maxabs
from retrodictor.retrodiction import joint_table, retro_transform, transform_stack, unbiased_dual
from retrodictor.ud import UdInstance, optimal_dual, optimal_predictive_povm, ud_retro_dual

INSTANCES = verify.grid_instances()


@pytest.fixture(scope="module")
def batch():
    return INSTANCES


def test_grid_stack_equals_the_per_instance_construction():
    expected = []
    for eta_max in verify.GRID_ETA_MAX:
        for s in verify.GRID_OVERLAP:
            expected.append((math.acos(float(s)) / 2.0, float(eta_max), float(1.0 - eta_max)))
            if eta_max > 0.5:
                expected.append((math.acos(float(s)) / 2.0, float(1.0 - eta_max), float(eta_max)))
    alpha, e1, e2 = np.array(expected).T
    assert len(INSTANCES) == len(expected)
    assert INSTANCES.alpha.tobytes() == alpha.tobytes()
    assert INSTANCES.eta.tobytes() == np.array([e1, e2]).tobytes()
    inst = INSTANCES[7]
    assert (inst.alpha, *inst.eta) == expected[7]
    with pytest.raises(TypeError):
        inst[0]


def test_batched_ud_rows_equal_the_per_instance_checks(batch):
    ud_povm = optimal_predictive_povm(batch)
    rows = verify.ud_residuals(batch, optimal_dual(batch), ud_povm, ud_retro_dual(batch, ud_povm))
    assert rows.shape == (len(INSTANCES), len(verify.UD_CHECKS))
    for inst, row in zip(INSTANCES, rows):
        checks = verify.checks_for_ud(inst, optimal_dual(inst), optimal_predictive_povm(inst))
        assert [(c.name, c.tolerance) for c in checks] == list(verify.UD_CHECKS)
        assert [c.value for c in checks] == row.tolist()


def test_batched_channel_rows_equal_the_per_instance_checks(batch):
    rows = verify.channel_residuals(batch, no_signaling_check(batch))
    assert rows.shape == (len(INSTANCES), len(verify.CHANNEL_CHECKS))
    for inst, row in zip(INSTANCES, rows):
        checks = verify.checks_for_channel(inst, no_signaling_check(inst))
        assert [(c.name, c.tolerance) for c in checks] == list(verify.CHANNEL_CHECKS)
        assert [c.value for c in checks] == row.tolist()


def test_suites_report_the_worst_row(batch):
    ud_povm = optimal_predictive_povm(batch)
    rows = verify.ud_residuals(batch, optimal_dual(batch), ud_povm, ud_retro_dual(batch, ud_povm))
    suite = {c.name: c.value for c in verify.suite_ud().checks}
    for (name, _), worst in zip(verify.UD_CHECKS, rows.max(axis=0)):
        assert suite[name] == worst
    rows = verify.channel_residuals(batch, no_signaling_check(batch))
    suite = {c.name: c.value for c in verify.suite_channel().checks}
    for (name, _), worst in zip(verify.CHANNEL_CHECKS, rows.max(axis=0)):
        assert suite[name] == worst


def test_undefined_outcomes_stay_nan_in_a_row_and_worst_in_the_suite():
    rows = np.array([[1e-16, 2e-16], [np.nan, 1e-17]])
    checks = verify._worst((("a", 1e-9), ("b", 1e-9)), rows)
    assert np.isnan(checks[0].value) and not checks[0].passed
    assert checks[1].value == 2e-16


def _raised(fn, x):
    try:
        fn(x)
    except RetrodictorError as exc:
        return type(exc)
    return None


BELOW_FLOOR = [inst for w2, inst in verify.floor_sweep()[1] if w2 < 1e-5]


@pytest.mark.parametrize("fn", [optimal_dual, optimal_predictive_povm, no_signaling_check])
@pytest.mark.parametrize("index", range(len(BELOW_FLOOR)))
def test_a_batch_with_a_below_floor_instance_fails_like_the_instance(fn, index):
    inst = BELOW_FLOOR[index]
    expected = _raised(fn, inst)
    assert expected is not None
    stack = [*INSTANCES[:5], inst, *INSTANCES[5:10]]
    stack = UdInstance(np.array([i.alpha for i in stack]), np.array([i.eta for i in stack]).T)
    assert _raised(fn, stack) is expected


CORPUS = verify.random_corpus()


def test_grouped_transform_rows_equal_the_per_pair_checks():
    assert len(CORPUS) < verify.CORPUS_SIZE / 10
    for group in CORPUS:
        dual = transform_stack(*group)
        rows = verify.transform_residuals(joint_table(*group), dual)
        pairs = verify.corpus_pairs([group])
        assert rows.shape == (len(pairs), len(verify.TRANSFORM_CHECKS))
        for (ensemble, povm), row in zip(pairs, rows):
            checks = verify.checks_for_transform(ensemble, povm, retro_transform(ensemble, povm))
            assert [(c.name, c.tolerance) for c in checks] == list(verify.TRANSFORM_CHECKS)
            assert [c.value for c in checks] == row.tolist()


def test_transform_suite_equals_its_per_pair_definition():
    # The double dual and the unbiased reduction, pair by pair through objects
    # built by their constructors, reduce to the grouped suite's values exactly.
    count, seed = 60, verify.DEFAULT_SEED
    rows, double_src, double_ops, unbiased = [], 0.0, 0.0, 0.0
    for ensemble, povm in verify.corpus_pairs(verify.random_corpus(seed, count)):
        dual = retro_transform(ensemble, povm)
        rows.append([c.value for c in verify.checks_for_transform(ensemble, povm, dual)])
        back_ensemble = Ensemble(tuple(map(DensityOperator, dual.state_stack)), dual.mu.mu)
        double_src = max(double_src, maxabs(source_from_ensemble(back_ensemble).matrix - dual.omega_matrix))
        back = retro_transform(back_ensemble, Povm(dual.povm_stack))
        double_ops = max(double_ops, maxabs(back.povm_stack - povm.elements),
                         *(maxabs(b - a.matrix) for a, b in zip(ensemble.states, back.state_stack)))
    for ensemble, povm in verify.corpus_pairs(verify.unbiased_corpus(seed + 1)):
        dual, ref = retro_transform(ensemble, povm), unbiased_dual(ensemble, povm)
        unbiased = max(unbiased, maxabs(dual.povm_stack - ref.povm_stack),
                       *(maxabs(a - b) for a, b, both in zip(dual.state_stack, ref.state_stack,
                                                             dual.defined & ref.defined) if both))
    expected = [*np.max(rows, axis=0), double_src, double_ops, unbiased]
    assert [c.value for c in verify.suite_transform(seed, count).checks] == expected


@pytest.mark.parametrize(
    "alpha, eta",
    [
        ([0.5, 1.2], [[0.6, 0.6], [0.4, 0.4]]),  # alpha above pi/4
        ([0.5, 0.0], [[0.6, 0.6], [0.4, 0.4]]),  # alpha zero
        ([0.5, 0.3], [[0.6, 0.9], [0.4, 0.9]]),  # priors summing to 1.8
        ([0.5, 0.3], [[0.6, 1.2], [0.4, -0.2]]),  # a negative prior
    ],
)
def test_a_batch_rejects_what_its_instances_reject(alpha, eta):
    with pytest.raises(ValidationError) as instance:
        UdInstance(alpha[1], (eta[0][1], eta[1][1]))
    with pytest.raises(ValidationError) as batch:
        UdInstance(np.array(alpha), np.array(eta))
    assert [v.check for v in batch.value.violations] == [v.check for v in instance.value.violations]
    assert [v.residual for v in batch.value.violations] == [v.residual for v in instance.value.violations]


def test_a_stack_over_two_leading_axes_gives_the_rows_of_the_flat_grid(batch):
    grid = UdInstance(batch.alpha.reshape(5, -1), batch.eta.reshape(2, 5, -1))
    assert len(grid) == 5 and len(grid[0]) == len(batch) // 5
    ud_povm = optimal_predictive_povm(grid)
    rows = verify.ud_residuals(grid, optimal_dual(grid), ud_povm, ud_retro_dual(grid, ud_povm))
    ud_povm = optimal_predictive_povm(batch)
    flat = verify.ud_residuals(batch, optimal_dual(batch), ud_povm, ud_retro_dual(batch, ud_povm))
    assert np.array_equal(rows.reshape(flat.shape), flat, equal_nan=True)
    rows = verify.channel_residuals(grid, no_signaling_check(grid))
    flat = verify.channel_residuals(batch, no_signaling_check(batch))
    assert np.array_equal(rows.reshape(flat.shape), flat)
