"""The suites evaluate the per-instance checks over whole stacks at once.

Each batched residual row must equal, exactly, what checks_for_ud,
checks_for_channel and checks_for_transform report for that instance (for UD,
the stack's slice of one), and a batch must fail the way its instances fail
one at a time.
"""

import math

import numpy as np
import pytest

from conftest import corpus_pairs, strip
from retrodictor import verify
from retrodictor.channel import no_signaling_check
from retrodictor.ensembles import Ensemble, Povm
from retrodictor.errors import RetrodictorError, ValidationError
from retrodictor.linalg import maxabs, maxabs_each
from retrodictor.retrodiction import joint_table, retro_transform, transform_stack, unbiased_stack
from retrodictor.ud import UdInstance, optimal_dual, ud_retro_dual

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
    one = INSTANCES[7:8]
    assert (one.alpha.tolist(), one.eta.tolist()) == ([expected[7][0]], [[expected[7][1]], [expected[7][2]]])
    assert (one[0].alpha.tobytes(), one[0].eta.tobytes()) == (one.alpha.tobytes(), one.eta.tobytes())


@pytest.mark.parametrize("k", [0, -1, 612])
def test_an_integer_index_gives_the_stack_of_one_at_it(k):
    j = range(len(INSTANCES))[k]
    one, sliced = INSTANCES[k], INSTANCES[j : j + 1]
    assert (one.alpha.shape, one.eta.shape) == (sliced.alpha.shape, sliced.eta.shape) == ((1,), (2, 1))
    assert (one.alpha.tobytes(), one.eta.tobytes()) == (sliced.alpha.tobytes(), sliced.eta.tobytes())


def test_iterating_a_stack_gives_its_instances_as_stacks_of_one():
    instances = list(INSTANCES)
    assert len(instances) == len(INSTANCES) == 1225
    assert all(len(one) == 1 for one in instances)
    assert np.concatenate([one.alpha for one in instances]).tobytes() == INSTANCES.alpha.tobytes()
    assert np.concatenate([one.eta for one in instances], axis=1).tobytes() == INSTANCES.eta.tobytes()
    with pytest.raises(IndexError):
        INSTANCES[len(INSTANCES)]


def test_batched_ud_rows_equal_the_per_instance_checks(batch):
    opt = optimal_dual(batch)
    rows = verify.ud_residuals(batch, opt, ud_retro_dual(batch, opt))
    assert rows.shape == (len(INSTANCES), len(verify.UD_CHECKS))
    for k, row in enumerate(rows):
        one = INSTANCES[k : k + 1]
        checks = verify.checks_for_ud(one, optimal_dual(one))
        assert [(c.name, c.tolerance) for c in checks] == list(verify.UD_CHECKS)
        assert [c.value for c in checks] == row.tolist()


def test_a_stacked_optimum_carries_each_instance_measurement(batch):
    opt = optimal_dual(batch)
    assert opt.elements.shape == (len(INSTANCES), 3, 2, 2)
    for k in range(len(INSTANCES)):
        one = optimal_dual(INSTANCES[k : k + 1])
        assert opt.elements[k : k + 1].tobytes() == one.elements.tobytes()
        assert np.array(opt.c)[:, k : k + 1].tobytes() == np.array(one.c).tobytes()


def test_batched_channel_rows_equal_the_per_instance_checks(batch):
    rows = verify.channel_residuals(batch, no_signaling_check(batch))
    assert rows.shape == (len(INSTANCES), len(verify.CHANNEL_CHECKS))
    for k, row in enumerate(rows):
        one = INSTANCES[k : k + 1]
        checks = verify.checks_for_channel(one, no_signaling_check(one))
        assert [(c.name, c.tolerance) for c in checks] == list(verify.CHANNEL_CHECKS)
        assert [c.value for c in checks] == row.tolist()


def test_suites_report_the_worst_row(batch):
    opt = optimal_dual(batch)
    rows = verify.ud_residuals(batch, opt, ud_retro_dual(batch, opt))
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


SWEEP_W2, SWEEP_INSTANCES = verify.floor_sweep()[1]
BELOW_FLOOR = list(SWEEP_INSTANCES[SWEEP_W2 < 1e-5])


@pytest.mark.parametrize("fn", [optimal_dual, no_signaling_check])
@pytest.mark.parametrize("index", range(len(BELOW_FLOOR)))
def test_a_batch_with_a_below_floor_instance_fails_like_the_instance(fn, index):
    inst = BELOW_FLOOR[index]
    expected = _raised(fn, inst)
    assert expected is not None
    stack = [*INSTANCES[:5], inst, *INSTANCES[5:10]]
    stack = UdInstance(np.concatenate([i.alpha for i in stack]), np.concatenate([i.eta for i in stack], axis=1))
    assert _raised(fn, stack) is expected


CORPUS = verify.random_corpus()


def test_grouped_transform_rows_equal_the_per_pair_checks():
    assert len(CORPUS) == len(verify.CORPUS_DIMS)
    for group in CORPUS:
        dual = transform_stack(*group)
        rows = verify.transform_residuals(joint_table(*group), dual)
        pairs = corpus_pairs([group])
        assert rows.shape == (len(pairs), len(verify.TRANSFORM_CHECKS))
        for (ensemble, povm), row in zip(pairs, rows):
            checks = verify.checks_for_transform(ensemble, povm, retro_transform(ensemble, povm))
            assert [(c.name, c.tolerance) for c in checks] == list(verify.TRANSFORM_CHECKS)
            assert [c.value for c in checks] == row.tolist()


def _double_dual_differences(priors, states, elements):
    """Per pair of a stack: the double dual's source difference, its POVM and its state differences."""
    dual = transform_stack(priors, states, elements)
    back = transform_stack(dual.mu, dual.state_stack, dual.povm_stack)
    defined = back.defined[..., None, None]
    return np.stack([
        maxabs_each(back.omega_matrix - dual.omega_matrix),
        maxabs_each(back.povm_stack - elements).max(axis=-1),
        maxabs_each(back.state_stack - defined * states).max(axis=-1),
    ], axis=-1)


def _unbiased_differences(priors, states, elements):
    """Per pair of a stack: the unbiased reduction's POVM and (jointly defined) state differences."""
    dual, ref = transform_stack(priors, states, elements), unbiased_stack(priors, states, elements)
    both = (dual.defined & ref.defined)[..., None, None]
    return np.stack([
        maxabs_each(dual.povm_stack - ref.povm_stack).max(axis=-1),
        maxabs_each(both * (dual.state_stack - ref.state_stack)).max(axis=-1),
    ], axis=-1)


@pytest.mark.parametrize(
    "draw, seed, differences",
    [
        (verify.random_corpus, verify.DEFAULT_SEED, _double_dual_differences),
        (verify.unbiased_corpus, verify.DEFAULT_SEED + 1, _unbiased_differences),
    ],
)
def test_padded_stack_rows_equal_those_of_each_pair_alone(draw, seed, differences):
    # Each row of a dimension's padded stack, and its double-dual (or unbiased)
    # differences, bit for bit against the same pair with its zero-prior states
    # and zero elements stripped.
    padded = 0
    for stack in draw(seed, 60):
        rows = verify.transform_residuals(joint_table(*stack), transform_stack(*stack))
        stacked = differences(*stack)
        for k, pair in enumerate(zip(*stack)):
            alone = strip(*pair)
            padded += any(len(a) < len(p) for a, p in zip(alone, pair))
            assert rows[k].tolist() == verify.transform_residuals(joint_table(*alone), transform_stack(*alone)).tolist()
            assert stacked[k].tolist() == differences(*alone).tolist()
    assert padded > 10


def test_transform_suite_equals_its_per_pair_definition():
    # The double dual and the unbiased reduction, pair by pair through objects
    # built by their constructors and stripped of their padding, reduce to the
    # stacked suite's values exactly.
    count, seed = 60, verify.DEFAULT_SEED
    rows, double_src, double_ops, unbiased = [], 0.0, 0.0, 0.0
    for ensemble, povm in corpus_pairs(verify.random_corpus(seed, count)):
        dual = retro_transform(ensemble, povm)
        rows.append([c.value for c in verify.checks_for_transform(ensemble, povm, dual)])
        back_ensemble = Ensemble(dual.state_stack, dual.mu)
        back = retro_transform(back_ensemble, Povm(dual.povm_stack))
        double_src = max(double_src, maxabs(back.omega_matrix - dual.omega_matrix))
        double_ops = max(double_ops, maxabs(back.povm_stack - povm.elements),
                         *(maxabs(b - a) for a, b in zip(ensemble.matrices, back.state_stack)))
    for ensemble, povm in corpus_pairs(verify.unbiased_corpus(seed + 1)):
        dual = retro_transform(ensemble, povm)
        ref = unbiased_stack(ensemble.priors, ensemble.matrices, povm.elements)
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
        UdInstance(alpha[1:], [eta[0][1:], eta[1][1:]])
    with pytest.raises(ValidationError) as batch:
        UdInstance(np.array(alpha), np.array(eta))
    assert [v.check for v in batch.value.violations] == [v.check for v in instance.value.violations]
    assert [v.residual for v in batch.value.violations] == [v.residual for v in instance.value.violations]


def test_a_stack_over_two_axes_is_rejected_by_name(batch):
    # A stack has one axis: the flat grid, not a grid over two.
    with pytest.raises(ValidationError) as grid:
        UdInstance(batch.alpha.reshape(5, -1), batch.eta.reshape(2, 5, -1))
    assert [v.check for v in grid.value.violations] == ["instance_shape"]
