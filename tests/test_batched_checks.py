"""The ud and channel suites evaluate the per-instance checks over the whole grid at once.

Each batched residual row must equal, exactly, what checks_for_ud and
checks_for_channel report for that instance, and a batch must fail the way
its instances fail one at a time.
"""

import numpy as np
import pytest

from retrodictor import verify
from retrodictor.channel import no_signaling_check
from retrodictor.errors import RetrodictorError
from retrodictor.ud import UdBatch, optimal_dual, optimal_predictive_povm, ud_retro_dual

INSTANCES = verify.grid_instances()


@pytest.fixture(scope="module")
def batch():
    return UdBatch.of(INSTANCES)


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
    assert _raised(fn, UdBatch.of([*INSTANCES[:5], inst, *INSTANCES[5:10]])) is expected
