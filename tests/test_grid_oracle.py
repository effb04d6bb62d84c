"""The windowed grid oracle returns what a scan of its whole grid returns.

full_scan below is the oracle as a plain scan of every grid point of one
instance.  brute_force_dual scans a coarse subsample and then only the window
that can hold a maximiser; its optimum and first argmax (mu_1, mu_2) must
equal the full scan's exactly, for one instance and for each of a stack.
"""

import math

import numpy as np
import pytest

from retrodictor import linalg, verify
from retrodictor.errors import ValidationError
from retrodictor.ud import MAX_GRID_STEP, MIN_GRID_STEP, REMAINDER_PSD_TOL, UdInstance, brute_force_dual


def full_scan(instance, grid_step):
    """The best feasible grid point (mu_1, mu_2, mu_1 + mu_2) of a stack of one, scanning every mu_1."""
    (e1,), (e2,) = instance.eta
    s2 = instance.s[0] ** 2
    mu1 = np.arange(0.0, e1 + grid_step / 2.0, grid_step)
    mu1 = mu1[mu1 <= e1]
    numerator = e1 * e2 * s2 - REMAINDER_PSD_TOL
    if numerator <= 0.0:
        return float(e1), float(e2), float(e1 + e2)
    slack = e1 - mu1
    with np.errstate(divide="ignore"):
        bound = e2 - numerator / slack
    feasible = (slack > 0.0) & (bound >= 0.0)
    mu2 = np.where(feasible, np.floor(bound / grid_step) * grid_step, -np.inf)
    mu2 = np.minimum(mu2, e2)
    total = mu1 + mu2
    best = int(np.argmax(total))
    return float(mu1[best]), float(mu2[best]), float(total[best])


def assert_oracle_is_the_full_scan(stack, step):
    expected = np.array([full_scan(inst, step) for inst in stack]).T
    assert np.array_equal(np.array(brute_force_dual(stack, step)), expected)


def random_instances(count, seed=7):
    """Random priors and overlaps, with tie priors, overlaps near 0 and rows at eta_max = 1/(1+s^2) +- 1e-9."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 0.99, count)
    eta1 = rng.uniform(0.01, 0.99, count)
    small = np.array([0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 1e-4, 1e-3, 1e-2])
    ties = np.linspace(0.0, 0.95, 20)
    edge_s = np.linspace(0.05, 0.95, 19)
    edge = np.concatenate([1.0 / (1.0 + edge_s**2) + d for d in (-1e-9, 1e-9)])
    s = np.concatenate([s, small, small, ties, edge_s, edge_s, edge_s, edge_s])
    eta1 = np.concatenate(
        [eta1, np.full(small.size, 0.5), np.full(small.size, 0.7), np.full(ties.size, 0.5), edge, 1.0 - edge]
    )
    return UdInstance.from_overlap(s, np.array([eta1, 1.0 - eta1]))


@pytest.mark.parametrize("step", [verify.GRID_STEP, 1e-3])
def test_the_oracle_is_the_full_scan_on_every_grid_instance(step):
    assert_oracle_is_the_full_scan(verify.grid_instances(), step)


@pytest.mark.parametrize("step", [verify.GRID_STEP, 1e-3])
def test_the_oracle_is_the_full_scan_on_the_floor_sweep_instances_above_the_floor(step):
    w2, instances = verify.floor_sweep()[1]
    above = instances[w2 >= linalg.MIN_EIG_DEFAULT]
    assert len(above) == 2 * len(verify.FLOOR_SWEEP_ABOVE)
    for inst in above:
        assert tuple(v[0] for v in brute_force_dual(inst, step)) == full_scan(inst, step)


@pytest.mark.parametrize("step", [1e-4, 3.7e-4, 1e-3, 7e-3, MAX_GRID_STEP])
def test_the_oracle_is_the_full_scan_on_random_and_boundary_instances(step):
    assert_oracle_is_the_full_scan(random_instances(300), step)


def test_the_oracle_is_the_full_scan_at_the_step_floor():
    stack = UdInstance.from_overlap([0.5, 0.02, 0.95, 1e-9], [[0.5, 0.98, 0.3, 0.7], [0.5, 0.02, 0.7, 0.3]])
    assert_oracle_is_the_full_scan(stack, MIN_GRID_STEP)


def test_the_oracle_of_a_stack_is_the_oracle_of_each_instance():
    stack = random_instances(40, seed=11)
    rows = np.concatenate([brute_force_dual(stack[k : k + 1], 1e-3) for k in range(len(stack))], axis=1)
    assert [v.shape for v in brute_force_dual(stack[:1], 1e-3)] == [(1,)] * 3
    assert np.array_equal(np.array(brute_force_dual(stack, 1e-3)), rows)
    with pytest.raises(ValidationError) as square:
        UdInstance(stack.alpha[:36].reshape(6, 6), stack.eta[:, :36].reshape(2, 6, 6))
    assert [v.check for v in square.value.violations] == ["instance_shape"]


def test_the_oracle_of_orthogonal_states_is_the_whole_source():
    stack = UdInstance(np.full(3, math.pi / 4), [[0.5, 0.3, 0.9], [0.5, 0.7, 0.1]])
    assert np.array_equal(np.array(brute_force_dual(stack, 1e-3)), [[0.5, 0.3, 0.9], [0.5, 0.7, 0.1], [1.0, 1.0, 1.0]])
