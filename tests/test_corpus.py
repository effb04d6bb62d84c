"""The transform corpora and the floor sweep are their pairs built one at a time.

The references below build each pair as a validated Ensemble and Povm,
reject it through the source function and the outcome distribution, and
group the kept pairs by shape (n, m, d) in draw order.  The corpora must
equal them bit for bit, group for group, and the floor sweep pair for pair.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from retrodictor import linalg, verify
from retrodictor.ensembles import DensityOperator, Ensemble, source_from_ensemble
from retrodictor.retrodiction import outcome_probs


def _grouped(pairs):
    """Pairs grouped by shape (n, m, d) in order of first appearance, as stacked arrays."""
    groups = {}
    for ensemble, povm in pairs:
        group = groups.setdefault((len(ensemble), *povm.elements.shape), ([], [], []))
        for stack, array in zip(group, (ensemble.priors, ensemble.matrices, povm.elements)):
            stack.append(array)
    return [tuple(map(np.array, group)) for group in groups.values()]


class _Replay:
    """A generator stand-in that hands out one pair's draws in the order random_ensemble and random_povm ask."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def _next(self, shape):
        draw = self._draws.pop(0)
        assert draw.shape == tuple(np.atleast_1d(shape))
        return draw

    random = standard_normal = _next


def reference_corpus(seed, count, dims=verify.CORPUS_DIMS):
    """random_corpus pair by pair, and the number of draws it rejected.

    The slots' (states, outcomes) counts come first, dimensions cycling
    through dims.  Each shape, in order of first appearance, then draws
    blocks of as many candidates as it has slots left: the uniforms of the
    priors, the normals of the states, the normals of the POVMs.  Each
    candidate is built from its slice of the blocks by random_ensemble and
    random_povm and kept or rejected on its own.
    """
    rng = verify._rng(seed)
    sizes = rng.integers(2, 5, (count, 2))
    shapes = Counter((int(n), int(m), dims[k % len(dims)]) for k, (n, m) in enumerate(sizes))
    pairs, rejected = [], 0
    for (n_states, n_elements, dim), slots in shapes.items():
        while slots:
            uniforms = rng.random((slots, n_states))
            state_normals = rng.standard_normal((slots, n_states, 2, dim, dim + 1))
            povm_normals = rng.standard_normal((slots, n_elements, 2, dim, dim))
            for draws in zip(uniforms, state_normals, povm_normals):
                replay = _Replay(*draws)
                ensemble = verify.random_ensemble(replay, dim, n_states)
                povm = verify.random_povm(replay, dim, n_elements)
                omega = source_from_ensemble(ensemble)
                if (
                    linalg.min_eigenvalue(omega.matrix) < verify.MIN_OMEGA_EIG
                    or outcome_probs(povm, omega).mu.min() < verify.MIN_MU
                ):
                    rejected += 1
                    continue
                pairs.append((ensemble, povm))
                slots -= 1
    return _grouped(pairs), rejected


def reference_floor_sweep():
    """floor_sweep's transforms drawn and built pair by pair, as validated objects."""
    rng = verify._rng(verify.DEFAULT_SEED)
    levels = verify.FLOOR_SWEEP_ABOVE + verify.FLOOR_SWEEP_BELOW
    transforms = []
    for dim, min_eig, _ in itertools.product(verify.FLOOR_SWEEP_DIMS, levels, range(3)):
        rest = min_eig + rng.dirichlet(np.ones(dim - 1)) * (1.0 - dim * min_eig)
        u = verify._random_unitary(rng, dim)
        root = (u * np.sqrt(np.concatenate([[min_eig], rest]))) @ linalg.dag(u)
        parts = root @ verify.random_povm(rng, dim, int(rng.integers(2, 5))).elements @ root
        priors = np.trace(parts, axis1=1, axis2=2).real
        states = (parts + linalg.dag(parts)) / (2.0 * priors[:, None, None])
        povm = verify.random_povm(rng, dim, int(rng.integers(2, 5)))
        transforms.append((min_eig, Ensemble(tuple(map(DensityOperator, states)), priors), povm))
    return transforms


def reference_unbiased_corpus(seed, count=60):
    """unbiased_corpus pair by pair."""
    rng = verify._rng(seed)
    pairs = []
    for k in range(count):
        dim = verify.CORPUS_DIMS[k % len(verify.CORPUS_DIMS)]
        u = verify._random_unitary(rng, dim)
        states = tuple(DensityOperator(linalg.outer(u[:, i])) for i in range(dim))
        ensemble = Ensemble(states, np.full(dim, 1.0 / dim))
        pairs.append((ensemble, verify.random_povm(rng, dim, int(rng.integers(2, 5)))))
    return _grouped(pairs)


def assert_same_groups(groups, expected):
    assert len(groups) == len(expected)
    for group, reference in zip(groups, expected):
        for array, ref in zip(group, reference):
            assert array.dtype == ref.dtype
            assert np.array_equal(array, ref)


def test_the_default_corpus_equals_its_per_pair_draws():
    expected, _ = reference_corpus(verify.DEFAULT_SEED, verify.CORPUS_SIZE)
    groups = verify.random_corpus()
    assert_same_groups(groups, expected)
    assert sum(len(priors) for priors, _, _ in groups) == verify.CORPUS_SIZE


@pytest.mark.parametrize("name, value", [("MIN_OMEGA_EIG", 0.05), ("MIN_MU", 0.1)])
def test_rejected_draws_leave_the_corpus_as_they_leave_the_per_pair_draws(monkeypatch, name, value):
    monkeypatch.setattr(verify, name, value)
    expected, rejected = reference_corpus(verify.DEFAULT_SEED, 60)
    assert rejected >= 1
    assert_same_groups(verify.random_corpus(verify.DEFAULT_SEED, 60), expected)


def test_a_corpus_in_one_dimension_equals_its_per_pair_draws():
    expected, _ = reference_corpus(21, 6, dims=(3,))
    assert_same_groups(verify.random_corpus(21, 6, dims=(3,)), expected)


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED + 1, 11, 21])
def test_the_unbiased_corpus_equals_its_per_pair_draws(seed):
    assert_same_groups(verify.unbiased_corpus(seed), reference_unbiased_corpus(seed))


def test_the_per_pair_view_lists_the_pairs_group_by_group():
    groups = verify.random_corpus(verify.DEFAULT_SEED, 30)
    pairs = verify.corpus_pairs(groups)
    assert len(pairs) == 30
    assert_same_groups(groups, _grouped(pairs))


def test_the_floor_sweep_equals_its_per_pair_draws():
    transforms, _ = verify.floor_sweep()
    expected = reference_floor_sweep()
    assert len(transforms) == len(expected)
    for (level, ensemble, povm), (ref_level, ref_ensemble, ref_povm) in zip(transforms, expected):
        assert level == ref_level
        assert len(ensemble.states) == len(ref_ensemble.states)
        for array, ref in [
            (ensemble.priors, ref_ensemble.priors),
            (ensemble.matrices, ref_ensemble.matrices),
            (povm.elements, ref_povm.elements),
            *((s.matrix, r.matrix) for s, r in zip(ensemble.states, ref_ensemble.states)),
        ]:
            assert array.dtype == ref.dtype
            assert not array.flags.writeable
            assert np.array_equal(array, ref)
        assert povm.sum_target is None

