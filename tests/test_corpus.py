"""The transform corpora are the pairs drawn one at a time, grouped by shape.

The reference below draws each pair as a validated Ensemble and Povm,
rejects it through the source function and the outcome distribution, and
groups the kept pairs by shape (n, m, d) in draw order.  The corpora must
equal it bit for bit, group for group.
"""

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


def reference_corpus(seed, count, dims=verify.CORPUS_DIMS):
    """random_corpus pair by pair, and the number of draws it rejected."""
    rng = verify._rng(seed)
    pairs, rejected = [], 0
    while len(pairs) < count:
        dim = dims[len(pairs) % len(dims)]
        n_states = int(rng.integers(2, 5))
        n_elements = int(rng.integers(2, 5))
        ensemble = verify.random_ensemble(rng, dim, n_states)
        povm = verify.random_povm(rng, dim, n_elements)
        omega = source_from_ensemble(ensemble)
        if (
            linalg.min_eigenvalue(omega.matrix) < verify.MIN_OMEGA_EIG
            or outcome_probs(povm, omega).mu.min() < verify.MIN_MU
        ):
            rejected += 1
            continue
        pairs.append((ensemble, povm))
    return _grouped(pairs), rejected


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
