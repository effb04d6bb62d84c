"""The verification inputs of the block drawer.

random_corpus equals its pairs built one at a time: the reference below
builds each pair as a validated Ensemble and Povm from the live part of its
draws, rejects it on its source function and click probabilities (plain
numpy expressions here, not the package's own), and pads the kept pairs into
one stack per dimension, bit for bit.  unbiased_corpus and floor_sweep are
held to the drawer's contract: seed-deterministic, one stack per dimension
of the shape it holds, and the unbiased sources maximally mixed.
"""

import numpy as np
import pytest

from conftest import corpus_pairs, random_ensemble, random_povm
from retrodictor import linalg, verify
from retrodictor.ensembles import validate_operator_stack

PAD = verify.PADDED_COUNT


class _Replay:
    """A generator stand-in that hands out one pair's draws in the order random_ensemble and random_povm ask."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def _next(self, shape):
        draw = self._draws.pop(0)
        assert draw.shape == tuple(np.atleast_1d(shape))
        return draw

    random = standard_normal = _next


def _padded(ensemble, povm, padded_states):
    """A pair padded to PAD states and outcomes: priors 0 for padded_states' extra states, zero extra elements."""
    n, (m, d, _) = len(ensemble), povm.elements.shape
    assert np.array_equal(padded_states[:n], ensemble.matrices)
    elements = np.concatenate([povm.elements, np.zeros((PAD - m, d, d), dtype=complex)])
    return np.concatenate([ensemble.priors, np.zeros(PAD - n)]), padded_states, elements


def reference_corpus(seed, count, dims=verify.CORPUS_DIMS):
    """random_corpus pair by pair, padded into one stack per dimension, and the number of draws it rejected.

    The slots' (states, outcomes) counts come first, dimensions cycling
    through dims.  Each dimension in turn then draws blocks of one candidate
    per unfilled slot, in slot order, each padded to PAD states and outcomes:
    the uniforms of the priors, the normals of the states, the normals of the
    POVMs.  Each candidate is built by random_ensemble and random_povm from
    the live part of its slice of the blocks (its first n uniforms and state
    normals, its first m POVM normals) and kept or rejected on its own: on
    the smallest eigenvalue of its source sum_i eta_i rho_i and its smallest
    click probability Tr(Pi_j Omega).  Its padded states are the states of
    all PAD state normals.
    """
    rng = verify._rng(seed)
    sizes = rng.integers(2, PAD + 1, (count, 2)).tolist()
    stacks, rejected = [], 0
    for k, dim in enumerate(dims):
        slots = sizes[k :: len(dims)]
        rows, todo = [None] * len(slots), list(range(len(slots)))
        while todo:
            uniforms = rng.random((len(todo), PAD))
            state_normals = rng.standard_normal((len(todo), PAD, 2, dim, dim + 1))
            povm_normals = rng.standard_normal((len(todo), PAD, 2, dim, dim))
            unfilled = []
            for slot, u, z_states, z_povm in zip(todo, uniforms, state_normals, povm_normals):
                n_states, n_elements = slots[slot]
                replay = _Replay(u[:n_states], z_states[:n_states], z_povm[:n_elements])
                ensemble = random_ensemble(replay, dim, n_states)
                povm = random_povm(replay, dim, n_elements)
                omega = sum(eta * rho for eta, rho in zip(ensemble.priors, ensemble.matrices))
                clicks = np.trace(povm.elements @ omega, axis1=1, axis2=2).real
                if np.linalg.eigvalsh(omega)[0] < verify.MIN_OMEGA_EIG or clicks.min() < verify.MIN_MU:
                    rejected += 1
                    unfilled.append(slot)
                    continue
                padded_states = random_ensemble(_Replay(u, z_states), dim, PAD).matrices
                rows[slot] = _padded(ensemble, povm, padded_states)
            todo = unfilled
        stacks.append(tuple(map(np.array, zip(*rows))))
    return stacks, rejected


def assert_same_groups(groups, expected):
    assert len(groups) == len(expected)
    for group, reference in zip(groups, expected):
        for array, ref in zip(group, reference):
            assert array.dtype == ref.dtype
            assert np.array_equal(array, ref)


def test_the_default_corpus_equals_its_per_pair_draws():
    expected, _ = reference_corpus(verify.DEFAULT_SEED, verify.CORPUS_SIZE)
    stacks = verify.random_corpus()
    assert_same_groups(stacks, expected)
    assert sum(len(priors) for priors, _, _ in stacks) == verify.CORPUS_SIZE


@pytest.mark.parametrize("name, value", [("MIN_OMEGA_EIG", 0.05), ("MIN_MU", 0.1)])
def test_rejected_draws_leave_the_corpus_as_they_leave_the_per_pair_draws(monkeypatch, name, value):
    monkeypatch.setattr(verify, name, value)
    expected, rejected = reference_corpus(verify.DEFAULT_SEED, 60)
    assert rejected >= 1
    assert_same_groups(verify.random_corpus(verify.DEFAULT_SEED, 60), expected)


def test_a_corpus_in_one_dimension_equals_its_per_pair_draws(monkeypatch):
    monkeypatch.setattr(verify, "CORPUS_DIMS", (3,))
    expected, _ = reference_corpus(21, 6, dims=(3,))
    assert_same_groups(verify.random_corpus(21, 6), expected)


def test_the_per_pair_view_lists_the_pairs_group_by_group():
    # corpus_pairs strips each stack row of its padding, which trails its live states and outcomes.
    stacks = verify.random_corpus(verify.DEFAULT_SEED, 30)
    pairs = corpus_pairs(stacks)
    assert len(pairs) == 30
    rows = [row for stack in stacks for row in zip(*stack)]
    for (ensemble, povm), (priors, states, elements) in zip(pairs, rows):
        n, m = len(ensemble), len(povm)
        assert np.array_equal(priors[:n], ensemble.priors) and not priors[n:].any()
        assert np.array_equal(states[:n], ensemble.matrices)
        assert np.array_equal(elements[:m], povm.elements) and not elements[m:].any()
    assert all(validate_operator_stack(states, "state", unit_trace=True).ok for _, states, _ in stacks)
    assert any(len(ensemble) < PAD or len(povm) < PAD for ensemble, povm in pairs)


def group_shapes(groups):
    """Each group's (n, m, d), after checking that its three C-order stacks agree on it."""
    shapes = []
    for priors, states, elements in groups:
        (size, n), (m, d) = priors.shape, elements.shape[-3:-1]
        assert states.shape == (size, n, d, d) and elements.shape == (size, m, d, d)
        assert states.flags.c_contiguous and elements.flags.c_contiguous
        shapes.append((n, m, d))
    return shapes


@pytest.mark.parametrize("draw", [verify.random_corpus, verify.unbiased_corpus])
def test_the_drawer_is_seed_deterministic_and_keys_each_group_by_its_shape(draw):
    seed = verify.DEFAULT_SEED + 1
    groups, other = draw(seed, 60), draw(seed + 1, 60)
    assert_same_groups(groups, draw(seed, 60))
    assert not all(np.array_equal(a, b) for g, h in zip(groups, other) for a, b in zip(g, h))
    # One stack per dimension, in order, padded to PAD outcomes; the random corpus also to PAD states.
    shapes = group_shapes(groups)
    assert [(m, d) for _, m, d in shapes] == [(PAD, d) for d in verify.CORPUS_DIMS]
    assert [n for n, _, _ in shapes] == [PAD if draw is verify.random_corpus else d for d in verify.CORPUS_DIMS]
    assert sum(len(priors) for priors, _, _ in groups) == 60
    # Each POVM's live elements come first and sum to the identity; the padded ones are exact zeros.
    for _, _, elements in groups:
        live = elements.any(axis=(-2, -1))
        assert (np.sort(live, axis=-1)[:, ::-1] == live).all() and (live.sum(axis=-1) >= 2).all() and not live.all()
        assert linalg.maxabs(elements.sum(axis=-3) - np.eye(elements.shape[-1])) < 1e-12


def test_the_floor_sweep_is_deterministic_and_its_pairs_are_read_only_slices():
    (stacks, (w2, uds)), (again, (w2_again, uds_again)) = verify.floor_sweep(), verify.floor_sweep()
    levels = verify.FLOOR_SWEEP_ABOVE + verify.FLOOR_SWEEP_BELOW
    # One stack per dimension, in order, of three pairs per level, level-major.
    assert [states.shape[-1] for _, _, states, _ in stacks] == list(verify.FLOOR_SWEEP_DIMS)
    pairs = [pair for stack in stacks for pair in zip(*stack)]
    expected = [(d, m) for d in verify.FLOOR_SWEEP_DIMS for m in levels for _ in range(3)]
    assert [(states.shape[-1], m) for m, _, states, _ in pairs] == expected
    group_shapes([stack[1:] for stack in stacks])
    for stack, stack_again in zip(stacks, again):
        assert all(np.array_equal(a, b) for a, b in zip(stack, stack_again))
        assert not any(a.flags.writeable for a in stack)
    for _, *pair in pairs:
        assert not any(a.flags.writeable or a.flags.owndata for a in pair)
    assert w2.tolist() == [m for _ in range(2) for m in levels] and not w2.flags.writeable
    assert np.array_equal(w2, w2_again) and np.array_equal(uds.alpha, uds_again.alpha)
    assert np.array_equal(uds.eta, uds_again.eta)


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED + 1, 11, 21])
def test_the_unbiased_sources_are_orthonormal_projectors_with_uniform_priors(seed):
    groups = verify.unbiased_corpus(seed)
    for (n, _, d), (priors, states, _) in zip(group_shapes(groups), groups):
        assert n == d and np.array_equal(priors, np.full(priors.shape, 1.0 / d))
        # Hermitian idempotents of trace 1 are rank-one projectors; d of them summing to I are orthonormal.
        assert linalg.maxabs(states - linalg.dag(states)) < 1e-15
        assert linalg.maxabs(states @ states - states) < 1e-12
        assert np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0).max() < 1e-12
        assert linalg.maxabs(states.sum(axis=1) - np.eye(d)) < 1e-12
