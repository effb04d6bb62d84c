import math

import numpy as np
import pytest

from conftest import corpus_pairs, random_ensemble, random_povm
from retrodictor.ensembles import Ensemble, Povm, validate_density_matrix
from retrodictor.errors import (
    DimensionMismatch,
    NumericIntegrityError,
    SingularOperator,
    ValidationError,
    ZeroProbabilityOutcome,
)
from retrodictor.linalg import dag, hermitian_eig, maxabs, outer
from retrodictor.retrodiction import (
    bayes_table,
    born_table,
    joint_table,
    retro_transform,
    transform_stack,
    unbiased_stack,
)
from retrodictor.sim import joint_probability_table
from retrodictor.ud import (
    UdInstance,
    optimal_predictive_povm,
    retro_basis,
    ud_ensemble,
)
from retrodictor.verify import (
    _draw_povm,
    _draw_states,
    _rng,
    random_corpus,
    unbiased_corpus,
)


def projective_povm(dim=2):
    return Povm(tuple(np.diag([1.0 if k == j else 0.0 for k in range(dim)]) for j in range(dim)))


def source(ensemble):
    """The source function Omega = sum_i eta_i rho_i, summed in state order."""
    return sum(eta * rho for eta, rho in zip(ensemble.priors, ensemble.matrices))


def bayes(ensemble, povm, defined=None):
    """Bayes' table P(i | j) of a pair, conditioned on the defined outcomes (default: all)."""
    joint = joint_table(ensemble.priors, ensemble.matrices, povm.elements)
    return bayes_table(joint, np.ones(len(povm), dtype=bool) if defined is None else defined)


def born(dual):
    """Born's table Tr(Pi_i^ret rho_j^ret) on the transformed pair."""
    return born_table(dual.povm_stack, dual.state_stack, "retrodictive probability")


def test_predictive_prob_examples():
    zero, mixed, projector = np.diag([1.0, 0.0]), np.eye(2) / 2, np.diag([1.0, 0.0])
    table = born_table(np.array([zero, mixed]), projector[None], "predictive probability")
    assert table[0, 0] == 1.0
    assert abs(table[1, 0] - 0.5) < 1e-14


def test_predictive_prob_ud_condition_is_exact_zero():
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    povm = Povm(optimal_predictive_povm(inst).elements)
    table = born_table(ud_ensemble(inst).matrices, povm.elements, "predictive probability")
    assert table[1, 0] < 1e-15  # Tr(Pi_0 rho_1)
    assert table[0, 1] < 1e-15  # Tr(Pi_1 rho_0)


def test_predictive_prob_dimension_mismatch():
    ensemble = Ensemble((np.eye(2) / 2,), [1.0])
    with pytest.raises(DimensionMismatch):
        joint_probability_table(ensemble, projective_povm(3))
    with pytest.raises(DimensionMismatch):
        retro_transform(ensemble, projective_povm(3))


def test_outcome_probs_two_element_split():
    rng = np.random.default_rng(3)
    ensemble = random_ensemble(rng, 2, 2)
    p = np.array([[0.7, 0.1], [0.1, 0.2]])
    povm = Povm((p, np.eye(2) - p))
    mu = retro_transform(ensemble, povm).mu
    direct = float(np.trace(p @ source(ensemble)).real)
    assert abs(mu[0] - direct) < 1e-14
    assert abs(mu[1] - (1.0 - direct)) < 1e-14


def test_outcome_probs_unbiased_projective_is_uniform():
    ensemble = Ensemble(outer(np.eye(2)), np.array([0.5, 0.5]))
    mu = retro_transform(ensemble, projective_povm()).mu
    assert np.allclose(mu, [0.5, 0.5], atol=1e-14)


def test_outcome_probs_optimal_ud_weights():
    # mu_i = eta_i - sqrt(eta_1 eta_2) s = 1/4 at eta = 1/2, s = 1/2; mu_0 = 1/2.
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    mu = retro_transform(ud_ensemble(inst), Povm(optimal_predictive_povm(inst).elements)).mu
    assert np.allclose(mu, [0.25, 0.25, 0.5], atol=1e-12)
    with pytest.raises(ValueError):
        mu[0] = 0.0  # read-only, like the rest of the dual


def test_bayes_orthogonal_matching_projectors():
    ensemble = Ensemble(outer(np.eye(2)), np.array([0.3, 0.7]))
    table = bayes(ensemble, projective_povm())
    assert abs(table[0, 0] - 1.0) < 1e-14
    assert table[1, 0] < 1e-14


def test_bayes_matches_unbiased_construction():
    ensemble, povm = corpus_pairs(unbiased_corpus(seed=11, count=1))[0]
    dual = unbiased_stack(ensemble.priors, ensemble.matrices, povm.elements)
    assert dual.defined.all()
    assert maxabs(bayes(ensemble, povm) - born(dual)) < 1e-10


def test_bayes_matches_symmetric_random_d3():
    rng = np.random.default_rng(17)
    ensemble = random_ensemble(rng, 3, 3)
    povm = random_povm(rng, 3, 4)
    dual = retro_transform(ensemble, povm)
    assert dual.defined.all()
    assert maxabs(bayes(ensemble, povm) - born(dual)) < 1e-10


def test_transform_reduces_to_unbiased_construction():
    ensemble, povm = corpus_pairs(unbiased_corpus(seed=21, count=1))[0]
    dual = retro_transform(ensemble, povm)
    ref = unbiased_stack(ensemble.priors, ensemble.matrices, povm.elements)
    for a, b in zip(dual.povm_stack, ref.povm_stack):
        assert maxabs(a - b) < 1e-10
    assert dual.defined.all() and ref.defined.all()
    for a, b in zip(dual.state_stack, ref.state_stack):
        assert maxabs(a - b) < 1e-10


def test_transform_ud_retro_povm_is_basis_projectors():
    inst = UdInstance(math.pi / 6, (0.6, 0.4))
    dual = retro_transform(ud_ensemble(inst), Povm(optimal_predictive_povm(inst).elements))
    basis = retro_basis(inst)
    assert maxabs(dual.povm_stack[0] - outer(basis.vectors[:, 0])) < 1e-12
    assert maxabs(dual.povm_stack[1] - outer(basis.vectors[:, 1])) < 1e-12


def test_transform_identities_on_random_biased_instance():
    rng = np.random.default_rng(29)
    ensemble = random_ensemble(rng, 4, 3)
    povm = random_povm(rng, 4, 3)
    dual = retro_transform(ensemble, povm)
    assert dual.completeness_residual() < 1e-10
    assert dual.trace_residual() < 1e-10
    assert dual.source_residual() < 1e-10


def test_symmetric_ud_exclusion_structure():
    inst = UdInstance(math.pi / 6, (0.6, 0.4))
    dual = retro_transform(ud_ensemble(inst), Povm(optimal_predictive_povm(inst).elements))
    assert dual.defined.all()
    table = born(dual)
    assert table[0, 1] < 1e-12
    assert table[1, 0] < 1e-12
    assert abs(table[0, 0] - 1.0) < 1e-12
    assert abs(table[1, 1] - 1.0) < 1e-12


def test_symmetry_property_over_seeded_corpus():
    worst = 0.0
    for ensemble, povm in corpus_pairs(random_corpus(seed=301, count=60)):
        dual = retro_transform(ensemble, povm)
        assert dual.defined.all()
        worst = max(worst, maxabs(bayes(ensemble, povm) - born(dual)))
    assert worst < 1e-9


def test_double_dual_shares_the_source():
    rng = np.random.default_rng(31)
    ensemble = random_ensemble(rng, 3, 3)
    povm = random_povm(rng, 3, 3)
    dual = retro_transform(ensemble, povm)
    back_ensemble = Ensemble(dual.state_stack, dual.mu)
    assert maxabs(source(back_ensemble) - dual.omega_matrix) < 1e-10
    back = retro_transform(back_ensemble, Povm(dual.povm_stack))
    for j in range(len(povm)):
        assert maxabs(back.povm_stack[j] - povm.elements[j]) < 1e-9
    for i in range(len(ensemble)):
        assert maxabs(back.state_stack[i] - ensemble.matrices[i]) < 1e-9


def test_tiny_outcome_probability_keeps_unit_trace():
    # An outcome with probability ~1e-8 still yields a unit-trace retro state.
    eps = 1e-8
    povm = Povm((np.diag([1.0 - eps, 0.0]), np.diag([eps, 1.0])))
    ensemble = Ensemble((np.eye(2) / 2,), np.array([1.0]))
    dual = retro_transform(ensemble, povm)
    assert dual.trace_residual() < 1e-12
    assert dual.source_residual() < 1e-12
    assert dual.defined[1]
    assert abs(born(dual)[0, 1] - 1.0) < 1e-10


def test_transform_identities_at_dimension_six():
    # Above the acceptance dims but inside the solver's supported range.
    rng = np.random.default_rng(61)
    ensemble = random_ensemble(rng, 6, 4)
    povm = random_povm(rng, 6, 4)
    dual = retro_transform(ensemble, povm)
    assert dual.completeness_residual() < 1e-10
    assert dual.trace_residual() < 1e-10
    assert dual.source_residual() < 1e-10
    assert dual.defined.all()
    assert maxabs(bayes(ensemble, povm) - born(dual)) < 1e-9


def test_zero_prior_state_flows_through_transform():
    rng = np.random.default_rng(43)
    states = random_ensemble(rng, 2, 3).matrices
    ensemble = Ensemble(states, np.array([0.6, 0.4, 0.0]))
    povm = random_povm(rng, 2, 3)
    dual = retro_transform(ensemble, povm)
    assert dual.completeness_residual() < 1e-12
    assert maxabs(dual.povm_stack[2]) < 1e-12  # zero prior, zero element
    assert dual.defined.all()
    assert born(dual)[2].max() < 1e-12
    assert bayes(ensemble, povm)[2].max() < 1e-12


def test_zero_probability_outcome_raises_in_bayes():
    ensemble = Ensemble((np.eye(2) / 2,), np.array([1.0]))
    povm = Povm((np.eye(2), np.zeros((2, 2))))
    with pytest.raises(ZeroProbabilityOutcome):
        bayes(ensemble, povm, np.array([False, True]))


def test_bayes_table_conditions_each_pair_of_a_stack_on_its_defined_outcomes():
    rng = _rng(21)
    joints = joint_table(*_draw_states(rng, 3, 2, (2,)), _draw_povm(rng, 3, 4, (2,)))
    defined = np.ones(joints.shape[::2], dtype=bool)
    defined[0, 1] = False
    table = bayes_table(joints, defined)
    assert table.shape == joints.shape == (2, 2, 4)
    for joint, mask, rows in zip(joints, defined, table):
        assert np.array_equal(rows[:, mask], joint[:, mask] / joint.sum(axis=0)[mask])
        assert np.array_equal(rows[:, ~mask], np.zeros((2, int((~mask).sum()))))


def test_bayes_table_rejects_a_defined_outcome_at_the_floor():
    joints = np.array([[[0.5, 0.0], [0.5, 0.0]], [[0.5, 5e-13], [0.5 - 5e-13, 0.0]]])
    bayes_table(joints, np.array([[True, False], [True, False]]))  # the undefined column is skipped
    with pytest.raises(ZeroProbabilityOutcome, match="outcome 1"):
        bayes_table(joints, np.array([[True, False], [True, True]]))


def test_zero_probability_outcome_flagged_in_transform():
    ensemble = Ensemble((np.eye(2) / 2,), np.array([1.0]))
    povm = Povm((np.eye(2), np.zeros((2, 2))))
    dual = retro_transform(ensemble, povm)
    assert not dual.defined[1]
    assert dual.defined[0]
    # The undefined outcome has no retrodictive state, so Born's rule gives
    # it no weight and conditioning on it is rejected.
    assert not dual.state_stack[1].any()
    with pytest.raises(ZeroProbabilityOutcome):
        bayes_table(born(dual) * dual.mu, np.ones(2, dtype=bool))
    # identities still hold over the defined states
    assert dual.source_residual() < 1e-12


def test_singular_source_raises_without_opt_in():
    pure = np.diag([1.0, 0.0])
    ensemble = Ensemble((pure, pure), np.array([0.5, 0.5]))
    with pytest.raises(SingularOperator):
        retro_transform(ensemble, projective_povm())


def test_support_restricted_transform_on_singular_source():
    pure = np.diag([1.0, 0.0])
    ensemble = Ensemble((pure, pure), np.array([0.5, 0.5]))
    dual = retro_transform(ensemble, projective_povm(), support_restricted=True)
    support = np.diag([1.0, 0.0])
    assert maxabs(sum(dual.povm_stack) - support) < 1e-12
    assert dual.source_residual() < 1e-12
    assert not dual.defined[1]  # the orthogonal outcome never clicks


def test_negative_input_eigenvalue_cannot_leak_into_retro_povm():
    # The state's eigenvalue -5e-11 passes validation; with Omega's smaller
    # eigenvalue at 2e-5 (above the floor) it becomes -1.25e-6 in Pi_1^ret,
    # which only the retrodictive POVM's own PSD check rejects.
    leaky = np.diag([1.0 + 5e-11, -5e-11])
    partner = np.diag([1.0 - 4e-5 - 5e-11, 4e-5 + 5e-11])
    assert validate_density_matrix(leaky).ok
    ensemble = Ensemble((leaky, partner), np.array([0.5, 0.5]))
    assert abs(np.linalg.eigvalsh(source(ensemble))[0] - 2e-5) < 1e-15
    with pytest.raises(NumericIntegrityError):
        retro_transform(ensemble, projective_povm())


PROJECTIVE = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
HALF = np.eye(2) / 2.0

# Sources of one state each (the stack's pairs one per row), read as given by transform_stack,
# and the violations it names, each before the source is decomposed.
BAD_SOURCES = [
    ("non-hermitian", [[[0.5, 0.05], [0.0, 0.5]]],
     "hermiticity: source is not Hermitian (residual 5.000e-02)"),
    ("negative", [np.diag([1.2, -0.2])],
     "psd: source has negative eigenvalue -2.000e-01 (residual 2.000e-01)"),
    # Finite, Hermitian and of unit trace, so only the PSD test can reject it.
    ("huge", [[[0.5, 1e308], [1e308, 0.5]]],
     "psd: source has negative eigenvalue -1.000e+308 (residual 1.000e+308)"),
    ("wrong-trace", [np.diag([0.6, 0.6])], "unit_trace: source trace differs from 1 (residual 2.000e-01)"),
    ("nan", [[[math.nan, 0.0], [0.0, 0.5]]], "finite_entries: source has non-finite entries (residual 1.000e+00)"),
    # inf x 0 in the weighting raised a RuntimeWarning before the source was checked.
    ("inf", [[[math.inf, 0.0], [0.0, 0.5]]], "finite_entries: source has non-finite entries (residual 1.000e+00)"),
    ("inf-in-a-stack", [[HALF], [[[math.inf, 0.0], [0.0, 0.5]]], [HALF]],
     "finite_entries: source[1] has non-finite entries (residual 1.000e+00)"),
    ("nan-in-a-stack", [[HALF], [[[0.5, math.nan], [0.0, 0.5]]], [HALF]],
     "finite_entries: source[1] has non-finite entries (residual 1.000e+00)"),
    ("negative-and-wrong-trace", [np.diag([1.5, -0.2])],
     "psd: source has negative eigenvalue -2.000e-01 (residual 2.000e-01); "
     "unit_trace: source trace differs from 1 (residual 3.000e-01)"),
    ("negative-in-a-stack", [[HALF], [np.diag([1.2, -0.2])], [HALF]],
     "psd: source[1] has negative eigenvalue -2.000e-01 (residual 2.000e-01)"),
]


BAD_SOURCE_CASES = [pytest.param(s, e, id=n) for n, s, e in BAD_SOURCES]


def _bad_source_error(build, states) -> str:
    states = np.array(states, dtype=complex)
    elements = np.broadcast_to(PROJECTIVE, states.shape[:-3] + PROJECTIVE.shape)
    with pytest.raises(ValidationError) as excinfo:
        build(np.ones(states.shape[:-2]), states, elements)
    return str(excinfo.value)


@pytest.mark.parametrize("states, error", BAD_SOURCE_CASES)
def test_a_bad_source_is_named_as_a_validation_error(states, error):
    assert _bad_source_error(transform_stack, states) == f"validation failed: {error}"


@pytest.mark.parametrize("states, error", BAD_SOURCE_CASES)
def test_the_unbiased_construction_names_a_bad_source_alike(states, error):
    assert _bad_source_error(unbiased_stack, states) == f"validation failed: {error}"


# Pair 1 of each stack is at fault: its elements sum to diag(1, 0.5), or one of them has a
# negative probability on the source diag(0.9, 0.1).
BAD_POVM_PAIRS = [
    ("incomplete", HALF, [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])], "outcome probabilities of pair 1 sum to 0.75"),
    ("negative", np.diag([0.9, 0.1]), [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])],
     "negative outcome probability -3.500e-01 of pair 1"),
]


@pytest.mark.parametrize("state, bad, error", [pytest.param(s, b, e, id=n) for n, s, b, e in BAD_POVM_PAIRS])
def test_a_bad_povm_of_a_stack_names_its_pair(state, bad, error):
    elements = np.array([PROJECTIVE, bad, PROJECTIVE], dtype=complex)
    with pytest.raises(NumericIntegrityError) as excinfo:
        transform_stack(np.ones((3, 1)), np.broadcast_to(state, (3, 1, 2, 2)), elements)
    assert str(excinfo.value) == error


def test_a_bad_povm_of_one_pair_keeps_its_message():
    with pytest.raises(NumericIntegrityError, match=r"^outcome probabilities sum to 0\.75$"):
        transform_stack(np.array([1.0]), HALF[None], np.array([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])]))


def test_probability_clamp_rejects_gross_violations():
    with pytest.raises(NumericIntegrityError):
        born_table(np.eye(2)[None] / 2, 2.0 * np.eye(2)[None], "predictive probability")


def test_outer_probabilities_clamped_within_tolerance():
    # A value 1 + 5e-13 inside the window clamps to exactly 1.
    state = np.eye(2) / 2
    assert born_table(state[None], (2.0 + 1e-12) * state[None], "predictive probability")[0, 0] == 1.0


def test_stacked_expressions_match_their_loops():
    # The loops are the per-element definitions the stacks replaced.  Source and
    # retrodictive POVM keep their arithmetic, so they agree bit for bit; the
    # joint table's einsum sums in another order, so it gets a roundoff bound
    # of d^2 unit roundoffs (entries of magnitude <= 1, d <= 4), and Bayes that
    # bound twice over the smallest column sum.
    for ensemble, povm in corpus_pairs(random_corpus(count=30)):
        pairs = list(zip(ensemble.priors, ensemble.matrices))
        omega = sum(eta * s for eta, s in pairs)
        dual = retro_transform(ensemble, povm)
        assert np.array_equal(dual.omega_matrix, omega)

        inv_root = hermitian_eig(omega).inv_sqrt()
        loop = [inv_root @ (float(eta) * s) @ inv_root for eta, s in pairs]
        loop = np.array([(e + dag(e)) / 2.0 for e in loop])
        assert np.array_equal(dual.povm_stack, loop)

        joint = np.array([
            [float(eta) * float(np.einsum("ij,ji->", e, s).real) for e in povm.elements]
            for eta, s in pairs
        ])
        table = joint_table(ensemble.priors, ensemble.matrices, povm.elements)
        eps = np.finfo(float).eps
        assert maxabs(table - joint) <= 16 * eps
        mu = joint.sum(axis=0)
        assert maxabs(bayes_table(table, np.ones(len(povm), dtype=bool)) - joint / mu) <= 32 * eps / mu.min()


def _layouts(a):
    """a in other memory layouts: Fortran order, and a strided view of a copy twice its size."""
    return [np.asfortranarray(a), np.stack([a, np.zeros_like(a)], axis=-1)[..., 0]]


def _same_dual(a, b):
    fields = ("povm_stack", "state_stack", "defined", "mu", "omega_matrix")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


def test_the_transform_is_the_same_in_any_memory_layout():
    # Summing the weighted states in an order chosen from their strides gave
    # another source for Fortran-order states in most of these pairs.
    rng = _rng(5)
    for dim, n_states, n_elements in rng.integers(2, 7, (60, 3)).tolist():
        priors, states = _draw_states(rng, dim, n_states)
        elements = _draw_povm(rng, dim, n_elements)
        inputs = (priors, states, elements)
        assert all(a.flags.c_contiguous for a in inputs)
        dual = transform_stack(*inputs)
        for k in range(3):
            for other in _layouts(inputs[k]):
                moved = inputs[:k] + (other,) + inputs[k + 1:]
                assert _same_dual(transform_stack(*moved), dual)
    for group in random_corpus(count=40):
        dual = transform_stack(*group)
        assert _same_dual(transform_stack(*(np.asfortranarray(a) for a in group)), dual)


def test_the_unbiased_construction_is_the_same_in_any_memory_layout():
    for group in unbiased_corpus(seed=11, count=30):
        dual = unbiased_stack(*group)
        for k in range(3):
            for other in _layouts(group[k]):
                moved = group[:k] + (other,) + group[k + 1:]
                assert _same_dual(unbiased_stack(*moved), dual)
