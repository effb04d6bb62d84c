import math

import numpy as np
import pytest

from retrodictor.ensembles import (
    DensityOperator,
    Ensemble,
    Povm,
    PureState,
    source_from_ensemble,
)
from retrodictor.errors import (
    DimensionMismatch,
    NumericIntegrityError,
    SingularOperator,
    ZeroProbabilityOutcome,
)
from retrodictor.linalg import dag, hermitian_eig, maxabs, min_eigenvalue, outer
from retrodictor.retrodiction import (
    bayes_table,
    joint_probability_table,
    joint_table,
    unbiased_dual,
    outcome_probs,
    predictive_prob,
    retro_transform,
    retrodictive_prob_bayes,
    retrodictive_prob_symmetric,
    transform_stack,
)
from retrodictor.ud import (
    UdInstance,
    optimal_dual,
    optimal_predictive_povm,
    retro_basis,
    ud_ensemble,
)
from retrodictor.verify import (
    _draw_povm,
    _draw_states,
    _rng,
    corpus_pairs,
    random_corpus,
    random_ensemble,
    random_povm,
    unbiased_corpus,
)


def projective_povm(dim=2):
    return Povm(tuple(np.diag([1.0 if k == j else 0.0 for k in range(dim)]) for j in range(dim)))


def test_predictive_prob_examples():
    zero = DensityOperator(np.diag([1.0, 0.0]))
    mixed = DensityOperator(np.eye(2) / 2)
    projector = np.diag([1.0, 0.0])
    assert predictive_prob(projector, zero) == 1.0
    assert abs(predictive_prob(projector, mixed) - 0.5) < 1e-14


def test_predictive_prob_ud_condition_is_exact_zero():
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    povm = optimal_predictive_povm(inst).povm
    ensemble = ud_ensemble(inst)
    assert predictive_prob(povm.elements[0], ensemble.states[1]) < 1e-15
    assert predictive_prob(povm.elements[1], ensemble.states[0]) < 1e-15


def test_predictive_prob_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        predictive_prob(np.eye(3), DensityOperator(np.eye(2) / 2))


def test_outcome_probs_two_element_split():
    rng = np.random.default_rng(3)
    ensemble = random_ensemble(rng, 2, 2)
    omega = source_from_ensemble(ensemble)
    p = np.array([[0.7, 0.1], [0.1, 0.2]])
    povm = Povm((p, np.eye(2) - p))
    mu = outcome_probs(povm, omega)
    direct = float(np.trace(p @ omega.matrix).real)
    assert abs(mu[0] - direct) < 1e-14
    assert abs(mu[1] - (1.0 - direct)) < 1e-14


def test_outcome_probs_unbiased_projective_is_uniform():
    up = PureState(np.array([1.0, 0.0]))
    down = PureState(np.array([0.0, 1.0]))
    ensemble = Ensemble.from_pure_states([up, down], np.array([0.5, 0.5]))
    mu = outcome_probs(projective_povm(), source_from_ensemble(ensemble))
    assert np.allclose(mu.mu, [0.5, 0.5], atol=1e-14)


def test_outcome_probs_optimal_ud_weights():
    # mu_i = eta_i - sqrt(eta_1 eta_2) s = 1/4 at eta = 1/2, s = 1/2; mu_0 = 1/2.
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    mu = outcome_probs(optimal_predictive_povm(inst).povm, source_from_ensemble(ud_ensemble(inst)))
    assert np.allclose(mu.mu, [0.25, 0.25, 0.5], atol=1e-12)


def test_bayes_orthogonal_matching_projectors():
    up = PureState(np.array([1.0, 0.0]))
    down = PureState(np.array([0.0, 1.0]))
    ensemble = Ensemble.from_pure_states([up, down], np.array([0.3, 0.7]))
    assert abs(retrodictive_prob_bayes(ensemble, projective_povm(), 0, 0) - 1.0) < 1e-14
    assert retrodictive_prob_bayes(ensemble, projective_povm(), 1, 0) < 1e-14


def test_bayes_matches_unbiased_construction():
    ensemble, povm = corpus_pairs(unbiased_corpus(seed=11, count=1))[0]
    dual = unbiased_dual(ensemble, povm)
    for i in range(len(ensemble)):
        for j in range(len(povm)):
            bayes = retrodictive_prob_bayes(ensemble, povm, i, j)
            born = retrodictive_prob_symmetric(dual, i, j)
            assert abs(bayes - born) < 1e-10


def test_bayes_matches_symmetric_random_d3():
    rng = np.random.default_rng(17)
    ensemble = random_ensemble(rng, 3, 3)
    povm = random_povm(rng, 3, 4)
    dual = retro_transform(ensemble, povm)
    for i in range(len(ensemble)):
        for j in range(len(povm)):
            assert abs(
                retrodictive_prob_bayes(ensemble, povm, i, j)
                - retrodictive_prob_symmetric(dual, i, j)
            ) < 1e-10


def test_transform_reduces_to_unbiased_construction():
    ensemble, povm = corpus_pairs(unbiased_corpus(seed=21, count=1))[0]
    dual = retro_transform(ensemble, povm)
    ref = unbiased_dual(ensemble, povm)
    for a, b in zip(dual.retro_povm.elements, ref.retro_povm.elements):
        assert maxabs(a - b) < 1e-10
    for a, b in zip(dual.retro_states, ref.retro_states):
        assert maxabs(a.matrix - b.matrix) < 1e-10


def test_transform_ud_retro_povm_is_basis_projectors():
    inst = UdInstance(math.pi / 6, (0.6, 0.4))
    dual = retro_transform(ud_ensemble(inst), optimal_predictive_povm(inst).povm)
    basis = retro_basis(inst)
    assert maxabs(dual.retro_povm.elements[0] - basis.phi1.projector()) < 1e-12
    assert maxabs(dual.retro_povm.elements[1] - basis.phi2.projector()) < 1e-12


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
    dual = retro_transform(ud_ensemble(inst), optimal_predictive_povm(inst).povm)
    assert retrodictive_prob_symmetric(dual, 0, 1) < 1e-12
    assert retrodictive_prob_symmetric(dual, 1, 0) < 1e-12
    assert abs(retrodictive_prob_symmetric(dual, 0, 0) - 1.0) < 1e-12
    assert abs(retrodictive_prob_symmetric(dual, 1, 1) - 1.0) < 1e-12


def test_symmetry_property_over_seeded_corpus():
    worst = 0.0
    for ensemble, povm in corpus_pairs(random_corpus(seed=301, count=60)):
        dual = retro_transform(ensemble, povm)
        for i in range(len(ensemble)):
            for j in range(len(povm)):
                worst = max(
                    worst,
                    abs(
                        retrodictive_prob_bayes(ensemble, povm, i, j)
                        - retrodictive_prob_symmetric(dual, i, j)
                    ),
                )
    assert worst < 1e-9


def test_double_dual_shares_the_source():
    rng = np.random.default_rng(31)
    ensemble = random_ensemble(rng, 3, 3)
    povm = random_povm(rng, 3, 3)
    dual = retro_transform(ensemble, povm)
    back_ensemble = Ensemble(tuple(dual.retro_states), dual.mu.mu)
    assert maxabs(source_from_ensemble(back_ensemble).matrix - dual.omega.matrix) < 1e-10
    back = retro_transform(back_ensemble, dual.retro_povm)
    for j in range(len(povm)):
        assert maxabs(back.retro_povm.elements[j] - povm.elements[j]) < 1e-9
    for i in range(len(ensemble)):
        assert maxabs(back.retro_states[i].matrix - ensemble.states[i].matrix) < 1e-9


def test_tiny_outcome_probability_keeps_unit_trace():
    # An outcome with probability ~1e-8 still yields a unit-trace retro state.
    eps = 1e-8
    povm = Povm((np.diag([1.0 - eps, 0.0]), np.diag([eps, 1.0])))
    state = DensityOperator(np.eye(2) / 2)
    ensemble = Ensemble((state,), np.array([1.0]))
    dual = retro_transform(ensemble, povm)
    assert dual.trace_residual() < 1e-12
    assert dual.source_residual() < 1e-12
    assert abs(retrodictive_prob_symmetric(dual, 0, 1) - 1.0) < 1e-10


def test_transform_identities_at_dimension_six():
    # Above the acceptance dims but inside the solver's supported range.
    rng = np.random.default_rng(61)
    ensemble = random_ensemble(rng, 6, 4)
    povm = random_povm(rng, 6, 4)
    dual = retro_transform(ensemble, povm)
    assert dual.completeness_residual() < 1e-10
    assert dual.trace_residual() < 1e-10
    assert dual.source_residual() < 1e-10
    for i in range(4):
        for j in range(4):
            assert abs(
                retrodictive_prob_bayes(ensemble, povm, i, j)
                - retrodictive_prob_symmetric(dual, i, j)
            ) < 1e-9


def test_zero_prior_state_flows_through_transform():
    rng = np.random.default_rng(43)
    states = tuple(random_ensemble(rng, 2, 3).states)
    ensemble = Ensemble(states, np.array([0.6, 0.4, 0.0]))
    povm = random_povm(rng, 2, 3)
    dual = retro_transform(ensemble, povm)
    assert dual.completeness_residual() < 1e-12
    assert maxabs(dual.retro_povm.elements[2]) < 1e-12  # zero prior, zero element
    for j in range(len(povm)):
        assert retrodictive_prob_symmetric(dual, 2, j) < 1e-12
        assert retrodictive_prob_bayes(ensemble, povm, 2, j) < 1e-12


def test_zero_probability_outcome_raises_in_bayes():
    state = DensityOperator(np.eye(2) / 2)
    ensemble = Ensemble((state,), np.array([1.0]))
    povm = Povm((np.eye(2), np.zeros((2, 2))))
    with pytest.raises(ZeroProbabilityOutcome):
        retrodictive_prob_bayes(ensemble, povm, 0, 1)


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


def test_per_pair_views_of_a_stacked_dual_raise():
    rng = _rng(5)
    dual = transform_stack(*_draw_states(rng, 2, 4, (2,)), _draw_povm(rng, 2, 2, (2,)))
    assert dual.povm_stack.shape == (2, 4, 2, 2)
    for view in ("retro_povm", "retro_states", "omega"):
        with pytest.raises(ValueError, match="is a stack"):
            getattr(dual, view)


def test_per_instance_views_of_a_ud_batch_raise():
    batch = UdInstance.from_overlap([0.5, 0.3], [[0.5, 0.7], [0.5, 0.3]])
    views = {
        "phi1": retro_basis(batch),
        "rho0_ret": optimal_dual(batch),
        "povm": optimal_predictive_povm(batch),
    }
    for view, owner in views.items():
        with pytest.raises(ValueError, match="is a stack"):
            getattr(owner, view)


def test_zero_probability_outcome_flagged_in_transform():
    state = DensityOperator(np.eye(2) / 2)
    ensemble = Ensemble((state,), np.array([1.0]))
    povm = Povm((np.eye(2), np.zeros((2, 2))))
    dual = retro_transform(ensemble, povm)
    assert dual.retro_states[1] is None
    assert dual.retro_states[0] is not None
    with pytest.raises(ZeroProbabilityOutcome):
        retrodictive_prob_symmetric(dual, 0, 1)
    # identities still hold over the defined states
    assert dual.source_residual() < 1e-12


def test_singular_source_raises_without_opt_in():
    pure = DensityOperator(np.diag([1.0, 0.0]))
    ensemble = Ensemble((pure, pure), np.array([0.5, 0.5]))
    with pytest.raises(SingularOperator):
        retro_transform(ensemble, projective_povm())


def test_support_restricted_transform_on_singular_source():
    pure = DensityOperator(np.diag([1.0, 0.0]))
    ensemble = Ensemble((pure, pure), np.array([0.5, 0.5]))
    dual = retro_transform(ensemble, projective_povm(), support_restricted=True)
    support = np.diag([1.0, 0.0])
    assert maxabs(sum(dual.retro_povm.elements) - support) < 1e-12
    assert dual.source_residual() < 1e-12
    assert dual.retro_states[1] is None  # the orthogonal outcome never clicks


def test_negative_input_eigenvalue_cannot_leak_into_retro_povm():
    # The state's eigenvalue -5e-11 passes validation; with Omega's smaller
    # eigenvalue at 2e-5 (above the floor) it becomes -1.25e-6 in Pi_1^ret,
    # which only the retrodictive POVM's own PSD check rejects.
    leaky = DensityOperator(np.diag([1.0 + 5e-11, -5e-11]))
    partner = DensityOperator(np.diag([1.0 - 4e-5 - 5e-11, 4e-5 + 5e-11]))
    ensemble = Ensemble((leaky, partner), np.array([0.5, 0.5]))
    omega = source_from_ensemble(ensemble)
    assert abs(min_eigenvalue(omega.matrix) - 2e-5) < 1e-15
    with pytest.raises(NumericIntegrityError):
        retro_transform(ensemble, projective_povm())


def test_probability_clamp_rejects_gross_violations():
    with pytest.raises(NumericIntegrityError):
        predictive_prob(2.0 * np.eye(2), DensityOperator(np.eye(2) / 2))


def test_outer_probabilities_clamped_within_tolerance():
    # A value 1 + 5e-13 inside the window clamps to exactly 1.
    state = DensityOperator(np.eye(2) / 2)
    assert predictive_prob((2.0 + 1e-12) * np.eye(2) / 2, state) == 1.0


def test_stacked_expressions_match_their_loops():
    # The loops are the per-element definitions the stacks replaced.  Source and
    # retrodictive POVM keep their arithmetic, so they agree bit for bit; the
    # joint table's einsum sums in another order, so it gets a roundoff bound
    # of d^2 unit roundoffs (entries of magnitude <= 1, d <= 4), and Bayes that
    # bound twice over the smallest column sum.
    for ensemble, povm in corpus_pairs(random_corpus(count=30)):
        pairs = list(zip(ensemble.priors, ensemble.states))
        omega = sum(eta * s.matrix for eta, s in pairs)
        assert np.array_equal(source_from_ensemble(ensemble).matrix, omega)

        inv_root = hermitian_eig(omega).inv_sqrt()
        loop = [inv_root @ (float(eta) * s.matrix) @ inv_root for eta, s in pairs]
        loop = np.array([(e + dag(e)) / 2.0 for e in loop])
        assert np.array_equal(retro_transform(ensemble, povm).retro_povm.elements, loop)

        joint = np.array([
            [float(eta) * float(np.einsum("ij,ji->", e, s.matrix).real) for e in povm.elements]
            for eta, s in pairs
        ])
        table = joint_probability_table(ensemble, povm)
        eps = np.finfo(float).eps
        assert maxabs(table - joint) <= 16 * eps
        mu = joint.sum(axis=0)
        assert maxabs(bayes_table(table, np.ones(len(povm), dtype=bool)) - joint / mu) <= 32 * eps / mu.min()
