"""Each derived object of the source is built once per use, each operator stack
is validated once, and the transform checks read whole probability tables.

Work is counted by wrapping a function in every retrodictor module that binds
it, so the program carries no counting hooks.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import corpus_pairs
from retrodictor import ensembles, linalg, retrodiction, sim, ud, verify
from retrodictor.channel import no_signaling_check
from retrodictor.cli import main
from retrodictor.ensembles import Ensemble, Povm, validate_ensemble, validate_povm
from retrodictor.formats import parse_ensemble_file, parse_povm_file, povm_to_payload, write_json
from retrodictor.retrodiction import retro_transform
from retrodictor.verify import (
    checks_for_channel,
    checks_for_transform,
    checks_for_ud,
    random_corpus,
)

SAMPLE_INPUTS = Path(__file__).resolve().parent.parent / "sample_inputs"


def wrap(monkeypatch, owner, name, record):
    """Wrap owner.name on owner and wherever a retrodictor module binds it.

    record(args, result) is called after each call.
    """
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        result = original(*args, **kwargs)
        record(args, result)
        return result

    rebind(monkeypatch, owner, name, wrapped)


def rebind(monkeypatch, owner, name, replacement):
    """Replace owner.name on owner and wherever a retrodictor module binds it."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, replacement)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "retrodictor" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def count_calls(monkeypatch, owner, name):
    """The list of owner.name's call arguments, filled as the calls happen."""
    calls = []
    wrap(monkeypatch, owner, name, lambda args, result: calls.append(args))
    return calls


def count_started_calls(monkeypatch, owner, name):
    """The list of owner.name's call arguments, filled as the calls begin, so the raising ones count too."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    rebind(monkeypatch, owner, name, counted)
    return calls


def omega_diagonalisations(monkeypatch):
    """A counter of hermitian_eig calls on an array that ud.omega_matrix returned.

    Matched by identity, so a transform's own source (summed from the
    ensemble, bit-equal to omega_matrix for equal priors) is not counted.
    """
    omegas = []
    wrap(monkeypatch, ud, "omega_matrix", lambda args, result: omegas.append(result))
    eigs = count_calls(monkeypatch, linalg, "hermitian_eig")
    return lambda: sum(any(args[0] is om for om in omegas) for args in eigs)


def _transform_inputs():
    pairs = corpus_pairs(random_corpus(count=6))
    # One outcome that never clicks: its retrodictive state is undefined.
    pairs.append((Ensemble((np.eye(2) / 2.0,), np.array([1.0])), Povm((np.eye(2), np.zeros((2, 2))))))
    return pairs


def test_transform_diagonalises_the_source_once(monkeypatch):
    pairs = _transform_inputs()
    calls = count_calls(monkeypatch, linalg, "hermitian_eig")
    for ensemble, povm in pairs:
        calls.clear()
        retro_transform(ensemble, povm)
        # Omega's one spectrum; validation reads eigenvalues only.
        assert len(calls) == 1


def test_validation_computes_no_eigenvectors(monkeypatch):
    pairs = _transform_inputs()
    calls = count_calls(monkeypatch, linalg, "hermitian_eig")
    for ensemble, povm in pairs:
        assert validate_ensemble(ensemble.matrices, ensemble.priors).ok
        assert validate_povm(povm.elements).ok
        Ensemble(ensemble.matrices, ensemble.priors)
        Povm(povm.elements)
    assert not calls


def test_parsed_povm_is_validated_once(monkeypatch, tmp_path):
    path = tmp_path / "povm.json"
    write_json(povm_to_payload(_transform_inputs()[0][1]), str(path))
    calls = count_calls(monkeypatch, ensembles, "validate_povm")
    parse_povm_file(str(path))
    assert len(calls) == 1


def psd_gates(monkeypatch):
    """The argument lists of the PSD check's Cholesky gates (a failing one too) and of its eigvalsh runs."""
    return count_started_calls(monkeypatch, np.linalg, "cholesky"), count_calls(monkeypatch, np.linalg, "eigvalsh")


def shifted(stack):
    """A Hermitian stack as the PSD gate factors it: shifted by PSD_TOL I."""
    return stack + ensembles.PSD_TOL * np.eye(stack.shape[-1])


def test_parsed_ensemble_is_validated_once(monkeypatch):
    # One validate_ensemble over the state stack: its priors once, its states as one Cholesky gate.
    ensemble_calls = count_calls(monkeypatch, ensembles, "validate_ensemble")
    states = count_calls(monkeypatch, ensembles, "validate_density_matrix")
    priors = count_calls(monkeypatch, ensembles, "validate_priors")
    cholesky, eigvalsh = psd_gates(monkeypatch)
    ensemble = parse_ensemble_file(str(SAMPLE_INPUTS / "ud_ensemble.json"))
    assert len(ensemble) == 2
    assert (len(ensemble_calls), len(states), len(priors)) == (1, 0, 1)
    assert [args[0].shape for args in cholesky] == [(2, 2, 2)]
    assert np.array_equal(cholesky[0][0], shifted(ensemble.matrices))
    assert not eigvalsh


def test_ud_ensemble_is_validated_once(monkeypatch):
    # The two projectors are validated as one (2, 2, 2) stack; the state vectors are not validated apart.
    ensemble_calls = count_calls(monkeypatch, ensembles, "validate_ensemble")
    vectors = count_calls(monkeypatch, ensembles, "validate_state_vector")
    cholesky, eigvalsh = psd_gates(monkeypatch)
    ensemble = ud.ud_ensemble(ud.UdInstance.from_overlap([0.4], [[0.7], [0.3]]))
    assert len(ensemble) == 2
    assert (len(ensemble_calls), len(vectors)) == (1, 0)
    assert [args[0].shape for args in cholesky] == [(2, 2, 2)]
    assert not eigvalsh


def test_povm_validation_is_one_cholesky(monkeypatch):
    pairs = _transform_inputs()
    cholesky, eigvalsh = psd_gates(monkeypatch)
    for _, povm in pairs:
        cholesky.clear()
        assert validate_povm(povm.elements).ok
        assert len(cholesky) == 1
        assert np.array_equal(cholesky[0][0], shifted(povm.elements))
    assert not eigvalsh


def test_a_failing_stack_runs_one_eigvalsh_after_its_cholesky(monkeypatch):
    # Only a stack that fails the gate is decomposed, once, to name the failing matrices.
    cholesky, eigvalsh = psd_gates(monkeypatch)
    report = validate_povm([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])
    assert [v.check for v in report.violations] == ["psd"]
    assert [args[0].shape for args in cholesky] == [args[0].shape for args in eigvalsh] == [(2, 2, 2)]


def test_transform_checks_read_two_tables(monkeypatch):
    # Per pair: Bayes on the joint table of the predictive pair (one born_table
    # inside joint_table) and Born's rule on the retrodictive pair.
    pairs = _transform_inputs()
    duals = [retro_transform(ensemble, povm) for ensemble, povm in pairs]
    born, bayes = (count_calls(monkeypatch, retrodiction, name) for name in ("born_table", "bayes_table"))
    for (ensemble, povm), dual in zip(pairs, duals):
        born.clear()
        bayes.clear()
        checks_for_transform(ensemble, povm, dual)
        assert (len(born), len(bayes)) == (2, 1)
        (states, elements), (retro_povm, retro_states) = (args[:2] for args in born)
        assert states is ensemble.matrices and elements is povm.elements
        assert retro_povm is dual.povm_stack and retro_states is dual.state_stack
        assert bayes[0][1] is dual.defined


UD_INSTANCES = [
    ud.UdInstance.from_overlap([0.3], [[0.5], [0.5]]),  # interior
    ud.UdInstance.from_overlap([0.6], [[0.9], [0.1]]),  # clamped
]


@pytest.mark.parametrize("inst", UD_INSTANCES)
def test_ud_checks_build_one_retro_basis(monkeypatch, inst):
    calls = count_calls(monkeypatch, ud, "retro_basis")
    checks_for_ud(inst, ud.optimal_dual(inst))
    assert len(calls) == 1


@pytest.mark.parametrize("inst", UD_INSTANCES)
def test_channel_checks_build_one_retro_basis(monkeypatch, inst):
    calls = count_calls(monkeypatch, ud, "retro_basis")
    checks_for_channel(inst, no_signaling_check(inst))
    assert len(calls) == 1


@pytest.mark.parametrize("inst", UD_INSTANCES)
def test_ud_checks_diagonalise_the_source_once(monkeypatch, inst):
    count = omega_diagonalisations(monkeypatch)
    checks_for_ud(inst, ud.optimal_dual(inst))
    assert count() == 1


@pytest.mark.parametrize("inst", UD_INSTANCES)
def test_channel_checks_diagonalise_the_source_once(monkeypatch, inst):
    count = omega_diagonalisations(monkeypatch)
    checks_for_channel(inst, no_signaling_check(inst))
    assert count() == 1


def test_transform_validates_with_two_cholesky_calls(monkeypatch):
    # The retrodictive POVM and one stack of the defined retrodictive states,
    # whatever the number of defined outcomes, each pass one Cholesky gate; the
    # source's PSD check reads its one spectrum, so no gate runs on it.
    pairs = _transform_inputs()
    cholesky, eigvalsh = psd_gates(monkeypatch)
    defined = set()
    for ensemble, povm in pairs:
        cholesky.clear()
        dual = retro_transform(ensemble, povm)
        defined.add(int(dual.defined.sum()))
        assert len(cholesky) == 2
        retro_povm, retro_states = (args[0] for args in cholesky)
        assert np.array_equal(retro_povm, shifted(dual.povm_stack))
        assert np.array_equal(retro_states, shifted(dual.state_stack[dual.defined]))
    assert len(defined) > 1
    assert not eigvalsh


def test_corpus_validation_does_not_grow_with_the_pair_count(monkeypatch):
    # Each dimension's states and POVMs are validated as two stacks.
    calls = count_calls(monkeypatch, ensembles, "validate_operator_stack")
    counts = {}
    for count in (100, 500):
        calls.clear()
        groups = random_corpus(count=count)
        assert len(calls) == 2 * len(groups)
        counts[count] = len(calls)
    assert counts[500] <= counts[100]


def test_corpus_priors_are_checked_once_per_shape_group(monkeypatch):
    # Each dimension's (N, PADDED_COUNT) priors are checked as one stack, not row by row.
    calls = count_calls(monkeypatch, ensembles, "validate_priors_stack")
    counts = {}
    for count in (100, 500):
        calls.clear()
        groups = random_corpus(count=count)
        assert len(calls) == len(groups)
        counts[count] = len(calls)
    assert counts[500] <= counts[100]


def test_unbiased_corpus_validates_each_shape_group_once(monkeypatch):
    # Per dimension, the one shape (d, PADDED_COUNT, d) of its stack: its priors as one stack,
    # its states and POVMs as two operator stacks.
    operators = count_calls(monkeypatch, ensembles, "validate_operator_stack")
    priors = count_calls(monkeypatch, ensembles, "validate_priors_stack")
    for count in (60, 600):
        operators.clear()
        priors.clear()
        groups = verify.unbiased_corpus(verify.DEFAULT_SEED + 1, count)
        assert len(groups) == len(verify.CORPUS_DIMS)
        assert (len(operators), len(priors)) == (2 * len(groups), len(groups))
        assert [len(args[0]) for args in priors] == [len(p) for p, _, _ in groups]


def more_floor_levels(mp, repeat):
    """Each floor-sweep level repeat times over."""
    mp.setattr(verify, "FLOOR_SWEEP_ABOVE", verify.FLOOR_SWEEP_ABOVE * repeat)
    mp.setattr(verify, "FLOOR_SWEEP_BELOW", verify.FLOOR_SWEEP_BELOW * repeat)


def test_floor_sweep_validation_does_not_grow_with_the_pair_count(monkeypatch):
    # Per dimension: its states, splitting POVMs and POVMs as one stack each, whatever the pair count.
    calls = count_calls(monkeypatch, ensembles, "validate_operator_stack")
    for repeat in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            more_floor_levels(mp, repeat)
            calls.clear()
            transforms, _ = verify.floor_sweep()
            assert sum(len(levels) for levels, *_ in transforms) == 60 * repeat
            assert len(calls) == 3 * len(verify.FLOOR_SWEEP_DIMS)


def test_the_floor_contract_transforms_each_stack_at_most_twice(monkeypatch):
    # Each dimension's stack, then its rows above the floor; the UD stack transforms only
    # its rows above the floor (its closed form raises first on the whole stack).
    # Calls are counted as they begin, the raising ones too.
    calls = count_started_calls(monkeypatch, retrodiction, "transform_stack")
    for repeat in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            more_floor_levels(mp, repeat)
            calls.clear()
            assert verify._floor_contract_breaches() == 0.0
            assert len(calls) == 2 * len(verify.FLOOR_SWEEP_DIMS) + 1


def test_ud_suite_runs_the_grid_oracle_once_per_grid_slice(monkeypatch):
    calls = count_calls(monkeypatch, ud, "brute_force_dual")
    assert verify.suite_ud().passed
    assert len(calls) == len(verify._grid_slices()) > 1
    assert sum(len(x) for x, _ in calls) == len(verify.grid_instances())


def test_transform_suite_transforms_once_per_shape_group(monkeypatch):
    # Each dimension's stack is one shape: the corpus, its double dual and the
    # unbiased corpus take one transform each per dimension, and the unbiased
    # reduction one unbiased_stack; the pair count does not matter.
    calls = count_calls(monkeypatch, retrodiction, "transform_stack")
    unbiased = count_calls(monkeypatch, retrodiction, "unbiased_stack")
    for count in (100, 500):
        calls.clear()
        unbiased.clear()
        assert verify.suite_transform(count=count).passed
        assert (len(calls), len(unbiased)) == (9, 3) == (3 * len(verify.CORPUS_DIMS), len(verify.CORPUS_DIMS))


GRIDS = {
    "2x2": (np.array([0.5, 0.9]), np.array([0.3, 0.8])),
    "6x6": (np.linspace(0.5, 0.98, 6), np.linspace(0.02, 0.95, 6)),
}


@pytest.mark.parametrize("suite", ["ud", "channel"])
def test_grid_suites_diagonalise_once_per_grid(monkeypatch, suite):
    counts = {}
    for name, (eta_max, overlap) in GRIDS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "GRID_ETA_MAX", eta_max)
            mp.setattr(verify, "GRID_OVERLAP", overlap)
            eigs = count_calls(mp, linalg, "hermitian_eig")
            lapack = count_calls(mp, np.linalg, "eigh")
            assert verify.SUITES[suite]().passed
            counts[name] = (len(eigs), len(lapack))
    assert counts["2x2"] == counts["6x6"]


def test_simulate_command_builds_the_joint_table_once(monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, sim, "joint_probability_table")
    argv = ["simulate", str(SAMPLE_INPUTS / "ud_ensemble.json"), str(SAMPLE_INPUTS / "ud_povm.json"),
            "--n", "1000", "--seed", "3", "--out", str(tmp_path / "sim.json")]
    main(argv)  # exit 0 or 2, as the 3-sigma statistics fall
    assert (tmp_path / "sim.json").exists()
    assert len(calls) == 1


def test_sampler_builds_one_bit_generator_per_call(monkeypatch):
    # Each shard resets the one Philox to its own stream start instead of seeding a new one.
    calls = count_calls(monkeypatch, np.random, "Philox")
    ensemble = parse_ensemble_file(str(SAMPLE_INPUTS / "ud_ensemble.json"))
    povm = parse_povm_file(str(SAMPLE_INPUTS / "ud_povm.json"))
    counts = sim.sample(ensemble, povm, 3 * sim.SHARD_SIZE + 5, 7)
    assert counts.n_total == 3 * sim.SHARD_SIZE + 5
    assert len(calls) == 1
