"""The source-floor contract of linalg.MIN_EIG_DEFAULT.

A source whose smallest eigenvalue clears the floor gives a dual on which
every identity holds at its fixed tolerance; one below it raises
SingularOperator, never NumericIntegrityError or ValidationError, also in
support_restricted mode.  The inputs come from verify.floor_sweep, which the
failure-modes suite's source-floor-contract check also runs: one stack of
pairs per dimension and one stack of UD instances.  On a stack,
SingularOperator names exactly the rows below the floor.
"""

import math

import numpy as np
import pytest

from retrodictor import linalg
from retrodictor.channel import no_signaling_check
from retrodictor.cli import main
from retrodictor.ensembles import Ensemble, Povm
from retrodictor import verify
from retrodictor.errors import NumericIntegrityError, SingularOperator
from retrodictor.formats import ensemble_to_payload, povm_to_payload, write_json
from retrodictor.retrodiction import retro_transform, transform_stack
from retrodictor.ud import omega_closed_form, optimal_dual
from retrodictor.verify import (
    FLOOR_SWEEP_ABOVE,
    FLOOR_SWEEP_BELOW,
    FLOOR_SWEEP_DIMS,
    checks_for_channel,
    checks_for_transform,
    checks_for_ud,
    floor_sweep,
)

FLOOR = linalg.MIN_EIG_DEFAULT
STACKS, (W2, UD_STACK) = floor_sweep()
# The sweep one pair and one instance at a time: (level, priors, states, elements) and (w2, instance).
TRANSFORMS = [pair for stack in STACKS for pair in zip(*stack)]
UDS = list(zip(W2.tolist(), UD_STACK))


def pairs_at(dim, min_eig):
    """The sweep's pairs at one dimension and level, built as an Ensemble and a Povm."""
    return [
        (Ensemble(states, priors), Povm(elements))
        for m, priors, states, elements in TRANSFORMS
        if m == min_eig and states.shape[-1] == dim
    ]


def test_sweep_levels_bracket_the_floor():
    assert FLOOR == 1e-5
    assert FLOOR_SWEEP_ABOVE == (1.05 * FLOOR, 10.0 * FLOOR)
    assert FLOOR_SWEEP_BELOW == (0.5 * FLOOR, 1e-7, 1e-9)
    for min_eig, priors, states, _ in TRANSFORMS:
        source = sum(eta * s for eta, s in zip(priors, states))
        assert abs(np.linalg.eigvalsh(source)[0] - min_eig) < 1e-6 * min_eig
    for w2, inst in UDS:
        if w2 >= FLOOR:
            assert abs(omega_closed_form(inst).w2 - w2) < 1e-6 * w2


@pytest.mark.parametrize("min_eig", FLOOR_SWEEP_ABOVE)
@pytest.mark.parametrize("dim", FLOOR_SWEEP_DIMS)
def test_transform_above_floor_holds_every_identity(dim, min_eig):
    cases = pairs_at(dim, min_eig)
    assert cases
    for ensemble, povm in cases:
        checks = checks_for_transform(ensemble, povm, retro_transform(ensemble, povm))
        assert [c for c in checks if not c.passed] == []


@pytest.mark.parametrize("min_eig", FLOOR_SWEEP_BELOW)
@pytest.mark.parametrize("dim", FLOOR_SWEEP_DIMS)
def test_transform_below_floor_raises_singular(dim, min_eig):
    cases = pairs_at(dim, min_eig)
    assert cases
    for ensemble, povm in cases:
        with pytest.raises(SingularOperator):
            retro_transform(ensemble, povm)


@pytest.mark.parametrize("min_eig", FLOOR_SWEEP_ABOVE)
@pytest.mark.parametrize("dim", FLOOR_SWEEP_DIMS)
def test_support_restricted_above_floor_holds_every_identity(dim, min_eig):
    for ensemble, povm in pairs_at(dim, min_eig):
        dual = retro_transform(ensemble, povm, support_restricted=True)
        checks = checks_for_transform(ensemble, povm, dual)
        assert [c for c in checks if not c.passed] == []


@pytest.mark.parametrize("min_eig", FLOOR_SWEEP_BELOW)
@pytest.mark.parametrize("dim", FLOOR_SWEEP_DIMS)
def test_support_restricted_below_floor_raises_singular(dim, min_eig):
    # Only eigenvalues zero up to roundoff lie outside the support; a real
    # eigenvalue under the floor would leave a dual that misses its identities.
    for ensemble, povm in pairs_at(dim, min_eig):
        with pytest.raises(SingularOperator):
            retro_transform(ensemble, povm, support_restricted=True)


@pytest.mark.parametrize("w2, inst", [c for c in UDS if c[0] >= FLOOR])
def test_ud_and_channel_above_floor_hold_every_identity(w2, inst):
    checks = checks_for_ud(inst, optimal_dual(inst)) + checks_for_channel(inst, no_signaling_check(inst))
    assert [c for c in checks if not c.passed] == []


@pytest.mark.parametrize("w2, inst", [c for c in UDS if c[0] < FLOOR])
def test_ud_below_floor_raises_singular(w2, inst):
    with pytest.raises(SingularOperator):
        optimal_dual(inst)


def below_floor_rows(levels):
    return tuple((k,) for k in np.flatnonzero(np.asarray(levels) < FLOOR).tolist())


@pytest.mark.parametrize("support_restricted", [False, True])
def test_a_dimension_stack_names_exactly_its_rows_below_the_floor(support_restricted):
    assert len(STACKS) == len(FLOOR_SWEEP_DIMS)
    for levels, priors, states, elements in STACKS:
        with pytest.raises(SingularOperator) as excinfo:
            transform_stack(priors, states, elements, support_restricted)
        assert excinfo.value.rows == below_floor_rows(levels) != ()


def test_the_ud_stack_names_exactly_its_rows_below_the_floor():
    for build in (omega_closed_form, optimal_dual):
        with pytest.raises(SingularOperator) as excinfo:
            build(UD_STACK)
        assert excinfo.value.rows == below_floor_rows(W2) != ()


def test_a_singular_pair_of_a_stack_is_named():
    states = np.array([[np.eye(2) / 2.0], [np.diag([1.0 - 1e-7, 1e-7])], [np.eye(2) / 2.0]])
    elements = np.broadcast_to(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), (3, 2, 2, 2))
    with pytest.raises(SingularOperator) as excinfo:
        transform_stack(np.ones((3, 1)), states, elements)
    assert excinfo.value.rows == ((1,),)
    assert str(excinfo.value) == "eigenvalue 1.000e-07 below min_eig 1.000e-05 at stack row [1]"


def test_one_singular_operator_keeps_its_message():
    with pytest.raises(SingularOperator) as excinfo:
        linalg.inv_sqrtm_psd(np.diag([1.0 - 1e-7, 1e-7]))
    assert excinfo.value.rows == ()
    assert str(excinfo.value) == "eigenvalue 1.000e-07 below min_eig 1.000e-05"


@pytest.mark.parametrize(
    "named, values, breaches",
    [
        ([2, 3], [0.0, 0.0], 0),
        ([3], [0.0, 0.0], 1),  # a row below the floor is not named
        ([1, 2, 3], [0.0], 1),  # a row above it is named, and not run again
        ([2, 3], [0.0, math.nan], 1),  # a row above it misses its check
        ([2, 3], None, 2),  # the rows above it raise another error
    ],
)
def test_the_floor_contract_counts_each_row_that_breaks_it(named, values, breaches):
    levels = np.array([1e-4, 1e-4, 1e-7, 1e-7])

    def rows(index):
        if len(index) == len(levels):
            raise SingularOperator("below the floor", [[k] for k in named])
        if values is None:
            raise NumericIntegrityError("broken")
        assert index.tolist() == [k for k in (0, 1) if k not in named]
        return np.array(values)[:, None]

    assert verify._stack_breaches(levels, rows, (("check", 1e-10),), np.arange(len(levels))) == breaches


def test_cli_transform_below_floor_exits_2(tmp_path):
    (ensemble, povm), *_ = pairs_at(3, 1e-7)
    ens_path, povm_path = tmp_path / "ensemble.json", tmp_path / "povm.json"
    write_json(ensemble_to_payload(ensemble), str(ens_path))
    write_json(povm_to_payload(povm), str(povm_path))
    assert main(["transform", str(ens_path), str(povm_path)]) == 2
