"""The source-floor contract of linalg.MIN_EIG_DEFAULT.

A source whose smallest eigenvalue clears the floor gives a dual on which
every identity holds at its fixed tolerance; one below it raises
SingularOperator, never NumericIntegrityError or ValidationError, also in
support_restricted mode.  The inputs come from verify.floor_sweep, which the
failure-modes suite's source-floor-contract check also runs.
"""

import pytest

from retrodictor import linalg
from retrodictor.channel import no_signaling_check
from retrodictor.cli import main
from retrodictor.ensembles import DensityOperator, Ensemble, Povm
from retrodictor.errors import SingularOperator
from retrodictor.formats import ensemble_to_payload, povm_to_payload, write_json
from retrodictor.retrodiction import retro_transform
from retrodictor.ud import omega_closed_form, optimal_dual, optimal_predictive_povm
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
TRANSFORMS, UDS = floor_sweep()


def pairs_at(dim, min_eig):
    """The sweep's pairs at one dimension and level, built as an Ensemble and a Povm."""
    return [
        (Ensemble(tuple(map(DensityOperator, states)), priors), Povm(elements))
        for m, priors, states, elements in TRANSFORMS
        if m == min_eig and states.shape[-1] == dim
    ]


def test_sweep_levels_bracket_the_floor():
    assert FLOOR == 1e-5
    assert FLOOR_SWEEP_ABOVE == (1.05 * FLOOR, 10.0 * FLOOR)
    assert FLOOR_SWEEP_BELOW == (0.5 * FLOOR, 1e-7, 1e-9)
    for min_eig, priors, states, _ in TRANSFORMS:
        source = sum(eta * s for eta, s in zip(priors, states))
        assert abs(linalg.min_eigenvalue(source) - min_eig) < 1e-6 * min_eig
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
    checks = checks_for_ud(
        inst, optimal_dual(inst), optimal_predictive_povm(inst)
    ) + checks_for_channel(inst, no_signaling_check(inst))
    assert [c for c in checks if not c.passed] == []


@pytest.mark.parametrize("w2, inst", [c for c in UDS if c[0] < FLOOR])
def test_ud_below_floor_raises_singular(w2, inst):
    with pytest.raises(SingularOperator):
        optimal_dual(inst)


def test_cli_transform_below_floor_exits_2(tmp_path):
    (ensemble, povm), *_ = pairs_at(3, 1e-7)
    ens_path, povm_path = tmp_path / "ensemble.json", tmp_path / "povm.json"
    write_json(ensemble_to_payload(ensemble), str(ens_path))
    write_json(povm_to_payload(povm), str(povm_path))
    assert main(["transform", str(ens_path), str(povm_path)]) == 2
