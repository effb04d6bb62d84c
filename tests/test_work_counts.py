"""Each derived object of the source is built once per use.

Work is counted by wrapping a function in every retrodictor module that binds
it, so the program carries no counting hooks.
"""

import sys

import numpy as np
import pytest

from retrodictor import linalg, ud
from retrodictor.channel import no_signaling_check
from retrodictor.ensembles import DensityOperator, Ensemble, Povm
from retrodictor.retrodiction import retro_transform
from retrodictor.verify import checks_for_channel, checks_for_ud, random_corpus


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name wherever a retrodictor module binds it; return the list of calls."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "retrodictor" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _transform_inputs():
    pairs = random_corpus(count=6)
    # One outcome that never clicks: its retrodictive state is undefined.
    mixed = DensityOperator(np.eye(2) / 2.0)
    pairs.append((Ensemble((mixed,), np.array([1.0])), Povm((np.eye(2), np.zeros((2, 2))))))
    return pairs


def test_transform_diagonalises_the_source_once(monkeypatch):
    pairs = _transform_inputs()
    calls = count_calls(monkeypatch, linalg, "hermitian_eig")
    for ensemble, povm in pairs:
        calls.clear()
        dual = retro_transform(ensemble, povm)
        defined = sum(s is not None for s in dual.retro_states)
        # Omega's validation, its one spectrum, then one validation per
        # retrodictive POVM element and per defined retrodictive state.
        assert len(calls) == 2 + len(ensemble) + defined


UD_INSTANCES = [
    ud.UdInstance.from_overlap(0.3, (0.5, 0.5)),  # interior
    ud.UdInstance.from_overlap(0.6, (0.9, 0.1)),  # clamped
]


@pytest.mark.parametrize("inst", UD_INSTANCES)
def test_ud_checks_build_one_retro_basis(monkeypatch, inst):
    calls = count_calls(monkeypatch, ud, "retro_basis")
    checks_for_ud(inst, ud.optimal_dual(inst), ud.optimal_predictive_povm(inst))
    assert len(calls) == 1


@pytest.mark.parametrize("inst", UD_INSTANCES)
def test_channel_checks_build_one_retro_basis(monkeypatch, inst):
    calls = count_calls(monkeypatch, ud, "retro_basis")
    checks_for_channel(inst, no_signaling_check(inst))
    assert len(calls) == 1
