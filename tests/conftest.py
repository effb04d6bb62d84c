"""Seeded pairs built one at a time as validated Ensemble and Povm values.

The package computes on stacks; tests that want one pair as the input types
build it here, from the same block drawers the verification corpus uses.
Ensemble files with {"pure": true} vector entries are built here too.
"""

import numpy as np

from retrodictor.ensembles import Ensemble, Povm
from retrodictor.formats import matrix_to_rows
from retrodictor.verify import _draw_povm, _draw_states


def random_povm(rng: np.random.Generator, dim: int, n_elements: int) -> Povm:
    """Random POVM: normalize a set of Ginibre PSD operators by their sum."""
    return Povm(_draw_povm(rng, dim, n_elements))


def random_ensemble(rng: np.random.Generator, dim: int, n_states: int) -> Ensemble:
    """Random Ginibre states with random priors (each at least 0.1 before normalising)."""
    priors, states = _draw_states(rng, dim, n_states)
    return Ensemble(states, priors)


def strip(priors, states, elements):
    """One padded corpus pair as drawn: without its states at prior 0 and its zero POVM elements."""
    return priors[priors > 0], states[priors > 0], elements[elements.any(axis=(-2, -1))]


def corpus_pairs(stacks) -> list[tuple[Ensemble, Povm]]:
    """Each pair of each stack of a corpus, in order, stripped of its padding and built as an Ensemble and a Povm."""
    return [(Ensemble(s, p), Povm(e)) for stack in stacks for p, s, e in (strip(*pair) for pair in zip(*stack))]


def pure_ensemble_payload(vectors, priors) -> dict:
    """An ensemble file document with one {"pure": true} entry per state vector (the rows of vectors)."""
    vectors = np.asarray(vectors, dtype=complex)
    return {
        "dim": vectors.shape[-1],
        "states": [{"pure": True, "vector": matrix_to_rows(v)} for v in vectors],
        "priors": [float(p) for p in priors],
    }
