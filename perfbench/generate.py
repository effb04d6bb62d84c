"""Seeded inputs for the benchmark, built with numpy alone.

The program under test only ever sees the JSON files and argv made here; none
of its constructors run while inputs are generated, so no validation work is
hidden in the generator.
"""

from __future__ import annotations

import json
import math

import numpy as np

TRANSFORM_DIMS = (2, 4, 8)
# Smallest eigenvalue of the source, drawn log-uniformly over three decades.
# 1e-4 keeps well clear of the 1e-10 singular floor and of the known failure
# zone just above it, so every generated transform succeeds.
OMEGA_MIN_EIG_RANGE = (1e-4, 1e-1)
# (eta_max, overlap) range of the UD instances: the region the `ud` verify
# suite covers, split evenly between the interior and the clamped regime.
ETA_MAX_RANGE = (0.5, 0.98)
OVERLAP_RANGE = (0.02, 0.95)
CLAMPED_MIN_OVERLAP = 0.3
GRID_STEP = "1e-4"


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream): both go into the Philox key."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _spectral(matrix: np.ndarray, f) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    out = (v * f(w)) @ v.conj().T
    return (out + out.conj().T) / 2.0


def random_povm(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """Full-rank Ginibre operators normalized by the inverse root of their sum."""
    mats = [g @ g.conj().T for g in (_ginibre(rng, dim, dim) for _ in range(count))]
    inv_root = _spectral(sum(mats), lambda w: 1.0 / np.sqrt(w))
    return [(e + e.conj().T) / 2.0 for e in (inv_root @ m @ inv_root for m in mats)]


def random_ensemble(
    rng: np.random.Generator, dim: int, count: int, min_eig: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """States and priors whose source has smallest eigenvalue min_eig.

    The source Omega = U diag(w) U^dag is fixed first; a random POVM {E_i}
    splits it as eta_i rho_i = sqrt(Omega) E_i sqrt(Omega).
    """
    rest = min_eig + rng.dirichlet(np.ones(dim - 1)) * (1.0 - dim * min_eig)
    w = np.concatenate([[min_eig], rest])
    u, _ = np.linalg.qr(_ginibre(rng, dim, dim))
    root = (u * np.sqrt(w)) @ u.conj().T
    states, weights = [], []
    for e in random_povm(rng, dim, count):
        a = root @ e @ root
        a = (a + a.conj().T) / 2.0
        weight = float(np.trace(a).real)
        states.append(a / weight)
        weights.append(weight)
    priors = np.array(weights)
    return states, priors / priors.sum()


def _rows(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def ensemble_doc(states: list[np.ndarray], priors: np.ndarray) -> dict:
    return {
        "dim": int(states[0].shape[0]),
        "states": [_rows(s) for s in states],
        "priors": [float(p) for p in priors],
    }


def povm_doc(elements: list[np.ndarray]) -> dict:
    return {"dim": int(elements[0].shape[0]), "elements": [_rows(e) for e in elements]}


def write_doc(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def transform_pair(rng: np.random.Generator, dim: int) -> tuple[dict, dict]:
    """Ensemble and POVM documents: 2-6 states, 2-6 elements."""
    lo, hi = OMEGA_MIN_EIG_RANGE
    min_eig = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    states, priors = random_ensemble(rng, dim, int(rng.integers(2, 7)), min_eig)
    povm = random_povm(rng, dim, int(rng.integers(2, 7)))
    return ensemble_doc(states, priors), povm_doc(povm)


def ud_parameters(rng: np.random.Generator, clamped: bool) -> tuple[float, float]:
    """(eta_1, overlap) in the clamped or the interior regime, either prior order."""
    s_lo, s_hi = OVERLAP_RANGE
    e_lo, e_hi = ETA_MAX_RANGE
    if clamped:
        s = float(rng.uniform(CLAMPED_MIN_OVERLAP, s_hi))
        boundary = 1.0 / (1.0 + s * s)
        eta_max = float(rng.uniform(boundary + 1e-3, e_hi))
    else:
        s = float(rng.uniform(s_lo, s_hi))
        boundary = 1.0 / (1.0 + s * s)
        eta_max = float(rng.uniform(e_lo, min(boundary, e_hi) - 1e-3))
    eta1 = eta_max if rng.random() < 0.5 else 1.0 - eta_max
    return eta1, s


def simulate_pair(rng: np.random.Generator) -> tuple[dict, dict]:
    """The D = 8 simulate input: 6 states and 8 outcomes (48 cells)."""
    states, priors = random_ensemble(rng, 8, 6, 1e-2)
    return ensemble_doc(states, priors), povm_doc(random_povm(rng, 8, 8))


def load_pair(ensemble_path: str, povm_path: str) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """Read an ensemble/POVM pair back as arrays (pure-state entries expanded)."""

    def matrix(rows) -> np.ndarray:
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    with open(ensemble_path, encoding="utf-8") as fh:
        ens = json.load(fh)
    with open(povm_path, encoding="utf-8") as fh:
        povm = json.load(fh)
    states = []
    for entry in ens["states"]:
        if isinstance(entry, dict):
            v = np.array([complex(re, im) for re, im in entry["vector"]])
            states.append(np.outer(v, v.conj()))
        else:
            states.append(matrix(entry))
    return states, np.array(ens["priors"], dtype=float), [matrix(e) for e in povm["elements"]]


def joint_probabilities(states, priors, elements) -> np.ndarray:
    """p[i, j] = eta_i Tr(Pi_j rho_i), computed independently of the program."""
    return np.array(
        [[p * float(np.trace(e @ s).real) for e in elements] for s, p in zip(states, priors)]
    )
