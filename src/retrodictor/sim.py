"""Seeded Monte Carlo sampling of the prepare-and-measure channel.

`sample` builds the pair's joint table p[i, j] = eta_i Tr(Pi_j rho_i) once,
draws the counts from it, and returns the counts carrying that table
(read-only); `empirical_report(counts, ensemble)` compares the counts with it.

Counts are sampled with the counter-based Philox 4x64 generator in
fixed-size shards.  Each shard's stream is keyed by the 128-bit Philox key
whose low word is the seed and whose high word is the shard index.  Seeds are
signed 64-bit integers, in [-2**63, 2**63), the range in which the low word
(the seed in two's complement) is one-to-one, so distinct seeds never share a
stream; other seeds raise ValueError.  Each shard draws its counts with one
multinomial over the positive cells of the joint table, which has exactly the
count distribution of that many categorical draws; counts are merged in shard
order.

For fixed inputs and seed the counts are bit-reproducible on one platform
and numpy build, which the tests check.  Identical counts across platforms or
numpy builds are not claimed: the joint table (`joint_probability_table`,
from `retrodiction.joint_table`) is one `einsum`, whose summation order may
differ between builds, and numpy's multinomial sampler may change
between releases.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, Povm, require_same_dim
from .retrodiction import joint_table
from .tolerances import STAT_SIGMAS, STRUCTURAL_ZERO

RNG_ALGORITHM = "philox4x64-v3"
SHARD_SIZE = 1 << 16


@dataclass(frozen=True, eq=False)
class SampleCounts:
    """Joint tallies N[i][j] of (prepared i, outcome j), the joint table they were drawn from, and provenance."""

    n_total: int
    counts: np.ndarray
    seed: int
    table: np.ndarray
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        table = np.array(self.table, dtype=np.float64)
        if counts.shape != table.shape:
            raise ValueError(f"counts shape {counts.shape} does not match table shape {table.shape}")
        if int(counts.sum()) != self.n_total:
            raise ValueError("counts do not sum to n_total")
        for name, array in (("counts", counts), ("table", table)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def column_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def joint_probability_table(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """The joint table p[i, j] = eta_i Tr(Pi_j rho_i) of one pair, with structural zeros made exact."""
    require_same_dim(ensemble.dim, povm.dim, "ensemble vs POVM")
    table = joint_table(ensemble.priors, ensemble.matrices, povm.elements)
    table[table < STRUCTURAL_ZERO] = 0.0
    return table


def sample(ensemble: Ensemble, povm: Povm, n: int, seed: int) -> SampleCounts:
    """Sample the joint counts of n pairs from their joint table; bit-reproducible for fixed inputs and seed."""
    try:
        n, seed = operator.index(n), operator.index(seed)
    except TypeError as exc:
        raise ValueError(f"n and seed must be integers: {exc}") from None
    if n < 1:
        raise ValueError("n must be >= 1")
    if not -(1 << 63) <= seed < 1 << 63:
        raise ValueError(f"seed {seed} is outside the signed 64-bit range [-2**63, 2**63)")
    table = joint_probability_table(ensemble, povm)
    # Only positive cells take part, so a structural zero can never receive
    # the multinomial's last-category remainder.  Validation lets the table
    # sum to 1 within ~1e-10, which numpy's multinomial rejects (beyond
    # 1 + 1e-12), so the live cells are normalised.
    live = np.flatnonzero(table > 0.0)
    p = table.reshape(-1)[live]
    p /= p.sum()
    flat = np.zeros(table.size, dtype=np.int64)
    seed_word = seed & 0xFFFFFFFFFFFFFFFF  # low 64-bit word of the Philox key
    n_shards = (n + SHARD_SIZE - 1) // SHARD_SIZE
    # One generator, reset to each shard's stream start (counter 0, empty
    # buffer): the state of a fresh Philox(key=seed_word | shard << 64), which
    # would first seed and discard a SeedSequence of its own.
    bits = np.random.Philox(key=seed_word)
    start = bits.state
    rng = np.random.Generator(bits)
    for shard in range(n_shards):
        m = min(SHARD_SIZE, n - shard * SHARD_SIZE)
        start["state"]["key"][1] = shard
        bits.state = start
        flat[live] += rng.multinomial(m, p)
    return SampleCounts(n, flat.reshape(table.shape), seed, table)


@dataclass(frozen=True, eq=False)
class StatTable:
    """Empirical estimates against analytic values with 3-sigma binomial bounds.

    Cells whose conditioning event never occurred (and, for conditionals,
    whose condition has zero analytic probability) are marked undefined and
    excluded from the violation count.
    """

    empirical: np.ndarray
    analytic: np.ndarray
    bound_3sigma: np.ndarray
    defined: np.ndarray

    @property
    def deviation(self) -> np.ndarray:
        return np.abs(self.empirical - self.analytic)

    def violations(self) -> list[tuple[int, ...]]:
        """Indices of defined cells whose deviation exceeds the 3-sigma bound."""
        mask = self.defined & (self.deviation > self.bound_3sigma)
        return [tuple(int(k) for k in idx) for idx in np.argwhere(mask)]


def _stat_table(hits, trials, p, given) -> StatTable:
    """The estimates hits / trials of the probabilities p / given, each bounded by STAT_SIGMAS binomial deviations.

    The arguments broadcast together.  A cell is defined where its
    conditioning event occurred in the sample and has positive probability;
    its bound is infinite where the event never occurred.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        analytic = np.where(given > 0, p / given, 0.0)
        empirical = np.where(trials > 0, hits / trials, 0.0)
        var = analytic * (1.0 - analytic) / trials
    bound = STAT_SIGMAS * np.sqrt(np.where(trials > 0, var, np.inf))
    return StatTable(empirical, analytic, bound, np.broadcast_to((trials > 0) & (given > 0), analytic.shape))


@dataclass(frozen=True, eq=False)
class EmpiricalReport:
    """Sampled estimates of the outcome, predictive, and retrodictive probabilities."""

    outcome: StatTable
    predictive: StatTable
    retrodictive: StatTable


def empirical_report(counts: SampleCounts, ensemble: Ensemble) -> EmpiricalReport:
    """Compare the empirical frequencies of the counts with the joint table they carry."""
    table = counts.table
    if len(ensemble) != len(table):
        raise ValueError(f"the ensemble has {len(ensemble)} states but the counts have {len(table)} rows")
    mu = table.sum(axis=0)
    return EmpiricalReport(
        _stat_table(counts.column_totals, counts.n_total, mu, 1.0),
        _stat_table(counts.counts, counts.row_totals[:, None], table, ensemble.priors[:, None]),
        _stat_table(counts.counts, counts.column_totals, table, mu),
    )
