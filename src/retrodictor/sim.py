"""Seeded Monte Carlo sampling of the prepare-and-measure channel.

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

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, Povm, require_same_dim
from .retrodiction import joint_table
from .tolerances import STAT_SIGMAS, STRUCTURAL_ZERO

RNG_ALGORITHM = "philox4x64-v3"
SHARD_SIZE = 1 << 16


@dataclass(frozen=True, eq=False)
class SampleCounts:
    """Joint tallies N[i][j] of (prepared i, outcome j), with provenance."""

    n_total: int
    counts: np.ndarray
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        if int(counts.sum()) != self.n_total:
            raise ValueError("counts do not sum to n_total")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

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


def sample(
    ensemble: Ensemble, povm: Povm, n: int, seed: int, table: np.ndarray | None = None
) -> SampleCounts:
    """Sample the joint counts of n pairs; bit-reproducible for fixed inputs and seed.

    table, if given, is the pair's joint_probability_table, already built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not -(1 << 63) <= seed < 1 << 63:
        raise ValueError(f"seed {seed} is outside the signed 64-bit range [-2**63, 2**63)")
    if table is None:
        table = joint_probability_table(ensemble, povm)
    # Only positive cells take part, so a structural zero can never receive
    # the multinomial's last-category remainder.  Validation lets the table
    # sum to 1 within ~1e-10, which numpy's multinomial rejects (beyond
    # 1 + 1e-12), so the live cells are normalised.
    live = np.flatnonzero(table > 0.0)
    p = table.reshape(-1)[live]
    p /= p.sum()
    flat = np.zeros(table.size, dtype=np.int64)
    seed_word = int(seed) & 0xFFFFFFFFFFFFFFFF  # low 64-bit word of the Philox key
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
    return SampleCounts(n, flat.reshape(table.shape), seed)


@dataclass(frozen=True, eq=False)
class StatTable:
    """Empirical estimates against analytic values with 3-sigma binomial bounds.

    Cells whose conditioning event never occurred (and, for conditionals,
    whose condition has zero analytic probability) are marked undefined and
    excluded from the violation count.
    """

    label: str
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

    @property
    def all_within(self) -> bool:
        return not self.violations()


def _three_sigma(p: np.ndarray, trials: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        var = p * (1.0 - p) / trials
    return STAT_SIGMAS * np.sqrt(np.where(trials > 0, var, np.inf))


@dataclass(frozen=True, eq=False)
class EmpiricalReport:
    """Sampled estimates of the outcome, predictive, and retrodictive probabilities."""

    counts: SampleCounts
    outcome: StatTable
    predictive: StatTable
    retrodictive: StatTable

    @property
    def all_within(self) -> bool:
        return self.outcome.all_within and self.predictive.all_within and self.retrodictive.all_within


def empirical_report(
    counts: SampleCounts, ensemble: Ensemble, povm: Povm, table: np.ndarray | None = None
) -> EmpiricalReport:
    """Compare empirical frequencies from the counts with the analytic values.

    table, if given, is the pair's joint_probability_table, already built.
    """
    if table is None:
        table = joint_probability_table(ensemble, povm)
    if counts.counts.shape != table.shape:
        raise ValueError(
            f"counts shape {counts.counts.shape} does not match instance shape {table.shape}"
        )
    n = counts.n_total
    joint = counts.counts.astype(np.float64)
    rows = counts.row_totals.astype(np.float64)
    cols = counts.column_totals.astype(np.float64)

    mu = table.sum(axis=0)
    mu_hat = cols / n
    outcome = StatTable(
        "outcome",
        mu_hat,
        mu,
        _three_sigma(mu, np.full_like(mu, float(n))),
        np.ones_like(mu, dtype=bool),
    )

    eta = np.asarray(ensemble.priors)
    with np.errstate(divide="ignore", invalid="ignore"):
        predictive_analytic = np.where(eta[:, None] > 0, table / eta[:, None], 0.0)
        predictive_hat = np.where(rows[:, None] > 0, joint / rows[:, None], 0.0)
    predictive = StatTable(
        "predictive",
        predictive_hat,
        predictive_analytic,
        _three_sigma(predictive_analytic, np.broadcast_to(rows[:, None], table.shape)),
        np.broadcast_to(rows[:, None] > 0, table.shape).copy(),
    )

    with np.errstate(divide="ignore", invalid="ignore"):
        retro_analytic = np.where(mu[None, :] > 0, table / mu[None, :], 0.0)
        retro_hat = np.where(cols[None, :] > 0, joint / cols[None, :], 0.0)
    retro_defined = np.broadcast_to((cols[None, :] > 0) & (mu[None, :] > 0), table.shape).copy()
    retrodictive = StatTable(
        "retrodictive",
        retro_hat,
        retro_analytic,
        _three_sigma(retro_analytic, np.broadcast_to(cols[None, :], table.shape)),
        retro_defined,
    )
    return EmpiricalReport(counts, outcome, predictive, retrodictive)
