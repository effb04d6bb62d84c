
import numpy as np
import pytest

from conftest import random_ensemble, random_povm
from retrodictor.ensembles import Ensemble, Povm
from retrodictor.linalg import outer
from retrodictor.retrodiction import born_table, retro_transform
from retrodictor.sim import (
    RNG_ALGORITHM,
    SHARD_SIZE,
    SampleCounts,
    empirical_report,
    joint_probability_table,
    sample,
)
from retrodictor.ud import UdInstance, optimal_dual, ud_ensemble


def orthogonal_setup():
    ensemble = Ensemble(outer(np.eye(2)), np.array([0.5, 0.5]))
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    return ensemble, povm


def ud_setup():
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    return ud_ensemble(inst), Povm(optimal_dual(inst).elements[0])


def test_orthogonal_states_have_zero_cross_counts():
    ensemble, povm = orthogonal_setup()
    counts = sample(ensemble, povm, 50_000, seed=7)
    assert counts.counts[0, 1] == 0
    assert counts.counts[1, 0] == 0
    assert counts.n_total == 50_000


def test_sampling_is_deterministic():
    ensemble, povm = ud_setup()
    a = sample(ensemble, povm, 10**6, seed=123)
    b = sample(ensemble, povm, 10**6, seed=123)
    assert np.array_equal(a.counts, b.counts)
    assert a.rng_algorithm == RNG_ALGORITHM
    c = sample(ensemble, povm, 10**6, seed=124)
    assert not np.array_equal(a.counts, c.counts)


def test_distinct_seeds_give_distinct_count_tables():
    # Keying shard streams by seed XOR shard made seeds share streams: seeds
    # 0 and 1 swap the keys of their two shards and merge to the same counts.
    ensemble, povm = ud_setup()
    for shards in (1, 2, 4):
        tables = {
            sample(ensemble, povm, shards * SHARD_SIZE, seed).counts.tobytes()
            for seed in range(8)
        }
        assert len(tables) == 8, f"{8 - len(tables)} repeated tables at {shards} shards"


def test_ud_structural_zeros_and_mu0():
    ensemble, povm = ud_setup()
    counts = sample(ensemble, povm, 10**6, seed=2024)
    assert counts.counts[0, 1] == 0
    assert counts.counts[1, 0] == 0
    mu0_hat = counts.column_totals[2] / 10**6
    assert abs(mu0_hat - 0.5) < 0.0015  # 3 sigma of a fair binomial at n = 1e6


def test_sample_count_shard_boundaries():
    # n just beyond one shard exercises the multi-shard path deterministically.
    ensemble, povm = orthogonal_setup()
    n = (1 << 16) + 17
    counts = sample(ensemble, povm, n, seed=5)
    assert int(counts.counts.sum()) == n


def test_negative_seed_is_usable_and_deterministic():
    ensemble, povm = orthogonal_setup()
    a = sample(ensemble, povm, 5000, seed=-42)
    b = sample(ensemble, povm, 5000, seed=-42)
    assert np.array_equal(a.counts, b.counts)
    assert a.seed == -42


def test_seeds_outside_the_signed_64_bit_range_raise():
    # The low key word is the seed modulo 2**64, so wider seeds would share
    # streams (-1 with 2**64 - 1, 0 with 2**64).
    ensemble, povm = orthogonal_setup()
    for seed in (2**63, 2**64 - 1, 2**64, -(2**63) - 1):
        with pytest.raises(ValueError, match="signed 64-bit"):
            sample(ensemble, povm, 1000, seed)
    for seed in (-(2**63), 2**63 - 1):
        assert sample(ensemble, povm, 1000, seed).seed == seed


def test_sample_rejects_bad_n():
    ensemble, povm = orthogonal_setup()
    with pytest.raises(ValueError):
        sample(ensemble, povm, 0, seed=1)
    with pytest.raises(ValueError, match="integers"):
        sample(ensemble, povm, 1000.0, seed=1)


def test_a_seed_that_is_not_an_integer_raises():
    # Truncating a float seed made 1.5 and 1.9 draw seed 1's stream.
    ensemble, povm = ud_setup()
    for seed in (1.5, np.float64(1.9), "7"):
        with pytest.raises(ValueError, match="integers"):
            sample(ensemble, povm, 1000, seed)
    counts = sample(ensemble, povm, 1000, np.int64(7))
    assert counts.seed == 7 and type(counts.seed) is int
    assert np.array_equal(counts.counts, sample(ensemble, povm, 1000, 7).counts)


def test_sample_counts_consistency_enforced():
    with pytest.raises(ValueError, match="n_total"):
        SampleCounts(10, np.array([[1, 2], [3, 5]]), 0, np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="shape"):
        SampleCounts(11, np.array([[1, 2], [3, 5]]), 0, np.full((2, 3), 1.0 / 6.0))


def test_the_counts_carry_the_joint_table_read_only():
    ensemble, povm = ud_setup()
    counts = sample(ensemble, povm, 1000, seed=1)
    expected = joint_probability_table(ensemble, povm)
    assert counts.table.dtype == expected.dtype and counts.table.tobytes() == expected.tobytes()
    assert not counts.table.flags.writeable and not counts.counts.flags.writeable
    with pytest.raises(ValueError):
        counts.table[0, 0] = 0.5


def test_joint_table_matches_born_rule():
    rng = np.random.default_rng(41)
    ensemble = random_ensemble(rng, 3, 2)
    povm = random_povm(rng, 3, 3)
    table = joint_probability_table(ensemble, povm)
    total = table.sum()
    assert abs(total - 1.0) < 1e-10
    omega = sum(eta * rho for eta, rho in zip(ensemble.priors, ensemble.matrices))
    mu = table.sum(axis=0)
    for j, element in enumerate(povm.elements):
        assert abs(mu[j] - float(np.trace(element @ omega).real)) < 1e-12


def test_empirical_report_exact_zero_cells():
    ensemble, povm = ud_setup()
    counts = sample(ensemble, povm, 10**5, seed=9)
    report = empirical_report(counts, ensemble)
    assert report.predictive.empirical[0, 1] == 0.0
    assert report.predictive.analytic[0, 1] == 0.0
    assert report.retrodictive.empirical[1, 0] == 0.0
    assert report.retrodictive.analytic[1, 0] == 0.0


def test_empirical_report_within_3sigma_random_d3():
    rng = np.random.default_rng(55)
    ensemble = random_ensemble(rng, 3, 3)
    povm = random_povm(rng, 3, 3)
    counts = sample(ensemble, povm, 10**6, seed=77)
    report = empirical_report(counts, ensemble)
    assert not any(table.violations() for table in (report.outcome, report.predictive, report.retrodictive))


def test_empirical_retrodictive_matches_symmetric_born_rule():
    ensemble, povm = ud_setup()
    counts = sample(ensemble, povm, 10**6, seed=31)
    report = empirical_report(counts, ensemble)
    dual = retro_transform(ensemble, povm)
    assert dual.defined.all()
    born = born_table(dual.povm_stack, dual.state_stack, "retrodictive probability")
    for i in range(2):
        for j in range(3):
            analytic = born[i, j]
            assert abs(report.retrodictive.analytic[i, j] - analytic) < 1e-10
            assert (
                abs(report.retrodictive.empirical[i, j] - analytic)
                <= max(report.retrodictive.bound_3sigma[i, j], 1e-12)
            )


def test_empirical_report_rejects_mismatched_counts():
    ensemble, povm = ud_setup()
    counts = sample(ensemble, povm, 1000, seed=1)
    one_state = Ensemble((np.diag([1.0, 0.0]),), np.array([1.0]))
    with pytest.raises(ValueError, match="1 states but the counts have 2 rows"):
        empirical_report(counts, one_state)


def test_three_sigma_violation_rate_is_small():
    # Module invariant: <= 2% of cells beyond 3 sigma over 100 seeded runs.
    ensemble, povm = ud_setup()
    violations = 0
    cells = 0
    for k in range(100):
        counts = sample(ensemble, povm, 10**5, seed=5000 + k)
        report = empirical_report(counts, ensemble)
        for table in (report.outcome, report.predictive, report.retrodictive):
            violations += len(table.violations())
            cells += int(table.defined.sum())
    assert violations / cells <= 0.02


def test_cell_moments_over_seeds_match_the_multinomial():
    # The Monte Carlo is the independent route, so its counts must have the
    # multinomial law of n categorical draws: over many seeds, each cell's
    # mean is n p and its variance n p (1 - p), within 4 standard errors.
    rng = np.random.default_rng(55)
    ensemble = random_ensemble(rng, 3, 3)
    povm = random_povm(rng, 3, 3)
    p = joint_probability_table(ensemble, povm)
    p /= p.sum()
    n = 2 * SHARD_SIZE + 4321  # three shards, the last one partial
    seeds = 2000
    counts = np.array([sample(ensemble, povm, n, seed).counts for seed in range(seeds)], dtype=float)
    var = n * p * (1.0 - p)
    mean_se = np.sqrt(var / seeds)
    # Fourth central moment of a binomial, for the standard error of the sample variance.
    mu4 = var * (1.0 + 3.0 * (n - 2) * p * (1.0 - p))
    var_se = np.sqrt((mu4 - var**2 * (seeds - 3) / (seeds - 1)) / seeds)
    assert np.all(np.abs(counts.mean(axis=0) - n * p) <= 4.0 * mean_se)
    assert np.all(np.abs(counts.var(axis=0, ddof=1) - var) <= 4.0 * var_se)


def test_counts_are_pinned_for_one_seed():
    # Recorded with numpy 2.4.6; counts are promised on one platform and numpy build.
    ensemble, povm = ud_setup()
    counts = sample(ensemble, povm, 3 * SHARD_SIZE + 5, seed=2026)
    assert counts.rng_algorithm == "philox4x64-v3"
    assert counts.counts.tolist() == [[49457, 0, 49080], [0, 49061, 49015]]


def test_each_shard_draws_the_stream_of_a_fresh_philox_keyed_by_seed_and_shard():
    ensemble, povm = ud_setup()
    table = joint_probability_table(ensemble, povm)
    live = np.flatnonzero(table > 0.0)
    p = table.reshape(-1)[live] / table.reshape(-1)[live].sum()
    for seed in (-(1 << 63), -1, 0, 2026, (1 << 63) - 1):
        expected = np.zeros(table.size, dtype=np.int64)
        for shard, m in enumerate((SHARD_SIZE, SHARD_SIZE, 5)):
            key = (seed & 0xFFFFFFFFFFFFFFFF) | (shard << 64)
            expected[live] += np.random.Generator(np.random.Philox(key=key)).multinomial(m, p)
        assert sample(ensemble, povm, 2 * SHARD_SIZE + 5, seed).counts.ravel().tolist() == expected.tolist()


def test_table_summing_just_above_one_samples():
    # Validation accepts a POVM whose elements sum to 1 + 5e-11; numpy's
    # multinomial rejects probabilities summing beyond 1 + 1e-12 unless the
    # sampler normalises them.
    h = 0.5 + 2.5e-11
    ensemble = Ensemble((np.diag([1.0, 0.0]),), np.array([1.0]))
    povm = Povm((np.diag([h, h]), np.diag([h - 1e-13, h]), np.diag([1e-13, 0.0])))
    assert joint_probability_table(ensemble, povm).sum() > 1.0 + 1e-12
    counts = sample(ensemble, povm, 10**6, seed=3)
    assert counts.n_total == 10**6


def test_ud_structural_zeros_are_exact_at_1e8():
    ensemble, povm = ud_setup()
    counts = sample(ensemble, povm, 10**8, seed=1)
    assert counts.counts[0, 1] == counts.counts[1, 0] == 0
    assert counts.n_total == 10**8
