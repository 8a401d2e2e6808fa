"""Table 3: size distribution of random 4-bit reversible functions.

The paper synthesized 10,000,000 uniform random permutations (29 hours,
43 GB, 16-core server) and found the distribution peaking at size 12
with weighted average 11.94.  At our scale we (a) synthesize a smaller
sample with the same pipeline, right-censored at L, and (b) run the
*exact* control experiment on n = 3, where the whole group is covered.
"""

from __future__ import annotations

from repro.analysis.distribution import sample_distribution
from repro.analysis.estimates import PAPER_TABLE3_RANDOM

from conftest import BENCH_SAMPLES, print_header


def test_table3_random_sample(bench_engine, benchmark):
    print_header(
        f"Table 3 analogue: {BENCH_SAMPLES} random 4-bit permutations "
        f"(L = {bench_engine.max_size}; paper: 10,000,000 at L = 18)"
    )
    dist = sample_distribution(bench_engine, BENCH_SAMPLES, seed=5489)
    print(dist.format_table())
    paper_total = sum(PAPER_TABLE3_RANDOM.values())
    print("\npaper reference fractions (10M sample):")
    for size in sorted(PAPER_TABLE3_RANDOM, reverse=True):
        print(f"{size:<5d} {PAPER_TABLE3_RANDOM[size] / paper_total:.4f}")
    if dist.observed:
        print(f"\nobserved average: {dist.weighted_average():.2f}")
    low, high = dist.weighted_average_bounds()
    print(f"average bounds incl. censored: [{low:.2f}, {high:.2f}]")
    print("paper weighted average: 11.94")

    benchmark.extra_info["distribution"] = dist.counts
    benchmark.extra_info["censored"] = dist.censored
    benchmark.extra_info["bound"] = dist.bound

    # Shape checks against the paper's distribution.
    paper_fraction_le = {  # P(size <= s) from the 10M sample
        s: sum(v for k, v in PAPER_TABLE3_RANDOM.items() if k <= s) / paper_total
        for s in range(5, 15)
    }
    observed_le_bound = dist.observed / dist.total
    expected = paper_fraction_le.get(dist.bound, 1.0)
    # Loose binomial sanity interval for small samples.
    assert abs(observed_le_bound - expected) < 0.25
    # The average must bracket the paper's 11.94.
    assert low <= 11.94 <= high + 1.0

    # Timing target: one end-to-end random synthesis.
    from repro.rng.sampling import PermutationSampler

    sampler = PermutationSampler(4, seed=7)
    words = [sampler.sample_word() for _ in range(50)]
    counter = iter(range(10**9))

    def one_query():
        from repro.errors import SizeLimitExceededError

        word = words[next(counter) % len(words)]
        try:
            return bench_engine.size_of(word)
        except SizeLimitExceededError:
            return None

    benchmark.pedantic(one_query, rounds=3, iterations=1)


def test_table3_exact_control_n3(engine3_full, benchmark):
    """The same experiment where ground truth is enumerable: sampling
    reproduces the exact n = 3 distribution."""
    from repro.analysis.estimates import exact_distribution_3bit

    print_header("Table 3 control: n = 3, sample vs exact enumeration")
    exact = exact_distribution_3bit()
    total = sum(exact)
    dist = sample_distribution(engine3_full, 600, seed=5489, n_wires=3)
    print(f"{'Size':>4}  {'sample frac':>11}  {'exact frac':>10}")
    for size in range(len(exact)):
        sample_frac = (
            dist.counts[size] / dist.total if size < len(dist.counts) else 0.0
        )
        print(f"{size:>4}  {sample_frac:>11.4f}  {exact[size] / total:>10.4f}")
    assert dist.censored == 0
    # Sample and exact averages agree to ~0.2 gates with 600 draws.
    exact_avg = sum(s * c for s, c in enumerate(exact)) / total
    assert abs(dist.weighted_average() - exact_avg) < 0.2

    benchmark(engine3_full.size_of, 0x01234567)
