"""Table 4: number of 4-bit permutations requiring 0..k gates.

The paper lists exact function and equivalence-class counts for sizes
0..9 and sampling-based estimates for 10..17.  We regenerate the exact
rows up to our k -- they must match the paper digit for digit -- and
reproduce the estimation method for the tail from the Table 3 sample.
"""

from __future__ import annotations

from repro.analysis.distribution import sample_distribution
from repro.analysis.estimates import (
    PAPER_TABLE4_FUNCTIONS,
    PAPER_TABLE4_REDUCED,
    estimate_total_counts,
)

from conftest import print_header


def test_table4_exact_rows(bench_db, benchmark):
    print_header(f"Table 4 (exact rows 0..{bench_db.k})")
    reduced = bench_db.reduced_counts()
    functions = bench_db.function_counts()
    print(f"{'Size':>4}  {'Functions':>15}  {'Reduced':>12}  match")
    for size in range(bench_db.k, -1, -1):
        match = (
            functions[size] == PAPER_TABLE4_FUNCTIONS[size]
            and reduced[size] == PAPER_TABLE4_REDUCED[size]
        )
        print(
            f"{size:>4}  {functions[size]:>15,}  {reduced[size]:>12,}  "
            f"{'EXACT' if match else 'MISMATCH'}"
        )
        assert match, f"size {size} diverges from the paper"
    benchmark.extra_info["functions"] = functions
    benchmark.extra_info["reduced"] = reduced

    # Reduction factor approaches 48 as sizes grow (paper §3.2).
    ratio = functions[bench_db.k] / reduced[bench_db.k]
    print(f"reduction factor at size {bench_db.k}: {ratio:.2f} (limit 48)")
    assert 44 < ratio < 48

    # Timing target: the class-size accounting pass for one level.
    benchmark(
        lambda: __import__("repro.core.packed_np", fromlist=["class_sizes_np"])
        .class_sizes_np(bench_db.reps_by_size[4], 4)
        .sum()
    )


def test_table4_tail_estimates(bench_engine, benchmark):
    """The '~' rows: scale sampled frequencies by 16! (paper §4.2)."""
    print_header("Table 4 tail estimates from the random sample")
    dist = sample_distribution(bench_engine, 40, seed=97)
    estimates = estimate_total_counts(dist, 4)
    print(f"{'Size':>4}  {'estimated':>12}  {'paper value/estimate':>22}")
    paper_reference = dict(PAPER_TABLE4_FUNCTIONS)
    paper_reference.update({10: 8.2e11, 11: 4.29e12, 12: 1.07e13, 13: 4.96e12})
    for size, estimate in estimates:
        reference = paper_reference.get(size)
        ref_text = f"{reference:,.0f}" if reference else "-"
        print(f"{size:>4}  {estimate:>12.3e}  {ref_text:>22}")
        if reference and dist.counts[size] >= 5:
            # Order-of-magnitude agreement for well-sampled sizes.
            assert 0.1 < estimate / reference < 10
    benchmark.extra_info["estimates"] = [(s, float(e)) for s, e in estimates]

    benchmark(dist.fractions)
