"""Estimating the full size distribution from samples (paper Table 4).

The paper reports exact counts of 4-bit functions of size 0..9 and then
*estimates* sizes 10..17 "using random function size distribution ... and
optimal synthesis of all 3-bit reversible functions".  The estimator here
is the natural one: a uniformly-sampled frequency, scaled by the group
order ``(2^n)!``.

Because n = 3 is fully enumerable (8! = 40,320 functions), we can run the
whole methodology end-to-end there -- exact distribution, sampled
estimate, and their agreement -- which validates the estimator that the
4-bit experiment must rely on.  ``exact_distribution_3bit`` doubles as
the reproduction of Shende et al.'s classic result that every 3-bit
reversible function is synthesizable (the paper's reference [15]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.distribution import SizeDistribution


def group_order(n_wires: int) -> int:
    """Number of n-bit reversible functions: (2^n)!  (paper: N = 2^n!)."""
    return math.factorial(1 << n_wires)


def estimate_total_counts(
    dist: SizeDistribution, n_wires: int
) -> list[tuple[int, float]]:
    """Scale sampled frequencies to estimated absolute counts.

    Returns ``(size, estimated_count)`` pairs for each observed size, the
    computation behind the "~" rows of the paper's Table 4.
    """
    total = group_order(n_wires)
    sample = dist.total
    if sample == 0:
        raise ValueError("empty sample")
    return [
        (size, count / sample * total)
        for size, count in enumerate(dist.counts)
        if count
    ]


def exact_distribution_3bit() -> list[int]:
    """Exact number of 3-bit functions per optimal size (full enumeration).

    A complete BFS over all 8! = 40,320 functions with the 12-gate NCT
    library on three wires (:func:`repro.analysis.hard.full_enumeration`);
    the list sums to 40,320 and its length - 1 is L(3), the 3-bit
    analogue of the paper's L(4).
    """
    from repro.analysis.hard import full_enumeration

    return full_enumeration(3).counts


@dataclass(frozen=True)
class EstimatorValidation:
    """Outcome of validating the sampling estimator on n = 3.

    Attributes:
        exact: Exact counts per size.
        estimated: Estimated counts per size from the sample.
        max_relative_error: Largest relative error over sizes whose exact
            count is at least ``support_threshold``.
    """

    exact: list[int]
    estimated: list[float]
    max_relative_error: float


def validate_estimator_on_3bit(
    n_samples: int = 4000, seed: int = 5489, support_threshold: int = 100
) -> EstimatorValidation:
    """Run the paper's estimation methodology where ground truth exists.

    Samples random 3-bit permutations, sizes them against the exhaustive
    table, scales frequencies by 8!, and compares with the exact counts.
    """
    from repro.engines import create_engine
    from repro.rng.sampling import PermutationSampler

    exact = exact_distribution_3bit()
    table = create_engine("plain-bfs", n_wires=3, k=32).result

    sampler = PermutationSampler(3, seed=seed)
    dist = SizeDistribution(bound=None)
    for _ in range(n_samples):
        size = table.size_of(sampler.sample_word())
        if size is None:
            raise AssertionError("3-bit table is exhaustive; lookup failed")
        dist.add(size)

    estimated_pairs = dict(estimate_total_counts(dist, 3))
    estimated = [estimated_pairs.get(size, 0.0) for size in range(len(exact))]
    errors = [
        abs(estimated[size] - exact[size]) / exact[size]
        for size in range(len(exact))
        if exact[size] >= support_threshold
    ]
    return EstimatorValidation(
        exact=exact,
        estimated=estimated,
        max_relative_error=max(errors) if errors else 0.0,
    )


#: Exact counts from the paper's Table 4 (sizes 0..9), used as reference
#: anchors in tests and benchmark reports.
PAPER_TABLE4_FUNCTIONS: dict[int, int] = {
    0: 1,
    1: 32,
    2: 784,
    3: 16204,
    4: 294507,
    5: 4807552,
    6: 70763560,
    7: 932651938,
    8: 10804681959,
    9: 105984823653,
}

#: Reduced (equivalence-class) counts from Table 4.
PAPER_TABLE4_REDUCED: dict[int, int] = {
    0: 1,
    1: 4,
    2: 33,
    3: 425,
    4: 6538,
    5: 101983,
    6: 1482686,
    7: 19466575,
    8: 225242556,
    9: 2208511226,
}

#: The paper's Table 3: sizes of 10,000,000 random 4-bit permutations.
PAPER_TABLE3_RANDOM: dict[int, int] = {
    5: 3,
    6: 24,
    7: 455,
    8: 5269,
    9: 50861,
    10: 392108,
    11: 2051507,
    12: 5110943,
    13: 2371039,
    14: 17191,
}

#: The paper's Table 5: all 4-bit linear reversible functions by size.
PAPER_TABLE5_LINEAR: list[int] = [
    1,
    16,
    162,
    1206,
    6589,
    26182,
    72062,
    118424,
    84225,
    13555,
    138,
]
