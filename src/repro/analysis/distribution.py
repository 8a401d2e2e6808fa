"""Circuit-size distributions over random permutations (paper Section 4.1).

The paper synthesized 10,000,000 uniformly random 4-bit permutations and
reported the distribution of their optimal sizes (Table 3) together with
the weighted average of 11.94 gates per circuit.  At our scale the sample
is smaller and the search bound ``L`` may censor the upper tail; the
:class:`SizeDistribution` type carries the censored count explicitly so
every downstream computation states what it knows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SizeLimitExceededError
from repro.rng.sampling import PermutationSampler


@dataclass
class SizeDistribution:
    """Histogram of optimal circuit sizes, possibly right-censored.

    Attributes:
        counts: ``counts[s]`` = number of observations of size ``s``.
        censored: Observations whose size exceeded the search bound.
        bound: The search bound L (sizes > bound are censored).
    """

    counts: list[int] = field(default_factory=list)
    censored: int = 0
    bound: "int | None" = None

    def add(self, size: int) -> None:
        """Record one observed size."""
        if size >= len(self.counts):
            self.counts.extend([0] * (size + 1 - len(self.counts)))
        self.counts[size] += 1

    def add_censored(self) -> None:
        """Record one observation beyond the bound."""
        self.censored += 1

    @property
    def total(self) -> int:
        """Total observations including censored ones."""
        return sum(self.counts) + self.censored

    @property
    def observed(self) -> int:
        """Observations with an exactly known size."""
        return sum(self.counts)

    def weighted_average(self) -> float:
        """Average size over the *observed* part of the sample.

        When ``censored > 0`` this is a lower bound on the true average;
        :meth:`weighted_average_bounds` gives an interval.
        """
        if self.observed == 0:
            raise ValueError("empty distribution")
        return (
            sum(size * count for size, count in enumerate(self.counts))
            / self.observed
        )

    def weighted_average_bounds(self, max_conceivable: int = 17) -> tuple[float, float]:
        """(low, high) bounds on the average size including censored mass.

        Censored observations are >= bound + 1 and (following the paper's
        conjecture that no 4-bit permutation needs more than 17 gates)
        <= ``max_conceivable``.
        """
        if self.total == 0:
            raise ValueError("empty distribution")
        known = sum(size * count for size, count in enumerate(self.counts))
        lo_bound = (self.bound + 1) if self.bound is not None else 0
        low = (known + self.censored * lo_bound) / self.total
        high = (known + self.censored * max_conceivable) / self.total
        return low, high

    def fractions(self) -> list[float]:
        """Observed fraction per size (relative to the full sample)."""
        return [count / self.total for count in self.counts]

    def format_table(self, title: str = "Size  Functions") -> str:
        """Render in the descending-size style of the paper's Table 3."""
        lines = [title]
        if self.censored:
            lines.append(f">{self.bound}   {self.censored}")
        for size in range(len(self.counts) - 1, -1, -1):
            if self.counts[size]:
                lines.append(f"{size:<5d} {self.counts[size]}")
        return "\n".join(lines)

    def merge(self, other: "SizeDistribution") -> "SizeDistribution":
        """Combine two histograms (bounds must agree)."""
        if self.bound != other.bound:
            raise ValueError("cannot merge distributions with different bounds")
        merged = SizeDistribution(bound=self.bound)
        length = max(len(self.counts), len(other.counts))
        merged.counts = [
            (self.counts[i] if i < len(self.counts) else 0)
            + (other.counts[i] if i < len(other.counts) else 0)
            for i in range(length)
        ]
        merged.censored = self.censored + other.censored
        return merged


def sample_distribution(
    search_engine,
    n_samples: int,
    seed: int = 5489,
    n_wires: int = 4,
    progress=None,
) -> SizeDistribution:
    """Synthesize ``n_samples`` uniformly random permutations and collect
    their optimal-size distribution (the paper's Section 4.1 experiment).

    ``search_engine`` needs a ``size_of(word) -> int`` method raising
    :class:`SizeLimitExceededError` beyond its bound (both
    :class:`repro.synth.search.MeetInTheMiddleSearch` and
    :class:`repro.synth.synthesizer.OptimalSynthesizer`'s engine qualify).
    """
    sampler = PermutationSampler(n_wires, seed=seed)
    bound = getattr(search_engine, "max_size", None)
    dist = SizeDistribution(bound=bound)
    for index in range(n_samples):
        word = sampler.sample_word()
        try:
            dist.add(search_engine.size_of(word))
        except SizeLimitExceededError:
            dist.add_censored()
        if progress is not None and (index + 1) % 25 == 0:
            progress(index + 1, n_samples)
    return dist


def chi_squared_uniformity(observed: list[int], expected: list[float]) -> float:
    """Pearson chi-squared statistic (used by the RNG quality tests)."""
    if len(observed) != len(expected):
        raise ValueError("length mismatch")
    return sum(
        (obs - exp) ** 2 / exp for obs, exp in zip(observed, expected) if exp > 0
    )
