"""Representative test-set generation for heuristic synthesizers.

One of the paper's stated goals (Sections 1 and 5): "construction of a
representative set of functions that could be used to test heuristic
synthesis algorithms against."  Because the optimal size of every
generated function is known, a heuristic's quality can be scored as its
overhead over optimum, per size stratum.

The generator samples canonical representatives stratified by optimal
size (sizes below the database depth), optionally widening each stratum
with random class members so heuristics cannot overfit canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import equivalence
from repro.core.permutation import Permutation
from repro.rng.mt19937 import MersenneTwister


@dataclass(frozen=True)
class TestCase:
    """One scored entry of the generated suite.

    Attributes:
        permutation: The function to synthesize.
        optimal_size: Its provably minimal NCT gate count.
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    permutation: Permutation
    optimal_size: int

    def spec_line(self) -> str:
        """Serialized ``<optimal_size> <spec>`` line."""
        return f"{self.optimal_size} {self.permutation.spec()}"


@dataclass
class TestSuite:
    """A size-stratified suite of functions with known optimal sizes."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    n_wires: int
    cases: list[TestCase]

    def by_size(self) -> dict[int, list[TestCase]]:
        out: dict[int, list[TestCase]] = {}
        for case in self.cases:
            out.setdefault(case.optimal_size, []).append(case)
        return out

    def save(self, path) -> None:
        """Write one ``<size> <spec>`` line per case."""
        from pathlib import Path

        lines = [case.spec_line() for case in self.cases]
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")

    @staticmethod
    def load(path, n_wires: int = 4) -> "TestSuite":
        from pathlib import Path

        from repro.core.spec import parse_spec

        cases = []
        for line in Path(path).read_text(encoding="ascii").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            size_text, spec_text = line.split(" ", 1)
            cases.append(
                TestCase(
                    permutation=Permutation.from_values(parse_spec(spec_text)),
                    optimal_size=int(size_text),
                )
            )
        return TestSuite(n_wires=n_wires, cases=cases)

    def score_heuristic(self, synthesize) -> "HeuristicScore":
        """Run ``synthesize(permutation) -> Circuit`` over the suite.

        Every returned circuit is verified; incorrect circuits raise.
        """
        per_size: dict[int, tuple[int, int]] = {}
        total_optimal = total_heuristic = 0
        for case in self.cases:
            circuit = synthesize(case.permutation)
            if not circuit.implements(case.permutation):
                raise AssertionError(
                    f"heuristic produced a wrong circuit for "
                    f"{case.permutation.spec()}"
                )
            opt, heur = per_size.get(case.optimal_size, (0, 0))
            per_size[case.optimal_size] = (
                opt + case.optimal_size,
                heur + circuit.gate_count,
            )
            total_optimal += case.optimal_size
            total_heuristic += circuit.gate_count
        return HeuristicScore(
            total_optimal=total_optimal,
            total_heuristic=total_heuristic,
            per_size={
                size: (heur / opt if opt else 1.0)
                for size, (opt, heur) in sorted(per_size.items())
            },
        )


@dataclass(frozen=True)
class HeuristicScore:
    """Overhead profile of a heuristic over the optimal baseline."""

    total_optimal: int
    total_heuristic: int
    per_size: dict[int, float]

    @property
    def overhead(self) -> float:
        """Total heuristic gates / total optimal gates (1.0 = optimal)."""
        if self.total_optimal == 0:
            return 1.0
        return self.total_heuristic / self.total_optimal


def generate_suite(
    db,
    per_size: int = 10,
    seed: int = 5489,
    randomize_class_members: bool = True,
) -> TestSuite:
    """Stratified suite from an :class:`OptimalDatabase`.

    Args:
        db: Database whose representatives are sampled.
        per_size: Cases per size stratum (sizes 1..k).
        seed: Sampling seed (deterministic suites).
        randomize_class_members: Replace each canonical representative by
            a random member of its equivalence class, so suites do not
            consist solely of canonical forms.
    """
    rng = MersenneTwister(seed)
    cases: list[TestCase] = []
    for size in range(1, db.k + 1):
        reps = db.reps_by_size[size]
        if reps.shape[0] == 0:
            continue
        for _ in range(min(per_size, reps.shape[0])):
            word = int(reps[rng.next_below(reps.shape[0])])
            if randomize_class_members:
                members = sorted(equivalence.equivalence_class(word, db.n_wires))
                word = members[rng.next_below(len(members))]
            cases.append(
                TestCase(
                    permutation=Permutation(word, db.n_wires),
                    optimal_size=size,
                )
            )
    return TestSuite(n_wires=db.n_wires, cases=cases)
