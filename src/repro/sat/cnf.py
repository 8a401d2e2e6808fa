"""CNF formula construction.

Variables are positive integers; a literal is ``+v`` (variable true) or
``-v`` (variable false), the familiar DIMACS convention.  :class:`CNF`
accumulates clauses and hands out fresh variables; small helper methods
encode the constraints the synthesis encoding needs (at-most-one,
exactly-one, implications).
"""

from __future__ import annotations

from dataclasses import dataclass, field

Literal = int


@dataclass
class CNF:
    """A growing CNF formula.

    Attributes:
        n_vars: Number of variables allocated so far.
        clauses: List of clauses (tuples of literals).
    """

    n_vars: int = 0
    clauses: list[tuple[Literal, ...]] = field(default_factory=list)

    def new_var(self) -> int:
        """Allocate a fresh variable and return its index (>= 1)."""
        self.n_vars += 1
        return self.n_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def add(self, *literals: Literal) -> None:
        """Add one clause (a disjunction of the given literals)."""
        if not literals:
            raise ValueError("empty clause makes the formula trivially UNSAT")
        for literal in literals:
            if literal == 0 or abs(literal) > self.n_vars:
                raise ValueError(f"literal {literal} out of range")
        self.clauses.append(tuple(literals))

    def at_most_one(self, literals: list[Literal]) -> None:
        """Pairwise at-most-one constraint."""
        for i in range(len(literals)):
            for j in range(i + 1, len(literals)):
                self.add(-literals[i], -literals[j])

    def exactly_one(self, literals: list[Literal]) -> None:
        """Exactly-one constraint (one clause + pairwise AMO)."""
        self.add(*literals)
        self.at_most_one(literals)

    def __len__(self) -> int:
        return len(self.clauses)
