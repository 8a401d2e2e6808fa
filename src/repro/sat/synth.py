"""SAT-based exact synthesis by iterative deepening.

The provably-optimal-but-slow baseline: ask the CDCL solver for a
0-gate circuit, then 1, 2, ... until satisfiable.  The first SAT depth
is the optimal size (the encoding is exact).  The paper's Table 6 notes
that Große et al. needed 21,897 seconds for ``hwb4`` this way -- the
same function its search-and-lookup answers in ~1e-4 s -- and our
benchmarks reproduce that cliff in miniature.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.circuit import Circuit
from repro.core.permutation import Permutation
from repro.errors import SynthesisError, UnsatisfiableError
from repro.sat.encoding import encode_synthesis
from repro.sat.solver import Solver


@dataclass(frozen=True)
class SatSynthesisResult:
    """Outcome of a SAT synthesis run.

    Attributes:
        circuit: The optimal circuit.
        depths_tried: How many UNSAT depths preceded the SAT one.
        total_conflicts: Conflicts summed over all depths.
    """

    circuit: Circuit
    depths_tried: int
    total_conflicts: int


def sat_synthesize_fixed_size(
    spec,
    n_gates: int,
    conflict_budget: "int | None" = None,
    time_budget: "float | None" = None,
    cancel=None,
) -> Circuit:
    """A circuit with exactly ``n_gates`` gates, or raise
    :class:`UnsatisfiableError` when none exists (or a budget runs out).

    ``time_budget`` bounds the solve in wall-clock seconds and
    ``cancel`` is a cooperative checkpoint called at every conflict --
    the hook through which a served request's deadline, a breaker trip,
    or shutdown reaches the CDCL loop.
    """
    perm = Permutation.coerce(spec)
    encoding = encode_synthesis(perm, n_gates)
    result = Solver(encoding.cnf.n_vars, encoding.cnf.clauses).solve(
        conflict_budget, time_budget=time_budget, cancel=cancel
    )
    if not result.satisfiable:
        raise UnsatisfiableError(
            f"no {n_gates}-gate circuit"
            + (" (budget exhausted)" if result.exhausted else "")
        )
    circuit = encoding.decode(result.model)
    if not circuit.implements(perm):
        raise AssertionError("SAT model decodes to an incorrect circuit")
    return circuit


def sat_synthesize(
    spec,
    max_gates: int = 8,
    conflict_budget_per_depth: "int | None" = None,
    time_budget: "float | None" = None,
    cancel=None,
) -> SatSynthesisResult:
    """Iterative-deepening exact synthesis (optimal but slow).

    Raises :class:`SynthesisError` when no circuit of <= ``max_gates``
    gates is found.  ``time_budget`` bounds the *whole* deepening run
    (shared across depths, monotonic clock); exhausting it raises
    :class:`SynthesisError` immediately instead of burning the
    remaining depths on already-dead budgets.  Conflict-budget
    exhaustion keeps its historical behavior (continue deepening; the
    caller knows its answers may be inconclusive).
    """
    import time as _time

    perm = Permutation.coerce(spec)
    total_conflicts = 0
    deadline = (
        _time.monotonic() + time_budget if time_budget is not None else None
    )
    for depth in range(max_gates + 1):
        remaining = None
        if deadline is not None:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise SynthesisError(
                    f"SAT time budget exhausted after {depth} depth(s) "
                    f"({total_conflicts} conflicts)"
                )
        encoding = encode_synthesis(perm, depth)
        result = Solver(encoding.cnf.n_vars, encoding.cnf.clauses).solve(
            conflict_budget_per_depth, time_budget=remaining, cancel=cancel
        )
        total_conflicts += result.conflicts
        if result.satisfiable:
            circuit = encoding.decode(result.model)
            if not circuit.implements(perm):
                raise AssertionError("SAT model decodes to an incorrect circuit")
            return SatSynthesisResult(
                circuit=circuit,
                depths_tried=depth,
                total_conflicts=total_conflicts,
            )
        if (
            result.exhausted
            and deadline is not None
            and deadline - _time.monotonic() <= 0
        ):
            raise SynthesisError(
                f"SAT time budget exhausted at depth {depth} "
                f"({total_conflicts} conflicts)"
            )
    raise SynthesisError(
        f"no circuit with at most {max_gates} gates found by SAT search"
    )
