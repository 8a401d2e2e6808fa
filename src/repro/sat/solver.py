"""A compact CDCL SAT solver (watched literals, 1-UIP learning, VSIDS).

Implemented from scratch so the Große et al. SAT-synthesis comparison of
the paper's Section 2 can be reproduced without external dependencies.
The design follows MiniSat's architecture:

* two watched literals per clause with lazy watch repair,
* conflict analysis to the first unique implication point, with clause
  learning and non-chronological backjumping,
* exponentially-decayed variable activities (VSIDS) with phase saving,
* Luby-sequence restarts.

It comfortably handles the tens-of-thousands-of-clause instances the
synthesis encoding produces; it is, as the paper observes of SAT-based
synthesis generally, the scaling of the *encoding* with circuit depth
that makes this approach uncompetitive with search-and-lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class SatResult:
    """Outcome of a solver run.

    Attributes:
        satisfiable: Whether a model was found.
        model: For SAT instances, ``model[v]`` is the truth value of
            variable ``v`` (index 0 unused).
        conflicts: Total conflicts encountered.
        decisions: Total decisions made.
        propagations: Total literals propagated.
        exhausted: True when the run stopped on a conflict or time
            budget rather than a proof -- ``satisfiable=False`` is then
            *inconclusive*, not UNSAT.
    """

    satisfiable: bool
    model: "list[bool] | None"
    conflicts: int
    decisions: int
    propagations: int
    exhausted: bool = False


_UNASSIGNED = 0


class Solver:
    """CDCL solver over a fixed CNF.

    Args:
        n_vars: Number of variables (1-based indices).
        clauses: Iterable of clauses (tuples/lists of non-zero ints).
    """

    def __init__(self, n_vars: int, clauses):
        self.n_vars = n_vars
        self.assign = [_UNASSIGNED] * (n_vars + 1)  # 0 / +1 / -1
        self.level = [0] * (n_vars + 1)
        self.reason: list = [None] * (n_vars + 1)
        self.activity = [0.0] * (n_vars + 1)
        self.phase = [False] * (n_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.ok = True
        # Budget/cancellation state, rebound by each solve() call.
        self._time_limit: "float | None" = None
        self._clock = time.monotonic
        self._cancel = None

        self.clauses: list[list[int]] = []
        # watches[lit] = clause indices watching lit; literal encoding:
        # positive literal v -> index 2v, negative -> 2v+1.
        self.watches: list[list[int]] = [[] for _ in range(2 * n_vars + 2)]
        for clause in clauses:
            self._add_clause(list(dict.fromkeys(clause)))

    # ------------------------------------------------------------------
    # Literal helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _widx(literal: int) -> int:
        return 2 * literal if literal > 0 else -2 * literal + 1

    def _value(self, literal: int) -> int:
        value = self.assign[abs(literal)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if literal > 0 else -value

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------
    def _add_clause(self, literals: list[int]) -> None:
        if not self.ok:
            return
        # Remove tautologies.
        literal_set = set(literals)
        if any(-lit in literal_set for lit in literals):
            return
        if len(literals) == 0:
            self.ok = False
            return
        if len(literals) == 1:
            if not self._enqueue(literals[0], None):
                self.ok = False
            return
        index = len(self.clauses)
        self.clauses.append(literals)
        self.watches[self._widx(literals[0])].append(index)
        self.watches[self._widx(literals[1])].append(index)

    def _enqueue(self, literal: int, reason) -> bool:
        value = self._value(literal)
        if value == 1:
            return True
        if value == -1:
            return False
        var = abs(literal)
        self.assign[var] = 1 if literal > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(literal)
        return True

    # ------------------------------------------------------------------
    # Boolean constraint propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> "list[int] | None":
        """Propagate until fixpoint; returns a conflicting clause or None."""
        while self.qhead < len(self.trail):
            literal = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            false_lit = -literal
            watch_list = self.watches[self._widx(false_lit)]
            new_watch_list = []
            conflict = None
            for ci_pos in range(len(watch_list)):
                ci = watch_list[ci_pos]
                if conflict is not None:
                    new_watch_list.append(ci)
                    continue
                clause = self.clauses[ci]
                # Ensure the false literal is in slot 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    new_watch_list.append(ci)
                    continue
                # Look for a replacement watch.
                moved = False
                for slot in range(2, len(clause)):
                    if self._value(clause[slot]) != -1:
                        clause[1], clause[slot] = clause[slot], clause[1]
                        self.watches[self._widx(clause[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                new_watch_list.append(ci)
                if not self._enqueue(first, clause):
                    conflict = clause
            self.watches[self._widx(false_lit)] = new_watch_list
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt = []
        seen = [False] * (self.n_vars + 1)
        counter = 0
        literal = None
        reason = conflict
        index = len(self.trail) - 1
        current_level = len(self.trail_lim)
        while True:
            for reason_lit in reason:
                if literal is not None and reason_lit == literal:
                    continue
                var = abs(reason_lit)
                if seen[var] or self.level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self.level[var] == current_level:
                    counter += 1
                else:
                    learnt.append(reason_lit)
            # Select the next trail literal to resolve on.
            while not seen[abs(self.trail[index])]:
                index -= 1
            literal = self.trail[index]
            var = abs(literal)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                learnt.insert(0, -literal)
                break
            reason = self.reason[var]
        # Backjump level: second-highest level in the learnt clause.
        if len(learnt) == 1:
            return learnt, 0
        back_level = max(self.level[abs(lit)] for lit in learnt[1:])
        # Put a literal of back_level in slot 1 (watch invariant).
        for slot in range(1, len(learnt)):
            if self.level[abs(learnt[slot])] == back_level:
                learnt[1], learnt[slot] = learnt[slot], learnt[1]
                break
        return learnt, back_level

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.n_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _cancel_until(self, target_level: int) -> None:
        while len(self.trail_lim) > target_level:
            boundary = self.trail_lim.pop()
            for position in range(len(self.trail) - 1, boundary - 1, -1):
                literal = self.trail[position]
                var = abs(literal)
                self.phase[var] = literal > 0
                self.assign[var] = _UNASSIGNED
                self.reason[var] = None
            del self.trail[boundary:]
        self.qhead = min(self.qhead, len(self.trail))

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self) -> int:
        best_var = 0
        best_activity = -1.0
        for var in range(1, self.n_vars + 1):
            if self.assign[var] == _UNASSIGNED and self.activity[var] > best_activity:
                best_var = var
                best_activity = self.activity[var]
        return best_var

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(
        self,
        conflict_budget: "int | None" = None,
        time_budget: "float | None" = None,
        cancel=None,
        clock=time.monotonic,
    ) -> SatResult:
        """Run the solver.

        ``conflict_budget`` bounds total conflicts, ``time_budget``
        bounds wall-clock seconds (both None = unlimited); overrunning
        either returns an *inconclusive* result with
        ``satisfiable=False`` and ``exhausted=True``.  ``cancel`` is an
        optional zero-argument cooperative checkpoint called once per
        conflict and restart; whatever it raises propagates untouched
        (the portfolio engine passes a ``CancelToken.checkpoint`` here
        so a preempted SAT tier stops within one conflict of being told
        to).
        """
        self._time_limit = (
            clock() + time_budget if time_budget is not None else None
        )
        self._clock = clock
        self._cancel = cancel
        if not self.ok:
            return SatResult(False, None, self.conflicts, self.decisions, 0)
        conflict = self._propagate()
        if conflict is not None:
            return SatResult(
                False, None, self.conflicts, self.decisions, self.propagations
            )
        restart_unit = 64
        luby_index = 1
        while True:
            limit = restart_unit * _luby(luby_index)
            outcome = self._search(limit, conflict_budget)
            if outcome is not None:
                return outcome
            luby_index += 1
            if self._out_of_budget(conflict_budget):
                return self._exhausted_result()

    def _out_of_budget(self, conflict_budget) -> bool:
        if conflict_budget is not None and self.conflicts >= conflict_budget:
            return True
        return (
            self._time_limit is not None
            and self._clock() >= self._time_limit
        )

    def _exhausted_result(self) -> SatResult:
        return SatResult(
            False,
            None,
            self.conflicts,
            self.decisions,
            self.propagations,
            exhausted=True,
        )

    def _search(self, restart_limit: int, conflict_budget) -> "SatResult | None":
        local_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                local_conflicts += 1
                if self._cancel is not None:
                    self._cancel()
                if len(self.trail_lim) == 0:
                    return SatResult(
                        False,
                        None,
                        self.conflicts,
                        self.decisions,
                        self.propagations,
                    )
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    index = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches[self._widx(learnt[0])].append(index)
                    self.watches[self._widx(learnt[1])].append(index)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= self.var_decay
                if self._out_of_budget(conflict_budget):
                    return self._exhausted_result()
                continue
            if local_conflicts >= restart_limit:
                self._cancel_until(0)
                return None
            var = self._decide()
            if var == 0:
                model = [False] * (self.n_vars + 1)
                for v in range(1, self.n_vars + 1):
                    model[v] = self.assign[v] == 1
                return SatResult(
                    True, model, self.conflicts, self.decisions, self.propagations
                )
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            literal = var if self.phase[var] else -var
            self._enqueue(literal, None)


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,..."""
    k = 1
    while (1 << (k + 1)) - 1 <= index:
        k += 1
    while index != (1 << k) - 1:
        index -= (1 << (k - 1)) - 1 + 1
        k = 1
        while (1 << (k + 1)) - 1 <= index:
            k += 1
    return 1 << (k - 1)


def solve_cnf(
    cnf,
    conflict_budget: "int | None" = None,
    time_budget: "float | None" = None,
    cancel=None,
) -> SatResult:
    """Convenience wrapper: solve a :class:`repro.sat.cnf.CNF`."""
    return Solver(cnf.n_vars, cnf.clauses).solve(
        conflict_budget, time_budget=time_budget, cancel=cancel
    )
