"""Reversible circuits: strings of NCT gates (paper Section 2).

A reversible circuit is a sequence of gates applied left to right; there
is no fan-out and no feedback.  ``Circuit`` is an immutable value type
supporting simulation, composition, inversion, depth and cost evaluation,
and round-tripping through the paper's textual syntax
(``"NOT(a) CNOT(c,a) TOF(a,b,d)"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core import packed
from repro.core.gates import Gate
from repro.errors import InvalidCircuitError

if TYPE_CHECKING:
    from repro.core.permutation import Permutation


@dataclass(frozen=True)
class Circuit:
    """An immutable sequence of gates on ``n_wires`` wires.

    Gates are applied in list order: ``gates[0]`` acts first.  This matches
    the paper's circuit notation, where the leftmost gate of a drawing (or
    of a textual listing such as Table 6) is applied first.
    """

    gates: tuple[Gate, ...]
    n_wires: int

    def __post_init__(self) -> None:
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        if self.n_wires < 1:
            raise InvalidCircuitError(f"n_wires must be positive: {self.n_wires}")
        for gate in gates:
            if any(w >= self.n_wires for w in gate.support):
                raise InvalidCircuitError(
                    f"gate {gate} does not fit on {self.n_wires} wires"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def empty(n_wires: int) -> "Circuit":
        """The identity circuit (no gates)."""
        return Circuit(gates=(), n_wires=n_wires)

    @staticmethod
    def from_gates(gates: Iterable[Gate], n_wires: int) -> "Circuit":
        """Build a circuit from any iterable of gates."""
        return Circuit(gates=tuple(gates), n_wires=n_wires)

    @staticmethod
    def parse(text: str, n_wires: int) -> "Circuit":
        """Parse whitespace-separated gates in the paper's syntax; reads
        back what ``str`` writes, ``"(identity)"`` included.

        >>> Circuit.parse("TOF(a,b,d) CNOT(a,b)", 4).gate_count
        2
        """
        text = text.strip()
        if not text or text == "(identity)":
            return Circuit.empty(n_wires)
        # Gates are separated by whitespace, but wire lists may contain
        # spaces after commas; normalize by splitting on ')' instead.
        chunks = [c.strip() for c in text.replace(")", ") ").split() if c.strip()]
        gates = tuple(Gate.parse(chunk) for chunk in chunks)
        return Circuit(gates=gates, n_wires=n_wires)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def gate_count(self) -> int:
        """Number of gates (the paper's primary cost metric)."""
        return len(self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index: "int | slice") -> "Gate | Circuit":
        if isinstance(index, slice):
            return Circuit(gates=self.gates[index], n_wires=self.n_wires)
        return self.gates[index]

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def apply(self, state: int) -> int:
        """Run the circuit on one basis state."""
        for gate in self.gates:
            state = gate.apply(state)
        return state

    def truth_table(self) -> list[int]:
        """Output state for every input state ``0 .. 2**n - 1``.

        Works for any wire count (unlike :meth:`to_word`, which is bound
        to the packed representation's 4-wire limit).
        """
        return [self.apply(x) for x in range(1 << self.n_wires)]

    def to_word(self) -> int:
        """Packed-permutation encoding of the whole circuit (n <= 4)."""
        word = packed.identity(self.n_wires)
        for gate in self.gates:
            word = packed.compose(word, gate.to_word(self.n_wires), self.n_wires)
        return word

    def implements(
        self, spec: "Permutation | str | int | Iterable[int]"
    ) -> bool:
        """True iff the circuit realizes ``spec``.

        ``spec`` may be a packed word, a value sequence, or a
        :class:`repro.core.permutation.Permutation`.
        """
        from repro.core.permutation import Permutation

        target = Permutation.coerce(spec, self.n_wires)
        return self.to_word() == target.word

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def then(self, other: "Circuit") -> "Circuit":
        """Concatenation: this circuit followed by ``other``."""
        if other.n_wires != self.n_wires:
            raise InvalidCircuitError(
                f"cannot concatenate circuits on {self.n_wires} and "
                f"{other.n_wires} wires"
            )
        return Circuit(gates=self.gates + other.gates, n_wires=self.n_wires)

    def __add__(self, other: "Circuit") -> "Circuit":
        return self.then(other)

    def inverse(self) -> "Circuit":
        """The reversed circuit, implementing the inverse function.

        NCT gates are involutions, so reversing the gate order suffices
        (paper Section 3.2, symmetry 2).
        """
        return Circuit(gates=tuple(reversed(self.gates)), n_wires=self.n_wires)

    def relabeled(self, wire_perm: tuple[int, ...]) -> "Circuit":
        """Simultaneously relabel inputs and outputs by ``wire_perm``.

        Implements the conjugation symmetry of paper Section 3.2: the new
        circuit realizes ``g_sigma^{-1} ∘ f ∘ g_sigma`` and has the same
        gate count.
        """
        if sorted(wire_perm) != list(range(self.n_wires)):
            raise InvalidCircuitError(f"bad wire permutation: {wire_perm}")
        return Circuit(
            gates=tuple(g.relabeled(tuple(wire_perm)) for g in self.gates),
            n_wires=self.n_wires,
        )

    def repeated(self, times: int) -> "Circuit":
        """The circuit concatenated with itself ``times`` times."""
        if times < 0:
            raise InvalidCircuitError("repetition count must be non-negative")
        return Circuit(gates=self.gates * times, n_wires=self.n_wires)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Circuit depth: number of layers of gates on disjoint wires.

        Gates sharing no wire may fire simultaneously; each gate is
        scheduled as early as possible.  (The paper's Section 5 discusses
        depth as an alternative optimization target.)
        """
        wire_ready = [0] * self.n_wires
        depth = 0
        for gate in self.gates:
            layer = 1 + max((wire_ready[w] for w in gate.support), default=0)
            for w in gate.support:
                wire_ready[w] = layer
            depth = max(depth, layer)
        return depth

    def cost(self, model: "dict[int, int] | None" = None) -> int:
        """Total circuit cost under a per-gate-kind cost model.

        ``model`` maps *number of controls* to a cost.  The default is the
        standard NCV quantum-cost model (NOT=1, CNOT=1, TOF=5, TOF4=13),
        the natural weighted metric the paper's Section 5 proposes.
        """
        from repro.synth.cost import NCV_COST_BY_CONTROLS

        if model is None:
            model = NCV_COST_BY_CONTROLS
        return sum(model[len(g.controls)] for g in self.gates)

    def gate_histogram(self) -> dict[str, int]:
        """Count of gates by kind name."""
        hist: dict[str, int] = {}
        for gate in self.gates:
            hist[gate.kind] = hist.get(gate.kind, 0) + 1
        return hist

    def used_wires(self) -> frozenset[int]:
        """Wires touched by at least one gate."""
        wires: set[int] = set()
        for gate in self.gates:
            wires.update(gate.support)
        return frozenset(wires)

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.gates:
            return "(identity)"
        return " ".join(str(g) for g in self.gates)

    def __repr__(self) -> str:
        return f"Circuit({str(self)!r}, n_wires={self.n_wires})"

    def draw(self) -> str:
        """ASCII drawing of the circuit, one row per wire.

        Controls are drawn as ``●``, targets as ``⊕``, and vertical
        connections as ``│``, in the style of Figure 1 of the paper.
        """
        from repro.core.gates import WIRE_NAMES

        if not self.gates:
            return "\n".join(
                f"{WIRE_NAMES[w]}: ───" for w in range(self.n_wires)
            )
        cell = 4
        rows = [[f"{WIRE_NAMES[w]}: "] for w in range(self.n_wires)]
        for gate in self.gates:
            lo = min(gate.support)
            hi = max(gate.support)
            for w in range(self.n_wires):
                if w == gate.target:
                    symbol = "⊕"
                elif w in gate.controls:
                    symbol = "●"
                elif lo < w < hi:
                    symbol = "┼"
                else:
                    symbol = "─"
                rows[w].append(f"─{symbol}─".ljust(cell, "─"))
        return "\n".join("".join(row) for row in rows)
