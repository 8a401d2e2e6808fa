"""The NCT gate library: NOT, CNOT, Toffoli, Toffoli-4 (paper Section 2).

A gate is a multiple-control Toffoli: it flips its *target* wire exactly
when every *control* wire carries a 1.  The paper's four gate kinds are
the special cases with 0, 1, 2, and 3 controls:

* ``NOT(a)``          : a ↦ a ⊕ 1
* ``CNOT(a, b)``      : b ↦ b ⊕ a
* ``TOF(a, b, c)``    : c ↦ c ⊕ ab
* ``TOF4(a, b, c, d)``: d ↦ d ⊕ abc

Wires are numbered 0.. and printed with the paper's letters
``a, b, c, d`` (wire 0 = ``a`` = least significant bit of the basis-state
index; this convention is fixed by the paper's benchmark circuits, e.g.
``shift4``'s circuit realizes x ↦ x + 1 mod 16 only with ``a`` = LSB).

On four wires the library contains 4 + 12 + 12 + 4 = 32 gates; on three
wires, 3 + 6 + 3 = 12.  Every gate is an involution (self-inverse), and
the gate set is closed under wire relabeling -- the two facts the paper's
symmetry reduction relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from repro.core import packed
from repro.errors import InvalidGateError

WIRE_NAMES = "abcdefgh"

#: Printable gate-kind names indexed by number of controls.
KIND_NAMES = {0: "NOT", 1: "CNOT", 2: "TOF", 3: "TOF4"}

_GATE_RE = re.compile(r"^\s*([A-Za-z0-9]+)\s*\(\s*([a-z](?:\s*,\s*[a-z])*)\s*\)\s*$")


@dataclass(frozen=True, order=True)
class Gate:
    """A multiple-control Toffoli gate.

    Attributes:
        controls: Sorted tuple of control wire indices (possibly empty).
        target: Target wire index; must not be among the controls.
    """

    controls: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        controls = tuple(sorted(self.controls))
        object.__setattr__(self, "controls", controls)
        if len(set(controls)) != len(controls):
            raise InvalidGateError(f"duplicate control wires: {controls}")
        if self.target in controls:
            raise InvalidGateError(
                f"target wire {self.target} is also a control: {controls}"
            )
        if self.target < 0 or any(c < 0 for c in controls):
            raise InvalidGateError("wire indices must be non-negative")

    @property
    def kind(self) -> str:
        """Gate-kind name: NOT, CNOT, TOF, TOF4, or MCTk for k > 3 controls."""
        n_controls = len(self.controls)
        return KIND_NAMES.get(n_controls, f"MCT{n_controls + 1}")

    @property
    def support(self) -> frozenset[int]:
        """Set of wires the gate touches (controls and target)."""
        return frozenset(self.controls) | {self.target}

    @property
    def control_mask(self) -> int:
        """Bitmask with a 1 on every control wire."""
        mask = 0
        for c in self.controls:
            mask |= 1 << c
        return mask

    def apply(self, state: int) -> int:
        """Apply the gate to a basis state (an integer bit vector)."""
        mask = self.control_mask
        if state & mask == mask:
            return state ^ (1 << self.target)
        return state

    def to_word(self, n_wires: int) -> int:
        """Packed-permutation encoding of the gate on ``n_wires`` wires."""
        if any(w >= n_wires for w in self.support):
            raise InvalidGateError(
                f"gate {self} does not fit on {n_wires} wires"
            )
        word = 0
        for x in range(packed.num_states(n_wires)):
            word |= self.apply(x) << (4 * x)
        return word

    def relabeled(self, wire_perm: tuple[int, ...]) -> "Gate":
        """The gate with every wire ``i`` renamed to ``wire_perm[i]``."""
        return Gate(
            controls=tuple(wire_perm[c] for c in self.controls),
            target=wire_perm[self.target],
        )

    def __str__(self) -> str:
        wires = ",".join(WIRE_NAMES[w] for w in (*self.controls, self.target))
        return f"{self.kind}({wires})"

    @staticmethod
    def parse(text: str) -> "Gate":
        """Parse a gate in the paper's syntax, e.g. ``TOF(a,b,d)``.

        The last wire listed is the target; the rest are controls.  The
        kind name is validated against the control count.
        """
        match = _GATE_RE.match(text)
        if not match:
            raise InvalidGateError(f"cannot parse gate: {text!r}")
        kind, wire_text = match.group(1).upper(), match.group(2)
        wires = [WIRE_NAMES.index(w.strip()) for w in wire_text.split(",")]
        gate = Gate(controls=tuple(wires[:-1]), target=wires[-1])
        if kind not in (gate.kind, "T" + str(len(wires))):
            raise InvalidGateError(
                f"gate kind {kind!r} does not match {len(wires) - 1} controls"
            )
        return gate


def NOT(target: int) -> Gate:
    """The NOT gate on ``target``."""
    return Gate(controls=(), target=target)


def CNOT(control: int, target: int) -> Gate:
    """The CNOT gate: ``target ^= control``."""
    return Gate(controls=(control,), target=target)


def TOF(control1: int, control2: int, target: int) -> Gate:
    """The Toffoli gate: ``target ^= control1 & control2``."""
    return Gate(controls=(control1, control2), target=target)


def TOF4(control1: int, control2: int, control3: int, target: int) -> Gate:
    """The 4-bit Toffoli gate: ``target ^= control1 & control2 & control3``."""
    return Gate(controls=(control1, control2, control3), target=target)


def all_gates(n_wires: int, max_controls: "int | None" = None) -> list[Gate]:
    """The full NCT library on ``n_wires`` wires, in a fixed deterministic
    order (by control count, then target, then controls).

    ``max_controls`` restricts the library (e.g. ``max_controls=1`` gives
    the NOT/CNOT library of linear reversible circuits, Section 4.3).
    """
    if max_controls is None:
        max_controls = n_wires - 1
    gates: list[Gate] = []
    for n_controls in range(min(max_controls, n_wires - 1) + 1):
        for target in range(n_wires):
            others = [w for w in range(n_wires) if w != target]
            for controls in combinations(others, n_controls):
                gates.append(Gate(controls=controls, target=target))
    return gates


def gate_words(n_wires: int, max_controls: "int | None" = None) -> list[int]:
    """Packed permutations of :func:`all_gates`, same order."""
    return [g.to_word(n_wires) for g in all_gates(n_wires, max_controls)]


def linear_gates(n_wires: int) -> list[Gate]:
    """The NOT/CNOT sub-library that generates linear reversible circuits."""
    return all_gates(n_wires, max_controls=1)
