"""Independent correctness oracle: a small NCT simulator.

Nothing here imports the code under test.  Every circuit the daemon
returns is parsed from its text form and re-simulated on all 16 basis
states (``synth``) or on every specified row through the returned
embedding map (``compile``); a mismatch counts as a failed operation.

Conventions match the paper (and the daemon's wire format): wire 0 is
``a``, the least significant bit of a basis-state index; a packed word
holds ``f(x)`` in bits ``4x .. 4x+3``; gates apply left to right; the
last wire listed in a gate is its target.
"""

from __future__ import annotations

import re

N_WIRES = 4
N_STATES = 1 << N_WIRES
WIRES = "abcd"

#: Paper Table 4: equivalence classes of 4-bit functions per optimal
#: size 0..5 (the database depth k=5 the benchmark serves).
TABLE4_CLASSES = (1, 4, 33, 425, 6538, 101983)

_GATE = re.compile(r"(NOT|CNOT|TOF4|TOF)\(([a-d](?:,[a-d])*)\)")
_CONTROLS = {"NOT": 0, "CNOT": 1, "TOF": 2, "TOF4": 3}


def parse_circuit(text: str) -> "list[tuple[int, int]]":
    """Gates of a circuit text as ``(control_mask, target_bit)`` pairs.

    Raises ValueError on anything that is not a well-formed NCT gate
    list over wires a..d.
    """
    text = text.strip()
    if text in ("", "(identity)"):
        return []
    gates = []
    for token in text.split():
        match = _GATE.fullmatch(token)
        if match is None:
            raise ValueError(f"not an NCT gate: {token!r}")
        kind, wires = match.group(1), match.group(2).split(",")
        if len(wires) != _CONTROLS[kind] + 1 or len(set(wires)) != len(wires):
            raise ValueError(f"malformed gate: {token!r}")
        mask = 0
        for wire in wires[:-1]:
            mask |= 1 << WIRES.index(wire)
        gates.append((mask, 1 << WIRES.index(wires[-1])))
    return gates


def simulate(gates: "list[tuple[int, int]]", state: int) -> int:
    """Apply a gate list to one basis state."""
    for mask, target in gates:
        if state & mask == mask:
            state ^= target
    return state


def values_of(gates: "list[tuple[int, int]]") -> "list[int]":
    """The permutation a gate list computes, as its 16 output values."""
    return [simulate(gates, x) for x in range(N_STATES)]


def pack(values: "list[int]") -> int:
    """Packed word of a value list."""
    word = 0
    for x, y in enumerate(values):
        word |= y << (4 * x)
    return word


def unpack(word: int) -> "list[int]":
    """Value list of a packed word."""
    return [(word >> (4 * x)) & 0xF for x in range(N_STATES)]


def invert(word: int) -> int:
    """The inverse function."""
    values = unpack(word)
    inverse = [0] * N_STATES
    for x, y in enumerate(values):
        inverse[y] = x
    return pack(inverse)


def _move_bits(x: int, sigma: "tuple[int, ...]") -> int:
    out = 0
    for i, target in enumerate(sigma):
        out |= ((x >> i) & 1) << target
    return out


def relabel(word: int, sigma: "tuple[int, ...]") -> int:
    """Conjugate by the wire relabeling ``i -> sigma[i]``.

    Relabeling wires and inverting both preserve the optimal gate count
    (the paper's 48-fold symmetry), so any such image of a class
    representative has the representative's reference size.
    """
    values = unpack(word)
    out = [0] * N_STATES
    for x, y in enumerate(values):
        out[_move_bits(x, sigma)] = _move_bits(y, sigma)
    return pack(out)


def check_synth(result: dict, word: int, size: int) -> "str | None":
    """Why a ``synth`` answer is wrong, or None when it is right.

    Right means: the circuit re-simulates to ``word`` on every basis
    state, and both its gate count and the reported size equal the
    reference optimal ``size``.
    """
    try:
        gates = parse_circuit(result["circuit"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unparseable circuit: {exc}"
    if pack(values_of(gates)) != word:
        return "circuit does not implement the requested function"
    if len(gates) != size or result.get("size") != size:
        return (
            f"size {result.get('size')} / {len(gates)} gates, "
            f"reference optimum {size}"
        )
    return None


def check_compile(
    result: dict, rows: list, n_inputs: int, size: int
) -> "str | None":
    """Why a ``compile`` answer is wrong, or None when it is right.

    Every specified row of the spec is pushed through the returned
    embedding map (inputs on ``input_wires``, ``constant_wires`` at
    their values), simulated, and read back from ``output_wires``.  The
    circuit may not be larger than the reference size fixed when the
    workload was defined.
    """
    try:
        gates = parse_circuit(result["circuit"])
        embedding = result["embedding"]
        inputs = embedding["input_wires"]
        outputs = embedding["output_wires"]
        constants = embedding["constant_wires"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed compile answer: {exc}"
    if len(inputs) != n_inputs:
        return f"embedding has {len(inputs)} input wires, spec {n_inputs}"
    for assignment, want in enumerate(rows):
        if want is None:
            continue
        state = 0
        for i, wire in enumerate(inputs):
            state |= ((assignment >> i) & 1) << wire
        for wire, value in constants:
            state |= value << wire
        final = simulate(gates, state)
        got = sum(((final >> wire) & 1) << j for j, wire in enumerate(outputs))
        if got != want:
            return f"row {assignment}: circuit gives {got}, spec {want}"
    if len(gates) != result.get("size"):
        return f"reported size {result.get('size')} but {len(gates)} gates"
    if len(gates) > size:
        return f"{len(gates)} gates, reference {size}"
    return None
