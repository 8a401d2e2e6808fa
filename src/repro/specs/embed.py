"""Choose wires and embed a function form into a reversible permutation.

This is the bridge between the caller's vocabulary (inputs, outputs,
constants, garbage) and the synthesizer's (a partially-specified
permutation of ``2 ** n_wires`` codes), for single- and multi-output
functions with per-row don't-cares:

* Inputs ride wires ``0 .. n_inputs - 1``; any higher input wire is
  held at the constant 0.
* Output bits ride the top ``n_outputs`` wires.
* Wires below the outputs carry garbage.  When capacity allows
  (``n_inputs + n_outputs <= n_wires``) the inputs pass through on
  their own wires, which keeps the specified rows injective for free;
  otherwise each specified row takes the lexicographically first unused
  garbage code consistent with its output bits.
* Rows whose constant wires are not at 0, and rows the caller marked
  don't-care, stay unconstrained -- the completion search over the
  resulting :class:`repro.synth.embedding.PartialSpec` is where the
  optimizer earns its keep.

The garbage codes of specified rows are pinned *deterministically*
(not searched): this keeps the embedding a pure function of the spec,
which is what lets a shard router and a daemon agree on a routing key
before any search has run -- see :func:`routing_word`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.permutation import Permutation
from repro.errors import SpecError
from repro.synth.embedding import PartialSpec, natural_reversible_extension

from repro.specs.ir import AffineXorForm, MultiOutputSpec


@dataclass(frozen=True)
class EmbeddingPlan:
    """A chosen line assignment plus the partial spec it induces.

    Attributes:
        partial: The permutation-level specification (don't-cares for
            every unconstrained row).
        n_wires: Total circuit width.
        input_wires: Wires carrying the caller's input variables.
        output_wires: Wires carrying the caller's output bits, least
            significant first.
        constant_wires: ``(wire, value)`` pairs the caller must feed as
            constants (sorted by wire).
        garbage_wires: Output-side wires whose final value is not part
            of the caller's function (inputs may pass through on them).
        extras: Structurally informed completions (e.g. the natural
            XOR extension) seeded ahead of the random search.
    """

    partial: PartialSpec
    n_wires: int
    input_wires: tuple
    output_wires: tuple
    constant_wires: tuple
    garbage_wires: tuple
    extras: tuple

    def to_wire(self) -> dict:
        """The embedding map in the caller's terms (JSON-ready,
        deterministic; completion-independent)."""
        return {
            "n_wires": self.n_wires,
            "input_wires": list(self.input_wires),
            "output_wires": list(self.output_wires),
            "constant_wires": [list(pair) for pair in self.constant_wires],
            "garbage_wires": list(self.garbage_wires),
            "dont_care_rows": len(self.partial.free_inputs),
            "completions": self.partial.n_completions(),
        }


def plan_embedding(spec, n_wires: int = 4) -> EmbeddingPlan:
    """The deterministic embedding plan for any spec form.

    Square invertible affine forms short-circuit to a fully-specified
    permutation (no ancilla, no garbage, zero don't-cares); everything
    else normalizes to a :class:`repro.specs.ir.MultiOutputSpec` and
    goes through the garbage-code construction above.
    """
    if not 1 <= n_wires <= 4:
        raise SpecError(f"n_wires must be in 1..4, got {n_wires}")
    if isinstance(spec, AffineXorForm) and spec.is_invertible():
        return _plan_affine(spec, n_wires)
    return _plan_multi_output(spec.to_multi_output(), n_wires)


def _plan_affine(spec: AffineXorForm, n_wires: int) -> EmbeddingPlan:
    """A reversible affine map: outputs replace inputs in place, higher
    wires pass through untouched."""
    m = spec.n_inputs
    if m > n_wires:
        raise SpecError(
            f"affine form on {m} bits does not fit {n_wires} wires"
        )
    low_mask = (1 << m) - 1
    values = [
        spec.evaluate(x & low_mask) | (x & ~low_mask & ((1 << n_wires) - 1))
        for x in range(1 << n_wires)
    ]
    partial = PartialSpec(outputs=tuple(values), n_wires=n_wires)
    return EmbeddingPlan(
        partial=partial,
        n_wires=n_wires,
        input_wires=tuple(range(m)),
        output_wires=tuple(range(m)),
        constant_wires=(),
        garbage_wires=(),
        extras=(),
    )


def _plan_multi_output(spec: MultiOutputSpec, n_wires: int) -> EmbeddingPlan:
    n_in, n_out = spec.n_inputs, spec.n_outputs
    if n_in > n_wires:
        raise SpecError(
            f"{n_in}-input function does not fit {n_wires} wires"
        )
    if n_out > n_wires:
        raise SpecError(
            f"{n_out}-output function does not fit {n_wires} wires"
        )
    specified = spec.specified_rows()
    garbage_bits = n_wires - n_out
    capacity = 1 << garbage_bits
    per_value: dict = {}
    for _x, value in specified:
        per_value[value] = per_value.get(value, 0) + 1
        if per_value[value] > capacity:
            raise SpecError(
                f"output value {value} repeats {per_value[value]} times but "
                f"only {capacity} garbage codes exist on {n_wires} wires; "
                "the function needs more wires"
            )
    out_shift = garbage_bits
    pass_through = n_in + n_out <= n_wires
    outputs: list = [None] * (1 << n_wires)
    used: set = set()
    for assignment, value in specified:
        # Constant input wires are at 0, so the full input word is the
        # assignment itself.
        if pass_through:
            candidates = (
                assignment | (garbage << n_in) | (value << out_shift)
                for garbage in range(1 << (n_wires - n_in - n_out))
            )
        else:
            candidates = (
                code | (value << out_shift) for code in range(capacity)
            )
        for y in candidates:
            if y not in used:
                outputs[assignment] = y
                used.add(y)
                break
        else:  # pragma: no cover - excluded by the capacity check above
            raise SpecError("embedding ran out of output codes")
    partial = PartialSpec(outputs=tuple(outputs), n_wires=n_wires)
    extras = []
    if pass_through and n_in < n_wires:
        natural = _natural_extension(spec, n_wires)
        if partial.matches(natural):
            extras.append(natural)
    return EmbeddingPlan(
        partial=partial,
        n_wires=n_wires,
        input_wires=tuple(range(n_in)),
        output_wires=tuple(range(out_shift, n_wires)),
        constant_wires=tuple((w, 0) for w in range(n_in, n_wires)),
        garbage_wires=tuple(range(out_shift)),
        extras=tuple(extras),
    )


def _natural_extension(spec: MultiOutputSpec, n_wires: int) -> Permutation:
    """The XOR completion ``y = x XOR (F(x_low) << out_shift)``.

    A bijection whenever the output wires are disjoint from the input
    wires (the pass-through regime); don't-care rows evaluate F as 0.
    Single-output specs reduce exactly to
    :func:`repro.synth.embedding.natural_reversible_extension`.
    """
    out_shift = n_wires - spec.n_outputs
    if spec.n_outputs == 1:
        table = [v if v is not None else 0 for v in spec.rows]
        return natural_reversible_extension(table, spec.n_inputs, n_wires)
    low_mask = (1 << spec.n_inputs) - 1
    values = []
    for x in range(1 << n_wires):
        value = spec.rows[x & low_mask]
        values.append(x ^ ((value if value is not None else 0) << out_shift))
    return Permutation.from_values(values)


def routing_word(spec, n_wires: int = 4) -> int:
    """The deterministic base completion's packed word, for routing.

    A shard router must pick an owner *before* any completion search
    runs, and a daemon answering the forwarded request must be able to
    verify the same key; both therefore derive it from the plan's
    lexicographically first completion (free rows filled with the free
    outputs in ascending order) -- a pure function of the spec.  Route
    by ``canonical(routing_word(spec), n_wires)``.
    """
    plan = plan_embedding(spec, n_wires)
    base = plan.partial.complete(list(plan.partial.free_outputs))
    return base.word


__all__ = ["EmbeddingPlan", "plan_embedding", "routing_word"]
