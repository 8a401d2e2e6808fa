"""Property tests for the function-form front-end.

Runs on 3 wires against the complete n = 3 database (every 3-bit
permutation is within reach there), so the properties quantify over the
whole space instead of the slice a k = 4 database happens to cover:

* A fully-specified bijective spec compiles to exactly the gate count
  of direct synthesis of its permutation -- the front-end adds no cost.
* A don't-care spec's chosen completion re-simulates correctly on every
  specified row, and exhaustive searches claim ``optimal``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.permutation import Permutation
from repro.engines import SynthesisRequest, create_engine
from repro.specs import (
    LookupTableSpec,
    MultiOutputSpec,
    TruthTableSpec,
    compile_spec,
)

SETTINGS = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def engine3w(db3, engine3):
    """Optimal engine over the complete n = 3 state (L = 8 + 4)."""
    from repro.synth.synthesizer import SynthesisHandle

    handle = SynthesisHandle(
        n_wires=3,
        k=8,
        max_list_size=4,
        database=db3,
        engine=engine3,
    )
    return create_engine("optimal", handle=handle)


permutations3 = st.permutations(list(range(8)))

# 2-input truth tables with 0-3 don't-care rows (at least one row
# specified): embedded on 3 wires the free-row count stays <= 7, so
# the completion search is always exhaustive.
truth_tables2 = st.lists(
    st.sampled_from([0, 1, None]), min_size=4, max_size=4
).filter(lambda rows: any(v is not None for v in rows))


class TestFullySpecified:
    @SETTINGS
    @given(values=permutations3)
    def test_lut_size_equals_direct_synthesis(self, engine3w, values):
        spec = LookupTableSpec(
            table=tuple(values), n_inputs=3, n_outputs=3
        )
        result = compile_spec(spec, engine3w, n_wires=3)
        direct = engine3w.synthesize(SynthesisRequest(
            spec=Permutation.from_values(values), n_wires=3
        ))
        assert result.size == direct.size
        assert result.guarantee == "optimal"
        assert result.exhaustive and result.completions_tried == 1
        for x in range(8):
            assert result.output_of(x) == values[x]

    @SETTINGS
    @given(values=permutations3)
    def test_multi_output_equals_lut(self, engine3w, values):
        as_lut = LookupTableSpec(
            table=tuple(values), n_inputs=3, n_outputs=3
        )
        as_mo = MultiOutputSpec(
            rows=tuple(values), n_inputs=3, n_outputs=3
        )
        assert (
            compile_spec(as_lut, engine3w, n_wires=3).to_wire()["embedding"]
            == compile_spec(as_mo, engine3w, n_wires=3).to_wire()["embedding"]
        )


class TestDontCares:
    @SETTINGS
    @given(rows=truth_tables2)
    def test_completion_honours_specified_rows(self, engine3w, rows):
        spec = TruthTableSpec(rows=tuple(rows), n_inputs=2)
        result = compile_spec(spec, engine3w, n_wires=3)
        for x, want in enumerate(rows):
            if want is not None:
                assert result.output_of(x) == want
        # <= 7 free rows means 7! > 5040 never triggers: always exact.
        assert result.exhaustive
        assert result.guarantee == "optimal"
        assert result.permutation.word == Permutation.from_values(
            [result.permutation(x) for x in range(8)]
        ).word

    @SETTINGS
    @given(rows=truth_tables2)
    def test_dont_cares_never_cost_more(self, engine3w, rows):
        """Relaxing any row to a don't-care can only shrink the
        optimum: the specified spec's completion set is a subset."""
        relaxed = compile_spec(
            TruthTableSpec(rows=tuple(rows), n_inputs=2), engine3w, n_wires=3
        )
        tightened = tuple(v if v is not None else 0 for v in rows)
        full = compile_spec(
            TruthTableSpec(rows=tightened, n_inputs=2), engine3w, n_wires=3
        )
        assert relaxed.size <= full.size
