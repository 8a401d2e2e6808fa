"""Tests for the function-form front-end: spec IR, PLA parsing, the
embedding planner, routing words, and ``compile_spec`` end to end."""

from __future__ import annotations

import random

import pytest

from repro.core.permutation import Permutation
from repro.engines import SynthesisRequest, create_engine
from repro.errors import SpecError
from repro.specs import (
    SPEC_KINDS,
    AffineXorForm,
    CompileResult,
    LookupTableSpec,
    MultiOutputSpec,
    TruthTableSpec,
    compile_spec,
    parse_pla,
    plan_embedding,
    routing_word,
    spec_from_wire,
)
from repro.rng.mt19937 import MersenneTwister
from repro.synth.embedding import PartialSpec, _candidate_words

# f(x) = x3 with two don't-care rows: the completion space is 2! = 2,
# so the search is exhaustive and the answer provably optimal.
DC_ROWS = (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, None, 1, 1, None, 1, 1)


@pytest.fixture(scope="module")
def optimal_engine(handle4):
    """The optimal engine rehydrated warm from the shared handle."""
    return create_engine("optimal", handle=handle4)


# ----------------------------------------------------------------------
# Spec IR: validation and wire round trips
# ----------------------------------------------------------------------
class TestSpecIR:
    def test_truth_table_roundtrip(self):
        spec = TruthTableSpec(rows=DC_ROWS, n_inputs=4)
        wire = spec.to_wire()
        assert wire["kind"] == "truth_table"
        assert spec_from_wire(wire) == spec
        assert spec.dont_care_count() == 2

    def test_multi_output_roundtrip(self):
        spec = MultiOutputSpec(
            rows=(0, 3, None, 2), n_inputs=2, n_outputs=2
        )
        assert spec_from_wire(spec.to_wire()) == spec
        assert spec.specified_rows() == [(0, 0), (1, 3), (3, 2)]
        assert spec.to_multi_output() is spec

    def test_affine_roundtrip_and_evaluate(self):
        spec = AffineXorForm(matrix=((1, 0), (1, 1)), constant=(0, 1))
        assert spec_from_wire(spec.to_wire()) == spec
        # y0 = x0, y1 = 1 ^ x0 ^ x1
        assert [spec.evaluate(x) for x in range(4)] == [2, 1, 0, 3]
        assert spec.is_invertible()
        assert not AffineXorForm(
            matrix=((1, 1), (1, 1)), constant=(0, 0)
        ).is_invertible()
        # Rectangular forms are never invertible as permutations.
        assert not AffineXorForm(
            matrix=((1, 0),), constant=(0,)
        ).is_invertible()

    def test_lookup_table_roundtrip(self):
        spec = LookupTableSpec(
            table=(1, 0, 3, 2), n_inputs=2, n_outputs=2
        )
        assert spec_from_wire(spec.to_wire()) == spec
        assert spec.to_multi_output().rows == (1, 0, 3, 2)

    def test_truth_table_normalizes_to_multi_output(self):
        mo = TruthTableSpec(rows=DC_ROWS, n_inputs=4).to_multi_output()
        assert mo.n_outputs == 1 and mo.rows == DC_ROWS

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: TruthTableSpec(rows=(0, 1), n_inputs=2), "needs 4 rows"),
            (lambda: TruthTableSpec(rows=(0, 2, 0, 0), n_inputs=2),
             "out of range"),
            (lambda: TruthTableSpec(rows=(0, True, 0, 0), n_inputs=2),
             "must be an integer"),
            (lambda: TruthTableSpec(rows=(None,) * 4, n_inputs=2),
             "no specified rows"),
            (lambda: TruthTableSpec(rows=(0, 1), n_inputs=0), "1..4"),
            (lambda: MultiOutputSpec(rows=(4, 0), n_inputs=1, n_outputs=2),
             "out of range"),
            (lambda: LookupTableSpec(table=(0, None), n_inputs=1, n_outputs=1),
             "fully specified"),
            (lambda: AffineXorForm(matrix=(), constant=()), "at least one"),
            (lambda: AffineXorForm(matrix=((1,), (1, 0)), constant=(0, 0)),
             "inconsistent widths"),
            (lambda: AffineXorForm(matrix=((1,),), constant=(0, 1)),
             "needs 1 entries"),
            (lambda: AffineXorForm(matrix=((2,),), constant=(0,)),
             "must be 0/1"),
        ],
    )
    def test_validation_rejects(self, build, match):
        with pytest.raises(SpecError, match=match):
            build()

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not a dict", "JSON object"),
            ({"kind": "nope"}, "unknown spec kind"),
            ({"kind": "truth_table"}, "missing required field"),
            ({"kind": "affine_xor", "matrix": 3, "constant": []},
             "malformed"),
        ],
    )
    def test_wire_rejects(self, payload, match):
        with pytest.raises(SpecError, match=match):
            spec_from_wire(payload)

    def test_kinds_registry(self):
        assert SPEC_KINDS == (
            "truth_table", "multi_output", "affine_xor", "lookup_table"
        )


# ----------------------------------------------------------------------
# PLA parsing
# ----------------------------------------------------------------------
class TestParsePla:
    def test_single_output_and(self):
        spec = parse_pla(
            ".i 2\n.o 1\n00 0\n01 0\n10 0\n11 1\n.e\n"
        )
        assert isinstance(spec, TruthTableSpec)
        # PLA bits are most significant first: cube "01" is x1=0, x0=1.
        assert spec.rows == (0, 0, 0, 1)

    def test_dash_expands_inputs(self):
        spec = parse_pla(".i 2\n.o 1\n1- 1\n0- 0\n")
        # "1-" covers rows 2 and 3 (x1 = 1).
        assert spec.rows == (0, 0, 1, 1)

    def test_dash_output_marks_dont_care(self):
        spec = parse_pla(".i 2\n.o 1\n00 1\n01 -\n10 0\n11 0\n")
        assert spec.rows == (1, None, 0, 0)

    def test_unmentioned_rows_are_dont_cares(self):
        spec = parse_pla(".i 2\n.o 1\n11 1\n")
        assert spec.rows == (None, None, None, 1)

    def test_multi_output(self):
        spec = parse_pla(".i 1\n.o 2\n0 01\n1 10\n")
        assert isinstance(spec, MultiOutputSpec)
        # Output bits are most significant first too.
        assert spec.rows == (1, 2)

    def test_comments_and_ignored_directives(self):
        spec = parse_pla(
            "# header\n.i 1\n.o 1\n.p 2\n0 0  # zero\n1 1\n.end\n"
        )
        assert spec.rows == (0, 1)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("00 1\n", "before .i/.o"),
            (".i 2\n.o 1\n", "specifies no rows"),
            (".i x\n.o 1\n", "one integer"),
            (".i 2\n.o 1\n000 1\n", "input part has 3 bits"),
            (".i 2\n.o 1\n00 11\n", "output part has 2 bits"),
            (".i 2\n.o 1\n0z 1\n", "must be 0, 1 or -"),
            (".i 2\n.o 1\n00 1\n0- 0\n", "already assigned"),
            ("", "missing .i/.o"),
        ],
    )
    def test_rejects(self, text, match):
        with pytest.raises(SpecError, match=match):
            parse_pla(text)

    def test_consistent_overlap_is_fine(self):
        spec = parse_pla(".i 2\n.o 1\n1- 1\n11 1\n")
        assert spec.rows == (None, None, 1, 1)


# ----------------------------------------------------------------------
# Embedding planner + routing word
# ----------------------------------------------------------------------
class TestPlanEmbedding:
    def test_dc_table_plan(self):
        plan = plan_embedding(TruthTableSpec(rows=DC_ROWS, n_inputs=4))
        assert plan.n_wires == 4
        assert plan.input_wires == (0, 1, 2, 3)
        assert plan.output_wires == (3,)
        assert plan.constant_wires == ()
        assert plan.partial.free_inputs == [10, 13]
        assert plan.partial.n_completions() == 2
        wire = plan.to_wire()
        assert wire["dont_care_rows"] == 2 and wire["completions"] == 2

    def test_invertible_affine_short_circuits(self):
        plan = plan_embedding(
            AffineXorForm(matrix=((1, 0), (1, 1)), constant=(0, 1))
        )
        # Fully specified: no garbage, no constants, no don't-cares.
        assert plan.partial.free_inputs == []
        assert plan.garbage_wires == () and plan.constant_wires == ()
        assert plan.input_wires == (0, 1) and plan.output_wires == (0, 1)
        # Wires 2..3 pass through untouched.
        perm = plan.partial.complete([])
        for x in range(16):
            assert perm(x) >> 2 == x >> 2

    def test_singular_affine_takes_the_garbage_path(self):
        plan = plan_embedding(
            AffineXorForm(matrix=((1, 1), (1, 1)), constant=(0, 0))
        )
        assert plan.garbage_wires != ()
        assert plan.partial.free_inputs != []

    def test_pass_through_regime_keeps_inputs(self):
        # AND on 2 inputs into 4 wires: inputs pass through on their
        # own wires, so every specified row keeps its low bits.
        plan = plan_embedding(TruthTableSpec(rows=(0, 0, 0, 1), n_inputs=2))
        assert plan.constant_wires == ((2, 0), (3, 0))
        for x in range(4):
            y = plan.partial.outputs[x]
            assert y & 0b11 == x
            assert (y >> 3) & 1 == (1 if x == 3 else 0)
        # The natural XOR extension is consistent, so it is seeded.
        assert len(plan.extras) == 1
        assert plan.partial.matches(plan.extras[0])

    def test_bijective_lut_is_fully_specified(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0]
        plan = plan_embedding(
            LookupTableSpec(table=tuple(values), n_inputs=4, n_outputs=4)
        )
        assert plan.partial.free_inputs == []
        assert plan.partial.complete([]).word == Permutation.from_values(
            values
        ).word

    @pytest.mark.parametrize(
        "spec, n_wires, match",
        [
            (TruthTableSpec(rows=(0, 1), n_inputs=1), 5, "n_wires"),
            (TruthTableSpec(rows=DC_ROWS, n_inputs=4), 3, "does not fit"),
            # n_wires == n_outputs leaves one garbage code per value;
            # a repeated output value overflows that capacity.
            (MultiOutputSpec(rows=(0, 0), n_inputs=1, n_outputs=2), 2,
             "garbage codes"),
        ],
    )
    def test_rejects(self, spec, n_wires, match):
        with pytest.raises(SpecError, match=match):
            plan_embedding(spec, n_wires)

    def test_routing_word_is_deterministic_and_consistent(self):
        spec = TruthTableSpec(rows=DC_ROWS, n_inputs=4)
        word = routing_word(spec)
        assert word == routing_word(spec)
        plan = plan_embedding(spec)
        base = plan.partial.complete(list(plan.partial.free_outputs))
        assert word == base.word
        assert plan.partial.matches(Permutation(word, 4))


# ----------------------------------------------------------------------
# Sampled-completion hygiene (satellite: dedup + early exhaustion)
# ----------------------------------------------------------------------
def _sampled_completions(
    spec: PartialSpec, samples: int, seed: int
) -> "tuple[list[Permutation], bool]":
    """Up to ``samples`` *distinct* random completions of ``spec``.

    Returns ``(completions, exhausted)``.  Shuffles draw permutations
    of the free outputs with replacement, so duplicates are discarded
    rather than spent against the budget; when the whole ``t!`` space
    fits inside ``samples`` the completions are enumerated directly and
    ``exhausted`` is True -- the caller's answer is then exact, not a
    bound.  Redraws are bounded, so a pathological duplicate streak
    degrades to fewer samples instead of an unbounded loop.
    """
    total = spec.n_completions()
    if total <= samples:
        return list(spec.completions()), True
    rng = MersenneTwister(seed)
    free_outputs = spec.free_outputs
    seen: set = set()
    out: "list[Permutation]" = []
    attempts = 0
    max_attempts = 8 * samples
    while len(out) < samples and attempts < max_attempts:
        attempts += 1
        assignment = list(free_outputs)
        rng.shuffle(assignment)
        key = tuple(assignment)
        if key in seen:
            continue
        seen.add(key)
        out.append(spec.complete(assignment))
    return out, False


def _spec_with_free_rows(t: int) -> PartialSpec:
    """A seeded 4-wire partial spec with ``t`` free rows."""
    rng = random.Random(t)
    values: list = rng.sample(range(16), 16)
    for row in rng.sample(range(16), t):
        values[row] = None
    return PartialSpec(outputs=tuple(values), n_wires=4)


class TestSampledCompletions:
    """``_candidate_words`` against the per-completion generator it
    replaced (``_sampled_completions`` above, kept as the reference)."""

    def test_small_space_enumerates_exhaustively(self):
        spec = PartialSpec(outputs=(0, None, None, None), n_wires=2)
        words, exhausted = _candidate_words(spec, samples=10, seed=1)
        assert exhausted and len(words) == 6
        assert len(set(words.tolist())) == 6

    def test_samples_are_distinct(self):
        outputs = [None] * 16
        outputs[0] = 0
        spec = PartialSpec(outputs=tuple(outputs), n_wires=4)
        words, exhausted = _candidate_words(spec, samples=50, seed=7)
        assert not exhausted and len(words) == 50
        assert len(set(words.tolist())) == 50
        for word in words.tolist():
            assert spec.matches(Permutation(word, 4))

    @pytest.mark.parametrize("t", range(17))
    def test_words_match_the_reference(self, t):
        spec = _spec_with_free_rows(t)
        for samples in (1, 10, 64, 200):
            for seed in (1, 7, 5489):
                completions, exhausted = _sampled_completions(
                    spec, samples, seed
                )
                words, flag = _candidate_words(spec, samples, seed)
                assert flag == exhausted
                assert words.tolist() == [p.word for p in completions]

    def test_attempt_cap_stops_the_draw_short(self):
        spec = _spec_with_free_rows(5)
        completions, exhausted = _sampled_completions(spec, 119, 609)
        words, flag = _candidate_words(spec, 119, 609)
        assert not exhausted and not flag
        assert len(completions) == len(words) == 118
        assert words.tolist() == [p.word for p in completions]

    def test_exhaustive_limit_enumerates_in_completion_order(self):
        for t in range(8):
            spec = _spec_with_free_rows(t)
            words, flag = _candidate_words(
                spec, samples=1, seed=1, exhaustive_limit=5040
            )
            assert flag
            assert words.tolist() == [p.word for p in spec.completions()]


# ----------------------------------------------------------------------
# compile_spec: database path (optimal engine over the warm handle)
# ----------------------------------------------------------------------
class TestCompileSpec:
    def test_dc_table_is_optimal(self, optimal_engine):
        spec = TruthTableSpec(rows=DC_ROWS, n_inputs=4)
        result = compile_spec(spec, optimal_engine)
        assert isinstance(result, CompileResult)
        assert result.guarantee == "optimal"
        assert result.exhaustive and result.completions_tried == 2
        assert result.size == 3
        for x, want in enumerate(DC_ROWS):
            if want is not None:
                assert result.output_of(x) == want

    def test_affine_is_optimal(self, optimal_engine):
        spec = AffineXorForm(matrix=((1, 0), (1, 1)), constant=(0, 1))
        result = compile_spec(spec, optimal_engine)
        assert result.guarantee == "optimal"
        assert result.size == 2
        for x in range(4):
            assert result.output_of(x) == spec.evaluate(x)

    def test_sampled_regime_is_a_bound(self, optimal_engine):
        # AND embeds with 12 free rows (constant-wire rows + garbage),
        # far beyond the exhaustive limit: sampled, so a bound -- but
        # the natural extension seed still finds the Toffoli.
        spec = TruthTableSpec(rows=(0, 0, 0, 1), n_inputs=2)
        result = compile_spec(spec, optimal_engine)
        assert result.guarantee == "upper_bound"
        assert not result.exhaustive
        assert result.size == 1
        for x in range(4):
            assert result.output_of(x) == (1 if x == 3 else 0)

    def test_lut_matches_direct_synthesis(self, optimal_engine):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0]
        spec = LookupTableSpec(table=tuple(values), n_inputs=4, n_outputs=4)
        result = compile_spec(spec, optimal_engine)
        direct = optimal_engine.synthesize(
            SynthesisRequest(spec=Permutation.from_values(values), n_wires=4)
        )
        assert result.size == direct.size
        assert result.guarantee == "optimal"
        for x in range(16):
            assert result.output_of(x) == values[x]

    def test_wire_body_is_deterministic(self, optimal_engine):
        spec = TruthTableSpec(rows=DC_ROWS, n_inputs=4)
        a = compile_spec(spec, optimal_engine).to_wire()
        b = compile_spec(spec, optimal_engine).to_wire()
        assert a == b
        emb = a["embedding"]
        assert emb["input_wires"] == [0, 1, 2, 3]
        assert emb["output_wires"] == [3]
        assert emb["dont_care_rows"] == 2
        # The reported permutation honours every specified row.
        perm = Permutation.from_spec(emb["spec"])
        assert int(emb["word"], 16) == perm.word

    def test_cancel_checkpoint_is_called(self, optimal_engine):
        calls = []

        def checkpoint():
            calls.append(True)

        spec = TruthTableSpec(rows=DC_ROWS, n_inputs=4)
        compile_spec(spec, optimal_engine, cancel=checkpoint)
        assert len(calls) >= 2

    def test_cancel_aborts(self, optimal_engine):
        class Stop(Exception):
            pass

        def checkpoint():
            raise Stop()

        spec = TruthTableSpec(rows=DC_ROWS, n_inputs=4)
        with pytest.raises(Stop):
            compile_spec(spec, optimal_engine, cancel=checkpoint)


# ----------------------------------------------------------------------
# compile_spec: generic path (no database fast surface)
# ----------------------------------------------------------------------
class TestCompileGeneric:
    @pytest.fixture(scope="class")
    def heuristic(self):
        return create_engine("heuristic", n_wires=4)

    def test_tiny_space_is_covered_fully(self, heuristic):
        spec = TruthTableSpec(rows=DC_ROWS, n_inputs=4)
        result = compile_spec(spec, heuristic)
        # Both completions were synthesized; the heuristic engine's own
        # guarantee decides whether "optimal" may be claimed.
        assert result.exhaustive and result.completions_tried == 2
        for x, want in enumerate(DC_ROWS):
            if want is not None:
                assert result.output_of(x) == want

    def test_large_space_uses_seeded_candidates(self, heuristic):
        spec = TruthTableSpec(rows=(0, 0, 0, 1), n_inputs=2)
        result = compile_spec(spec, heuristic)
        assert result.guarantee == "upper_bound"
        assert not result.exhaustive
        # natural extension + lexicographic base, deduplicated.
        assert 1 <= result.completions_tried <= 2
        for x in range(4):
            assert result.output_of(x) == (1 if x == 3 else 0)
