"""Tests for don't-care/irreversible embedding synthesis."""

import hashlib
import json
import random

import pytest

from repro.core.circuit import Circuit
from repro.core.gates import NOT, all_gates
from repro.core.permutation import Permutation
from repro.errors import SizeLimitExceededError, SynthesisError
from repro.engines import create_engine
from repro.specs import (
    TruthTableSpec,
    compile_spec,
    plan_embedding,
    spec_from_wire,
)
from repro.synth.embedding import (
    PartialSpec,
    natural_reversible_extension,
    synthesize_partial,
)
from repro.synth.search import MeetInTheMiddleSearch
from repro.synth.synthesizer import OptimalSynthesizer


@pytest.fixture(scope="module")
def synth():
    synthesizer = OptimalSynthesizer(k=4, max_list_size=2, cache_dir=False)
    synthesizer.prepare()
    return synthesizer


@pytest.fixture(scope="module")
def engine(synth):
    """The ``optimal`` engine over ``synth``'s warm database."""
    return create_engine("optimal", handle=synth.handle())


@pytest.fixture(scope="module")
def engine7(handle4):
    """The optimal engine over the shared k = 4, L = 7 handle."""
    return create_engine("optimal", handle=handle4)


@pytest.fixture(scope="module")
def synth7(handle4):
    """The shared k = 4, L = 7 state: every completion of the specs
    below is beyond k, so the completion search falls to pass 2."""
    return OptimalSynthesizer.from_handle(handle4)


#: Exhaustive specs with no completion in the k = 4 database, and the
#: optimal size of each completion in order (None: beyond L = 7).
PASS2_SPECS = {
    "A": (
        (None, 9, 1, 8, 4, 13, 7, 12, 10, 3, 11, 2, None, None, 14, 5),
        (7, 6, None, None, None, None),
    ),
    # Pass 2 improves 7 -> 6 -> 5, and 5 = k + 1 is the floor.
    "B": (
        (4, 7, 14, None, 0, 1, 10, 11, 12, 15, None, 13, 8, 9, None, 2),
        (7, 6, 7, 5, 6, 5),
    ),
    "C": (
        (5, 4, 15, None, 1, 0, None, 3, 13, None, 7, 6, 9, 8, 2, 10),
        (None, 7, 6, None, 5, None),
    ),
}


#: The seven-free-row spec whose 5,040 completions are all sized (its
#: optimum over them is 4 gates).
SEVEN_FREE = (None, 1, None, None, None, 6, 3, None, None, None,
              8, 9, 11, 10, 15, 14)

#: SHA-256 of the newline-joined bodies of :func:`_golden_bodies`,
#: recorded while the completion search still built one validated
#: ``Permutation`` per candidate.
GOLDEN_DIGEST = (
    "b912dd7e8d7cd7c0aa786270991a1c71122243bc89a9d5566037dd1cfd64ba7b"
)


def _circuit_values(rng, gates, low, high):
    """The value list of a random ``low``..``high``-gate circuit."""
    circuit = Circuit(
        gates=tuple(rng.choice(gates) for _ in range(rng.randint(low, high))),
        n_wires=4,
    )
    return list(Permutation.from_word(circuit.to_word(), 4).values)


def _four_bit(rows):
    """A 4-in/4-out multi-output spec: its rows are the partial spec."""
    return {"kind": "multi_output", "n_inputs": 4, "n_outputs": 4,
            "rows": list(rows)}


def _golden_corpus():
    """Seeded ``(wire spec, compile_spec keywords)`` pairs covering the
    compile-dc shapes, the exhaustive regime, fully specified specs,
    ``t! <= samples``, the attempt cap, and pass 2."""
    rng = random.Random(31)
    gates = all_gates(4)
    corpus = []
    # compile-dc's shapes: (n_inputs, n_outputs, most don't-care rows).
    for n_in, n_out, max_dc in ((2, 1, 3), (3, 1, 3), (2, 2, 3)):
        for index in range(12):
            rows = [rng.randrange(1 << n_out) for _ in range(1 << n_in)]
            for row in rng.sample(range(1 << n_in), rng.randint(1, max_dc)):
                rows[row] = None
            if n_out == 1:
                spec = {"kind": "truth_table", "n_inputs": n_in, "rows": rows}
            else:
                spec = {"kind": "multi_output", "n_inputs": n_in,
                        "n_outputs": n_out, "rows": rows}
            corpus.append((spec, {
                "samples": (64, 200, 10)[index % 3],
                "seed": (5489, 1, 7, 609)[index % 4],
            }))
    # Exhaustive: t = 1..7 free rows of short circuits, and SEVEN_FREE.
    for t in range(1, 8):
        for _ in range(3):
            values = _circuit_values(rng, gates, 2, 5)
            for row in rng.sample(range(16), t):
                values[row] = None
            corpus.append((_four_bit(values), {"samples": 64}))
    corpus.append((_four_bit(SEVEN_FREE), {}))
    # t = 0: fully specified lookup tables and an affine form.
    for _ in range(3):
        table = _circuit_values(rng, gates, 1, 6)
        corpus.append(({"kind": "lookup_table", "n_inputs": 4,
                        "n_outputs": 4, "table": table}, {}))
    corpus.append(({"kind": "affine_xor", "matrix": [[1, 0], [1, 1]],
                    "constant": [0, 1]}, {}))
    # t! <= samples past the exhaustive limit, and the attempt cap
    # (t = 5, samples = 119, seed 609 draws 118 distinct orders).
    for t, samples in ((3, 6), (4, 24), (4, 64), (5, 119)):
        values = _circuit_values(rng, gates, 2, 5)
        for row in rng.sample(range(16), t):
            values[row] = None
        corpus.append((_four_bit(values), {
            "samples": samples, "exhaustive_limit": 1, "seed": 609,
        }))
    # Pass 2: no completion within k = 4.
    for outputs, _sizes in PASS2_SPECS.values():
        for samples in (10, 20, 200):
            corpus.append((_four_bit(outputs), {"samples": samples}))
    return corpus


def _golden_bodies(engine):
    """One sorted-keys wire body per corpus entry, in order (the error
    message for a spec with no completion in reach)."""
    bodies = []
    for spec, kwargs in _golden_corpus():
        try:
            body = compile_spec(spec_from_wire(spec), engine, **kwargs)
        except SynthesisError as exc:
            bodies.append(json.dumps({"error": str(exc)}))
            continue
        bodies.append(json.dumps(body.to_wire(), sort_keys=True))
    return bodies


def _unbounded_pass2(spec, synthesizer, samples):
    """Reference for a spec with no completion in the database: size
    the first ``samples // 10`` completions in order, each to the full
    reach L, and keep the first minimum.

    Returns ``(permutation, size, circuit text, completions_tried)``.
    """
    deferred = list(spec.completions())
    best_perm, best_size = None, None
    for perm in deferred[: max(1, samples // 10)]:
        size, exact = synthesizer.size_or_bound(perm)
        if exact and (best_size is None or size < best_size):
            best_perm, best_size = perm, size
    if best_perm is None:
        raise SynthesisError("every evaluated completion is out of reach")
    circuit = str(synthesizer.synthesize(best_perm))
    return best_perm, best_size, circuit, len(deferred)


def _seeded_pass2_specs(database, count, seed=25):
    """Random 5-7-gate circuits with three output rows freed, kept
    when none of their six completions is in ``database``."""
    rng = random.Random(seed)
    gates = all_gates(4)
    specs = []
    while len(specs) < count:
        length = rng.randint(5, 7)
        circuit = Circuit(
            gates=tuple(rng.choice(gates) for _ in range(length)), n_wires=4
        )
        values = list(Permutation.from_word(circuit.to_word(), 4).values)
        for row in rng.sample(range(16), 3):
            values[row] = None
        spec = PartialSpec(outputs=tuple(values), n_wires=4)
        if all(database.size_of(p.word) is None for p in spec.completions()):
            specs.append(spec)
    return specs


class _ScanCounter:
    """Wraps ``MeetInTheMiddleSearch._scan_lists`` to count scans, their
    candidates, and checkpoints run while a scan is open."""

    def __init__(self, monkeypatch):
        self.scans = 0
        self.candidates = 0
        self.inside = False
        self.checkpoints_inside = 0
        scan = MeetInTheMiddleSearch._scan_lists

        def counted(engine, *args, **kwargs):
            self.inside = True
            try:
                result = scan(engine, *args, **kwargs)
            finally:
                self.inside = False
            self.scans += 1
            self.candidates += result[3]
            return result

        monkeypatch.setattr(MeetInTheMiddleSearch, "_scan_lists", counted)

    def checkpoint(self):
        if self.inside:
            self.checkpoints_inside += 1


class TestPartialSpec:
    def test_fully_specified(self):
        spec = PartialSpec(outputs=tuple(range(16)), n_wires=4)
        assert spec.free_inputs == []
        assert spec.n_completions() == 1
        assert list(spec.completions()) == [Permutation.identity(4)]

    def test_free_rows_and_outputs(self):
        outputs = list(range(16))
        outputs[3] = None
        outputs[7] = None
        spec = PartialSpec(outputs=tuple(outputs), n_wires=4)
        assert spec.free_inputs == [3, 7]
        assert spec.free_outputs == [3, 7]
        assert spec.n_completions() == 2

    def test_completions_match_spec(self):
        outputs = [None, None] + list(range(2, 16))
        spec = PartialSpec(outputs=tuple(outputs), n_wires=4)
        for perm in spec.completions():
            assert spec.matches(perm)

    def test_validation(self):
        with pytest.raises(SynthesisError):
            PartialSpec(outputs=(0, 0, None, None), n_wires=2)
        with pytest.raises(SynthesisError):
            PartialSpec(outputs=(0, 9, None, None), n_wires=2)
        with pytest.raises(SynthesisError):
            PartialSpec(outputs=(0, 1, 2), n_wires=2)

    def test_matches_rejects_wrong_fixed_row(self):
        spec = PartialSpec(outputs=(0, None, None, 3), n_wires=2)
        assert spec.matches(Permutation.identity(2))
        swapped = Permutation.from_values([1, 0, 2, 3])
        assert not spec.matches(swapped)


class TestSynthesizePartial:
    def test_fully_specified_equals_direct_synthesis(self, synth):
        shift = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0]
        spec = PartialSpec(outputs=tuple(shift), n_wires=4)
        result = synthesize_partial(spec, synth)
        assert result.size == 4
        assert result.exhaustive
        assert result.circuit.implements(Permutation.from_values(shift))

    def test_dont_cares_can_only_help(self, synth):
        """Freeing two rows of shift4 yields size <= 4."""
        shift = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0]
        outputs = list(shift)
        outputs[0] = None
        outputs[15] = None
        spec = PartialSpec(outputs=tuple(outputs), n_wires=4)
        result = synthesize_partial(spec, synth)
        assert result.size <= 4
        assert spec.matches(result.permutation)

    def test_identity_with_free_rows_is_zero(self, synth):
        outputs = list(range(16))
        outputs[5] = None
        outputs[9] = None
        spec = PartialSpec(outputs=tuple(outputs), n_wires=4)
        result = synthesize_partial(spec, synth)
        assert result.size == 0

    def test_and_embedding_is_single_toffoli(self, engine):
        """AND(a, b) onto wire d: the natural reversible extension is
        the Toffoli gate, so the optimum over don't-cares is 1 gate."""
        result = compile_spec(TruthTableSpec((0, 0, 0, 1), 2), engine)
        assert result.size == 1
        assert result.circuit == "TOF(a,b,d)"

    def test_natural_extension_of_and_is_toffoli(self):
        natural = natural_reversible_extension([0, 0, 0, 1], 2, 4)
        from repro.core.gates import TOF

        assert natural.word == TOF(0, 1, 3).to_word(4)

    def test_xor_embedding_is_two_cnots(self, engine):
        """XOR(a, b) onto wire d: two CNOTs."""
        result = compile_spec(TruthTableSpec((0, 1, 1, 0), 2), engine)
        assert result.size == 2
        assert Circuit.parse(result.circuit, 4).gate_count == 2

    def test_majority_embedding(self, engine):
        """MAJ(a, b, c) onto wire d embeds within a few gates."""
        majority = TruthTableSpec((0, 0, 0, 1, 0, 1, 1, 1), 3)
        result = compile_spec(majority, engine)
        spec = plan_embedding(majority, n_wires=4).partial
        assert spec.matches(result.permutation)
        assert 1 <= result.size <= 4

    def test_extras_go_first_and_the_last_given_wins_a_tie(self, synth):
        spec = PartialSpec(outputs=(None,) * 16, n_wires=4)
        not_a, not_b = (
            Permutation.from_word(NOT(wire).to_word(4), 4) for wire in (0, 1)
        )
        result = synthesize_partial(
            spec, synth, samples=10, extra_candidates=[not_a, not_b]
        )
        assert (result.permutation, result.size) == (not_b, 1)
        assert result.completions_tried == 12

    def test_extra_candidate_must_match(self, synth):
        and_spec = TruthTableSpec((0, 0, 0, 1), 2)
        spec = plan_embedding(and_spec, n_wires=4).partial
        with pytest.raises(SynthesisError):
            synthesize_partial(
                spec, synth, extra_candidates=[Permutation.identity(4)]
            )


class TestGoldenCompileBodies:
    def test_bodies_are_unchanged(self, engine7):
        bodies = _golden_bodies(engine7)
        assert len(bodies) == 75
        digest = hashlib.sha256("\n".join(bodies).encode()).hexdigest()
        assert digest == GOLDEN_DIGEST


class TestPassTwo:
    """The full searches run when no completion is in the database."""

    def test_completion_sizes(self, synth7):
        for outputs, sizes in PASS2_SPECS.values():
            spec = PartialSpec(outputs=outputs, n_wires=4)
            found = []
            for perm in spec.completions():
                size, exact = synth7.size_or_bound(perm)
                found.append(size if exact else None)
                assert synth7.database.size_of(perm.word) is None
            assert tuple(found) == sizes

    @pytest.mark.parametrize("samples", [10, 20, 60])
    def test_same_answer_as_unbounded_search(self, synth7, samples):
        specs = [
            PartialSpec(outputs=outputs, n_wires=4)
            for outputs, _ in PASS2_SPECS.values()
        ]
        specs += _seeded_pass2_specs(synth7.database, 50)
        reached = 0
        for spec in specs:
            try:
                expected = _unbounded_pass2(spec, synth7, samples)
            except SynthesisError:
                with pytest.raises(SynthesisError):
                    synthesize_partial(spec, synth7, samples=samples)
                continue
            reached += 1
            result = synthesize_partial(spec, synth7, samples=samples)
            assert (
                result.permutation,
                result.size,
                str(result.circuit),
                result.completions_tried,
            ) == expected
        assert reached >= 30

    def test_exhaustive_only_when_pass_two_proved_it(self, synth7):
        a = PartialSpec(outputs=PASS2_SPECS["A"][0], n_wires=4)
        b = PartialSpec(outputs=PASS2_SPECS["B"][0], n_wires=4)
        # A's cap of 1 or 2 completions leaves some of six unsized.
        for samples, size in ((10, 7), (20, 6)):
            result = synthesize_partial(a, synth7, samples=samples)
            assert (result.size, result.exhaustive) == (size, False)
        # A cap covering all six proves the optimum ...
        result = synthesize_partial(a, synth7, samples=200)
        assert (result.size, result.exhaustive) == (6, True)
        # ... and so does reaching the floor k + 1 before the cap.
        result = synthesize_partial(b, synth7, samples=50)
        assert (result.size, result.exhaustive) == (5, True)

    @pytest.mark.parametrize(
        "name, scans, candidates",
        [("B", (7, 35_768), (5, 17_932)), ("C", (7, 68_960), (6, 34_952))],
    )
    def test_work_saved(self, synth7, monkeypatch, name, scans, candidates):
        spec = PartialSpec(outputs=PASS2_SPECS[name][0], n_wires=4)
        counter = _ScanCounter(monkeypatch)
        reference = _unbounded_pass2(spec, synth7, 200)
        assert (counter.scans, counter.candidates) == scans
        counter.scans = counter.candidates = 0
        result = synthesize_partial(spec, synth7, samples=200)
        assert (counter.scans, counter.candidates) == candidates
        assert (result.permutation, result.size) == reference[:2]

    def test_checkpoint_runs_inside_pass_two_scans(self, synth7, monkeypatch):
        spec = PartialSpec(outputs=PASS2_SPECS["C"][0], n_wires=4)
        counter = _ScanCounter(monkeypatch)
        synthesize_partial(spec, synth7, samples=200, cancel=counter.checkpoint)
        # One checkpoint per A_i list of the five pass-2 sizings
        # (3 + 3 + 2 + 1 + 1); the final synthesize takes none.
        assert counter.checkpoints_inside == 10


class TestSizeBound:
    """``size_of(word, max_size=...)`` scans only as deep as it must."""

    @pytest.mark.parametrize("name, index", [("B", 3), ("B", 1), ("A", 0)])
    def test_bound(self, engine4_l7, name, index):
        outputs, sizes = PASS2_SPECS[name]
        spec = PartialSpec(outputs=outputs, n_wires=4)
        word = list(spec.completions())[index].word
        size = sizes[index]
        k = engine4_l7.db.k
        assert size > k
        lists = []
        assert engine4_l7.size_of(
            word, max_size=size, cancel=lambda: lists.append(1)
        ) == size
        assert len(lists) == size - k
        lists.clear()
        with pytest.raises(SizeLimitExceededError) as info:
            engine4_l7.size_of(
                word, max_size=size - 1, cancel=lambda: lists.append(1)
            )
        assert info.value.lower_bound == size
        assert len(lists) == size - 1 - k

    def test_bound_is_capped_at_reach(self, engine4_l7):
        hwb4 = Permutation.from_values(
            [0, 2, 4, 12, 8, 5, 9, 11, 1, 6, 10, 13, 3, 14, 7, 15]
        )
        with pytest.raises(SizeLimitExceededError) as info:
            engine4_l7.size_of(hwb4.word, max_size=20)
        assert info.value.lower_bound == engine4_l7.max_size + 1

    def test_database_hit_above_bound_raises(self, engine4_l7):
        shift = Permutation.from_values([*range(1, 16), 0])
        assert engine4_l7.size_of(shift.word, max_size=4) == 4
        with pytest.raises(SizeLimitExceededError) as info:
            engine4_l7.size_of(shift.word, max_size=3)
        assert info.value.lower_bound == 4

    def test_size_or_bound_passes_the_bound(self, synth7):
        outputs, sizes = PASS2_SPECS["B"]
        perm = list(PartialSpec(outputs=outputs, n_wires=4).completions())[0]
        assert synth7.size_or_bound(perm, max_size=7) == (7, True)
        assert synth7.size_or_bound(perm, max_size=6) == (7, False)


class TestQasmExport:
    def test_basic_gates(self):
        from repro.core.circuit import Circuit
        from repro.io.qasm import to_qasm

        circuit = Circuit.parse("NOT(a) CNOT(a,b) TOF(a,b,c)", 4)
        qasm = to_qasm(circuit)
        assert "OPENQASM 2.0;" in qasm
        assert "x q[0];" in qasm
        assert "cx q[0], q[1];" in qasm
        assert "ccx q[0], q[1], q[2];" in qasm
        assert "qreg q[4];" in qasm

    def test_c3x_mode(self):
        from repro.core.circuit import Circuit
        from repro.io.qasm import to_qasm

        circuit = Circuit.parse("TOF4(a,b,c,d)", 4)
        qasm = to_qasm(circuit, allow_c3x=True)
        assert "c3x q[0], q[1], q[2], q[3];" in qasm
        assert "qreg q[4];" in qasm

    def test_tof4_ancilla_decomposition(self):
        from repro.core.circuit import Circuit
        from repro.io.qasm import to_qasm

        circuit = Circuit.parse("TOF4(a,b,c,d)", 4)
        qasm = to_qasm(circuit, allow_c3x=False)
        assert "qreg q[5];" in qasm  # one ancilla appended
        assert qasm.count("ccx") == 3
        assert "c3x" not in qasm

    def test_write_and_comment(self, tmp_path):
        from repro.core.circuit import Circuit
        from repro.io.qasm import write_qasm

        path = tmp_path / "c.qasm"
        write_qasm(Circuit.parse("NOT(a)", 4), path, comment="hello")
        text = path.read_text()
        assert text.startswith("// hello")
        assert text.endswith("x q[0];\n")
