"""Cross-module integration tests: the full pipeline end to end."""

import repro
from repro import OptimalSynthesizer, Permutation
from repro.core import packed


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_readme_quickstart(self):
        """The exact snippet from the package docstring works."""
        synth = OptimalSynthesizer(k=4, max_list_size=2, cache_dir=False)
        circuit = synth.synthesize("[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]")
        assert str(circuit) == "TOF4(a,b,c,d) TOF(a,b,c) CNOT(a,b) NOT(a)"


class TestEndToEnd:
    def test_synthesize_verify_roundtrip(self, engine4_l9):
        """Random circuits of <= 9 gates re-synthesize to <= their length
        and the results verify."""
        from repro.rng.mt19937 import MersenneTwister
        from repro.rng.sampling import random_circuit

        for seed in range(10):
            original = random_circuit(4, 9, MersenneTwister(seed))
            perm = Permutation(original.to_word(), 4)
            outcome = engine4_l9.search(perm.word)
            assert outcome.size <= original.gate_count
            assert outcome.circuit.implements(perm)

    def test_synthesized_inverse_is_reversed_circuit(self, engine4_l9):
        """Paper §3.2 symmetry 2, validated through the synthesizer."""
        from repro.benchmarks_data import get_benchmark

        perm = get_benchmark("4bit-7-8").permutation()
        circuit = engine4_l9.minimal_circuit(perm.word)
        reversed_circuit = circuit.inverse()
        assert reversed_circuit.implements(perm.inverse())
        assert engine4_l9.size_of(perm.inverse().word) == circuit.gate_count

    def test_equivalent_functions_have_equal_size(self, engine4_l9, rng):
        """Paper §3.2: every member of an equivalence class has the same
        optimal size."""
        from repro.rng.mt19937 import MersenneTwister
        from repro.rng.sampling import random_circuit

        rng = MersenneTwister(2)
        for _ in range(3):
            perm = Permutation(random_circuit(4, 8, rng).to_word(), 4)
            size = engine4_l9.size_of(perm.word)
            for member in perm.equivalence_class()[:8]:
                assert engine4_l9.size_of(member.word) == size

    def test_relabeled_circuit_implements_conjugate(self, engine4_l9):
        from repro.benchmarks_data import get_benchmark

        perm = get_benchmark("rd32").permutation()
        circuit = engine4_l9.minimal_circuit(perm.word)
        sigma = (3, 1, 0, 2)
        relabeled = circuit.relabeled(sigma)
        conjugate = Permutation(
            packed.conjugate_by_wire_perm(perm.word, sigma, 4), 4
        )
        assert relabeled.implements(conjugate)
        assert engine4_l9.size_of(conjugate.word) == circuit.gate_count

    def test_three_engines_agree_on_n3(self, engine3, db3):
        """Optimal lookup, plain BFS, and SAT agree on 3-bit sizes."""
        from repro.sat.synth import sat_synthesize
        from repro.synth.plain_bfs import plain_bfs

        raw = plain_bfs(3, 10)
        from repro.rng.sampling import PermutationSampler

        sampler = PermutationSampler(3, seed=55)
        for _ in range(3):
            word = sampler.sample_word()
            size = engine3.size_of(word)
            assert raw.size_of(word) == size
            if size <= 4:  # keep SAT runtime sane
                result = sat_synthesize(Permutation(word, 3), max_gates=4)
                assert result.circuit.gate_count == size

    def test_heuristic_vs_optimal_pipeline(self, engine3):
        """MMD output re-synthesized optimally matches direct synthesis."""
        from repro.rng.sampling import PermutationSampler
        from repro.synth.heuristic import mmd_synthesize

        sampler = PermutationSampler(3, seed=21)
        for _ in range(10):
            perm = sampler.sample()
            heuristic_circuit = mmd_synthesize(perm)
            assert heuristic_circuit.implements(perm)
            optimal = engine3.size_of(perm.word)
            assert heuristic_circuit.gate_count >= optimal

    def test_real_file_through_synthesizer(self, engine4_l9, tmp_path):
        """Write an optimal circuit to .real, read back, verify function."""
        from repro.benchmarks_data import get_benchmark
        from repro.io.real_format import read_real, write_real

        perm = get_benchmark("imark").permutation()
        circuit = engine4_l9.minimal_circuit(perm.word)
        path = tmp_path / "imark.real"
        write_real(circuit, path, comment="imark, 7 gates, optimal")
        assert read_real(path).implements(perm)
