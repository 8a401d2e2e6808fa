"""Tests for optimal linear synthesis (paper §4.3, Table 5)."""

import pytest

from repro.core.circuit import Circuit
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.synth.linear import LinearSynthesizer, build_linear_database

PAPER_TABLE5 = [1, 16, 162, 1206, 6589, 26182, 72062, 118424, 84225, 13555, 138]


@pytest.fixture(scope="module")
def linear4():
    synth = LinearSynthesizer(4)
    synth.database  # force build
    return synth


class TestTable5:
    def test_exact_distribution(self, linear4):
        """The headline exact reproduction: all of the paper's Table 5."""
        assert linear4.database.counts == PAPER_TABLE5

    def test_total_is_group_order(self, linear4):
        assert linear4.database.states_stored == 322560

    def test_max_size_and_hardest(self, linear4):
        assert linear4.database.max_size == 10
        assert len(linear4.hardest_functions()) == 138

    def test_every_stored_function_is_affine(self, linear4):
        keys = linear4.database.table.keys()
        for word in keys[:: len(keys) // 64].tolist():
            assert Permutation(word, 4).is_affine()


class TestLinearSynthesis:
    def test_paper_example_size_10(self, linear4):
        values = []
        for x in range(16):
            a, b, c, d = x & 1, (x >> 1) & 1, (x >> 2) & 1, (x >> 3) & 1
            values.append(
                (b ^ 1) | ((a ^ c ^ 1) << 1) | ((d ^ 1) << 2) | (a << 3)
            )
        perm = Permutation.from_values(values)
        assert linear4.size(perm) == 10
        circuit = linear4.synthesize(perm)
        assert circuit.gate_count == 10
        assert circuit.implements(perm)
        assert all(len(g.controls) <= 1 for g in circuit.gates)

    def test_paper_example_circuit_verifies(self):
        """The explicit 10-gate circuit printed in Section 4.3."""
        circuit = Circuit.parse(
            "CNOT(b,a) CNOT(c,d) CNOT(d,b) NOT(d) CNOT(a,b) CNOT(d,c) "
            "CNOT(b,d) CNOT(d,a) NOT(d) CNOT(c,b)",
            4,
        )
        values = []
        for x in range(16):
            a, b, c, d = x & 1, (x >> 1) & 1, (x >> 2) & 1, (x >> 3) & 1
            values.append(
                (b ^ 1) | ((a ^ c ^ 1) << 1) | ((d ^ 1) << 2) | (a << 3)
            )
        assert circuit.implements(values)

    def test_identity(self, linear4):
        assert linear4.size(list(range(16))) == 0
        assert linear4.synthesize(list(range(16))).gate_count == 0

    def test_random_linear_functions(self, linear4, rng):
        """Synthesize random affine maps and verify size-consistency."""
        from repro.synth.gf2 import AffineMap

        for _ in range(15):
            rows = [1 << i for i in range(4)]
            for _ in range(20):
                i, j = rng.randrange(4), rng.randrange(4)
                if i != j:
                    rows[i] ^= rows[j]
            affine = AffineMap(rows=tuple(rows), constant=rng.randrange(16))
            perm = Permutation(affine.to_word(), 4)
            circuit = linear4.synthesize(perm)
            assert circuit.implements(perm)
            assert circuit.gate_count == linear4.size(perm)

    def test_non_linear_rejected(self, linear4):
        from repro.benchmarks_data import get_benchmark

        with pytest.raises(SynthesisError):
            linear4.size(get_benchmark("hwb4").permutation())
        with pytest.raises(SynthesisError):
            linear4.synthesize(get_benchmark("hwb4").permutation())

    def test_linear_optimum_upper_bounds_general_optimum(
        self, linear4, engine4_l7
    ):
        """NOT/CNOT-optimal size >= NCT-optimal size (larger library can
        only help), checked on small linear functions."""
        keys, values = linear4.database.table.items()
        sampled = keys[values <= 5][:20]
        for word in sampled.tolist():
            assert engine4_l7.size_of(int(word)) <= linear4.size(
                Permutation(int(word), 4)
            )


class TestSmallerWidths:
    def test_n3_linear_database(self):
        db = build_linear_database(3)
        assert db.states_stored == 168 * 8  # |GL(3,2)| * translations
        assert db.counts[0] == 1
        assert db.counts[1] == 9  # 3 NOT + 6 CNOT
