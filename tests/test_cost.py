"""Tests for cost-aware optimal synthesis (paper §5 extension)."""

import pytest

from repro.core.gates import NOT, TOF, all_gates
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.synth.cost import (
    NCV_COST_BY_CONTROLS,
    UNIT_COST_BY_CONTROLS,
    CostOptimalSynthesizer,
    build_cost_database,
    gate_cost,
)


@pytest.fixture(scope="module")
def cost_db():
    return build_cost_database(4, 10)


@pytest.fixture(scope="module")
def cost_synth(cost_db):
    synth = CostOptimalSynthesizer(4, max_cost=10)
    synth._db = cost_db
    return synth


class TestGateCost:
    def test_ncv_values(self):
        assert gate_cost(NOT(0)) == 1
        assert gate_cost(TOF(0, 1, 2)) == 5
        for gate in all_gates(4):
            assert gate_cost(gate) == NCV_COST_BY_CONTROLS[len(gate.controls)]

    def test_positive_costs_enforced(self):
        with pytest.raises(SynthesisError):
            build_cost_database(4, 3, model={0: 0, 1: 1, 2: 1, 3: 1})


class TestCostDatabase:
    def test_identity_cost_zero(self, cost_db):
        assert cost_db.cost_of(Permutation.identity(4).word) == 0

    def test_gate_costs(self, cost_db):
        for gate in all_gates(4):
            expected = gate_cost(gate)
            if expected <= cost_db.max_cost:
                assert cost_db.cost_of(gate.to_word(4)) == expected

    def test_counts_by_cost_structure(self, cost_db):
        counts = cost_db.counts_by_cost()
        assert counts[0] == 1
        # Cost 1: the NOT class and the CNOT class.
        assert counts[1] == 2
        # Cost 5: includes the TOF class.
        assert 5 in counts

    def test_out_of_bound_returns_none(self, cost_db):
        from repro.benchmarks_data import get_benchmark

        assert cost_db.cost_of(get_benchmark("hwb4").permutation().word) is None

    def test_unit_cost_equals_gate_count(self, db4_k4):
        """With the unit model, optimal cost == optimal gate count."""
        unit_db = build_cost_database(4, 4, model=UNIT_COST_BY_CONTROLS)
        for size, reps in enumerate(db4_k4.reps_by_size):
            for word in reps[:: max(1, len(reps) // 10)][:10].tolist():
                assert unit_db.cost_of(word) == size


class TestCostSynthesis:
    def test_synthesize_verifies(self, cost_synth, rng):
        from repro.synth.bfs import build_database

        db = build_database(4, 3)
        for size in (1, 2, 3):
            reps = db.reps_by_size[size]
            for _ in range(3):
                word = int(reps[rng.randrange(len(reps))])
                perm = Permutation(word, 4)
                try:
                    circuit = cost_synth.synthesize(perm)
                except SynthesisError:
                    continue  # cost above the bound (e.g. several TOF4s)
                assert circuit.implements(perm)
                assert circuit.cost() == cost_synth.cost(perm)

    def test_cost_optimal_beats_gate_count_optimal_on_rd32(
        self, cost_synth, engine4_l7
    ):
        """rd32: 4 gates optimally but NCV cost 12; the cost-optimal
        circuit reaches cost 9 (using more, cheaper gates)."""
        from repro.benchmarks_data import get_benchmark

        rd32 = get_benchmark("rd32").permutation()
        gate_optimal = engine4_l7.minimal_circuit(rd32.word)
        assert gate_optimal.gate_count == 4
        assert gate_optimal.cost() == 12
        assert cost_synth.cost(rd32) == 9
        circuit = cost_synth.synthesize(rd32)
        assert circuit.implements(rd32)
        assert circuit.cost() == 9
        assert circuit.gate_count > 4  # trades gates for cost

    def test_cost_lower_bounds_gate_count(self, cost_synth, engine4_l7, rng):
        """NCV cost >= gate count (every gate costs >= 1)."""
        from repro.synth.bfs import build_database

        db = build_database(4, 3)
        reps = db.reps_by_size[3]
        for _ in range(10):
            word = int(reps[rng.randrange(len(reps))])
            try:
                cost = cost_synth.cost(Permutation(word, 4))
            except SynthesisError:
                continue
            assert cost >= engine4_l7.size_of(word)

    def test_out_of_reach_raises(self, cost_synth):
        from repro.benchmarks_data import get_benchmark

        with pytest.raises(SynthesisError):
            cost_synth.cost(get_benchmark("hwb4").permutation())
