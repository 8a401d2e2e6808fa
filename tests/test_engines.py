"""Tests for the unified engine layer (repro.engines).

Covers the registry, every adapter, the portfolio's tier logic, and
seeded cross-engine consistency (every engine's circuit re-simulates to
the spec; optimal sizes bound heuristic sizes; depth-optimal depth
bounds the gate-optimal circuit's depth).
"""

import random

import pytest

from repro.core.circuit import Circuit
from repro.core.gates import all_gates
from repro.core.permutation import Permutation
from repro.engines import (
    GUARANTEE_HEURISTIC,
    GUARANTEE_OPTIMAL,
    METRIC_DEPTH,
    SynthesisRequest,
    create_engine,
    engine_capabilities,
    engine_names,
    engine_summary,
    register_engine,
    servable_engine_names,
)
from repro.errors import (
    SizeLimitExceededError,
    SynthesisError,
    WorkCancelledError,
)

NOT_A_3 = "[1,0,3,2,5,4,7,6]"  # NOT(a) on 3 wires
SHIFT4 = "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]"


class TestRegistry:
    def test_engine_names_complete(self):
        assert engine_names() == [
            "clifford", "depth", "heuristic", "linear", "optimal",
            "plain-bfs", "portfolio", "race", "sat", "wide",
        ]

    def test_unknown_engine(self):
        with pytest.raises(SynthesisError, match="unknown engine 'nope'"):
            create_engine("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate engine name"):
            register_engine(
                "optimal", "repro.engines.optimal", "OptimalEngine", "dup"
            )

    def test_summaries_exist(self):
        for name in engine_names():
            assert engine_summary(name)

    def test_servable_subset(self):
        servable = servable_engine_names()
        assert servable == [
            "depth", "heuristic", "linear", "optimal", "portfolio", "race",
        ]
        for name in servable:
            assert engine_capabilities(name).servable

    def test_warm_handle_shares_the_synthesizers_database(self):
        # The route a pool builder takes to an engine over a synthesizer
        # it already prepared: ``synth.handle()`` into ``create_engine``.
        from repro.synth.synthesizer import OptimalSynthesizer

        synth = OptimalSynthesizer(
            n_wires=4, k=3, max_list_size=1, cache_dir=False
        )
        engine = create_engine("optimal", n_wires=4, handle=synth.handle())
        assert engine.impl.database is synth.database
        assert engine.impl.max_size == synth.max_size

    def test_option_filtering(self):
        # Unknown keyword args are dropped, so one option dict can be
        # broadcast to engines with different factory signatures.
        engine = create_engine("heuristic", n_wires=4, k=6, cache_dir=False)
        assert engine.name == "heuristic"


class TestAdapters:
    def test_optimal(self):
        engine = create_engine("optimal", n_wires=3, k=3, cache_dir=False)
        result = engine.synthesize(SynthesisRequest(spec=NOT_A_3))
        assert result.engine == "optimal"
        assert result.size == 1
        assert result.circuit == "NOT(a)"
        assert result.guarantee == GUARANTEE_OPTIMAL
        assert result.extra["lists_scanned"] >= 0
        assert result.circuit_obj.implements(Permutation.from_spec(NOT_A_3))

    def test_optimal_out_of_reach(self):
        engine = create_engine(
            "optimal", n_wires=3, k=2, max_list_size=0, cache_dir=False
        )
        with pytest.raises(SizeLimitExceededError) as exc:
            engine.synthesize(SynthesisRequest(spec="[0,1,7,6,4,3,2,5]"))
        assert exc.value.lower_bound == 3

    def test_plain_bfs_reconstructs(self):
        engine = create_engine("plain-bfs", n_wires=3, k=3)
        result = engine.synthesize(SynthesisRequest(spec=NOT_A_3))
        assert result.size == 1
        assert result.circuit == "NOT(a)"
        assert result.extra["states_stored"] > 0

    def test_plain_bfs_out_of_reach(self):
        engine = create_engine("plain-bfs", n_wires=3, k=2)
        with pytest.raises(SizeLimitExceededError) as exc:
            engine.synthesize(SynthesisRequest(spec="[0,1,7,6,4,3,2,5]"))
        assert exc.value.lower_bound == 3

    def test_heuristic(self):
        engine = create_engine("heuristic")
        perm = Permutation.from_spec(NOT_A_3)
        result = engine.synthesize(SynthesisRequest(spec=perm))
        assert result.guarantee == GUARANTEE_HEURISTIC
        assert result.circuit_obj.implements(perm)
        assert "bidirectional" in result.extra

    def test_heuristic_bad_variant(self):
        with pytest.raises(SynthesisError, match="unknown MMD variant"):
            create_engine("heuristic", variant="sideways")

    def test_sat(self):
        engine = create_engine("sat", max_gates=4)
        result = engine.synthesize(
            SynthesisRequest(spec=NOT_A_3, n_wires=3)
        )
        assert result.size == 1
        assert result.guarantee == GUARANTEE_OPTIMAL
        assert result.extra["depths_tried"]

    def test_depth(self):
        engine = create_engine("depth", n_wires=3, max_depth=2)
        perm = Permutation.from_spec(NOT_A_3)
        result = engine.synthesize(SynthesisRequest(spec=perm))
        assert result.metric == METRIC_DEPTH
        assert result.depth == 1
        assert result.extra["optimal_depth"] == 1
        assert result.circuit_obj.implements(perm)

    def test_linear(self):
        engine = create_engine("linear", n_wires=3)
        result = engine.synthesize(SynthesisRequest(spec=NOT_A_3))
        assert result.size == 1
        assert result.extra["library"] == "NOT/CNOT"

    def test_linear_rejects_nonlinear(self):
        engine = create_engine("linear", n_wires=3)
        toffoli = "[0,1,2,3,4,5,7,6]"  # TOF is not affine
        with pytest.raises(SynthesisError):
            engine.synthesize(SynthesisRequest(spec=toffoli))

    def test_wide_accepts_value_rows(self):
        engine = create_engine("wide", n_wires=3, k=2)
        result = engine.synthesize(
            SynthesisRequest(spec=[1, 0, 3, 2, 5, 4, 7, 6])
        )
        assert result.size == 1
        assert result.circuit == "NOT(a)"

    def test_wide_cost_outside_ncv_model_is_none(self):
        # TOF5 has four controls; the NCV table stops at three, so the
        # result reports no cost rather than crashing (n >= 5 territory).
        from repro.core.gates import Gate

        engine = create_engine("wide", n_wires=5, k=1)
        tof5 = Circuit(gates=(Gate(controls=(0, 1, 2, 3), target=4),), n_wires=5)
        result = engine.synthesize(SynthesisRequest(spec=tof5.truth_table()))
        assert result.size == 1
        assert result.cost is None
        assert result.depth == 1

    def test_wide_rejects_packed_words(self):
        engine = create_engine("wide", n_wires=3, k=2)
        with pytest.raises(SynthesisError, match="value sequences"):
            engine.synthesize(SynthesisRequest(spec=0x67452301))

    def test_clifford_identity(self):
        from repro.stabilizer.tableau import CliffordTableau

        engine = create_engine("clifford", n_qubits=1)
        result = engine.synthesize(
            SynthesisRequest(spec=CliffordTableau.identity(1))
        )
        assert result.size == 0
        assert result.circuit == "(identity)"
        assert result.depth is None and result.cost is None

    def test_clifford_rejects_permutations(self):
        engine = create_engine("clifford", n_qubits=1)
        with pytest.raises(SynthesisError, match="CliffordTableau"):
            engine.synthesize(SynthesisRequest(spec=NOT_A_3))

    def test_to_wire_deterministic(self):
        engine = create_engine("heuristic")
        request = SynthesisRequest(spec=NOT_A_3, n_wires=3)
        first = engine.synthesize(request).to_wire()
        second = engine.synthesize(request).to_wire()
        assert first == second
        assert "seconds" not in first


class TestPortfolio:
    def test_optimal_tier(self):
        engine = create_engine("portfolio", n_wires=3, k=3, cache_dir=False)
        result = engine.synthesize(SynthesisRequest(spec=NOT_A_3))
        assert result.engine == "portfolio"
        assert result.extra["tier"] == "optimal"
        assert result.guarantee == GUARANTEE_OPTIMAL
        assert result.size == 1

    def test_heuristic_tier_with_matching_bound_is_optimal(self):
        # Out of the optimal engine's reach, but the proven lower bound
        # meets the heuristic circuit: provably minimal without SAT.
        engine = create_engine(
            "portfolio", n_wires=4, k=2, max_list_size=1, cache_dir=False
        )
        result = engine.synthesize(SynthesisRequest(spec=SHIFT4))
        assert result.extra["tier"] == "heuristic"
        assert result.guarantee == GUARANTEE_OPTIMAL
        assert result.size == 4
        assert result.extra["lower_bound"] == 4

    def test_sat_tier_closes_gap(self):
        # MMD gives 4 gates, the bound proof gives 3; SAT at size 3 hits.
        engine = create_engine(
            "portfolio", n_wires=3, k=2, max_list_size=0, cache_dir=False
        )
        result = engine.synthesize(
            SynthesisRequest(spec="[0,1,7,6,4,3,2,5]")
        )
        assert result.extra["tier"] == "sat"
        assert result.guarantee == GUARANTEE_OPTIMAL
        assert result.size == 3
        assert result.extra["upper_bound"] == 4
        spec = Permutation.from_spec("[0,1,7,6,4,3,2,5]")
        assert result.circuit_obj.implements(spec)

    def test_sat_answer_past_exhausted_budget_is_not_optimal(self):
        # Under a 150-conflict budget a SAT size can run out of budget
        # without proving UNSAT; the 8-gate circuit found after that is
        # not minimal (the optimum is 6), so it must not claim to be.
        engine = create_engine(
            "portfolio", n_wires=3, k=2, max_list_size=0, cache_dir=False,
            conflict_budget=150, sat_gate_limit=8,
        )
        result = engine.synthesize(SynthesisRequest(spec="[7,2,1,5,4,3,6,0]"))
        assert result.extra["tier"] == "sat"
        assert result.guarantee == GUARANTEE_HEURISTIC
        assert result.size == 8
        assert result.extra["lower_bound"] == 3
        assert result.extra["upper_bound"] == 9
        spec = Permutation.from_spec("[7,2,1,5,4,3,6,0]")
        assert result.circuit_obj.implements(spec)

    def test_checkpoint_stops_optimal_tier(self, monkeypatch):
        # A size-3 function needs the A_1 scan at k=2: the checkpoint
        # fires before the first list and nothing after it runs.
        sat_sizes = _record_sat_sizes(monkeypatch)
        engine = create_engine(
            "portfolio", n_wires=3, k=2, max_list_size=1, cache_dir=False
        )
        with pytest.raises(WorkCancelledError) as exc_info:
            engine.synthesize(SynthesisRequest(
                spec="[0,1,7,6,4,3,2,5]",
                options={"cancel": _cancelled("deadline")},
            ))
        assert exc_info.value.reason == "deadline"
        assert sat_sizes == []

    def test_checkpoint_stops_sat_tier(self, monkeypatch):
        # No lists (L = 2), so the checkpoint's only callers are the SAT
        # solver's conflicts; the first one preempts the gap closing.
        sat_sizes = _record_sat_sizes(monkeypatch)
        engine = create_engine(
            "portfolio", n_wires=3, k=2, max_list_size=0, cache_dir=False,
            sat_gate_limit=8,
        )
        with pytest.raises(WorkCancelledError) as exc_info:
            engine.synthesize(SynthesisRequest(
                spec="[7,2,1,5,4,3,6,0]",
                options={"cancel": _cancelled("shutdown")},
            ))
        assert exc_info.value.reason == "shutdown"
        assert sat_sizes == [3]


def _cancelled(reason: str):
    """A checkpoint that reports cancellation at its first call."""

    def checkpoint() -> None:
        raise WorkCancelledError(f"work cancelled ({reason})", reason=reason)

    return checkpoint


def _record_sat_sizes(monkeypatch) -> list:
    """Record the gate count of every SAT tier call the portfolio makes."""
    from repro.engines import portfolio

    sizes = []
    real = portfolio.sat_synthesize_fixed_size

    def recording(perm, n_gates, **kwargs):
        sizes.append(n_gates)
        return real(perm, n_gates, **kwargs)

    monkeypatch.setattr(portfolio, "sat_synthesize_fixed_size", recording)
    return sizes


@pytest.fixture(scope="module")
def seeded_specs():
    """Seeded 3-wire permutations of bounded size (compositions of <= 4
    random gates), so every engine can reach them quickly."""
    rng = random.Random(20260807)
    gates = all_gates(3)
    specs = []
    for _ in range(6):
        gate_seq = tuple(
            rng.choice(gates) for _ in range(rng.randint(1, 4))
        )
        circuit = Circuit(gates=gate_seq, n_wires=3)
        specs.append(Permutation.coerce(circuit.to_word(), 3))
    return specs


@pytest.fixture(scope="module")
def consistency_engines():
    return {
        "optimal": create_engine(
            "optimal", n_wires=3, k=3, cache_dir=False
        ).prepare(),
        "plain-bfs": create_engine("plain-bfs", n_wires=3, k=4).prepare(),
        "heuristic": create_engine("heuristic"),
        "sat": create_engine("sat", max_gates=5),
        "depth": create_engine("depth", n_wires=3, max_depth=4).prepare(),
    }


class TestCrossEngineConsistency:
    def test_every_engine_implements_the_spec(
        self, seeded_specs, consistency_engines
    ):
        for perm in seeded_specs:
            for name, engine in consistency_engines.items():
                result = engine.synthesize(
                    SynthesisRequest(spec=perm, n_wires=3)
                )
                assert result.circuit_obj.implements(perm), (
                    f"{name} circuit does not implement {perm.spec()}"
                )

    def test_optimal_bounds_heuristic(
        self, seeded_specs, consistency_engines
    ):
        for perm in seeded_specs:
            request = SynthesisRequest(spec=perm, n_wires=3)
            optimal = consistency_engines["optimal"].synthesize(request)
            heuristic = consistency_engines["heuristic"].synthesize(request)
            sat = consistency_engines["sat"].synthesize(request)
            bfs = consistency_engines["plain-bfs"].synthesize(request)
            assert optimal.size <= heuristic.size
            assert sat.size == optimal.size
            assert bfs.size == optimal.size

    def test_depth_engine_bounds_gate_optimal_depth(
        self, seeded_specs, consistency_engines
    ):
        for perm in seeded_specs:
            request = SynthesisRequest(spec=perm, n_wires=3)
            optimal = consistency_engines["optimal"].synthesize(request)
            depth = consistency_engines["depth"].synthesize(request)
            assert depth.depth <= optimal.depth
