"""Golden outputs of the tables built over generator sets: gate
libraries, depth layers, the NOT/CNOT group, the unreduced NCT baseline
and the cost model.

Every output is a deterministic string (a circuit, a label sequence, a
count list or a sorted-keys wire body) computed from fixed inputs.  The
SHA-256 of all of them, newline-joined, pins the circuits and counts
byte for byte, whichever BFS builds a table and whichever loop peels it.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from repro.core import packed
from repro.core.circuit import Circuit
from repro.core.gates import all_gates
from repro.core.permutation import Permutation
from repro.engines import SynthesisRequest, create_engine
from repro.synth.cost import CostOptimalSynthesizer
from repro.synth.libraries import (
    STANDARD_LIBRARIES,
    build_size_table,
    full_distribution,
)

GOLDEN_DIGEST = (
    "1781800594cb1d6d2f77fb06b0d57d54773ae93741ccef41d1fef904e19095d0"
)


def _body(engine, word, n_wires):
    result = engine.synthesize(SynthesisRequest(spec=Permutation(word, n_wires)))
    return json.dumps(result.to_wire(), sort_keys=True)


def _linear_outputs():
    """Table 5, the hardest words, every 997th linear function's
    circuit in sorted word order, and 20 wire bodies."""
    engine = create_engine("linear", n_wires=4).prepare()
    synth = engine.impl
    database = synth.database
    out = [json.dumps(database.counts)]
    out.append(" ".join(f"{p.word:016x}" for p in synth.hardest_functions()))
    words = np.sort(database.table.keys())[::997].tolist()
    out += [str(synth.synthesize(Permutation(w, 4))) for w in words]
    out += [_body(engine, w, 4) for w in words[:20]]
    return out


def _depth_outputs(db4_k4):
    """Depth circuits for up to 40 representatives of each size 0..4
    (118 in all), and the wire bodies of every eighth."""
    engine = create_engine("depth", n_wires=4, max_depth=4).prepare()
    words = []
    for reps in db4_k4.reps_by_size:
        words += reps[:: max(1, reps.shape[0] // 40)][:40].tolist()
    out = [str(engine.impl.synthesize(Permutation(w, 4))) for w in words]
    out += [_body(engine, w, 4) for w in words[::8]]
    return out


def _library_outputs():
    """Label sequences of 60 random 3-bit words under each standard
    library, and each library's full 3-bit distribution."""
    rng = random.Random(7)
    words = [packed.random_word(3, rng) for _ in range(60)]
    out = []
    for maker in STANDARD_LIBRARIES.values():
        library = maker(3)
        table = build_size_table(library, 8)
        out += [" ".join(table.peel_labels(w)) for w in words]
        out.append(json.dumps(full_distribution(library)))
    return out


def _plain_bfs_outputs():
    """Wire bodies of the unreduced baseline for 30 random circuits of
    at most five gates on three wires."""
    engine = create_engine("plain-bfs", n_wires=3, k=5).prepare()
    rng = random.Random(5)
    gates = all_gates(3)
    out = []
    for _ in range(30):
        circuit = Circuit(
            gates=tuple(rng.choice(gates) for _ in range(rng.randint(0, 5))),
            n_wires=3,
        )
        out.append(_body(engine, circuit.to_word(), 3))
    return out


def _cost_outputs():
    """NCV-cost-optimal circuits for 40 classes of cost <= 8 and their
    inverses."""
    synth = CostOptimalSynthesizer(4, max_cost=8)
    reps = sorted(synth.database.costs)
    out = []
    for rep in reps[:: max(1, len(reps) // 40)][:40]:
        for word in (rep, packed.inverse(rep, 4)):
            out.append(str(synth.synthesize(Permutation(word, 4))))
    return out


@pytest.fixture(scope="module")
def golden_outputs(db4_k4):
    return (
        _linear_outputs()
        + _depth_outputs(db4_k4)
        + _library_outputs()
        + _plain_bfs_outputs()
        + _cost_outputs()
    )


class TestGoldenTables:
    def test_outputs_are_unchanged(self, golden_outputs):
        assert len(golden_outputs) == 833
        digest = hashlib.sha256("\n".join(golden_outputs).encode()).hexdigest()
        assert digest == GOLDEN_DIGEST
