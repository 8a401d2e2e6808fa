"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import pytest

from oracle import (
    check_compile,
    check_synth,
    invert,
    pack,
    parse_circuit,
    relabel,
    values_of,
)
from percentiles import percentile
from run import steal_weights
from workloads import WORKLOADS, Expect, load_pools, make_stream

INCREMENT = list(range(1, 16)) + [0]
INCREMENT_CIRCUIT = "TOF4(a,b,c,d) TOF(a,b,c) CNOT(a,b) NOT(a)"


@pytest.fixture(scope="module")
def pools():
    return load_pools()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_streams_are_seeded(pools, workload):
    def text(seed):
        stream = make_stream(workload, seed, pools)
        return "\n".join(line for line, _ in stream.warmup + stream.lines)

    assert text(3) == text(3)
    assert text(3) != text(4)


def test_synth_streams_never_repeat_a_class(pools):
    classes = {word for word, _ in pools["hit"]}
    assert len(classes) == len(pools["hit"])
    stream = make_stream("hit-synth", 5, pools)
    words = [e.word for _, expects in stream.warmup + stream.lines for e in expects]
    assert len(set(words)) == len(words)


def test_simulator_agrees_with_the_increment_circuit():
    gates = parse_circuit(INCREMENT_CIRCUIT)
    assert values_of(gates) == INCREMENT
    word = pack(INCREMENT)
    result = {"circuit": INCREMENT_CIRCUIT, "size": 4}
    assert check_synth(result, word, 4) is None
    assert check_synth(result, word, 3) is not None
    assert check_synth(result, invert(word), 4) is not None
    assert check_synth({"circuit": "TOF(a,b)", "size": 1}, word, 1) is not None


def test_symmetries_keep_the_identity_and_invert_twice():
    identity = pack(list(range(16)))
    word = pack(INCREMENT)
    assert relabel(identity, (2, 0, 3, 1)) == identity
    assert invert(invert(word)) == word
    assert relabel(relabel(word, (1, 0, 2, 3)), (1, 0, 2, 3)) == word


def test_compile_answers_are_simulated_through_the_embedding():
    result = {
        "circuit": "TOF(a,b,d)",
        "size": 1,
        "embedding": {
            "input_wires": [0, 1],
            "output_wires": [3],
            "constant_wires": [[2, 0], [3, 0]],
        },
    }
    assert check_compile(result, [0, 0, 0, 1], 2, 1) is None
    assert check_compile(result, [0, None, None, 1], 2, 1) is None
    assert check_compile(result, [0, 1, 0, 1], 2, 1) is not None
    assert check_compile(result, [0, 0, 0, 1], 2, 0) is not None


def test_percentile_refuses_a_thin_tail():
    assert percentile(range(1000), 99) == 989
    assert percentile(range(500), 98) == 489
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    with pytest.raises(ValueError):
        percentile(range(499), 98)
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert percentile([1, 2, 3] * 10, 50, [0, 1, 1] * 10) == 2


def test_steal_weights_keep_each_stratum_share():
    fast = [Expect("synth", "db", 1)]
    slow = [Expect("synth", "db", 5)]
    expects = [fast, fast, slow, slow]
    weights = steal_weights([False, True, False, True], expects)
    assert weights == [2.0, 0.0, 2.0, 0.0]
    assert steal_weights([True, True], [fast, fast]) == [1.0, 1.0]
