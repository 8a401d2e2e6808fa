"""Seeded request streams for the four workloads.

A stream is a pure function of ``(workload, seed)`` and the reference
pools in ``data/pools.json.gz`` (see ``make_pools.py``): the same seed
gives a byte-identical stream.  Every request carries the answer the
oracle expects for it, fixed when the workloads were defined.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import TABLE4_CLASSES, invert, relabel

#: Database depth and list depth served (L = K + LISTS = 8).
K = 5
LISTS = 3

POOLS_PATH = Path(__file__).resolve().parent / "data" / "pools.json.gz"

#: Completion budget each compile request asks for.  The daemon's
#: default (200) makes a request cost ~25 ms and a pass-2 fall-back
#: ~0.5 s, too slow for the lines a tail percentile needs in one run.
COMPILE_SAMPLES = 64

#: Compile families: name -> (n_inputs, n_outputs, most don't-care
#: rows).  Every spec has at least one don't-care row.
COMPILE_FAMILIES = {
    "tt2": (2, 1, 4),
    "tt3": (3, 1, 3),
    "mo22": (2, 2, 4),
}

#: One compile-dc block: fast specs per family, then one spec whose
#: optimum is above k (it falls to the pass-2 list scans).  One slow
#: request in 20 puts p50 deep in the fast regime and p98 well inside
#: the slow one, never on the boundary between them.
COMPILE_BLOCK = {"tt2": 6, "tt3": 7, "mo22": 6}
COMPILE_SLOW_PER_BLOCK = 1

#: hot-batch: classes warmed into the result cache, sub-requests per line.
HOT_CLASSES = 256
HOT_BATCH = 8

WORKLOADS = ("hit-synth", "scan-synth", "compile-dc", "hot-batch")

#: Expected answer ``source`` per workload once warm.
EXPECTED_SOURCE = {
    "hit-synth": "db",
    "scan-synth": "scan",
    "compile-dc": "engine",
    "hot-batch": "cache",
}


@dataclass(frozen=True)
class Expect:
    """What one work unit must come back as."""

    op: str
    source: str
    size: int
    word: int = 0
    rows: tuple = ()
    n_inputs: int = 0


@dataclass
class Stream:
    """Request lines plus their expectations.

    ``warmup`` lines run untimed before ``lines``; the timed loop only
    stops at a multiple of ``block`` lines so each run keeps the
    workload's fixed composition.
    """

    warmup: "list[tuple[str, list[Expect]]]"
    lines: "list[tuple[str, list[Expect]]]"
    block: int = 1


def load_pools(path: Path = POOLS_PATH) -> dict:
    """Read the reference pools and check their integrity."""
    with gzip.open(path, "rt", encoding="ascii") as fh:
        pools = json.load(fh)
    if tuple(pools["table4_classes"]) != TABLE4_CLASSES:
        raise ValueError("pools were not checked against paper Table 4")
    if (pools["k"], pools["lists"]) != (K, LISTS):
        raise ValueError("pools were made for another database depth")
    if pools["compile_samples"] != COMPILE_SAMPLES:
        raise ValueError("compile references were made at another budget")
    hit = [int(w, 16) for w in pools["hit"]["words"].split()]
    sizes = [int(c) for c in pools["hit"]["sizes"]]
    scan = {
        int(size): [int(w, 16) for w in words.split()]
        for size, words in pools["scan"].items()
    }
    for words in [hit, *scan.values()]:
        if len(set(words)) != len(words):
            raise ValueError("a pool repeats an equivalence class")
    if len(hit) != len(sizes) or max(sizes) > K:
        raise ValueError("hit pool sizes are inconsistent")
    return {
        "hit": list(zip(hit, sizes)),
        "scan": scan,
        "compile": pools["compile"],
    }


def _member(rng: random.Random, word: int) -> int:
    """A random member of ``word``'s class: relabel wires, maybe invert."""
    sigma = tuple(rng.sample(range(4), 4))
    word = relabel(word, sigma)
    return invert(word) if rng.random() < 0.5 else word


def _line(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _synth(rng, index: int, word: int, size: int, source: str):
    member = _member(rng, word)
    line = _line({"id": index, "op": "synth", "word": f"{member:#x}"})
    return line, [Expect("synth", source, size, word=member)]


def family_spec(family: str, digits) -> "dict | None":
    """The wire spec of one table in a compile family, or None when the
    table is outside it (no or too many don't-care rows).

    ``digits[x]`` is row ``x``'s output word, or ``2 ** n_outputs`` for
    a don't-care row.
    """
    n_inputs, n_outputs, max_dc = COMPILE_FAMILIES[family]
    dont_care = 1 << n_outputs
    rows = [None if d == dont_care else d for d in digits]
    if not 1 <= rows.count(None) <= max_dc:
        return None
    if n_outputs == 1:
        return {"kind": "truth_table", "n_inputs": n_inputs, "rows": rows}
    return {
        "kind": "multi_output",
        "n_inputs": n_inputs,
        "n_outputs": n_outputs,
        "rows": rows,
    }


def family_digits(family: str, index: int) -> "list[int]":
    """Inverse of enumerating a family in ``itertools.product`` order."""
    n_inputs, n_outputs, _ = COMPILE_FAMILIES[family]
    base = (1 << n_outputs) + 1
    digits = []
    for _ in range(1 << n_inputs):
        index, digit = divmod(index, base)
        digits.append(digit)
    return digits[::-1]


def _compile_tables(refs: dict) -> "tuple[dict, list]":
    """Fast tables per family and the slow (optimum above k) tables."""
    fast: dict = {family: [] for family in COMPILE_FAMILIES}
    slow = []
    for family, chars in refs.items():
        for index, char in enumerate(chars):
            if char == "x":
                continue
            entry = (family, index, int(char))
            (slow if int(char) > K else fast[family]).append(entry)
    return fast, slow


def _compile(index: int, entry) -> "tuple[str, list[Expect]]":
    family, table, size = entry
    spec = family_spec(family, family_digits(family, table))
    line = _line({
        "id": index, "op": "compile", "spec": spec,
        "samples": COMPILE_SAMPLES,
    })
    expect = Expect(
        "compile", "engine", size,
        rows=tuple(spec["rows"]), n_inputs=spec["n_inputs"],
    )
    return line, [expect]


def make_stream(workload: str, seed: int, pools: dict) -> Stream:
    """The request stream of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "hit-synth":
        # Distinct classes only, so no line meets a result-cache entry
        # an earlier line made.
        picks = rng.sample(pools["hit"], 8040)
        lines = [
            _synth(rng, i, word, size, "db")
            for i, (word, size) in enumerate(picks)
        ]
        return Stream(lines[:40], lines[40:])
    if workload == "scan-synth":
        # Equal shares of sizes 6, 7, 8, fixed per block of three.
        orders = {
            size: rng.sample(words, len(words))
            for size, words in sorted(pools["scan"].items())
        }
        lines = []
        for block in zip(*orders.values()):
            sized = list(zip(sorted(orders), block))
            rng.shuffle(sized)
            for size, word in sized:
                lines.append(_synth(rng, len(lines), word, size, "scan"))
        return Stream(lines[:15], lines[15:], block=3)
    if workload == "compile-dc":
        fast, slow = _compile_tables(pools["compile"])
        lines = []
        for _ in range(401):
            block = [
                rng.choice(fast[family])
                for family, count in COMPILE_BLOCK.items()
                for _ in range(count)
            ]
            block += [rng.choice(slow) for _ in range(COMPILE_SLOW_PER_BLOCK)]
            rng.shuffle(block)
            lines.extend(_compile(len(lines) + i, e) for i, e in enumerate(block))
        size = sum(COMPILE_BLOCK.values()) + COMPILE_SLOW_PER_BLOCK
        return Stream(lines[:size], lines[size:], block=size)
    if workload == "hot-batch":
        classes = [
            (_member(rng, word), size)
            for word, size in rng.sample(pools["hit"], HOT_CLASSES)
        ]
        warm = [
            (
                _line({"id": i, "op": "synth", "word": f"{word:#x}"}),
                [Expect("synth", "db", size, word=word)],
            )
            for i, (word, size) in enumerate(classes)
        ]
        lines = []
        for i in range(2020):
            subs = [rng.choice(classes) for _ in range(HOT_BATCH)]
            requests = [
                {"id": j, "op": "synth", "word": f"{word:#x}"}
                for j, (word, _) in enumerate(subs)
            ]
            expects = [
                Expect("synth", "cache", size, word=word)
                for word, size in subs
            ]
            lines.append((
                _line({"id": HOT_CLASSES + i, "op": "batch",
                       "requests": requests}),
                expects,
            ))
        return Stream(warm + lines[:20], lines[20:])
    raise ValueError(f"unknown workload {workload!r}")
