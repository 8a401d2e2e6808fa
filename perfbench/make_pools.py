"""Define the workloads' reference data: ``data/pools.json.gz``.

Run once, when the workloads are defined, from the repository root::

    PYTHONPATH=src python3 perfbench/make_pools.py

The benchmark never runs this file; it only reads the pools it wrote.
That is what fixes the reference answers independently of the code
under test: a later commit is checked against these sizes, not against
its own opinion of them.

* ``hit``: 16384 equivalence-class representatives drawn uniformly from
  every class of optimal size <= 5, with their sizes.  The database the
  sizes come from is first checked class-for-class against paper
  Table 4 (1, 4, 33, 425, 6538, 101983 classes of size 0..5).
* ``scan``: 2048 distinct classes each of optimal size 6, 7 and 8,
  found as random circuits of that length whose Algorithm-1 size is
  exactly the length.
* ``compile``: for every truth table of the families below, the size
  the completion search returns at ``COMPILE_SAMPLES`` sampled
  completions (``x`` where the spec is outside the family or cannot be
  compiled within L=8).
"""

from __future__ import annotations

import gzip
import itertools
import json
import random
from pathlib import Path

from repro.core import packed
from repro.core.equivalence import canonical
from repro.core.gates import all_gates
from repro.engines import create_engine
from repro.errors import ReproError
from repro.specs import compile_spec, spec_from_wire
from repro.synth.synthesizer import OptimalSynthesizer

from oracle import TABLE4_CLASSES
from workloads import (
    COMPILE_FAMILIES,
    COMPILE_SAMPLES,
    K,
    LISTS,
    POOLS_PATH,
    family_digits,
    family_spec,
)

HIT_POOL = 16384
SCAN_POOL = 2048
SCAN_SIZES = (6, 7, 8)


def hit_pool(synth, rng) -> dict:
    db = synth.database
    counts = db.reduced_counts()
    if tuple(counts) != TABLE4_CLASSES:
        raise SystemExit(f"database classes {counts} disagree with Table 4")
    classes = [
        (size, int(word))
        for size, reps in enumerate(db.reps_by_size)
        for word in reps
    ]
    picked = rng.sample(classes, HIT_POOL)
    return {
        "words": " ".join(f"{w:x}" for _, w in picked),
        "sizes": "".join(str(s) for s, _ in picked),
    }


def scan_pool(synth, rng) -> dict:
    gates = [g.to_word(4) for g in all_gates(4)]
    pools = {}
    for size in SCAN_SIZES:
        seen: set = set()
        words = []
        while len(words) < SCAN_POOL:
            word = packed.identity(4)
            for _ in range(size):
                word = packed.compose(word, rng.choice(gates), 4)
            canon = canonical(word, 4)
            if canon in seen:
                continue
            seen.add(canon)
            if synth.size_or_bound(word) == (size, True):
                words.append(canon)
        pools[str(size)] = " ".join(f"{w:x}" for w in words)
        print(f"scan pool: {len(words)} classes of size {size}", flush=True)
    return pools


def compile_pool(synth) -> dict:
    engine = create_engine("optimal", n_wires=4, handle=synth.handle())
    out = {}
    for family, (n_inputs, n_outputs, max_dc) in COMPILE_FAMILIES.items():
        base = (1 << n_outputs) + 1
        chars = []
        tables = itertools.product(range(base), repeat=1 << n_inputs)
        for index, digits in enumerate(tables):
            assert family_digits(family, index) == list(digits)
            spec = family_spec(family, digits)
            if spec is None:
                chars.append("x")
                continue
            try:
                result = compile_spec(
                    spec_from_wire(spec), engine, n_wires=4,
                    samples=COMPILE_SAMPLES,
                )
            except ReproError:
                chars.append("x")
                continue
            chars.append(str(result.size))
        out[family] = "".join(chars)
        sizes = [c for c in chars if c != "x"]
        print(
            f"compile pool {family}: {len(sizes)} specs, "
            f"{sum(c > str(K) for c in sizes)} above k",
            flush=True,
        )
    return out


def main() -> None:
    rng = random.Random("perfbench-pools")
    synth = OptimalSynthesizer(4, K, LISTS, cache_dir=False).prepare()
    pools = {
        "k": K,
        "lists": LISTS,
        "table4_classes": list(TABLE4_CLASSES),
        "compile_samples": COMPILE_SAMPLES,
        "hit": hit_pool(synth, rng),
        "compile": compile_pool(synth),
        "scan": scan_pool(synth, rng),
    }
    Path(POOLS_PATH).parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(POOLS_PATH, "wt", encoding="ascii") as fh:
        json.dump(pools, fh, sort_keys=True)
    print(f"wrote {POOLS_PATH}")


if __name__ == "__main__":
    main()
