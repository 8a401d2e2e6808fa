"""Per-layer trace: timing shims around each layer's public functions.

The traced run replays a workload's stream against two in-process
daemons (``SynthesisService.handle_line``, the same entry the TCP
transport calls).  Service A runs untraced; service B runs with the
shims below installed.  Each request goes to A, then to B, so the two
see the same stream at the same moment of the run, and B's extra time
over A is the trace overhead.

A shim is a wrapper the benchmark installs on a module or class
attribute for the whole replay; it records only while a request to B is
in flight and otherwise just calls through.  It records busy time
(outermost call per layer, per thread), call counts, and a few
counters read from arguments or results.  Nothing in the program is
edited.  A target that no longer exists is skipped and its metrics read
0, so a refactor degrades the trace instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

#: layer -> (module, attribute path) of each function timed as that layer.
SPANS = {
    "equivalence.canonical": [("repro.core.equivalence", "canonical")],
    "database.peel": [
        ("repro.synth.database", "OptimalDatabase.peel_last_gate"),
    ],
    "database.lookup": [
        ("repro.synth.database", "OptimalDatabase.lookup_with_keys"),
    ],
    "database.size_of": [("repro.synth.database", "OptimalDatabase.size_of")],
    # Algorithm 1's A_i scan has no public entry of its own: search()
    # also peels.  _scan_lists is the scan and nothing else.
    "search.scan": [
        ("repro.synth.search", "MeetInTheMiddleSearch._scan_lists"),
    ],
    "search.sizes_batch": [
        ("repro.synth.database", "OptimalDatabase.sizes_batch"),
    ],
    # compile_spec looks both up in its own module namespace.
    "specs.plan": [("repro.specs.compile", "plan_embedding")],
    "specs.completion_search": [
        ("repro.specs.compile", "synthesize_partial"),
    ],
    "protocol.decode": [
        ("repro.service.protocol", "decode_request"),
        ("repro.service.protocol", "decode_payload"),
    ],
    "protocol.encode": [("repro.service.protocol", "encode_response")],
    "cache.lookup": [("repro.service.cache", "ResultCache.lookup")],
}

BATCH_QUEUE = ("repro.service.batching", "BatchQueue.next_batch")


def _resolve(module: str, path: str):
    """``(owner, name, function)`` for an attribute path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    function = getattr(owner, name, None)
    return None if function is None else (owner, name, function)


class LayerShims:
    """Install/uninstall timing wrappers and accumulate what they see."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Record only while True (a request to the traced service).
        self.active = False
        self.missing: list = []
        self._patches: list = []
        for layer, targets in SPANS.items():
            for module, path in targets:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                owner, name, function = found
                self._patches.append(
                    (owner, name, function, self._span(layer, function))
                )
        found = _resolve(*BATCH_QUEUE)
        if found is None:
            self.missing.append(".".join(BATCH_QUEUE))
        else:
            owner, name, function = found
            self._patches.append(
                (owner, name, function, self._batches(function))
            )
        self.reset()

    def reset(self) -> None:
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        #: Busy time of spans entered with no other span open on their
        #: thread: the part of a request some layer accounts for.
        self.covered = 0.0

    def install(self) -> None:
        for owner, name, _, shim in self._patches:
            setattr(owner, name, shim)

    def uninstall(self) -> None:
        for owner, name, function, _ in self._patches:
            setattr(owner, name, function)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, layer: str, function):
        shims = self

        def shim(*args, **kwargs):
            if not shims.active:
                return function(*args, **kwargs)
            stack = shims._stack()
            outermost = layer not in stack
            top = not stack
            stack.append(layer)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                with shims._lock:
                    shims.calls[layer] += 1
                    if outermost:
                        shims.busy[layer] += elapsed
                    if top:
                        shims.covered += elapsed
            shims._observe(layer, args, result)
            return result

        return shim

    def _observe(self, layer: str, args, result) -> None:
        with self._lock:
            if layer == "search.sizes_batch":
                self.counters["candidates"] += len(args[1])
            elif layer == "specs.completion_search":
                self.counters["completions"] += result.completions_tried
            elif layer == "cache.lookup":
                self.counters["cache_lookups"] += 1
                if result is not None and result.circuit is not None:
                    self.counters["cache_hits"] += 1

    def _batches(self, function):
        shims = self

        def shim(*args, **kwargs):
            batch = function(*args, **kwargs)
            if batch and shims.active:
                now = time.perf_counter()
                with shims._lock:
                    shims.counters["batches"] += 1
                    shims.counters["batched"] += len(batch)
                    shims.counters["queue_wait"] += sum(
                        now - pending.enqueued_at for pending in batch
                    )
            return batch

        return shim


def make_service(src: str, k: int, lists: int):
    """A started in-process daemon with ``repro serve``'s default flags."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.service import ServiceConfig, SynthesisService

    config = ServiceConfig(n_wires=4, k=k, max_list_size=lists)
    return SynthesisService.from_config(config).start()


def paired_replay(shims: LayerShims, services, warmup, lines):
    """Replay ``lines`` through untraced A and traced B, alternating.

    Returns ``(wall_a, wall_b, responses_a, responses_b)``.
    """
    untraced, traced = services
    wall_a = wall_b = 0.0
    responses_a, responses_b = [], []
    # Installed before the warm-up, so each dispatcher is already parked
    # in the wrapped next_batch when the timed lines start.
    shims.install()
    try:
        for line in warmup:
            untraced.handle_line(line)
            traced.handle_line(line)
        shims.reset()
        for line in lines:
            started = time.perf_counter()
            responses_a.append(untraced.handle_line(line))
            wall_a += time.perf_counter() - started
            shims.active = True
            try:
                started = time.perf_counter()
                responses_b.append(traced.handle_line(line))
                wall_b += time.perf_counter() - started
            finally:
                shims.active = False
    finally:
        shims.uninstall()
    return wall_a, wall_b, responses_a, responses_b


def layer_metrics(shims: LayerShims, wall: float, units: int) -> dict:
    """Per-work-unit layer metrics from one traced replay."""
    ms = 1000.0 / units
    busy, calls, counters = shims.busy, shims.calls, shims.counters
    lookups = counters["cache_lookups"]
    batches = counters["batches"]
    self_time = wall - shims.covered - counters["queue_wait"]
    return {
        "equivalence.canonical_calls": (
            calls["equivalence.canonical"] / units, "count"),
        "equivalence.canonical_ms": (
            busy["equivalence.canonical"] * ms, "ms"),
        "database.peel_calls": (calls["database.peel"] / units, "count"),
        "database.peel_ms": (busy["database.peel"] * ms, "ms"),
        "database.lookup_ms": (busy["database.lookup"] * ms, "ms"),
        "database.size_of_calls": (
            calls["database.size_of"] / units, "count"),
        "search.scan_ms": (busy["search.scan"] * ms, "ms"),
        "search.candidates": (counters["candidates"] / units, "count"),
        "specs.plan_ms": (busy["specs.plan"] * ms, "ms"),
        "specs.completion_search_ms": (
            busy["specs.completion_search"] * ms, "ms"),
        "specs.completions": (counters["completions"] / units, "count"),
        "batching.queue_wait_ms": (counters["queue_wait"] * ms, "ms"),
        "batching.batch_size": (
            counters["batched"] / batches if batches else 0.0, "count"),
        "cache.hit_share": (
            counters["cache_hits"] / lookups if lookups else 0.0, "share"),
        "protocol.decode_ms": (busy["protocol.decode"] * ms, "ms"),
        "protocol.encode_ms": (busy["protocol.encode"] * ms, "ms"),
        "service.self_ms": (self_time * ms, "ms"),
    }
