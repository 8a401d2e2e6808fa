"""Configuration for the checkers: rule scopes, exemptions, knobs.

Every rule family has a *scope* -- path fragments a file must match for
the rule to run -- and some have exemption lists (e.g. metrics code is
allowed to read the wall clock).  The defaults below encode this
repository's layout and are the checker's only policy: no file outside
the code changes them, so a verdict does not depend on the working
directory.  Tests build variants with keyword arguments::

    CheckConfig(exclude=("/tests/",), mask64_word_names=("word",))
"""

from __future__ import annotations

from dataclasses import dataclass


def _tuple(*items: str) -> tuple[str, ...]:
    return tuple(items)


@dataclass(frozen=True)
class CheckConfig:
    """All knobs, with repo-tuned defaults.

    Scope entries are path fragments compared against the posix form of
    each checked file; an empty scope means "every file".
    """

    # --- mask64 ------------------------------------------------------
    #: Files where packed-word mask discipline is enforced.
    mask64_scope: tuple[str, ...] = _tuple("repro/core/", "repro/hashing/")
    #: Parameter/attribute names treated as packed 64-bit words (taint
    #: sources for the mask64 analysis).
    mask64_word_names: tuple[str, ...] = _tuple(
        "word", "words", "p", "q", "key", "keys", "cur", "best", "canon"
    )
    #: Names accepted as masking constants in ``value & NAME``.
    mask64_mask_names: tuple[str, ...] = _tuple(
        "MASK64", "NIBBLE_MASK", "mask", "MASK"
    )
    #: Calls that truncate their argument to 64 bits.
    mask64_masking_calls: tuple[str, ...] = _tuple("mask64",)
    #: Function-name suffixes exempt from the rule (numpy uint64 code
    #: wraps modulo 2**64 in hardware, no explicit mask needed).
    mask64_exempt_suffixes: tuple[str, ...] = _tuple("_np",)

    # --- lock-discipline ---------------------------------------------
    #: Files where lock discipline is enforced.
    lock_scope: tuple[str, ...] = _tuple("repro/service/",)
    #: Attribute-name fragments recognized as locks/conditions in
    #: ``with self.<name>:`` blocks.
    lock_names: tuple[str, ...] = _tuple("lock", "mutex", "cond", "not_empty")
    #: Method names considered blocking when called while a lock is held.
    blocking_methods: tuple[str, ...] = _tuple(
        "recv", "recv_into", "accept", "connect", "sendall",
        "wait", "join", "sleep", "map", "apply", "apply_async", "select",
    )
    #: ``.get``/``.put`` only count as blocking on receivers whose name
    #: contains one of these fragments (a ``queue``, not a ``dict``).
    blocking_queue_receivers: tuple[str, ...] = _tuple("queue",)
    #: Methods exempt from __init__-style construction (never checked).
    lock_init_methods: tuple[str, ...] = _tuple(
        "__init__", "__post_init__", "__new__"
    )
    #: Files where every wait()/join() must carry a timeout (the
    #: unbounded-wait rule): the service layer's no-hung-thread policy.
    #: The in-flight registry's idle wait (``repro/service/tasks.py``)
    #: and the shard router (``repro/service/sharding/``) are inside it
    #: and must never park a thread without a bound.
    wait_scope: tuple[str, ...] = _tuple("repro/service/",)
    #: Method names the unbounded-wait rule treats as waits.
    wait_methods: tuple[str, ...] = _tuple("wait", "join")

    # --- determinism -------------------------------------------------
    #: Compute paths that must stay deterministic.
    determinism_scope: tuple[str, ...] = _tuple(
        "repro/core/", "repro/hashing/", "repro/synth/", "repro/analysis/",
        "repro/rng/", "repro/sat/", "repro/stabilizer/", "repro/apps/",
        "repro/io/", "repro/engines/",
    )
    #: Files inside the scope that may read clocks/entropy (metrics and
    #: other observability code).
    determinism_exempt: tuple[str, ...] = _tuple(
        "repro/service/metrics.py",
    )
    #: ``time`` functions that are allowed (monotonic timing is fine;
    #: wall-clock reads are not).
    allowed_time_functions: tuple[str, ...] = _tuple(
        "time.monotonic", "time.monotonic_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.process_time", "time.process_time_ns",
        "time.sleep",
    )

    # --- api-misuse --------------------------------------------------
    #: Name fragments marking a value as already canonicalized when it
    #: is passed to a canonical-table lookup.
    canonical_arg_names: tuple[str, ...] = _tuple("canon", "key", "rep")
    #: Callable-name fragments whose results count as canonicalized.
    canonical_call_names: tuple[str, ...] = _tuple("canonical",)
    #: Method names that perform raw canonical-table lookups.
    canonical_lookup_methods: tuple[str, ...] = _tuple(
        "get", "lookup_batch", "contains_batch"
    )

    # --- engine-layering ---------------------------------------------
    #: Names whose import marks a direct dependency on a concrete
    #: synthesis engine (classes and entry-point functions).
    layering_engine_names: tuple[str, ...] = _tuple(
        "OptimalSynthesizer", "DepthOptimalSynthesizer",
        "CostOptimalSynthesizer", "LinearSynthesizer", "CliffordSynthesizer",
        "mmd_synthesize", "mmd_best_of_both", "sat_synthesize",
        "sat_synthesize_fixed_size", "plain_bfs", "wide_bfs",
        "wide_synthesize",
    )
    #: Path fragments allowed to import them: the engine adapters, the
    #: packages that define them, and the top-level public re-export.
    layering_allowed: tuple[str, ...] = _tuple(
        "repro/engines/", "repro/synth/", "repro/sat/", "repro/stabilizer/",
        "repro/__init__.py",
    )

    # --- store-layering ----------------------------------------------
    #: Path fragments allowed to call numpy persistence primitives on
    #: database files: the store subsystem.
    store_allowed: tuple[str, ...] = _tuple("repro/store/")
    #: numpy attribute calls treated as database persistence primitives
    #: when invoked as ``np.<name>`` / ``numpy.<name>``.
    store_persistence_calls: tuple[str, ...] = _tuple(
        "load", "save", "savez", "savez_compressed", "memmap", "open_memmap"
    )

    # --- architecture (layer DAG) ------------------------------------
    #: The architecture layer DAG, enforced whole-program by the
    #: ``layer-violation`` rule under ``repro check --graph``.
    #: Layer definitions: ``"name: fragment [fragment ...]"``.  A module
    #: belongs to the layer owning the longest fragment found in its
    #: path; unmatched modules are unconstrained.
    arch_layers: tuple[str, ...] = _tuple(
        "foundation: repro/errors.py",
        "perf: repro/perf/",
        "core: repro/core/",
        "hashing: repro/hashing/",
        "rng: repro/rng/",
        "store: repro/store/",
        "sat: repro/sat/",
        "stabilizer: repro/stabilizer/",
        "synth: repro/synth/",
        "engines: repro/engines/",
        "specs: repro/specs/",
        "public: repro/__init__.py",
        "analysis: repro/analysis/",
        "apps: repro/apps/",
        "io: repro/io/",
        "data: repro/benchmarks_data/",
        "service: repro/service/",
        "sharding: repro/service/sharding/",
        "checks: repro/checks/",
        "app: repro/cli.py repro/__main__.py",
    )
    #: Allowed module-scope (top-level) dependencies per layer:
    #: ``"layer -> dep [dep ...]"``.  Same-layer imports are always
    #: allowed; lazy (function-scoped) imports are exempt from the DAG
    #: -- they are the sanctioned pattern for upward references that
    #: must not exist at import time.
    arch_allow: tuple[str, ...] = _tuple(
        "perf -> foundation",
        "core -> foundation perf",
        "hashing -> foundation",
        "rng -> core foundation",
        "store -> foundation hashing perf",
        "sat -> core foundation",
        "stabilizer -> foundation",
        "synth -> core foundation hashing perf rng",
        "engines -> core foundation perf sat synth",
        # The function-form front-end: normalizes specs and drives any
        # engine through the completion search.
        "specs -> core engines foundation perf rng synth",
        "public -> core foundation synth",
        "analysis -> core foundation rng",
        "apps -> core foundation",
        "io -> core foundation",
        "data -> core",
        "service -> core engines foundation perf public specs synth",
        # The sharding layer sits *above* service (routers wrap daemons
        # and clients) and additionally reaches the hashing layer for
        # the rendezvous scores; service itself never imports sharding.
        "sharding -> core engines foundation hashing perf public service specs synth",
        "checks -> foundation",
        "app -> foundation public",
    )

    # --- todo-tracking -----------------------------------------------
    #: Markers that must carry a tracking reference.
    todo_markers: tuple[str, ...] = _tuple("TODO", "FIXME", "XXX")

    # --- global ------------------------------------------------------
    #: Path fragments excluded from every rule.  Benchmarks and scripts
    #: are checked in CI too (``repro check src benchmarks scripts``);
    #: only tests and examples stay out of scope.
    exclude: tuple[str, ...] = _tuple("/tests/", "/examples/")

    def in_scope(self, path: str, scope: tuple[str, ...]) -> bool:
        """True when ``path`` (posix form) matches ``scope``."""
        if any(fragment in path for fragment in self.exclude):
            return False
        if not scope:
            return True
        return any(fragment in path for fragment in scope)


__all__ = ["CheckConfig"]
