"""High-level facade: build/load the database and synthesize circuits.

Typical use::

    from repro import Permutation
    from repro.synth import OptimalSynthesizer

    synth = OptimalSynthesizer(n_wires=4, k=6, max_list_size=4)
    synth.prepare()                       # maps or builds the BFS database
    circuit = synth.synthesize("[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]")
    print(circuit)                        # TOF4(a,b,c,d) TOF(a,b,c) CNOT(a,b) NOT(a)

The synthesizer is exact: every returned circuit is provably minimal in
gate count, and a :class:`repro.errors.SizeLimitExceededError` carries a
proven lower bound when a function is out of reach of the configured
``L = k + max_list_size``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.circuit import Circuit
from repro.core.permutation import Permutation
from repro.errors import DatabaseError
from repro.synth.bfs import build_database
from repro.synth.database import OptimalDatabase
from repro.synth.search import MeetInTheMiddleSearch, SearchOutcome


def default_cache_dir() -> Path:
    """Database cache directory (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-optimal4"


@dataclass(frozen=True)
class SynthesisHandle:
    """A warm, shareable view of a prepared synthesizer.

    The handle bundles the loaded database and the materialized search
    engine with their parameters, so long-lived consumers (the service
    daemon, benchmarks) can pass the expensive state around without
    re-triggering :meth:`OptimalSynthesizer.prepare` or carrying the
    whole facade.  All referenced state is read-only after preparation
    and safe to share across threads.  Across *processes* nothing is
    passed: each shard of ``repro serve --shards N`` maps the same
    ``.rdb`` store at ``store_path``, so N shards hold one physical copy
    of the table.
    """

    n_wires: int
    k: int
    max_list_size: int
    database: OptimalDatabase
    engine: MeetInTheMiddleSearch
    store_path: "Path | None" = None

    @property
    def max_size(self) -> int:
        """Largest optimal size reachable: L = k + max_list_size."""
        return self.k + self.max_list_size


class OptimalSynthesizer:
    """Exact synthesizer for n-bit reversible functions (n <= 4).

    Args:
        n_wires: Wire count.
        k: BFS database depth (paper used 9; 5-6 is practical here).
        max_list_size: Depth m of the lists A_i; reachable size is
            ``L = k + m``.  Defaults to ``min(k, 3)`` -- raise it for
            deeper searches at the cost of per-query scan time.
        cache_dir: Where to persist the ``.rdb`` store (None = default
            cache, False = never persist).
        verbose: Print progress while building.
    """

    def __init__(
        self,
        n_wires: int = 4,
        k: int = 6,
        max_list_size: "int | None" = None,
        cache_dir=None,
        verbose: bool = False,
    ):
        if max_list_size is None:
            max_list_size = min(k, 3)
        if max_list_size > k:
            raise DatabaseError(
                f"max_list_size ({max_list_size}) cannot exceed k ({k})"
            )
        self.n_wires = n_wires
        self.k = k
        self.max_list_size = max_list_size
        self.verbose = verbose
        if cache_dir is False:
            self.store_path = None
        else:
            base = Path(cache_dir) if cache_dir else default_cache_dir()
            self.store_path = base / f"db-n{n_wires}-k{k}.rdb"
        self._db: "OptimalDatabase | None" = None
        self._search: "MeetInTheMiddleSearch | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self, force_rebuild: bool = False) -> "OptimalSynthesizer":
        """Map the cached ``.rdb`` store, or build the database and write it.

        A store that is missing, unreadable (corrupt, version-skewed) or
        does not cover this synthesizer's parameters is replaced: a
        fresh BFS build is written crash-safely (best-effort) to
        :attr:`store_path`, so the *next* start maps instead of
        rebuilding.
        """
        if self._search is not None and not force_rebuild:
            return self
        from repro.store import map_database, write_rdb

        path = self.store_path
        if not force_rebuild and path is not None and path.exists():
            self._log(f"mapping database store {path}")
            try:
                return self._adopt(map_database(path), path)
            except DatabaseError as exc:
                self._log(f"store unusable ({exc}); rebuilding")
        self._log(f"building database: n={self.n_wires}, k={self.k}")
        start = time.perf_counter()
        db = build_database(
            self.n_wires,
            self.k,
            progress=self._progress if self.verbose else None,
        )
        self._log(f"built in {time.perf_counter() - start:.1f}s")
        if path is not None:
            try:
                write_rdb(db, path)
                self._log(f"wrote database store {path}")
            except DatabaseError as exc:
                self._log(f"could not write database store: {exc}")
        return self._adopt(db, path)

    def _adopt(
        self, db: OptimalDatabase, path: "Path | None"
    ) -> "OptimalSynthesizer":
        """Check that ``db`` covers this synthesizer, then build the lists."""
        if db.n_wires != self.n_wires or db.k < self.k:
            raise DatabaseError(
                f"database store {path} holds n_wires={db.n_wires}, "
                f"k={db.k}; synthesizer needs n_wires={self.n_wires}, "
                f"k>={self.k}"
            )
        self._db = db
        self._log(f"building lists A_1..A_{self.max_list_size}")
        lists = MeetInTheMiddleSearch.build_lists(db, self.max_list_size)
        self._search = MeetInTheMiddleSearch(db, lists)
        return self

    @property
    def database(self) -> OptimalDatabase:
        """The underlying BFS database (prepares on first use)."""
        self.prepare()
        return self._db

    @property
    def search_engine(self) -> MeetInTheMiddleSearch:
        """The underlying meet-in-the-middle engine (prepares on first use)."""
        self.prepare()
        return self._search

    @property
    def max_size(self) -> int:
        """Largest optimal size reachable: L = k + max_list_size."""
        return self.k + self.max_list_size

    # ------------------------------------------------------------------
    # Warm-start handles
    # ------------------------------------------------------------------
    def handle(self) -> SynthesisHandle:
        """Prepare (if needed) and return a warm :class:`SynthesisHandle`."""
        self.prepare()
        store_path = self.store_path
        if store_path is not None and not store_path.exists():
            store_path = None
        return SynthesisHandle(
            n_wires=self.n_wires,
            k=self.k,
            max_list_size=self.max_list_size,
            database=self._db,
            engine=self._search,
            store_path=store_path,
        )

    @staticmethod
    def from_handle(handle: SynthesisHandle) -> "OptimalSynthesizer":
        """Rehydrate a synthesizer from a warm handle without rebuilding."""
        synth = OptimalSynthesizer(
            n_wires=handle.n_wires,
            k=handle.k,
            max_list_size=handle.max_list_size,
            cache_dir=False,
        )
        synth.store_path = handle.store_path
        synth._db = handle.database
        synth._search = handle.engine
        return synth

    # ------------------------------------------------------------------
    # Synthesis API
    # ------------------------------------------------------------------
    def synthesize(self, spec) -> Circuit:
        """A provably gate-count-minimal circuit for ``spec``.

        ``spec`` may be a :class:`Permutation`, a spec string like
        ``"[0,2,1,3,...]"``, a value sequence, or a packed word.
        """
        perm = Permutation.coerce(spec, self.n_wires)
        return self.search_engine.minimal_circuit(perm.word)

    def search(self, spec, cancel=None) -> SearchOutcome:
        """Synthesize and also report search statistics.

        ``cancel`` is an optional zero-argument cooperative checkpoint
        threaded into the list scan (see
        :meth:`repro.synth.search.MeetInTheMiddleSearch.search`).
        """
        perm = Permutation.coerce(spec, self.n_wires)
        return self.search_engine.search(perm.word, cancel=cancel)

    def size(self, spec) -> int:
        """The optimal gate count of ``spec`` (no circuit reconstruction)."""
        perm = Permutation.coerce(spec, self.n_wires)
        return self.search_engine.size_of(perm.word)

    def size_or_bound(
        self, spec, cancel=None, max_size: "int | None" = None
    ) -> tuple[int, bool]:
        """``(value, exact)``: the optimal size when it is at most
        ``max_size`` (default L; exact=True), else a proven lower bound
        (exact=False).

        ``max_size`` and ``cancel`` go to
        :meth:`repro.synth.search.MeetInTheMiddleSearch.size_of`: the
        scan stops after A_{max_size-k}, and ``cancel`` runs before
        each list.
        """
        from repro.errors import SizeLimitExceededError

        perm = Permutation.coerce(spec, self.n_wires)
        try:
            size = self.search_engine.size_of(
                perm.word, cancel=cancel, max_size=max_size
            )
        except SizeLimitExceededError as exc:
            return exc.lower_bound, False
        return size, True

    def verify(self, circuit: Circuit, spec) -> bool:
        """Check that a circuit implements a specification."""
        perm = Permutation.coerce(spec, self.n_wires)
        return circuit.implements(perm)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _progress(self, level: int, count: int) -> None:
        self._log(f"  size {level}: {count} new classes")

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[repro] {message}", flush=True)
