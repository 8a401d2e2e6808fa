"""Result cache for the synthesis service, keyed by canonical class.

Every key is ``(engine, n_wires, canonical_word)``.  For the default
``optimal`` engine all (up to 48) members of an equivalence class share
one entry -- the paper's Section 3.2 symmetry applied to serving.  An
entry records what is class-invariant (the optimal size, or the proven
lower bound for out-of-reach classes) plus a small map of exact words to
their reconstructed circuit strings.  Sizes transfer across the whole
class for free; circuits are per-word because relabeling/inversion
changes the gate list, and byte-identical output to a direct
:meth:`OptimalSynthesizer.search` matters more than the few peels saved.

Other engines get their own keyspace via the ``engine`` keyword: their
answers are *not* class-invariant (the MMD heuristic's size changes
under relabeling), so the daemon keys them by exact word (``canon`` =
the word itself) and stores the serialized wire result as the circuit
string.  Keyspaces never mix: a heuristic answer can never shadow an
optimal one.

The cache is LRU over entries (all keyspaces share one LRU ring),
thread-safe, and optionally persistent: ``save()`` writes a versioned
JSON file that ``load()`` (or the constructor) replays, so a restarted
daemon starts warm.  Records without an ``engine`` field belong to
``optimal``, which keeps files from older daemons loadable.

Persistence is crash-safe: ``save()`` writes a temp file, fsyncs it,
atomically renames it over the target, and fsyncs the directory, and
the payload carries a SHA-256 checksum over the serialized entries so a
torn or bit-flipped file is *detected* rather than half-loaded.  The
constructor treats a corrupt file as survivable: it quarantines the
file (rename to ``<name>.corrupt``) and starts cold, recording what
happened for the ``health`` op.  An explicit :meth:`load` still raises,
so callers that need the strict behaviour keep it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError

log = logging.getLogger(__name__)

#: On-disk format version; bump on incompatible change.
CACHE_FORMAT_VERSION = 1

#: Size ceiling for the per-entry circuit map (class size is <= 48).
MAX_CIRCUITS_PER_ENTRY = 48


@dataclass(slots=True)
class CacheEntry:
    """One equivalence class worth of results.

    ``size`` is None for classes proven out of reach, in which case
    ``lower_bound``/``max_size`` record the proof context (a later query
    against a *deeper* engine must not trust a stale bound).
    """

    size: "int | None"
    lower_bound: "int | None" = None
    max_size: "int | None" = None
    circuits: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CacheHit:
    """What the cache knows about one queried word."""

    size: "int | None"
    lower_bound: "int | None"
    circuit: "str | None"


#: Keyspace used when no engine is named (the batched optimal pipeline).
DEFAULT_ENGINE = "optimal"


class ResultCache:
    """LRU + persistent map: (engine, n_wires, canonical word) -> CacheEntry."""

    def __init__(
        self,
        capacity: int = 65536,
        path: "str | Path | None" = None,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, int, int], CacheEntry]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        #: Whether the most recent :meth:`save` succeeded (None = never saved).
        self.last_save_ok: "bool | None" = None
        #: Set when the constructor quarantined a corrupt cache file.
        self.quarantined: "Path | None" = None
        self.load_error: "str | None" = None
        if self.path and self.path.exists():
            try:
                self.load(self.path)
            except ServiceError as exc:
                # A corrupt persisted cache must not take the daemon down:
                # every entry is recomputable.  Quarantine the file (so the
                # evidence survives and the next save doesn't overwrite it)
                # and start cold.
                self.quarantined = self.path.with_suffix(
                    self.path.suffix + ".corrupt"
                )
                self.load_error = str(exc)
                try:
                    self.path.replace(self.quarantined)
                except OSError:
                    self.quarantined = None
                log.warning(
                    "result cache load failed; quarantined %s and starting "
                    "cold: %s",
                    self.quarantined or self.path,
                    exc,
                )
                with self._lock:
                    self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookups / stores
    # ------------------------------------------------------------------
    def lookup(
        self,
        n_wires: int,
        canon: int,
        word: "int | None" = None,
        engine: str = DEFAULT_ENGINE,
    ) -> "CacheHit | None":
        """Size (and circuit for ``word``, when stored) of a class.

        Returns None on a complete miss.  Touches the entry for LRU.
        """
        key = (engine, n_wires, canon)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            circuit = entry.circuits.get(word) if word is not None else None
            return CacheHit(
                size=entry.size,
                lower_bound=entry.lower_bound,
                circuit=circuit,
            )

    def store_size(
        self, n_wires: int, canon: int, size: int, engine: str = DEFAULT_ENGINE
    ) -> None:
        """Record the optimal size of a class."""
        with self._lock:
            self._touch(n_wires, canon, engine).size = size

    def store_bound(
        self,
        n_wires: int,
        canon: int,
        lower_bound: int,
        max_size: int,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        """Record a proven lower bound for an out-of-reach class."""
        with self._lock:
            entry = self._touch(n_wires, canon, engine)
            entry.lower_bound = lower_bound
            entry.max_size = max_size

    def store_circuit(
        self,
        n_wires: int,
        canon: int,
        word: int,
        size: int,
        circuit: str,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        """Record a reconstructed circuit for one exact word of a class.

        Non-default keyspaces may store any string here -- the daemon
        uses it for the engine's full serialized wire result.
        """
        with self._lock:
            entry = self._touch(n_wires, canon, engine)
            entry.size = size
            if len(entry.circuits) < MAX_CIRCUITS_PER_ENTRY or word in entry.circuits:
                entry.circuits[word] = circuit

    def bound_for(
        self,
        n_wires: int,
        canon: int,
        engine_max_size: int,
        engine: str = DEFAULT_ENGINE,
    ) -> "int | None":
        """A cached lower bound, only if proved at >= this engine depth."""
        key = (engine, n_wires, canon)
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is None
                or entry.lower_bound is None
                or entry.max_size is None
                or entry.max_size < engine_max_size
            ):
                return None
            self._entries.move_to_end(key)
            return entry.lower_bound

    def _touch(
        self, n_wires: int, canon: int, engine: str = DEFAULT_ENGINE
    ) -> CacheEntry:
        """Get-or-create an entry, refresh LRU order, evict if over."""
        key = (engine, n_wires, canon)
        entry = self._entries.get(key)
        if entry is None:
            entry = CacheEntry(size=None)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return entry

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def hit_rate(self) -> "float | None":
        total = self.hits + self.misses
        return self.hits / total if total else None

    def stats(self) -> dict:
        with self._lock:
            circuits = sum(len(e.circuits) for e in self._entries.values())
            by_engine: dict[str, int] = {}
            for engine, _, _ in self._entries:
                by_engine[engine] = by_engine.get(engine, 0) + 1
            return {
                "entries": len(self._entries),
                "entries_by_engine": by_engine,
                "capacity": self.capacity,
                "circuits": circuits,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate(),
            }

    def health(self) -> dict:
        """JSON-ready persistence status for the ``health`` op."""
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "persistent": self.path is not None,
            "quarantined": str(self.quarantined) if self.quarantined else None,
            "load_error": self.load_error,
            "last_save_ok": self.last_save_ok,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: "str | Path | None" = None) -> Path:
        """Write all entries as versioned, checksummed JSON; returns the
        path used.

        Crash-safe: the payload is written to a temp file, fsynced, and
        atomically renamed over the target (followed by a best-effort
        directory fsync), so a crash mid-save leaves either the old file
        or the new one -- never a torn mix.  The SHA-256 checksum over
        the serialized entries lets :meth:`load` detect corruption that
        slips past the JSON parser.
        """
        target = Path(path) if path else self.path
        if target is None:
            raise ServiceError("no cache path configured to save to")
        target.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            entries = []
            for (engine, n_wires, canon), entry in self._entries.items():
                record = {
                    "n": n_wires,
                    "canon": f"{canon:#x}",
                    "size": entry.size,
                    "lower_bound": entry.lower_bound,
                    "max_size": entry.max_size,
                    "circuits": {
                        f"{word:#x}": circuit
                        for word, circuit in entry.circuits.items()
                    },
                }
                if engine != DEFAULT_ENGINE:
                    record["engine"] = engine
                entries.append(record)
        entries_json = json.dumps(entries, separators=(",", ":"))
        checksum = hashlib.sha256(entries_json.encode("utf-8")).hexdigest()
        payload = (
            '{"version":%d,"checksum":"%s","entries":%s}'
            % (CACHE_FORMAT_VERSION, checksum, entries_json)
        )
        tmp = target.with_suffix(target.suffix + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
            try:
                dir_fd = os.open(target.parent, os.O_RDONLY)
            except OSError:
                pass  # platform without directory fds; rename is still atomic
            else:
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
        except OSError as exc:
            self.last_save_ok = False
            raise ServiceError(
                f"failed to persist result cache to {target}: {exc}"
            ) from exc
        self.last_save_ok = True
        return target

    def load(self, path: "str | Path") -> int:
        """Replay a saved cache file; returns the number of entries added.

        A corrupt or version-mismatched file is rejected with
        :class:`ServiceError` rather than silently emptying the cache.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"result cache file {path} is unreadable: {exc}"
            ) from exc
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ServiceError(
                f"result cache file {path} is malformed: missing 'entries'"
            )
        if payload.get("version") != CACHE_FORMAT_VERSION:
            raise ServiceError(
                f"result cache file {path} has unsupported version "
                f"{payload.get('version')!r} (expected {CACHE_FORMAT_VERSION})"
            )
        checksum = payload.get("checksum")
        if checksum is not None:
            # Files from before the checksum footer lack the field and
            # still load; a present-but-wrong checksum means corruption.
            entries_json = json.dumps(
                payload["entries"], separators=(",", ":")
            )
            actual = hashlib.sha256(entries_json.encode("utf-8")).hexdigest()
            if actual != checksum:
                raise ServiceError(
                    f"result cache file {path} failed its checksum "
                    f"(stored {checksum[:12]}..., computed {actual[:12]}...)"
                )
        added = 0
        with self._lock:
            for record in payload["entries"]:
                try:
                    key = (
                        str(record.get("engine", DEFAULT_ENGINE)),
                        int(record["n"]),
                        int(record["canon"], 16),
                    )
                    entry = CacheEntry(
                        size=record.get("size"),
                        lower_bound=record.get("lower_bound"),
                        max_size=record.get("max_size"),
                        circuits={
                            int(word, 16): circuit
                            for word, circuit in record.get(
                                "circuits", {}
                            ).items()
                        },
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ServiceError(
                        f"result cache file {path} has a malformed entry: {exc}"
                    ) from exc
                self._entries[key] = entry
                added += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return added


__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEFAULT_ENGINE",
    "MAX_CIRCUITS_PER_ENTRY",
    "CacheEntry",
    "CacheHit",
    "ResultCache",
]
