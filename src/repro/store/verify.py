"""Describe and verify ``.rdb`` stores.

:func:`describe` maps a store and reports its parameters and Table 2
hash-table statistics; :func:`verify_store` adds the full integrity
pass that mapping skips (payload checksum plus a semantic
cross-check).  Both raise :class:`DatabaseError` naming the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import DatabaseError
from repro.hashing.table import TableStats
from repro.perf.trace import trace
from repro.store.format import StoreHeader, read_header
from repro.store.mapped import map_database
from repro.store.writer import payload_checksum


@dataclass(frozen=True)
class StoreInfo:
    """What ``repro db info`` / the cache listing report per store file."""

    path: Path
    size_bytes: int
    n_wires: int
    k: int
    entries: int
    stats: TableStats

    def format_rows(self) -> list[str]:
        rows = [
            f"path       {self.path}",
            f"size       {self.size_bytes / (1 << 20):.1f} MB on disk",
            f"n_wires    {self.n_wires}",
            f"k          {self.k}",
            f"entries    {self.entries}",
        ]
        rows.extend(self.stats.format_rows())
        return rows


def describe(path: "str | Path") -> StoreInfo:
    """Map a store and report its parameters and Table 2 statistics."""
    path = Path(path)
    db = map_database(path)
    return StoreInfo(
        path=path,
        size_bytes=path.stat().st_size,
        n_wires=db.n_wires,
        k=db.k,
        entries=len(db.table),
        stats=db.table.stats(),
    )


def verify_store(path: "str | Path") -> StoreInfo:
    """Full integrity pass over a store file; returns its description.

    Header validation, payload SHA-256 against the stored checksum, and
    a semantic cross-check that every persisted representative probes
    back to its own size through the mapped table.  Any failure raises
    :class:`DatabaseError` naming the path.
    """
    path = Path(path)
    with trace("db.verify", path=str(path)):
        header = read_header(path)
        _verify_checksum(path, header)
        _verify_semantics(path, map_database(path))
        return describe(path)


def _verify_checksum(path: Path, header: StoreHeader) -> None:
    actual = payload_checksum(path, header)
    if actual != header.checksum:
        raise DatabaseError(
            f"database store {path} failed its checksum (stored "
            f"{header.checksum.hex()[:12]}..., computed "
            f"{actual.hex()[:12]}...)"
        )


def _verify_semantics(path: Path, db) -> None:
    total = 0
    for size, reps in enumerate(db.reps_by_size):
        reps = np.asarray(reps, dtype=np.uint64)
        total += int(reps.shape[0])
        if reps.shape[0] == 0:
            continue
        # reps are canonical by construction; this is the raw-table probe.
        found = db.table.lookup_batch(reps)
        bad = np.nonzero(found != size)[0]
        if bad.size:
            raise DatabaseError(
                f"database store {path} is inconsistent: representative "
                f"{int(reps[bad[0]]):#x} of size {size} probes to "
                f"{int(found[bad[0]])}"
            )
    if total != len(db.table):
        raise DatabaseError(
            f"database store {path} is inconsistent: {total} "
            f"representatives vs {len(db.table)} table entries"
        )


__all__ = ["StoreInfo", "describe", "verify_store"]
