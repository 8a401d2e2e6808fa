"""Describe and verify ``.rdb`` stores.

:func:`describe` maps a store and reports its parameters and Table 2
hash-table statistics; :func:`verify_store` adds the full integrity
pass that mapping skips (payload checksum plus a semantic
cross-check of the representatives and their peel masks).  Both raise
:class:`DatabaseError` naming the path.
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
    a semantic cross-check: every persisted representative probes back
    to its own size through the mapped table, every representative of
    size >= 1 has a gate that can end it and one that can start it, and
    the peel masks of a seeded sample of up to :data:`MASK_SAMPLE`
    representatives per size match masks recomputed by canonicalizing
    and probing their neighbours.  Any failure raises
    :class:`DatabaseError` naming the path.
    """
    path = Path(path)
    with trace("db.verify", path=str(path)):
        header = read_header(path)
        _verify_checksum(path, header)
        db = map_database(path)
        _verify_semantics(path, db)
        _verify_masks(path, db)
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


#: Representatives per size whose peel masks verify recomputes.
MASK_SAMPLE = 1000

#: Seed of the verified sample, so a verdict is reproducible.
_SAMPLE_SEED = 0


def _verify_masks(path: Path, db) -> None:
    rng = np.random.default_rng(_SAMPLE_SEED)
    for size in range(1, db.k + 1):
        reps = np.asarray(db.reps_by_size[size], dtype=np.uint64)
        masks = np.asarray(db.peel_masks(size), dtype=np.uint64)
        halves = (masks & np.uint64(0xFFFF_FFFF), masks >> np.uint64(32))
        for half, role in zip(halves, ("end", "start")):
            empty = np.flatnonzero(half == 0)
            if empty.size:
                raise DatabaseError(
                    f"database store {path} is inconsistent: no gate can "
                    f"{role} representative {int(reps[empty[0]]):#x} of "
                    f"size {size} by its peel mask"
                )
        sample = np.sort(
            rng.choice(reps.shape[0], min(MASK_SAMPLE, reps.shape[0]), replace=False)
        )
        expected = db.probed_peel_masks(reps[sample], size)
        wrong = np.flatnonzero(expected != masks[sample])
        if wrong.size:
            at = int(sample[wrong[0]])
            raise DatabaseError(
                f"database store {path} is inconsistent: representative "
                f"{int(reps[at]):#x} of size {size} has peel mask "
                f"{int(masks[at]):#018x}, its neighbours give "
                f"{int(expected[wrong[0]]):#018x}"
            )


__all__ = ["StoreInfo", "describe", "verify_store"]
