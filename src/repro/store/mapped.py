"""Map an ``.rdb`` store into an :class:`OptimalDatabase`, zero copy.

``map_database`` opens the file, validates the header (magic, version,
layout vs. physical length) and returns a fully functional
``OptimalDatabase`` whose hash table, per-size representative arrays
and peel masks are read-only ``np.memmap`` views; the representatives
and the masks are one extent, mapped once and sliced per size.  Nothing
is deserialized: cold start is the cost of a few page faults, and N
processes mapping the same path share one copy of the table in the page
cache -- the property the shards of ``repro serve --shards N`` rely on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.perf.trace import trace
from repro.store.format import StoreHeader, read_header
from repro.store.mmap_table import MmapTable


def map_database(path: "str | Path"):
    """An ``OptimalDatabase`` over read-only mappings of ``path``.

    Raises :class:`repro.errors.DatabaseError` (always naming the path)
    when the file is missing, truncated, version-skewed, or its header
    disagrees with its length.  The payload checksum is *not* verified
    here -- that would fault every page in and defeat the O(page-fault)
    cold start; run :func:`repro.store.verify.verify_store` (or
    ``repro db verify``) for the full integrity pass.
    """
    from repro.synth.database import OptimalDatabase

    path = Path(path)
    with trace("db.map", path=str(path)):
        header = read_header(path)
        table = MmapTable(path, header)
        reps_by_size, masks_by_size = _map_reps(path, header)
        return OptimalDatabase(
            n_wires=header.n_wires,
            k=header.k,
            table=table,
            reps_by_size=reps_by_size,
            masks_by_size=masks_by_size,
        )


def _map_reps(
    path: Path, header: StoreHeader
) -> "tuple[list[np.ndarray], dict[int, np.ndarray]]":
    """Per-size views of the representatives and of their peel masks."""
    total = sum(header.reps_counts)
    extent = np.empty(0, dtype=np.uint64)
    if total:
        extent = np.memmap(
            path,
            mode="r",
            dtype=np.uint64,
            offset=header.reps_offset,
            shape=(2 * total,),
        )
    reps: "list[np.ndarray]" = []
    masks: "dict[int, np.ndarray]" = {}
    start = 0
    for size, count in enumerate(header.reps_counts):
        reps.append(extent[start : start + count])
        masks[size] = extent[total + start : total + start + count]
        start += count
    return reps, masks


def is_mapped(db) -> bool:
    """True when ``db``'s table is a read-only store mapping."""
    return isinstance(getattr(db, "table", None), MmapTable)


def mapped_path(db) -> "Path | None":
    """The ``.rdb`` path backing ``db``, or None for in-RAM databases."""
    table = getattr(db, "table", None)
    if isinstance(table, MmapTable):
        return Path(table.path)
    return None


__all__ = ["is_mapped", "map_database", "mapped_path"]
