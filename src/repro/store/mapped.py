"""Map an ``.rdb`` store into an :class:`OptimalDatabase`, zero copy.

``map_database`` opens the file, validates the header (magic, version,
layout vs. physical length) and returns a fully functional
``OptimalDatabase`` over read-only ``np.memmap`` views: its hash table
is a :class:`~repro.hashing.table.LinearProbingTable` over the mapped
slot arrays, and the per-size representatives and peel masks are slices
of one mapped extent.  Nothing is deserialized: cold start is the cost
of a few page faults, and N processes mapping the same path share one
copy of the table in the page cache -- the property the shards of
``repro serve --shards N`` rely on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import DatabaseError
from repro.hashing.table import LinearProbingTable
from repro.perf.trace import trace
from repro.store.format import StoreHeader, read_header


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
        if not np.little_endian:  # pragma: no cover - LE-only format
            raise DatabaseError(
                f"database store {path} is little-endian; this host is "
                "big-endian and cannot map it"
            )
        table = LinearProbingTable.over_store(
            path,
            _map(path, header.keys_offset, np.uint64, header.capacity),
            _map(path, header.values_offset, np.uint8, header.capacity),
            header.count,
        )
        reps_by_size, masks_by_size = _map_reps(path, header)
        return OptimalDatabase(
            n_wires=header.n_wires,
            k=header.k,
            table=table,
            reps_by_size=reps_by_size,
            masks_by_size=masks_by_size,
        )


def _map(path: Path, offset: int, dtype: type, count: int) -> np.ndarray:
    """A read-only mapping of ``count`` ``dtype`` items at ``offset``."""
    try:
        return np.memmap(
            path, mode="r", dtype=dtype, offset=offset, shape=(count,)
        )
    except (OSError, ValueError) as exc:
        raise DatabaseError(
            f"database store {path} could not be mapped: {exc}"
        ) from exc


def _map_reps(
    path: Path, header: StoreHeader
) -> "tuple[list[np.ndarray], dict[int, np.ndarray]]":
    """Per-size views of the representatives and of their peel masks."""
    total = sum(header.reps_counts)
    extent = np.empty(0, dtype=np.uint64)
    if total:
        extent = _map(path, header.reps_offset, np.uint64, 2 * total)
    reps: "list[np.ndarray]" = []
    masks: "dict[int, np.ndarray]" = {}
    start = 0
    for size, count in enumerate(header.reps_counts):
        reps.append(extent[start : start + count])
        masks[size] = extent[total + start : total + start + count]
        start += count
    return reps, masks


__all__ = ["map_database"]
