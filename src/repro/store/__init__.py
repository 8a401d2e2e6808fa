"""Versioned on-disk database stores (``.rdb``) with zero-copy mapping.

The ``.rdb`` flat binary format persists the optimal-circuit database's
open-addressing slot array verbatim, so an ``np.memmap`` over the file
probes byte-identically to the in-RAM table: cold start is
O(page-fault) instead of O(table-build), and every process mapping the
same store shares one copy of it in the page cache.  See
``docs/DATABASE.md`` for the format layout and sharing semantics.

Public surface:

- :func:`map_database` -- open a store, zero copy
- :func:`write_rdb` -- write a store crash-safely
- :func:`verify_store` / :func:`describe` -- integrity and Table 2 stats

A mapped database's table is a
:class:`~repro.hashing.table.LinearProbingTable` over the mapped slot
arrays; its ``path`` names the store (None for a table in RAM).
"""

from repro.store.format import (
    HEADER_SIZE,
    MAX_K,
    RDB_MAGIC,
    RDB_VERSION,
    StoreHeader,
    read_header,
)
from repro.store.mapped import map_database
from repro.store.verify import StoreInfo, describe, verify_store
from repro.store.writer import payload_checksum, write_rdb

__all__ = [
    "HEADER_SIZE",
    "MAX_K",
    "RDB_MAGIC",
    "RDB_VERSION",
    "StoreHeader",
    "StoreInfo",
    "describe",
    "map_database",
    "payload_checksum",
    "read_header",
    "verify_store",
    "write_rdb",
]
