"""The ``.rdb`` flat binary database format (version 2).

Layout -- every integer little-endian, sections written back to back::

    offset 0                    header, fixed HEADER_SIZE bytes
      0    magic          8s    b"reproRDB"
      8    version        u32   RDB_VERSION
      12   header_size    u32   HEADER_SIZE (4096)
      16   n_wires        u32
      20   k              u32
      24   capacity_bits  u32   log2 of the slot count
      28   reserved       u32   0
      32   count          u64   occupied slots
      40   payload_len    u64   bytes after the header
      48   checksum       32s   SHA-256 over the payload bytes
      80   reps_counts    u64 x (k+1)   representatives per size
      ...  zero padding to HEADER_SIZE
    offset HEADER_SIZE           payload
      slot_keys    uint64[1 << capacity_bits]   open-addressing keys
      slot_values  uint8 [1 << capacity_bits]   circuit sizes
      pad to 8-byte alignment
      reps_0 .. reps_k  uint64[reps_counts[s]]  per-size representatives
      peel_masks   uint64[sum(reps_counts)]     one per representative,
                                                in reps order

Bits 0-31 of a representative's peel mask mark the library gates that
can end a minimal circuit for it, bits 32-63 those that can start one
(:mod:`repro.synth.database`).  Version 1 had no mask extent; a version-1
store fails the version check and is rebuilt.

The slot arrays are the *exact* in-RAM probing layout of
:class:`repro.hashing.table.LinearProbingTable` (Wang-hashed home slot,
+1 wraparound, all-ones empty sentinel), so a read-only ``np.memmap``
over them probes byte-identically with zero copy.  Everything needed to
map the file is in the fixed-size header: cold start is O(page-fault),
not O(table-build), and N processes mapping one file share its pages.

All validation errors raise :class:`repro.errors.DatabaseError` and
name the offending path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from repro.errors import DatabaseError

#: File magic; never changes across versions.
RDB_MAGIC = b"reproRDB"

#: On-disk format version; bump on incompatible layout change.
RDB_VERSION = 2

#: Fixed header size; the payload starts here.
HEADER_SIZE = 4096

#: struct layout of the fixed part of the header (before reps_counts).
_FIXED = struct.Struct("<8sIIIIII QQ 32s")

#: Offset of the reps_counts array inside the header.
_COUNTS_OFFSET = _FIXED.size

#: Largest k whose reps_counts fit in the header.
MAX_K = (HEADER_SIZE - _COUNTS_OFFSET) // 8 - 1

#: Section alignment inside the payload (uint64 views need it).
_ALIGN = 8


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class StoreHeader:
    """Parsed ``.rdb`` header: everything needed to map the file."""

    n_wires: int
    k: int
    capacity_bits: int
    count: int
    payload_len: int
    checksum: bytes
    reps_counts: tuple[int, ...]
    version: int = RDB_VERSION

    # ------------------------------------------------------------------
    # Derived layout
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return 1 << self.capacity_bits

    @property
    def keys_offset(self) -> int:
        return HEADER_SIZE

    @property
    def values_offset(self) -> int:
        return self.keys_offset + 8 * self.capacity

    @property
    def reps_offset(self) -> int:
        return _aligned(self.values_offset + self.capacity)

    def reps_offsets(self) -> list[int]:
        """Byte offset of each per-size representative array."""
        offsets = []
        cursor = self.reps_offset
        for count in self.reps_counts:
            offsets.append(cursor)
            cursor += 8 * count
        return offsets

    @property
    def masks_offset(self) -> int:
        """Byte offset of the peel-mask extent (right after reps_k)."""
        return self.reps_offset + 8 * sum(self.reps_counts)

    def expected_payload_len(self) -> int:
        """Payload length implied by capacity_bits and reps_counts."""
        end = self.masks_offset + 8 * sum(self.reps_counts)
        return end - HEADER_SIZE

    def expected_file_len(self) -> int:
        return HEADER_SIZE + self.payload_len

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """The full HEADER_SIZE-byte header."""
        if self.k > MAX_K:
            raise DatabaseError(
                f"k={self.k} exceeds the .rdb header capacity (max {MAX_K})"
            )
        fixed = _FIXED.pack(
            RDB_MAGIC,
            self.version,
            HEADER_SIZE,
            self.n_wires,
            self.k,
            self.capacity_bits,
            0,
            self.count,
            self.payload_len,
            self.checksum,
        )
        counts = struct.pack(f"<{self.k + 1}Q", *self.reps_counts)
        blob = fixed + counts
        return blob + b"\x00" * (HEADER_SIZE - len(blob))

    @staticmethod
    def unpack(raw: bytes, path: "Path | str") -> "StoreHeader":
        """Parse and validate a header; raise :class:`DatabaseError`
        (naming ``path``) on anything malformed."""
        if len(raw) < HEADER_SIZE:
            raise DatabaseError(
                f"database store {path} is truncated: header is "
                f"{len(raw)} bytes, need {HEADER_SIZE}"
            )
        (
            magic,
            version,
            header_size,
            n_wires,
            k,
            capacity_bits,
            _reserved,
            count,
            payload_len,
            checksum,
        ) = _FIXED.unpack_from(raw)
        if magic != RDB_MAGIC:
            raise DatabaseError(
                f"database store {path} has bad magic {magic!r} "
                f"(expected {RDB_MAGIC!r}); not an .rdb file"
            )
        if version != RDB_VERSION:
            raise DatabaseError(
                f"database store {path} has format version {version}, "
                f"this build reads version {RDB_VERSION}; rebuild it "
                "with 'repro build-db --force'"
            )
        if header_size != HEADER_SIZE:
            raise DatabaseError(
                f"database store {path} declares header_size "
                f"{header_size}, expected {HEADER_SIZE}"
            )
        if not (1 <= n_wires <= 4) or k < 0 or k > MAX_K:
            raise DatabaseError(
                f"database store {path} is corrupt: invalid "
                f"n_wires={n_wires}, k={k}"
            )
        if not 4 <= capacity_bits <= 34:
            raise DatabaseError(
                f"database store {path} is corrupt: capacity_bits "
                f"{capacity_bits} out of range"
            )
        reps_counts = struct.unpack_from(f"<{k + 1}Q", raw, _COUNTS_OFFSET)
        header = StoreHeader(
            n_wires=n_wires,
            k=k,
            capacity_bits=capacity_bits,
            count=count,
            payload_len=payload_len,
            checksum=checksum,
            reps_counts=tuple(int(c) for c in reps_counts),
            version=version,
        )
        if header.expected_payload_len() != payload_len:
            raise DatabaseError(
                f"database store {path} is corrupt: capacity_bits="
                f"{capacity_bits} and reps_counts imply a "
                f"{header.expected_payload_len()}-byte payload, header "
                f"declares {payload_len}"
            )
        return header


def read_header(path: "Path | str") -> StoreHeader:
    """Read and validate the header of an ``.rdb`` file.

    Also checks the physical file length against the header's declared
    layout, so a file whose ``capacity_bits`` disagrees with its length
    (truncated payload, padded garbage) is rejected up front.
    """
    path = Path(path)
    if not path.exists():
        raise DatabaseError(f"database store not found: {path}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read(HEADER_SIZE)
    except OSError as exc:
        raise DatabaseError(
            f"database store {path} is unreadable: {exc}"
        ) from exc
    header = StoreHeader.unpack(raw, path)
    actual_len = path.stat().st_size
    if actual_len != header.expected_file_len():
        raise DatabaseError(
            f"database store {path} is corrupt: file is {actual_len} "
            f"bytes but header (capacity_bits={header.capacity_bits}, "
            f"k={header.k}) requires {header.expected_file_len()}"
        )
    return header


__all__ = [
    "HEADER_SIZE",
    "MAX_K",
    "RDB_MAGIC",
    "RDB_VERSION",
    "StoreHeader",
    "read_header",
]
