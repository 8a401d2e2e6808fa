"""Crash-safe ``.rdb`` writer.

Mirrors the persistence discipline of the service result cache
(:mod:`repro.service.cache`): the file is written to a temp sibling,
fsynced, atomically renamed over the target, and the directory is
fsynced best-effort -- a crash mid-write leaves either the old store or
the new one, never a torn mix.  The header carries a SHA-256 checksum
over the payload, computed while streaming the sections out, so
``repro db verify`` can detect bit rot without trusting the writer.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from repro.errors import DatabaseError
from repro.store.format import HEADER_SIZE, MAX_K, StoreHeader


def write_rdb(db, path: "str | Path") -> Path:
    """Serialize an :class:`~repro.synth.database.OptimalDatabase` (or a
    mapped view of one) to ``path`` in ``.rdb`` format; returns the path.

    The table's raw slot arrays are written verbatim, so the mapped
    reader probes exactly as the in-RAM table does.  The peel masks
    follow the representatives; an in-RAM database computes them here
    (:meth:`~repro.synth.database.OptimalDatabase.peel_masks`), so the
    build pays for them and a process that maps the store never does.
    """
    path = Path(path)
    if db.k > MAX_K:
        raise DatabaseError(
            f"cannot write {path}: k={db.k} exceeds the .rdb header "
            f"capacity (max {MAX_K})"
        )
    slot_keys, slot_values = db.table.slot_arrays()
    capacity_bits = db.table.capacity_bits
    reps = [np.ascontiguousarray(r, dtype=np.uint64) for r in db.reps_by_size]
    if len(reps) != db.k + 1:
        raise DatabaseError(
            f"cannot write {path}: database has {len(reps)} per-size "
            f"arrays but k={db.k} requires {db.k + 1}"
        )

    keys_le = np.ascontiguousarray(slot_keys, dtype="<u8")
    values_le = np.ascontiguousarray(slot_values, dtype="u1")
    header = StoreHeader(
        n_wires=db.n_wires,
        k=db.k,
        capacity_bits=capacity_bits,
        count=len(db.table),
        payload_len=0,  # filled below
        checksum=b"\x00" * 32,
        reps_counts=tuple(int(r.shape[0]) for r in reps),
    )
    pad = header.reps_offset - header.values_offset - values_le.nbytes
    sections: list[bytes] = [
        keys_le.tobytes(),
        values_le.tobytes(),
        b"\x00" * pad,
    ]
    sections.extend(
        np.ascontiguousarray(r, dtype="<u8").tobytes() for r in reps
    )
    sections.extend(
        np.ascontiguousarray(db.peel_masks(size), dtype="<u8").tobytes()
        for size in range(db.k + 1)
    )
    digest = hashlib.sha256()
    payload_len = 0
    for section in sections:
        digest.update(section)
        payload_len += len(section)
    header = StoreHeader(
        n_wires=header.n_wires,
        k=header.k,
        capacity_bits=header.capacity_bits,
        count=header.count,
        payload_len=payload_len,
        checksum=digest.digest(),
        reps_counts=header.reps_counts,
    )
    assert header.expected_payload_len() == payload_len

    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(header.pack())
            for section in sections:
                fh.write(section)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            pass  # platform without directory fds; rename is still atomic
        else:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
    except OSError as exc:
        raise DatabaseError(
            f"failed to write database store {path}: {exc}"
        ) from exc
    return path


def payload_checksum(path: "str | Path", header: StoreHeader) -> bytes:
    """SHA-256 over the payload of an existing ``.rdb`` file (streamed)."""
    path = Path(path)
    digest = hashlib.sha256()
    remaining = header.payload_len
    try:
        with open(path, "rb") as fh:
            fh.seek(HEADER_SIZE)
            while remaining > 0:
                chunk = fh.read(min(remaining, 1 << 20))
                if not chunk:
                    break
                digest.update(chunk)
                remaining -= len(chunk)
    except OSError as exc:
        raise DatabaseError(
            f"database store {path} is unreadable: {exc}"
        ) from exc
    if remaining:
        raise DatabaseError(
            f"database store {path} is truncated: payload short by "
            f"{remaining} bytes"
        )
    return digest.digest()


__all__ = ["payload_checksum", "write_rdb"]
