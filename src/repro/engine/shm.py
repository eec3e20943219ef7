"""Shared-memory column store (``multiprocessing.shared_memory``).

The process-backed serving pool (:mod:`repro.serve.pool`) ships each
request to a long-lived worker process.  Rather than pickle the input
tables into every request blob, the pool lays an environment's columns
out in a shared-memory segment once, ships each worker a small picklable
:class:`EnvHandle` ``(segment name, schemas, column layout)``, and workers
attach read-only.  Shard workers of one sharded run do not use this
store: they receive the ``Env`` itself.

Layout and codecs
-----------------
One published environment is one segment.  Each column is encoded by the
narrowest exact codec:

* ``"i8"``  — every cell a Python ``int`` fitting int64; little-endian
  64-bit buffer.
* ``"f8"``  — every cell a Python ``float``; IEEE-754 doubles, so NaN
  payloads, infinities and signed zeros round-trip bit-exact.
* ``"u4"``  — every cell a ``str``; fixed-width UCS-4 plus an int32 length
  array, so embedded and trailing NUL codepoints survive exactly.
* ``"obj"`` — anything else (``None``/``bool``/mixed classes/huge ints):
  the column pickled whole.  Always correct, never zero-copy.

Decoding rebuilds exact Python values, so an attached environment compares
``==`` (and hashes equal) to the original — which is what keeps a served
request's results byte-identical on the process tier.

Lifecycle and crash-safety
--------------------------
Segments are named ``{prefix}_{seq}`` under a per-pool prefix, so one
:func:`sweep_prefix` pass reclaims everything a pool created.  The
creator-side :class:`ShmStore` tracks its segments and unlinks them on
:meth:`ShmStore.close`; until then they stay registered with the creating
process's ``resource_tracker``, which unlinks them at interpreter death if
the pool crashes before cleanup.  *Attaching* processes unregister from
their own tracker (:func:`_untrack`) — otherwise every worker's tracker
would unlink the segment out from under its siblings on worker exit (the
long-standing CPython attach-side behavior).  :func:`scan_segments` is the
leak probe the test-suite and CI leak-check assert through.
"""

from __future__ import annotations

import os
import pickle
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.lang.ast import Env
from repro.table.schema import Schema
from repro.table.table import Table

#: Every segment name a run creates starts with this, whatever process
#: created it — the unit the leak scan and the end-of-run sweep key on.
SEGMENT_PREFIX = "reproshm"

#: Where POSIX shared memory surfaces as files (Linux).  The scan/sweep
#: helpers degrade gracefully on platforms without it.
SHM_DIR = "/dev/shm"

_I8_MIN, _I8_MAX = -(2**63), 2**63 - 1


def _untrack(shm) -> None:
    """Unregister ``shm`` from this process's resource tracker.

    Used on the attach side, so a worker's exit never unlinks a segment
    its siblings still read.  The tracker API is
    semi-private but stable across the supported interpreters; failure to
    unregister only risks an early unlink warning, never corruption.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def _retrack(shm) -> None:
    """Re-register ``shm`` right before an unlink that will unregister it.

    Fork children share the parent's tracker process, so a child's
    attach-side :func:`_untrack` removes the *parent's* registration from
    the shared cache; the parent's eventual ``unlink()`` would then
    unregister an absent name and the tracker logs a KeyError traceback.
    Registration is a set-add (idempotent), so compensating unconditionally
    is always balanced.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


# ------------------------------------------------------------------- handles

@dataclass(frozen=True)
class ColumnMeta:
    """Where (and how) one column lives inside a segment."""

    tag: str                    # "i8" | "f8" | "u4" | "obj"
    offset: int                 # payload offset into the segment
    nbytes: int                 # payload byte length
    count: int                  # number of cells
    width: int = 0              # u4: UCS-4 code units per cell
    lengths_offset: int = 0     # u4: offset of the int32 length array


@dataclass(frozen=True)
class BlockHandle:
    """One column block in shared memory; picklable, a few hundred bytes."""

    segment: str
    n_rows: int
    columns: tuple[ColumnMeta, ...]
    nbytes: int                     # total payload bytes in the segment


@dataclass(frozen=True)
class TableHandle:
    """One named input table: schema travels in the handle, cells in shm."""

    name: str
    schema: Schema
    block: BlockHandle


@dataclass(frozen=True)
class EnvHandle:
    """A whole environment in one segment — the pool's dispatch payload."""

    segment: str
    tables: tuple[TableHandle, ...]
    nbytes: int


# -------------------------------------------------------------------- codecs

def encode_column(column: Sequence) -> tuple[str, tuple[bytes, ...], dict]:
    """Encode one column: ``(tag, payload parts, meta)``.

    ``meta`` carries the codec extras (``width`` for ``u4``).  Parts are
    concatenated by the segment builder; ``u4`` contributes (lengths,
    payload) as two parts so each can be 8-aligned independently.
    """
    n = len(column)
    if n:
        cls = type(column[0])
        homogeneous = all(type(v) is cls for v in column)
    else:
        cls, homogeneous = None, False
    if homogeneous and cls is int:
        if all(_I8_MIN <= v <= _I8_MAX for v in column):
            return "i8", (struct.pack(f"<{n}q", *column),), {}
    elif homogeneous and cls is float:
        return "f8", (struct.pack(f"<{n}d", *column),), {}
    elif homogeneous and cls is str:
        width = max(len(s) for s in column)
        lengths = struct.pack(f"<{n}i", *(len(s) for s in column))
        pad = b"\0" * (4 * width)
        payload = b"".join(
            (s.encode("utf-32-le") + pad)[: 4 * width] for s in column)
        return "u4", (lengths, payload), {"width": width}
    payload = pickle.dumps(list(column), protocol=pickle.HIGHEST_PROTOCOL)
    return "obj", (payload,), {}


def decode_column(meta: ColumnMeta, buf) -> list:
    """Decode one column from a segment buffer back to exact Python values."""
    n = meta.count
    if meta.tag == "i8":
        return list(struct.unpack_from(f"<{n}q", buf, meta.offset))
    if meta.tag == "f8":
        return list(struct.unpack_from(f"<{n}d", buf, meta.offset))
    if meta.tag == "u4":
        lengths = struct.unpack_from(f"<{n}i", buf, meta.lengths_offset)
        stride = 4 * meta.width
        base = meta.offset
        raw = bytes(buf[base: base + n * stride])
        return [raw[i * stride: i * stride + 4 * lengths[i]]
                .decode("utf-32-le") for i in range(n)]
    if meta.tag == "obj":
        return pickle.loads(bytes(buf[meta.offset: meta.offset + meta.nbytes]))
    raise ValueError(f"unknown column codec {meta.tag!r}")


class _SegmentBuilder:
    """Accumulate 8-aligned payload parts, then copy once into a segment."""

    def __init__(self) -> None:
        self._parts: list[tuple[int, bytes]] = []
        self.size = 0

    def add(self, payload: bytes) -> int:
        """Append one part; returns its offset."""
        offset = (self.size + 7) & ~7
        self._parts.append((offset, payload))
        self.size = offset + len(payload)
        return offset

    def add_column(self, column: Sequence) -> ColumnMeta:
        tag, parts, meta = encode_column(column)
        if tag == "u4":
            lengths_offset = self.add(parts[0])
            offset = self.add(parts[1])
            return ColumnMeta(tag, offset, len(parts[1]), len(column),
                              width=meta["width"],
                              lengths_offset=lengths_offset)
        offset = self.add(parts[0])
        return ColumnMeta(tag, offset, len(parts[0]), len(column))

    def write_into(self, buf) -> None:
        for offset, payload in self._parts:
            buf[offset: offset + len(payload)] = payload


# --------------------------------------------------------------- shared store

class ShmStore:
    """Creator-side segment registry with explicit lifecycle.

    ``create → publish_env → close`` (also a context manager).  ``close``
    unlinks every segment this store created.
    """

    def __init__(self) -> None:
        self.prefix = f"{SEGMENT_PREFIX}_{os.getpid():x}{os.urandom(3).hex()}"
        self._segments: list[shared_memory.SharedMemory] = []
        self._seq = 0

    # ------------------------------------------------------------- lifecycle
    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        while True:
            name = f"{self.prefix}_{self._seq}"
            self._seq += 1
            try:
                seg = shared_memory.SharedMemory(name=name, create=True,
                                                 size=max(nbytes, 1))
                break
            except FileExistsError:
                # A predecessor with this prefix left the name behind;
                # skip it rather than fail the publish.
                continue
        self._segments.append(seg)
        return seg

    def close(self) -> None:
        """Detach and unlink every segment this store created."""
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - exported views alive
                continue
            _retrack(seg)   # see _retrack: fork children untracked us
            try:
                seg.unlink()
            except FileNotFoundError:
                pass        # already swept (crash path) — idempotent
        self._segments.clear()

    def __enter__(self) -> "ShmStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ publishing
    def publish_env(self, env: Env) -> EnvHandle:
        """Lay every input table of ``env`` out in one segment."""
        builder = _SegmentBuilder()
        staged = []
        for table in env.tables:
            columns = [[row[j] for row in table.rows]
                       for j in range(table.n_cols)]
            metas = tuple(builder.add_column(col) for col in columns)
            staged.append((table, metas))
        seg = self._new_segment(builder.size)
        builder.write_into(seg.buf)
        tables = tuple(
            TableHandle(table.name, table.schema,
                        BlockHandle(seg.name, table.n_rows, metas,
                                    builder.size))
            for table, metas in staged)
        return EnvHandle(seg.name, tables, builder.size)


# ----------------------------------------------------------------- attaching

class Attachment:
    """Consumer-side registry of attached (read-only) segments."""

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def get(self, name: str) -> shared_memory.SharedMemory:
        seg = self._segments.get(name)
        if seg is None:
            seg = shared_memory.SharedMemory(name=name)
            _untrack(seg)       # the creator (or the sweep) owns the unlink
            self._segments[name] = seg
        return seg

    def discard(self, name: str) -> None:
        """Detach one segment if attached (idempotent; never unlinks).

        Long-lived consumers — a serving pool's worker process memoizes
        one attached environment per segment — use this to drop mappings
        for evicted entries without tearing down the whole attachment.
        """
        seg = self._segments.pop(name, None)
        if seg is not None:
            try:
                seg.close()
            except BufferError:     # pragma: no cover - view still aliased
                pass

    def close(self) -> None:
        """Detach every segment (never unlinks — attachments don't own)."""
        for seg in self._segments.values():
            try:
                seg.close()
            except BufferError:     # pragma: no cover - view still aliased
                pass
        self._segments.clear()

    def __enter__(self) -> "Attachment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def decode_block(handle: BlockHandle, attachment: Attachment) -> list[list]:
    """Materialize a block handle's columns as exact Python value lists."""
    buf = attachment.get(handle.segment).buf
    return [decode_column(meta, buf) for meta in handle.columns]


def attach_env(handle: EnvHandle, attachment: Attachment) -> Env:
    """Rebuild the environment; ``==`` (and hash-equal) to the original."""
    return adopt_env(handle, attachment)[0]


@dataclass
class AdoptedTable:
    """One attached table, pre-decoded for engine adoption."""

    name: str
    columns: list[list]
    n_rows: int


def adopt_env(handle: EnvHandle,
              attachment: Attachment) -> tuple[Env, list[AdoptedTable]]:
    """Attach an environment once, returning both the rebuilt ``Env`` and
    the per-table decoded columns that
    :meth:`repro.engine.base.EvalEngine.adopt_env` seeds caches from.
    """
    adopted = []
    tables = []
    for th in handle.tables:
        columns = decode_block(th.block, attachment)
        n_rows = th.block.n_rows
        rows = tuple(zip(*columns)) if columns else \
            tuple(() for _ in range(n_rows))
        tables.append(Table(th.name, th.schema, rows))
        adopted.append(AdoptedTable(th.name, columns, n_rows))
    return Env(tuple(tables)), adopted


# ------------------------------------------------------------ leak handling

def scan_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live shm segments under ``prefix`` (the leak probe)."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux
        return []
    return sorted(name for name in os.listdir(SHM_DIR)
                  if name.startswith(prefix))


def unlink_segment(name: str) -> bool:
    """Unlink one segment by name; True if it existed.

    No ``_untrack`` here: the attach registered the name with this
    process's tracker and ``unlink()`` unregisters it — exactly balanced.
    """
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - lost the race
        return False
    return True


def sweep_prefix(prefix: str) -> int:
    """Unlink every segment under ``prefix``; returns the count removed.

    The pool's end-of-life (and crash-recovery) cleanup: catches segments
    a store never got to unlink, on platforms where the shm filesystem is
    scannable.
    """
    return sum(1 for name in scan_segments(prefix) if unlink_segment(name))
