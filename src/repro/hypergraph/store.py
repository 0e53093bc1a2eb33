"""Persistent on-disk containers for packed CSR arenas.

A :class:`~repro.hypergraph.csr.BatchArena` is already a set of flat
integer slabs — the same representation that crosses process
boundaries through shared memory.  This module gives those slabs a
durable, versioned, integrity-checked on-disk form so a corpus packs
once and every later process start skips the ``.hg`` parse-and-pack
path entirely:

* :func:`save_arena` writes one **container file**: the PR 9
  ``[magic, payload length, crc32]`` integrity framing over a small
  int64 header, followed by one section per structural slab
  (``vertex_offset``, ``edge_offset``, membership ``lengths`` /
  ``starts`` / ``cells``, the instance maps, and the weights), each
  section **page-aligned** and carrying its own CRC32 in the header's
  section table;
* :func:`load_arena` validates the framing and rebuilds the arena.
  With ``mmap=True`` (and numpy present) the structural sections come
  back as ``int64`` **views over the mapped buffer** — zero copies,
  which :class:`repro.core.kernels.LaneRun` and
  :func:`repro.core.batch.run_fastpath_batch(arena=...)` consume
  directly (their ``asarray`` conversions are no-ops on int64 arrays),
  so cold-start cost is the page faults the solve actually touches.
  The OS pages sections in and out on demand, which is what makes
  corpora bigger than RAM solvable one segment at a time
  (:mod:`repro.core.corpus`).

Every way a file can be wrong — missing or mangled magic, a version
from the future, a truncated tail, a bit-flipped section, structurally
inconsistent slabs — raises a typed
:class:`~repro.exceptions.ArenaStoreError` (under
:class:`~repro.exceptions.TransportError`, so the serving stack's
recovery paths treat a damaged store exactly like a damaged shared
memory segment: a recoverable fault, never silent corruption).

Weights are exact rationals and have no fixed-width form; the weights
section therefore has two encodings, chosen per file: ``int64`` when
every weight is a machine-width int (the overwhelmingly common case),
else the canonical ``str(Fraction)``/``str(int)`` text tokens of the
``.hg`` format — both round-trip **byte-identically** through
save → load → save, which the hypothesis soak pins.  An ``int64``
section loads as an ``array("q")`` (items read as plain ints), which
:func:`repro.hypergraph.csr.arena_hypergraphs` views as the
instances' ``int64`` weight arrays without a per-weight decode.

Only same-machine byte order is supported (native ``int64``, like the
shared-memory transport): a store directory is a local corpus cache,
not a network interchange format — that is what the HIF import/export
in :mod:`repro.hypergraph.io` is for.
"""

from __future__ import annotations

import os
import zlib
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from repro.exceptions import ArenaStoreError
from repro.hypergraph.csr import BatchArena, CSRLayout, _starts_of

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "STORE_VERSION",
    "PAGE_ALIGN",
    "ArenaSource",
    "save_arena",
    "load_arena",
]

#: ``b"ARSTORE"`` as a little-endian int64: the first header word of
#: every container file.  Distinct from the shared-memory transport's
#: ``ARNA`` magic — a transport buffer is not a container and vice
#: versa, and each decoder rejects the other's framing loudly.
_STORE_MAGIC = int.from_bytes(b"ARSTORE\x00", "little")

#: Container format version this build writes and the newest it reads.
#: A file stamped with a *larger* version is refused (typed error, not
#: a guess): forward-compatible parsing of an unknown layout is exactly
#: how silent corruption happens.
STORE_VERSION = 1

#: Section payloads start on page boundaries.  4096 divides every
#: common page size in use; alignment means an ``mmap`` view of a
#: section is itself page-aligned, so the kernel can fault, prefetch
#: and evict sections independently when a corpus exceeds RAM.
PAGE_ALIGN = 4096

#: The framing header words (shared shape with the PR 9 arena
#: transport): ``[magic, header_payload_bytes, crc32(header_payload)]``.
_FRAME_WORDS = 3
_FRAME_BYTES = _FRAME_WORDS * 8

#: Section kinds, in on-disk order.  The header's section table maps
#: ``kind -> (offset, byte length, crc32)``.
_SEC_VERTEX_OFFSET = 1
_SEC_EDGE_OFFSET = 2
_SEC_LENGTHS = 3
_SEC_STARTS = 4
_SEC_CELLS = 5
_SEC_INSTANCE_OF_VERTEX = 6
_SEC_INSTANCE_OF_EDGE = 7
_SEC_WEIGHTS = 8
_SECTION_ORDER = (
    _SEC_VERTEX_OFFSET,
    _SEC_EDGE_OFFSET,
    _SEC_LENGTHS,
    _SEC_STARTS,
    _SEC_CELLS,
    _SEC_INSTANCE_OF_VERTEX,
    _SEC_INSTANCE_OF_EDGE,
    _SEC_WEIGHTS,
)

#: Weights-section encodings.
_WEIGHTS_INT64 = 0
_WEIGHTS_TEXT = 1

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class ArenaSource:
    """Provenance of a loaded arena: the container file it came from.

    Attached as :attr:`BatchArena.source` by :func:`load_arena`.  The
    multiprocess transport (:func:`repro.core.parallel.ship_arena`)
    uses ``path`` to ship the arena to workers **by file reference**
    instead of copying the slabs into ``/dev/shm`` — workers on the
    same filesystem re-open and re-validate the container themselves.
    ``buffer`` holds the mapped buffer of an ``mmap=True`` load (kept
    referenced so the views stay valid; ``None`` for copying loads),
    and tests use it to pin that the structural arrays really are
    views over the map.
    """

    path: str
    mmapped: bool = False
    buffer: object | None = field(default=None, compare=False, repr=False)


def _slab_bytes(values) -> bytes:
    """A structural slab (tuple / list / int64 ndarray) as raw int64."""
    if _np is not None and isinstance(values, _np.ndarray):
        return values.astype(_np.int64, copy=False).tobytes()
    try:
        return array("q", values).tobytes()
    except OverflowError as error:  # structural ids always fit int64
        raise ArenaStoreError(
            f"arena slab value outside int64: {error}"
        ) from error


def _encode_weights(weights) -> tuple[int, bytes]:
    """``(encoding kind, section bytes)`` for the weights tuple."""
    if all(
        type(weight) is int and 0 < weight <= _INT64_MAX
        for weight in weights
    ):
        return _WEIGHTS_INT64, _slab_bytes(weights)
    # Exact text tokens: ``str(int)`` / ``str(Fraction)`` ("num/den"),
    # the same canonical forms the ``.hg`` format uses — big ints and
    # rationals round-trip exactly, and re-encoding a decoded weights
    # tuple reproduces these bytes verbatim (byte-identical resave).
    return _WEIGHTS_TEXT, " ".join(
        str(weight) for weight in weights
    ).encode("utf-8")


def _decode_weights(kind: int, raw: bytes, expected: int):
    if kind == _WEIGHTS_INT64:
        if len(raw) != expected * 8:
            raise ArenaStoreError(
                f"weights section holds {len(raw)} bytes, expected "
                f"{expected * 8} for {expected} int64 weights"
            )
        # Kept as native words: items read as plain ints, and array
        # consumers view the buffer without a per-weight decode.
        decoded = array("q")
        decoded.frombytes(raw)
        return decoded
    if kind != _WEIGHTS_TEXT:
        raise ArenaStoreError(f"unknown weights encoding {kind}")
    try:
        text = bytes(raw).decode("utf-8")
    except UnicodeDecodeError as error:
        raise ArenaStoreError(
            f"weights section is not valid UTF-8: {error}"
        ) from error
    tokens = text.split()
    if len(tokens) != expected:
        raise ArenaStoreError(
            f"weights section holds {len(tokens)} tokens, expected "
            f"{expected}"
        )
    weights: list[int | Fraction] = []
    for token in tokens:
        try:
            weights.append(
                Fraction(token) if "/" in token else int(token)
            )
        except (ValueError, ZeroDivisionError) as error:
            raise ArenaStoreError(
                f"malformed weight token {token!r} in weights section"
            ) from error
    return tuple(weights)


def save_arena(arena: BatchArena, path) -> int:
    """Write ``arena`` to ``path`` as one container file.

    Returns the number of bytes written.  The write is atomic (temp
    file + rename in the destination directory), so a crashed or
    interrupted save can never leave a half-written container under
    the final name — a partially copied one fails its CRCs instead.
    The output is deterministic: saving an equal arena produces
    byte-identical files.
    """
    path = Path(path)
    section_payloads: list[tuple[int, bytes]] = []
    for kind in _SECTION_ORDER:
        if kind == _SEC_VERTEX_OFFSET:
            raw = _slab_bytes(arena.vertex_offset)
        elif kind == _SEC_EDGE_OFFSET:
            raw = _slab_bytes(arena.edge_offset)
        elif kind == _SEC_LENGTHS:
            raw = _slab_bytes(arena.membership.lengths)
        elif kind == _SEC_STARTS:
            raw = _slab_bytes(arena.membership.starts)
        elif kind == _SEC_CELLS:
            raw = _slab_bytes(arena.membership.cells)
        elif kind == _SEC_INSTANCE_OF_VERTEX:
            raw = _slab_bytes(arena.instance_of_vertex)
        elif kind == _SEC_INSTANCE_OF_EDGE:
            raw = _slab_bytes(arena.instance_of_edge)
        else:
            weights_kind, raw = _encode_weights(arena.weights)
        section_payloads.append((kind, raw))

    # Lay the sections out page-aligned after the (yet unsized) header.
    # The header size depends only on the section count, so size it
    # first, then assign aligned offsets.
    header_payload_words = 7 + 4 * len(section_payloads)
    header_bytes = _FRAME_BYTES + header_payload_words * 8
    table: list[tuple[int, int, int, int]] = []
    cursor = _align_up(header_bytes)
    for kind, raw in section_payloads:
        table.append((kind, cursor, len(raw), zlib.crc32(raw)))
        cursor = _align_up(cursor + len(raw))

    total_cells = (
        int(arena.membership.lengths[-1]) + int(arena.membership.starts[-1])
        if arena.total_edges
        else 0
    )
    header_payload = array(
        "q",
        [
            STORE_VERSION,
            arena.num_instances,
            arena.total_vertices,
            arena.total_edges,
            total_cells,
            weights_kind,
            len(section_payloads),
        ],
    )
    for entry in table:
        header_payload.extend(entry)
    payload_bytes = header_payload.tobytes()
    frame = array(
        "q", [_STORE_MAGIC, len(payload_bytes), zlib.crc32(payload_bytes)]
    )

    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(frame.tobytes())
        handle.write(payload_bytes)
        position = header_bytes
        for (kind, offset, length, _), (_, raw) in zip(
            table, section_payloads
        ):
            handle.write(b"\x00" * (offset - position))
            handle.write(raw)
            position = offset + length
        handle.flush()
        os.fsync(handle.fileno())
        written = handle.tell()
    os.replace(temp, path)
    return written


def _align_up(offset: int) -> int:
    return (offset + PAGE_ALIGN - 1) // PAGE_ALIGN * PAGE_ALIGN


def _read_int64(buffer, offset: int, count: int):
    """``count`` native int64 words at ``offset`` (numpy view or array)."""
    if _np is not None:
        return _np.frombuffer(
            buffer, dtype=_np.int64, count=count, offset=offset
        )
    words = array("q")
    words.frombytes(bytes(buffer[offset : offset + count * 8]))
    return words


def load_arena(path, *, mmap: bool = False, verify: bool = True) -> BatchArena:
    """Rebuild a :class:`BatchArena` from a :func:`save_arena` container.

    ``mmap=True`` maps the file read-only and returns the structural
    slabs (membership ``lengths``/``starts``/``cells`` and the instance
    maps) as ``int64`` numpy views **over the mapped buffer** — no
    copies; the kernel-lane executors consume them as-is and the OS
    pages the file in on demand.  Without numpy the flag degrades to an
    ordinary read (tuples; documented, tested, still exact).

    ``verify=True`` (the default) checks every section's CRC32 and the
    structural invariants (offsets monotone, lengths/starts consistent,
    cells in range) before any view escapes, so a damaged file raises
    a typed :class:`~repro.exceptions.ArenaStoreError` — never a wrong
    answer, never an out-of-bounds read inside a kernel sweep.  CRC
    verification of a mapped file touches each page once but copies
    nothing.

    Raises :class:`~repro.exceptions.ArenaStoreError` on any integrity
    failure and ``OSError`` if the file cannot be opened at all.
    """
    path = Path(path)
    mapped = None
    if mmap and _np is not None:
        import mmap as _mmap

        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size == 0:
                raise ArenaStoreError(f"{path} is empty, not a container")
            mapped = _mmap.mmap(
                handle.fileno(), 0, access=_mmap.ACCESS_READ
            )
        buffer = mapped
    else:
        buffer = Path(path).read_bytes()
        size = len(buffer)
    try:
        return _decode_container(path, buffer, size, mapped, verify)
    except ArenaStoreError:
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:  # a view escaped before the failure;
                pass  # the map is freed when the views are collected
        raise


def _decode_container(path, buffer, size, mapped, verify) -> BatchArena:
    # A memoryview slice of an mmap is zero-copy (a bare mmap slice is
    # not): CRC sweeps and frombuffer reads go through the view so
    # verification touches pages without duplicating them.
    buffer = memoryview(buffer)
    if size < _FRAME_BYTES:
        raise ArenaStoreError(
            f"{path}: {size} bytes is shorter than the "
            f"{_FRAME_BYTES}-byte container frame"
        )
    frame = array("q")
    frame.frombytes(bytes(buffer[:_FRAME_BYTES]))
    magic, payload_length, checksum = frame
    if magic != _STORE_MAGIC:
        raise ArenaStoreError(
            f"{path}: not an arena container (magic {magic:#x} != "
            f"{_STORE_MAGIC:#x})"
        )
    if payload_length < 0 or _FRAME_BYTES + payload_length > size:
        raise ArenaStoreError(
            f"{path}: truncated container header (frame claims "
            f"{payload_length} header bytes, file has "
            f"{size - _FRAME_BYTES} after the frame)"
        )
    payload_raw = bytes(
        buffer[_FRAME_BYTES : _FRAME_BYTES + payload_length]
    )
    if zlib.crc32(payload_raw) != checksum:
        raise ArenaStoreError(
            f"{path}: container header failed its checksum"
        )
    header = array("q")
    header.frombytes(payload_raw)
    if len(header) < 7:
        raise ArenaStoreError(f"{path}: container header too short")
    version = header[0]
    if version > STORE_VERSION:
        raise ArenaStoreError(
            f"{path}: container version {version} is newer than this "
            f"build understands (<= {STORE_VERSION}); refusing to guess "
            f"at its layout"
        )
    if version < 1:
        raise ArenaStoreError(
            f"{path}: invalid container version {version}"
        )
    (
        num_instances,
        total_vertices,
        total_edges,
        total_cells,
        weights_kind,
        num_sections,
    ) = header[1:7]
    if num_instances < 0 or min(total_vertices, total_edges, total_cells) < 0:
        raise ArenaStoreError(f"{path}: negative sizes in header")
    if len(header) != 7 + 4 * num_sections:
        raise ArenaStoreError(
            f"{path}: header claims {num_sections} sections but the "
            f"table holds {(len(header) - 7) // 4}"
        )
    table: dict[int, tuple[int, int, int]] = {}
    for position in range(num_sections):
        kind, offset, length, crc = header[
            7 + 4 * position : 11 + 4 * position
        ]
        if kind in table:
            raise ArenaStoreError(
                f"{path}: duplicate section kind {kind}"
            )
        if offset < _FRAME_BYTES or length < 0 or offset + length > size:
            raise ArenaStoreError(
                f"{path}: section {kind} [{offset}, {offset + length}) "
                f"falls outside the {size}-byte file — truncated or "
                f"rewritten container"
            )
        if verify and zlib.crc32(buffer[offset : offset + length]) != crc:
            raise ArenaStoreError(
                f"{path}: section {kind} failed its checksum — the "
                f"container was damaged on disk"
            )
        table[kind] = (offset, length, crc)
    for kind in _SECTION_ORDER:
        if kind not in table:
            raise ArenaStoreError(f"{path}: missing section {kind}")

    def int64_section(kind: int, expected_words: int):
        offset, length, _ = table[kind]
        if length != expected_words * 8:
            raise ArenaStoreError(
                f"{path}: section {kind} holds {length} bytes, "
                f"expected {expected_words * 8}"
            )
        return _read_int64(buffer, offset, expected_words)

    vertex_offset = tuple(
        _to_int_list(int64_section(_SEC_VERTEX_OFFSET, num_instances + 1))
    )
    edge_offset = tuple(
        _to_int_list(int64_section(_SEC_EDGE_OFFSET, num_instances + 1))
    )
    lengths = int64_section(_SEC_LENGTHS, total_edges)
    starts = int64_section(_SEC_STARTS, total_edges)
    cells = int64_section(_SEC_CELLS, total_cells)
    instance_of_vertex = int64_section(
        _SEC_INSTANCE_OF_VERTEX, total_vertices
    )
    instance_of_edge = int64_section(_SEC_INSTANCE_OF_EDGE, total_edges)
    weights_offset, weights_length, _ = table[_SEC_WEIGHTS]
    weights = _decode_weights(
        weights_kind,
        bytes(buffer[weights_offset : weights_offset + weights_length]),
        total_vertices,
    )
    if verify:
        _check_structure(
            path,
            vertex_offset,
            edge_offset,
            lengths,
            starts,
            cells,
            total_vertices,
            total_cells,
        )
    if _np is None or not (mapped is not None):
        # Copying load (or numpy-less build): plain tuples, the same
        # shape pack_arena produces.
        lengths = tuple(_to_int_list(lengths))
        starts = tuple(_to_int_list(starts))
        cells = tuple(_to_int_list(cells))
        instance_of_vertex = tuple(_to_int_list(instance_of_vertex))
        instance_of_edge = tuple(_to_int_list(instance_of_edge))
    return BatchArena(
        num_instances=int(num_instances),
        vertex_offset=vertex_offset,
        edge_offset=edge_offset,
        weights=weights,
        membership=CSRLayout(lengths=lengths, starts=starts, cells=cells),
        instance_of_vertex=instance_of_vertex,
        instance_of_edge=instance_of_edge,
        source=ArenaSource(
            path=str(path),
            mmapped=mapped is not None,
            buffer=mapped,
        ),
    )


def _to_int_list(words) -> list[int]:
    """Native words as a list of plain Python ints."""
    if _np is not None and isinstance(words, _np.ndarray):
        return words.tolist()
    return list(words)


def _check_structure(
    path,
    vertex_offset,
    edge_offset,
    lengths,
    starts,
    cells,
    total_vertices,
    total_cells,
) -> None:
    """Structural invariants a CRC cannot cover (wrong-but-consistent
    bytes): offset tables monotone from 0, ``starts`` the exclusive
    prefix sum of ``lengths`` summing to the cell count, and every
    membership cell a valid global vertex id.  A file violating any of
    these would index out of bounds inside the kernel sweeps."""
    for name, offsets in (
        ("vertex_offset", vertex_offset),
        ("edge_offset", edge_offset),
    ):
        if offsets[0] != 0 or any(
            later < earlier
            for earlier, later in zip(offsets, offsets[1:])
        ):
            raise ArenaStoreError(
                f"{path}: {name} table is not a monotone prefix from 0"
            )
    if vertex_offset[-1] != total_vertices:
        raise ArenaStoreError(
            f"{path}: vertex_offset ends at {vertex_offset[-1]}, header "
            f"claims {total_vertices} vertices"
        )
    if _np is not None and isinstance(lengths, _np.ndarray):
        expected_starts = _np.zeros(len(lengths), dtype=_np.int64)
        _np.cumsum(lengths[:-1], out=expected_starts[1:])
        consistent = bool(
            _np.array_equal(starts, expected_starts)
            and int(lengths.sum()) == total_cells
        )
        cells_ok = len(cells) == 0 or bool(
            int(cells.min()) >= 0 and int(cells.max()) < total_vertices
        )
    else:
        expected = _starts_of(tuple(lengths))
        consistent = (
            tuple(starts) == expected and sum(lengths) == total_cells
        )
        cells_ok = all(
            0 <= cell < total_vertices for cell in cells
        )
    if not consistent:
        raise ArenaStoreError(
            f"{path}: membership lengths/starts are inconsistent with "
            f"the header's cell count"
        )
    if not cells_ok:
        raise ArenaStoreError(
            f"{path}: membership cells reference vertices outside "
            f"0..{total_vertices - 1}"
        )
