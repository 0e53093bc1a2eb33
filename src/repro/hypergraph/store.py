"""Arena containers: the one binary form of a packed CSR arena.

A :class:`~repro.hypergraph.csr.BatchArena` is already a set of flat
integer slabs.  This module gives those slabs one versioned,
integrity-checked encoding, used twice: a corpus packs once to disk
and every later process start skips the ``.hg`` parse-and-pack path
entirely, and the multiprocess executor ships a shard to a worker as
the same bytes (:func:`repro.core.parallel.ship_arena`).

* :func:`encode_arena` builds one **container**: the
  ``[magic, payload length, crc32]`` integrity frame over a small
  int64 header, followed by one section per slab (``vertex_offset``,
  ``edge_offset``, membership ``lengths`` / ``starts`` / ``cells``,
  and the weights), each section **page-aligned** and carrying its own
  CRC32 in the header's section table.  :func:`save_arena` writes it
  atomically.
* :func:`decode_arena` validates the frame, every section CRC and the
  structure, and rebuilds the arena; :func:`load_arena` runs the same
  decoder over a file.  With numpy the membership slabs come back as
  ``int64`` **views over the decoded buffer**; with ``mmap=True`` that
  buffer is the mapped file — zero copies, which
  :class:`repro.core.kernels.LaneRun` and
  :func:`repro.core.batch.run_fastpath_batch(arena=...)` consume
  directly (their ``asarray`` conversions are no-ops on int64 arrays),
  so cold-start cost is the page faults the solve actually touches.
  The OS pages sections in and out on demand, which is what makes
  corpora bigger than RAM solvable one segment at a time
  (:mod:`repro.core.corpus`).  Without numpy the slabs are tuples.

This build writes version 2 (six sections) and reads versions 1 and
2.  Version 1 also stored the per-vertex and per-edge instance maps,
which are derivable from the offsets: a reader checks their CRCs and
ignores them.

A damaged container — missing or mangled magic, a version from the
future, a truncated tail, a bit-flipped section, offsets, lengths or
cells that index out of range, a membership row that is empty,
repeats or disorders its vertex ids, or reaches outside its own
instance — raises a typed
:class:`~repro.exceptions.ArenaStoreError` (under
:class:`~repro.exceptions.TransportError`, so the serving stack's
recovery paths treat a damaged file and a damaged shipment alike:
a recoverable fault, never silent corruption).

Weights are exact rationals and have no fixed-width form; the weights
section therefore has two encodings, chosen per arena: ``int64`` when
every weight is a positive int that fits (the overwhelmingly common
case), else space-separated exact text tokens: hex for an int, and
``num/den`` in hex for a fraction (version 1 wrote decimal, which a
reader still accepts).  Hex conversion has no digit cap, so weights
tens of thousands of bits wide encode and decode under CPython's
default int/str guard.  Both encodings round-trip
**byte-identically** through save → load → save, which the
hypothesis soak pins.  An ``int64`` section loads as an
``array("q")`` (items read as plain ints), which
:func:`repro.hypergraph.csr.arena_hypergraphs` views as the
instances' ``int64`` weight arrays without a per-weight decode.

Only same-machine byte order is supported (native ``int64``): a
container is a local corpus cache or a same-host shipment, not a
network interchange format — that is what the HIF import/export in
:mod:`repro.hypergraph.io` is for.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from repro.exceptions import ArenaStoreError
from repro.hypergraph.csr import BatchArena, CSRLayout, _as_tuple, _starts_of

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "STORE_VERSION",
    "PAGE_ALIGN",
    "ArenaSource",
    "encode_arena",
    "decode_arena",
    "save_arena",
    "load_arena",
]

#: ``b"ARSTORE"`` as a little-endian int64: the first header word of
#: every container.
_STORE_MAGIC = int.from_bytes(b"ARSTORE\x00", "little")

#: Container format version this build writes and the newest it reads.
#: A file stamped with a *larger* version is refused (typed error, not
#: a guess): forward-compatible parsing of an unknown layout is exactly
#: how silent corruption happens.
STORE_VERSION = 2

#: Section payloads start on page boundaries.  4096 divides every
#: common page size in use; alignment means an ``mmap`` view of a
#: section is itself page-aligned, so the kernel can fault, prefetch
#: and evict sections independently when a corpus exceeds RAM.
PAGE_ALIGN = 4096

#: The framing header words:
#: ``[magic, header_payload_bytes, crc32(header_payload)]``.
_FRAME_WORDS = 3
_FRAME_BYTES = _FRAME_WORDS * 8

#: Section kinds, in on-disk order.  The header's section table maps
#: ``kind -> (offset, byte length, crc32)``.  Kinds 6 and 7 were
#: version 1's instance maps.
_SEC_VERTEX_OFFSET = 1
_SEC_EDGE_OFFSET = 2
_SEC_LENGTHS = 3
_SEC_STARTS = 4
_SEC_CELLS = 5
_SEC_WEIGHTS = 8
_SECTION_ORDER = (
    _SEC_VERTEX_OFFSET,
    _SEC_EDGE_OFFSET,
    _SEC_LENGTHS,
    _SEC_STARTS,
    _SEC_CELLS,
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
    instead of inline in the payload — workers on the same filesystem
    re-open and re-validate the container themselves.
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
    # Exact hex tokens ("num/den" for a fraction): big ints and
    # rationals round-trip exactly, re-encoding a decoded weights tuple
    # reproduces these bytes verbatim (byte-identical resave), and
    # power-of-two bases are exempt from the int/str digit cap.
    return _WEIGHTS_TEXT, " ".join(
        f"{weight:x}"
        if type(weight) is int
        else f"{weight.numerator:x}/{weight.denominator:x}"
        for weight in weights
    ).encode("ascii")


def _decode_weights(kind: int, raw: bytes, expected: int, version: int):
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
    base = 10 if version == 1 else 16
    weights: list[int | Fraction] = []
    for token in tokens:
        try:
            if "/" in token:
                num, den = token.split("/")
                weights.append(Fraction(int(num, base), int(den, base)))
            else:
                weights.append(int(token, base))
        except (ValueError, ZeroDivisionError) as error:
            raise ArenaStoreError(
                f"malformed weight token {token!r} in weights section"
            ) from error
    return tuple(weights)


def encode_arena(arena: BatchArena) -> bytes:
    """``arena`` as one container: the only binary form of an arena.

    The same bytes go to disk (:func:`save_arena`) and to a worker
    process (:func:`repro.core.parallel.ship_arena`).  The encoding is
    deterministic: equal arenas encode to identical bytes.
    """
    return b"".join(_container_parts(arena))


def _container_parts(arena: BatchArena) -> list[bytes]:
    """The :func:`encode_arena` container as its consecutive parts."""
    weights_kind, weights_raw = _encode_weights(arena.weights)
    membership = arena.membership
    sections = (
        (_SEC_VERTEX_OFFSET, _slab_bytes(arena.vertex_offset)),
        (_SEC_EDGE_OFFSET, _slab_bytes(arena.edge_offset)),
        (_SEC_LENGTHS, _slab_bytes(membership.lengths)),
        (_SEC_STARTS, _slab_bytes(membership.starts)),
        (_SEC_CELLS, _slab_bytes(membership.cells)),
        (_SEC_WEIGHTS, weights_raw),
    )
    # Lay the sections out page-aligned after the header, whose size
    # depends only on the section count.
    header_bytes = _FRAME_BYTES + (7 + 4 * len(sections)) * 8
    total_cells = (
        int(membership.lengths[-1]) + int(membership.starts[-1])
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
            len(sections),
        ],
    )
    body: list[bytes] = []
    cursor = header_bytes
    for kind, raw in sections:
        offset = _align_up(cursor)
        header_payload.extend((kind, offset, len(raw), zlib.crc32(raw)))
        body += (b"\x00" * (offset - cursor), raw)
        cursor = offset + len(raw)
    payload = header_payload.tobytes()
    frame = array("q", [_STORE_MAGIC, len(payload), zlib.crc32(payload)])
    return [frame.tobytes(), payload, *body]


def save_arena(arena: BatchArena, path) -> str:
    """Write ``arena`` to ``path`` as one :func:`encode_arena` container.

    Returns the container's SHA-256 hex digest, hashed from the parts
    as they are written (no joined copy, no read-back).  The write is
    atomic (temp file + fsync + rename in the destination directory),
    so a crashed or interrupted save can never leave a half-written
    container under the final name — a partially copied one fails its
    CRCs instead.
    """
    path = Path(path)
    digest = hashlib.sha256()
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        for part in _container_parts(arena):
            handle.write(part)
            digest.update(part)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return digest.hexdigest()


def _align_up(offset: int) -> int:
    return (offset + PAGE_ALIGN - 1) // PAGE_ALIGN * PAGE_ALIGN


def _read_int64(buffer, offset: int, count: int):
    """``count`` native int64 words at ``offset``: an ``int64`` view
    over ``buffer`` with numpy, else a tuple of ints."""
    if _np is not None:
        return _np.frombuffer(
            buffer, dtype=_np.int64, count=count, offset=offset
        )
    words = array("q")
    words.frombytes(buffer[offset : offset + count * 8])
    return tuple(words)


def decode_arena(buffer) -> BatchArena:
    """Rebuild a :class:`BatchArena` from :func:`encode_arena` bytes.

    ``buffer`` is any bytes-like object; with numpy the membership
    slabs come back as ``int64`` views over it (so it must not change
    while the arena lives — a worker decodes its own copy of a shipped
    shard, never a shared mapping), without numpy as tuples.  Every
    section's CRC32 and the structural invariants (offsets monotone,
    lengths/starts consistent, cells in range) are checked before any
    view escapes, so a damaged buffer raises a typed
    :class:`~repro.exceptions.ArenaStoreError` — never a wrong answer,
    never an out-of-bounds read inside a kernel sweep.
    :func:`load_arena` decodes files with this same code.
    """
    return _decode(buffer, "arena buffer", True)


def load_arena(path, *, mmap: bool = False, verify: bool = True) -> BatchArena:
    """Rebuild a :class:`BatchArena` from a :func:`save_arena` container.

    The file is decoded by :func:`decode_arena`'s code; ``verify=False``
    skips its CRC and structure checks.  ``mmap=True`` maps the file read-only, so the
    membership slabs are ``int64`` views **over the mapped buffer** —
    no copies; the kernel-lane executors consume them as-is and the OS
    pages the file in on demand.  A copying load reads the file once
    and views its bytes the same way.  Without numpy both load tuples
    (documented, tested, still exact).  CRC verification of a mapped
    file touches each page once but copies nothing.

    Raises :class:`~repro.exceptions.ArenaStoreError` on any integrity
    failure and ``OSError`` if the file cannot be opened at all.
    """
    path = Path(path)
    mapped = None
    if mmap and _np is not None:
        import mmap as _mmap

        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size == 0:
                raise ArenaStoreError(f"{path} is empty, not a container")
            mapped = _mmap.mmap(
                handle.fileno(), 0, access=_mmap.ACCESS_READ
            )
        buffer = mapped
    else:
        buffer = path.read_bytes()
    source = ArenaSource(
        path=str(path), mmapped=mapped is not None, buffer=mapped
    )
    try:
        return _decode(buffer, path, verify, source)
    except ArenaStoreError:
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:  # a view escaped before the failure;
                pass  # the map is freed when the views are collected
        raise


def _decode(buffer, label, verify, source=None) -> BatchArena:
    # A memoryview slice of an mmap is zero-copy (a bare mmap slice is
    # not): CRC sweeps and frombuffer reads go through the view so
    # verification touches pages without duplicating them.  Offsets
    # below are byte offsets, whatever the caller's item format.
    buffer = memoryview(buffer).cast("B")
    size = buffer.nbytes
    if size < _FRAME_BYTES:
        raise ArenaStoreError(
            f"{label}: {size} bytes is shorter than the "
            f"{_FRAME_BYTES}-byte container frame"
        )
    frame = array("q")
    frame.frombytes(buffer[:_FRAME_BYTES])
    magic, payload_length, checksum = frame
    if magic != _STORE_MAGIC:
        raise ArenaStoreError(
            f"{label}: not an arena container (magic {magic:#x} != "
            f"{_STORE_MAGIC:#x})"
        )
    if payload_length < 0 or _FRAME_BYTES + payload_length > size:
        raise ArenaStoreError(
            f"{label}: truncated container header (frame claims "
            f"{payload_length} header bytes, {size - _FRAME_BYTES} "
            f"follow the frame)"
        )
    payload_raw = bytes(
        buffer[_FRAME_BYTES : _FRAME_BYTES + payload_length]
    )
    if zlib.crc32(payload_raw) != checksum:
        raise ArenaStoreError(
            f"{label}: container header failed its checksum"
        )
    header = array("q")
    header.frombytes(payload_raw)
    if len(header) < 7:
        raise ArenaStoreError(f"{label}: container header too short")
    version = header[0]
    if version > STORE_VERSION:
        raise ArenaStoreError(
            f"{label}: container version {version} is newer than this "
            f"build understands (<= {STORE_VERSION}); refusing to guess "
            f"at its layout"
        )
    if version < 1:
        raise ArenaStoreError(
            f"{label}: invalid container version {version}"
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
        raise ArenaStoreError(f"{label}: negative sizes in header")
    if len(header) != 7 + 4 * num_sections:
        raise ArenaStoreError(
            f"{label}: header claims {num_sections} sections but the "
            f"table holds {(len(header) - 7) // 4}"
        )
    # Every section in the table is bounds- and CRC-checked, including
    # the instance maps a version-1 container carries, which are
    # derivable from the offsets and never read.
    table: dict[int, tuple[int, int]] = {}
    for position in range(num_sections):
        kind, offset, length, crc = header[
            7 + 4 * position : 11 + 4 * position
        ]
        if kind in table:
            raise ArenaStoreError(
                f"{label}: duplicate section kind {kind}"
            )
        if offset < _FRAME_BYTES or length < 0 or offset + length > size:
            raise ArenaStoreError(
                f"{label}: section {kind} [{offset}, {offset + length}) "
                f"falls outside the {size}-byte container — truncated "
                f"or rewritten"
            )
        if verify and zlib.crc32(buffer[offset : offset + length]) != crc:
            raise ArenaStoreError(
                f"{label}: section {kind} failed its checksum — the "
                f"container was damaged"
            )
        table[kind] = (offset, length)
    for kind in _SECTION_ORDER:
        if kind not in table:
            raise ArenaStoreError(f"{label}: missing section {kind}")

    def int64_section(kind: int, expected_words: int):
        offset, length = table[kind]
        if length != expected_words * 8:
            raise ArenaStoreError(
                f"{label}: section {kind} holds {length} bytes, "
                f"expected {expected_words * 8}"
            )
        return _read_int64(buffer, offset, expected_words)

    vertex_offset = _as_tuple(
        int64_section(_SEC_VERTEX_OFFSET, num_instances + 1)
    )
    edge_offset = _as_tuple(int64_section(_SEC_EDGE_OFFSET, num_instances + 1))
    lengths = int64_section(_SEC_LENGTHS, total_edges)
    starts = int64_section(_SEC_STARTS, total_edges)
    cells = int64_section(_SEC_CELLS, total_cells)
    weights_offset, weights_length = table[_SEC_WEIGHTS]
    weights = _decode_weights(
        weights_kind,
        bytes(buffer[weights_offset : weights_offset + weights_length]),
        total_vertices,
        version,
    )
    if verify:
        _check_structure(
            label,
            vertex_offset,
            edge_offset,
            lengths,
            starts,
            cells,
            total_vertices,
            total_edges,
            total_cells,
        )
    return BatchArena(
        num_instances=int(num_instances),
        vertex_offset=vertex_offset,
        edge_offset=edge_offset,
        weights=weights,
        membership=CSRLayout(lengths=lengths, starts=starts, cells=cells),
        source=source,
    )


def _check_structure(
    label,
    vertex_offset,
    edge_offset,
    lengths,
    starts,
    cells,
    total_vertices,
    total_edges,
    total_cells,
) -> None:
    """Structural invariants a CRC cannot cover (wrong-but-consistent
    bytes): offset tables monotone from 0 and ending at the header's
    totals, ``starts`` the exclusive prefix sum of ``lengths`` summing
    to the cell count, and every membership row an edge its own
    instance could hold (see :func:`_row_problem`).  A container
    violating any of these would index out of bounds inside the kernel
    sweeps, or solve an instance no ``Hypergraph`` represents."""
    for name, offsets, total in (
        ("vertex_offset", vertex_offset, total_vertices),
        ("edge_offset", edge_offset, total_edges),
    ):
        if offsets[0] != 0 or any(
            later < earlier
            for earlier, later in zip(offsets, offsets[1:])
        ):
            raise ArenaStoreError(
                f"{label}: {name} table is not a monotone prefix from 0"
            )
        if offsets[-1] != total:
            raise ArenaStoreError(
                f"{label}: {name} ends at {offsets[-1]}, header claims "
                f"{total}"
            )
    if _np is not None and isinstance(lengths, _np.ndarray):
        consistent = bool(
            (not len(starts) or starts[0] == 0)
            and _np.array_equal(_np.diff(starts), lengths[:-1])
            and int(lengths.sum()) == total_cells
        )
    else:
        expected = _starts_of(tuple(lengths))
        consistent = (
            tuple(starts) == expected and sum(lengths) == total_cells
        )
    if not consistent:
        raise ArenaStoreError(
            f"{label}: membership lengths/starts are inconsistent with "
            f"the header's {total_cells} cells"
        )
    problem = _row_problem(vertex_offset, edge_offset, lengths, starts, cells)
    if problem is not None:
        raise ArenaStoreError(f"{label}: {problem}")


def _row_problem(vertex_offset, edge_offset, lengths, starts, cells):
    """Why the membership rows cannot all be ``Hypergraph`` edges, or
    ``None``.  An edge is non-empty, lists strictly increasing vertex
    ids, and lies inside its own instance's vertex range; with every
    row increasing, an instance's cells do iff their extremes do."""
    unordered = "has cells out of strictly increasing order"
    blocks = [
        int(starts[edge]) if edge < len(starts) else len(cells)
        for edge in edge_offset
    ]
    filled = [k for k in range(len(blocks) - 1) if blocks[k] < blocks[k + 1]]
    if _np is not None and isinstance(lengths, _np.ndarray) and len(lengths):
        shortest, longest = int(lengths.min()), int(lengths.max())
        # Bounded lengths also keep the prefix sums clear of wraparound.
        if shortest < 1 or longest > len(cells):
            row = int(_np.argmax((lengths < 1) | (lengths > len(cells))))
            return f"membership row {row} has {lengths[row]} cells"
        descents = cells[1:] <= cells[:-1]
        # A row may start at or below where the previous row ended.
        if shortest == longest:
            descents[longest - 1 :: longest] = False
        else:
            descents[starts[1:] - 1] = False
        if descents.any():
            row = _np.searchsorted(starts, _np.argmax(descents), "right")
            return f"membership row {row - 1} {unordered}"
        firsts = [blocks[k] for k in filled]
        extremes = zip(
            _np.minimum.reduceat(cells, firsts).tolist(),
            _np.maximum.reduceat(cells, firsts).tolist(),
        )
    else:
        for row, (start, length) in enumerate(zip(starts, lengths)):
            if not 1 <= length <= len(cells):
                return f"membership row {row} has {length} cells"
            members = cells[start : start + length]
            if any(b <= a for a, b in zip(members, members[1:])):
                return f"membership row {row} {unordered}"
        spans = [cells[blocks[k] : blocks[k + 1]] for k in filled]
        extremes = ((min(span), max(span)) for span in spans)
    for instance, (smallest, largest) in zip(filled, extremes):
        low, high = vertex_offset[instance : instance + 2]
        if smallest < low or largest >= high:
            return (
                f"membership cells of instance {instance} reach outside "
                f"its vertices {low}..{high - 1}"
            )
    return None
