"""CSR (compressed sparse row) layouts for hypergraphs and batches.

The vectorized executors view a hypergraph as two flat ragged arrays:
the *membership* layout (one segment per hyperedge listing its member
vertices) and the *incidence* layout (one segment per vertex listing
its incident hyperedges).  Both are plain ``(lengths, starts, cells)``
triples — pure Python tuples, so the helpers work with or without
numpy; callers that vectorize convert the tuples to ``int64`` arrays
once and run ``reduceat`` kernels over the segments.

:func:`pack_arena` concatenates the layouts of many independent
instances into one shared **arena**: vertex and edge ids are offset
into disjoint global ranges, so a single structural kernel sweep (one
``reduceat`` per quantity) advances every instance simultaneously while
per-instance offset tables keep results separable.  This is the packing
behind :func:`repro.core.batch.run_fastpath_batch`.  When some instance
already holds its CSR arrays (see
:class:`~repro.hypergraph.hypergraph.Hypergraph`), the packer
concatenates instance arrays into ``int64`` slabs; otherwise (and
without numpy) it builds the plain tuples.

For the multiprocess executor (:mod:`repro.core.parallel`) an arena's
structure round-trips through one flat native-``int64`` buffer:
:func:`serialize_arena` / :func:`deserialize_arena` move a shard's
packed CSR across the process boundary (via ``shared_memory`` or, as a
fallback, an ordinary pickled payload) without serializing Python
object graphs, and :func:`arena_hypergraphs` reconstructs the packed
instances — the exact inverse of :func:`pack_arena` — on the worker
side.  Vertex weights travel separately: they may be arbitrary exact
rationals, which have no fixed-width representation.
"""

from __future__ import annotations

import zlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction

from repro.exceptions import ArenaTransportError, InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph

try:  # pragma: no cover - exercised implicitly by either branch
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "CSRLayout",
    "edge_membership_csr",
    "vertex_incidence_csr",
    "BatchArena",
    "pack_arena",
    "patch_arena",
    "slice_arena",
    "arena_incidence",
    "serialize_arena",
    "deserialize_arena",
    "arena_hypergraphs",
]


def _equal_by_value(self, other) -> bool:
    """Field-wise equality that reads every slab as a tuple of ints.

    A slab may be a tuple, an ``array("q")`` or an ``int64`` numpy
    array depending on which packer or loader built it, so layouts and
    arenas compare by value, never by container type (numpy's
    element-wise ``==`` would otherwise make the comparison raise).
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(
        _as_tuple(getattr(self, item.name))
        == _as_tuple(getattr(other, item.name))
        for item in fields(self)
        if item.compare
    )


def _as_tuple(value):
    return tuple(value.tolist()) if hasattr(value, "tolist") else value


@dataclass(frozen=True, slots=True)
class CSRLayout:
    """One ragged array: ``cells[starts[i] : starts[i] + lengths[i]]``
    is segment ``i``.  ``starts`` is the exclusive prefix sum of
    ``lengths``; ``len(cells) == sum(lengths)``.  Equality is by value
    whatever the slabs' container type."""

    lengths: tuple[int, ...]
    starts: tuple[int, ...]
    cells: tuple[int, ...]

    __eq__ = _equal_by_value

    @property
    def num_segments(self) -> int:
        return len(self.lengths)

    def segment(self, index: int) -> tuple[int, ...]:
        """The cells of segment ``index`` (for tests and debugging)."""
        start = self.starts[index]
        return self.cells[start : start + self.lengths[index]]


def _starts_of(lengths: Sequence[int]) -> tuple[int, ...]:
    starts = []
    position = 0
    for length in lengths:
        starts.append(position)
        position += length
    return tuple(starts)


def _layout(segments: Sequence[Sequence[int]]) -> CSRLayout:
    lengths = tuple(len(segment) for segment in segments)
    cells = tuple(cell for segment in segments for cell in segment)
    return CSRLayout(lengths=lengths, starts=_starts_of(lengths), cells=cells)


def edge_membership_csr(
    edges: Sequence[Sequence[int]],
) -> CSRLayout:
    """Edge -> member-vertex layout (one segment per hyperedge)."""
    return _layout(edges)


def vertex_incidence_csr(
    num_vertices: int, edges: Sequence[Sequence[int]]
) -> CSRLayout:
    """Vertex -> incident-edge layout (one segment per vertex)."""
    incidence: list[list[int]] = [[] for _ in range(num_vertices)]
    for edge_id, members in enumerate(edges):
        for vertex in members:
            incidence[vertex].append(edge_id)
    return _layout(incidence)


@dataclass(frozen=True, slots=True)
class BatchArena:
    """K independent instances packed into one shared id space.

    Vertex ``v`` of instance ``k`` has global id
    ``vertex_offset[k] + v``; edge ``e`` has global id
    ``edge_offset[k] + e``.  ``membership`` is the concatenated
    edge-to-member CSR layout over those global ids, so one structural
    kernel call covers the whole batch (the transposed incidence
    layout is derived from it — vectorized consumers get it via a
    stable argsort of the membership cells).  The offset tables
    (length ``K + 1``, ending in the totals) slice any global array
    back into per-instance views.

    The structural slabs (membership, instance maps) are tuples or
    ``int64`` numpy arrays; ``weights`` is a tuple, or an
    ``array("q")`` when it is an arena store's ``int64`` weight section
    (its items read as plain ints).  Arenas compare by value, so an
    array-packed arena equals the tuple-built arena of the same
    instances; only tuple-built arenas are hashable.
    """

    num_instances: int
    vertex_offset: tuple[int, ...]
    edge_offset: tuple[int, ...]
    weights: tuple[int | Fraction, ...]
    membership: CSRLayout
    instance_of_vertex: tuple[int, ...]
    instance_of_edge: tuple[int, ...]
    #: Provenance annotation for arenas materialized from a persistent
    #: container (:func:`repro.hypergraph.store.load_arena`): carries
    #: the backing file path (and, for mmap loads, the mapped buffer
    #: keeping the views alive).  ``None`` for arenas packed in memory.
    #: Excluded from equality — a loaded arena must compare equal to
    #: the freshly packed arena it round-tripped from — and consulted
    #: by the multiprocess transport, which ships a file-backed arena
    #: to workers *by reference* instead of copying it into ``/dev/shm``
    #: (workers re-validate the container themselves).
    source: object | None = field(default=None, compare=False, repr=False)

    __eq__ = _equal_by_value

    @property
    def total_vertices(self) -> int:
        return self.vertex_offset[-1]

    @property
    def total_edges(self) -> int:
        return self.edge_offset[-1]

    def vertex_slice(self, instance: int) -> slice:
        return slice(
            self.vertex_offset[instance], self.vertex_offset[instance + 1]
        )

    def edge_slice(self, instance: int) -> slice:
        return slice(
            self.edge_offset[instance], self.edge_offset[instance + 1]
        )


def arena_incidence(arena: BatchArena) -> CSRLayout:
    """The arena membership's transpose: vertex -> incident global edges.

    One segment per global vertex id listing the global ids of the
    hyperedges containing it, in ascending edge order (the order a
    stable sort of the membership cells would produce).  This is the
    *specification* of the incidence layout the kernel-lane sweeps
    (:mod:`repro.core.kernels`) run their per-vertex ``reduceat``
    reductions over — the sweeps build the same transpose vectorized
    (argsort/bincount) for speed; the kernel-lane tests pin the two
    constructions against each other and against
    :func:`vertex_incidence_csr`.
    """
    membership = arena.membership
    incidence: list[list[int]] = [[] for _ in range(arena.total_vertices)]
    for edge_id in range(membership.num_segments):
        start = membership.starts[edge_id]
        for position in range(start, start + membership.lengths[edge_id]):
            incidence[membership.cells[position]].append(edge_id)
    return _layout(incidence)


#: ``b"ARNA"`` as a little-endian int64: the first header word of
#: every serialized arena.  A buffer without it never reaches the
#: structural decode.
_ARENA_MAGIC = int.from_bytes(b"ARNA\x00\x00\x00\x00", "little")

#: Header words prepended to the structural payload:
#: ``[magic, payload_byte_length, crc32(payload)]``.
_ARENA_HEADER_WORDS = 3
_ARENA_HEADER_BYTES = _ARENA_HEADER_WORDS * 8


def serialize_arena(arena: BatchArena) -> bytes:
    """An arena's structure as one flat native-``int64`` buffer.

    Layout: a 3-word integrity header ``[magic, payload_bytes, crc32]``
    followed by the structural payload ``[K, vertex_offset (K+1),
    edge_offset (K+1), membership.lengths (total edges),
    membership.cells (total cells)]`` — every section's size is
    derivable from the prefix, so :func:`deserialize_arena` needs no
    side channel.  The header lets the receiver reject a truncated or
    bit-flipped buffer with a typed
    :class:`~repro.exceptions.ArenaTransportError` instead of decoding
    garbage: the buffer crosses a process boundary through shared
    memory, where a worker dying mid-transfer (or a chaos plan
    deliberately damaging the segment) must surface as a recoverable
    transport fault, never as silent corruption.  Weights are *not*
    included (they may be Fractions of unbounded size); ship them
    separately and pass them back to :func:`deserialize_arena`.
    """
    payload = array("q", [arena.num_instances])
    payload.extend(arena.vertex_offset)
    payload.extend(arena.edge_offset)
    body = payload.tobytes() + b"".join(
        # int64 arrays (array-packed or loaded arenas) copy as they are.
        slab.tobytes() if hasattr(slab, "tobytes") else array("q", slab).tobytes()
        for slab in (arena.membership.lengths, arena.membership.cells)
    )
    header = array("q", [_ARENA_MAGIC, len(body), zlib.crc32(body)])
    return header.tobytes() + body


def deserialize_arena(buffer, weights) -> BatchArena:
    """Rebuild a :class:`BatchArena` from :func:`serialize_arena` bytes.

    ``buffer`` is any bytes-like object (a ``shared_memory`` view or a
    pickled payload); ``weights`` is the concatenated per-vertex weight
    tuple the sender shipped alongside.  Only same-machine transport is
    supported (native byte order — the buffer never leaves the host).

    Raises :class:`~repro.exceptions.ArenaTransportError` when the
    integrity header is missing, the buffer is shorter than the header
    claims, or the payload checksum does not match — the typed signal
    the scheduler's recovery path (re-dispatch / in-process re-solve)
    keys on.
    """
    raw = bytes(buffer)
    if len(raw) < _ARENA_HEADER_BYTES:
        raise ArenaTransportError(
            f"arena buffer truncated: {len(raw)} bytes is shorter than "
            f"the {_ARENA_HEADER_BYTES}-byte integrity header"
        )
    header = array("q")
    header.frombytes(raw[:_ARENA_HEADER_BYTES])
    magic, body_length, checksum = header
    if magic != _ARENA_MAGIC:
        raise ArenaTransportError(
            f"arena buffer has no integrity header (magic "
            f"{magic:#x} != {_ARENA_MAGIC:#x})"
        )
    body = raw[_ARENA_HEADER_BYTES : _ARENA_HEADER_BYTES + body_length]
    if len(body) != body_length:
        raise ArenaTransportError(
            f"arena buffer truncated: header claims {body_length} payload "
            f"bytes, only {len(body)} present"
        )
    if zlib.crc32(body) != checksum:
        raise ArenaTransportError(
            "arena buffer failed its checksum: the payload was damaged "
            "in transport"
        )
    data = array("q")
    data.frombytes(body)
    count = data[0]
    position = 1
    vertex_offset = tuple(data[position : position + count + 1])
    position += count + 1
    edge_offset = tuple(data[position : position + count + 1])
    position += count + 1
    total_edges = edge_offset[-1]
    lengths = tuple(data[position : position + total_edges])
    position += total_edges
    cells = tuple(data[position : position + sum(lengths)])
    if len(weights) != vertex_offset[-1]:
        raise InvalidInstanceError(
            f"arena buffer carries {vertex_offset[-1]} vertices but "
            f"{len(weights)} weights were supplied"
        )
    instance_of_vertex: list[int] = []
    instance_of_edge: list[int] = []
    for index in range(count):
        instance_of_vertex.extend(
            [index] * (vertex_offset[index + 1] - vertex_offset[index])
        )
        instance_of_edge.extend(
            [index] * (edge_offset[index + 1] - edge_offset[index])
        )
    return BatchArena(
        num_instances=count,
        vertex_offset=vertex_offset,
        edge_offset=edge_offset,
        weights=tuple(weights),
        membership=CSRLayout(
            lengths=lengths, starts=_starts_of(lengths), cells=cells
        ),
        instance_of_vertex=tuple(instance_of_vertex),
        instance_of_edge=tuple(instance_of_edge),
    )


def _plain(slab):
    """A slab as a sequence of plain Python ints.

    A loaded or array-packed arena holds numpy ``int64`` arrays (and a
    store's weights an ``array("q")``) where a tuple-packed one holds
    tuples; the passes that rebuild tuple arenas normalize up front,
    since numpy scalars must never leak into tuples or exact
    arithmetic.
    """
    return slab.tolist() if hasattr(slab, "tolist") else slab


def slice_arena(arena: BatchArena, indices: Sequence[int]) -> BatchArena:
    """Re-slice a packed arena down to a subset of its instances.

    Returns an arena ``==`` to the one :func:`pack_arena` would build
    for ``[instances[i] for i in indices]`` — every value, including
    cell order; slab container types may differ — but assembled directly from the packed representation in
    one O(selected cells) pass, never expanding the instances back to
    :class:`~repro.hypergraph.hypergraph.Hypergraph` objects.  The
    selection may be any subset in any order (indices need not be
    contiguous or sorted): a lane's eligibility group, the half of a
    shard a work-stealing scheduler takes, a single resubmitted
    instance.  Each instance's membership cells are contiguous in the
    parent (packing concatenates instances in order), so a slice is a
    per-instance copy with the vertex base rewritten.

    Selecting *every* instance in order returns ``arena`` itself: an
    identity slice changes nothing, and passing the original through
    preserves both zero-copy numpy membership arrays (an mmap-backed
    arena from :func:`repro.hypergraph.store.load_arena` stays a view
    over its mapped buffer all the way into the kernel lanes) and the
    :attr:`BatchArena.source` annotation the file-reference transport
    keys on.  Callers treat arenas as immutable, so sharing is safe.
    """
    indices = list(indices)
    if len(indices) == arena.num_instances and all(
        index == position for position, index in enumerate(indices)
    ):
        return arena
    membership = arena.membership
    membership_lengths = _plain(membership.lengths)
    membership_cells = _plain(membership.cells)
    membership_starts = _plain(membership.starts)
    vertex_offset = [0]
    edge_offset = [0]
    weights: list[int | Fraction] = []
    instance_of_vertex: list[int] = []
    instance_of_edge: list[int] = []
    lengths: list[int] = []
    cells: list[int] = []
    for new_index, old_index in enumerate(indices):
        vertex_lo = arena.vertex_offset[old_index]
        vertex_hi = arena.vertex_offset[old_index + 1]
        edge_lo = arena.edge_offset[old_index]
        edge_hi = arena.edge_offset[old_index + 1]
        shift = vertex_offset[-1] - vertex_lo
        vertex_offset.append(vertex_offset[-1] + (vertex_hi - vertex_lo))
        edge_offset.append(edge_offset[-1] + (edge_hi - edge_lo))
        weights.extend(arena.weights[vertex_lo:vertex_hi])
        instance_of_vertex.extend([new_index] * (vertex_hi - vertex_lo))
        instance_of_edge.extend([new_index] * (edge_hi - edge_lo))
        lengths.extend(membership_lengths[edge_lo:edge_hi])
        if edge_hi > edge_lo:
            cell_lo = membership_starts[edge_lo]
            cell_hi = (
                membership_starts[edge_hi - 1]
                + membership_lengths[edge_hi - 1]
            )
            cells.extend(
                cell + shift
                for cell in membership_cells[cell_lo:cell_hi]
            )
    return BatchArena(
        num_instances=len(indices),
        vertex_offset=tuple(vertex_offset),
        edge_offset=tuple(edge_offset),
        weights=tuple(weights),
        membership=CSRLayout(
            lengths=tuple(lengths),
            starts=_starts_of(lengths),
            cells=tuple(cells),
        ),
        instance_of_vertex=tuple(instance_of_vertex),
        instance_of_edge=tuple(instance_of_edge),
    )


def patch_arena(
    arena: BatchArena,
    instance: int,
    *,
    removed_edges: Sequence[int] = (),
    added_edges: Sequence[Sequence[int]] = (),
    added_weights: Sequence[int | Fraction] = (),
    reweighted: Sequence[tuple[int, int | Fraction]] = (),
) -> BatchArena:
    """Apply a single-instance delta to a packed arena without re-packing.

    Returns an arena ``==`` to the one :func:`pack_arena` would build
    for the same instance list with instance ``instance`` mutated —
    every value, including cell order; its slabs are tuples —
    assembled directly from the packed
    representation (the :func:`slice_arena` idiom): the prefix
    instances copy verbatim, the target keeps its surviving rows in
    order with cells unshifted and appends the new rows, and the
    suffix shifts by the net vertex/edge growth in one pass.

    ``removed_edges`` are positions in the instance's local edge order;
    ``added_edges`` are local-vertex member tuples appended after the
    survivors; ``added_weights`` appends new vertices to the instance;
    ``reweighted`` is ``(local vertex, new weight)`` pairs.
    """
    if not 0 <= instance < arena.num_instances:
        raise InvalidInstanceError(
            f"instance {instance} outside 0..{arena.num_instances - 1}"
        )
    vertex_lo = arena.vertex_offset[instance]
    vertex_hi = arena.vertex_offset[instance + 1]
    edge_lo = arena.edge_offset[instance]
    edge_hi = arena.edge_offset[instance + 1]
    local_edges = edge_hi - edge_lo
    local_vertices = (vertex_hi - vertex_lo) + len(added_weights)
    membership = CSRLayout(
        lengths=_plain(arena.membership.lengths),
        starts=_plain(arena.membership.starts),
        cells=_plain(arena.membership.cells),
    )
    instance_of_vertex = tuple(_plain(arena.instance_of_vertex))

    removed: set[int] = set()
    for position in removed_edges:
        if not 0 <= position < local_edges:
            raise InvalidInstanceError(
                f"removed edge position {position!r} outside "
                f"0..{local_edges - 1}"
            )
        if position in removed:
            raise InvalidInstanceError(
                f"edge position {position} removed twice"
            )
        removed.add(position)
    new_rows: list[tuple[int, ...]] = []
    for raw_members in added_edges:
        members = tuple(sorted(raw_members))
        if not members or len(set(members)) != len(members):
            raise InvalidInstanceError(
                f"added hyperedge must be non-empty and duplicate-free, "
                f"got {raw_members!r}"
            )
        if not all(0 <= vertex < local_vertices for vertex in members):
            raise InvalidInstanceError(
                f"added hyperedge {raw_members!r} references a vertex "
                f"outside 0..{local_vertices - 1}"
            )
        new_rows.append(members)

    grown_vertices = len(added_weights)
    grown_edges = len(new_rows) - len(removed)
    vertex_offset = list(arena.vertex_offset)
    edge_offset = list(arena.edge_offset)
    for index in range(instance + 1, arena.num_instances + 1):
        vertex_offset[index] += grown_vertices
        edge_offset[index] += grown_edges

    weights = list(arena.weights[:vertex_hi])
    weights.extend(added_weights)
    for vertex, weight in reweighted:
        if not 0 <= vertex < local_vertices:
            raise InvalidInstanceError(
                f"reweighted vertex {vertex!r} outside "
                f"0..{local_vertices - 1}"
            )
        weights[vertex_lo + vertex] = weight
    weights.extend(arena.weights[vertex_hi:])

    instance_of_vertex = (
        instance_of_vertex[:vertex_hi]
        + (instance,) * grown_vertices
        + instance_of_vertex[vertex_hi:]
    )
    total_edges = len(membership.lengths)
    cell_lo = (
        membership.starts[edge_lo]
        if edge_lo < total_edges
        else len(membership.cells)
    )
    cell_hi = (
        membership.starts[edge_hi]
        if edge_hi < total_edges
        else len(membership.cells)
    )
    lengths = list(membership.lengths[:edge_lo])
    cells = list(membership.cells[:cell_lo])
    for local in range(local_edges):
        if local in removed:
            continue
        row = edge_lo + local
        lengths.append(membership.lengths[row])
        start = membership.starts[row]
        cells.extend(
            membership.cells[start : start + membership.lengths[row]]
        )
    for members in new_rows:
        lengths.append(len(members))
        cells.extend(vertex_lo + vertex for vertex in members)
    lengths.extend(membership.lengths[edge_hi:])
    cells.extend(
        cell + grown_vertices for cell in membership.cells[cell_hi:]
    )
    instance_of_edge: list[int] = []
    for index in range(arena.num_instances):
        instance_of_edge.extend(
            [index] * (edge_offset[index + 1] - edge_offset[index])
        )
    return BatchArena(
        num_instances=arena.num_instances,
        vertex_offset=tuple(vertex_offset),
        edge_offset=tuple(edge_offset),
        weights=tuple(weights),
        membership=CSRLayout(
            lengths=tuple(lengths),
            starts=_starts_of(lengths),
            cells=tuple(cells),
        ),
        instance_of_vertex=instance_of_vertex,
        instance_of_edge=tuple(instance_of_edge),
    )


def arena_hypergraphs(arena: BatchArena) -> list[Hypergraph]:
    """Reconstruct the packed instances — the inverse of :func:`pack_arena`.

    Per-instance vertex/edge order is preserved (packing preserved it),
    so the reconstructed instances are ``==`` to the originals and any
    solve over them is positionally identical.  An arena's cells were
    extracted from live (already-validated) hypergraphs, so the per-cell
    input checks are not re-run.

    With numpy the instances are **array-backed**: each one keeps its
    ``int64`` cells (re-based to local vertex ids) and offsets, and a
    store's ``int64`` weight section becomes per-instance views of one
    array.
    No per-edge tuple is built here: reconstruction is the dominant
    non-solve cost of both the worker-side shard decode and the
    cold-start path over a persistent arena store, and the solve path
    reads the arrays directly.  Without numpy the instances are
    rebuilt from plain-int tuples.
    """
    membership = arena.membership
    vertex_offset = arena.vertex_offset
    edge_offset = arena.edge_offset
    instances: list[Hypergraph] = []
    if _np is None:  # pragma: no cover - numpy-less builds
        for index in range(arena.num_instances):
            vertex_base = vertex_offset[index]
            edges = tuple(
                tuple(
                    int(cell) - vertex_base
                    for cell in membership.segment(edge_id)
                )
                for edge_id in range(
                    edge_offset[index], edge_offset[index + 1]
                )
            )
            instances.append(
                Hypergraph._from_validated(
                    vertex_offset[index + 1] - vertex_base,
                    edges,
                    tuple(arena.weights[vertex_base : vertex_offset[index + 1]]),
                )
            )
        return instances
    int64 = _np.int64
    cells = _np.asarray(membership.cells, dtype=int64)
    starts = _np.asarray(membership.starts, dtype=int64)
    weights = arena.weights
    if isinstance(weights, array):
        weights = _np.frombuffer(weights, dtype=int64)
    total_edges = len(starts)
    for index in range(arena.num_instances):
        vertex_lo = vertex_offset[index]
        vertex_hi = vertex_offset[index + 1]
        edge_lo = edge_offset[index]
        edge_hi = edge_offset[index + 1]
        cell_lo, cell_hi = (
            int(starts[edge]) if edge < total_edges else len(cells)
            for edge in (edge_lo, edge_hi)
        )
        offsets = _np.empty(edge_hi - edge_lo + 1, dtype=int64)
        _np.subtract(starts[edge_lo:edge_hi], cell_lo, out=offsets[:-1])
        offsets[-1] = cell_hi - cell_lo
        # A copy even at base 0: no instance keeps a store's map alive.
        local = cells[cell_lo:cell_hi] - vertex_lo
        instance_weights = weights[vertex_lo:vertex_hi]
        if not isinstance(instance_weights, _np.ndarray):
            instance_weights = tuple(instance_weights)
        instances.append(
            Hypergraph._from_arrays(
                vertex_hi - vertex_lo, local, offsets, instance_weights
            )
        )
    return instances


def pack_arena(hypergraphs: Sequence[Hypergraph]) -> BatchArena:
    """Concatenate instances into one shared CSR arena.

    Preserves per-instance vertex/edge order, so any arena sweep that
    treats segments independently is positionally identical to running
    the instances one by one.  Membership cells are offset member
    vertices in edge-id order; packing is a single O(total cells) pass.

    When numpy is present and some instance already holds its CSR
    arrays, the pass concatenates instance arrays (converting any
    tuple-only member once) and the structural slabs are ``int64``
    arrays — what the kernel lanes read.  Otherwise the slabs are the
    plain tuples :func:`slice_arena`, :func:`patch_arena` and
    :func:`deserialize_arena` build.
    """
    if _np is not None and any(
        hypergraph._cells is not None for hypergraph in hypergraphs
    ):
        arena = _pack_arrays(hypergraphs)
        if arena is not None:
            return arena
    vertex_offset = [0]
    edge_offset = [0]
    weights: list[int] = []
    instance_of_vertex: list[int] = []
    instance_of_edge: list[int] = []
    membership_lengths: list[int] = []
    membership_cells: list[int] = []
    for index, hypergraph in enumerate(hypergraphs):
        vertex_base = vertex_offset[-1]
        edge_base = edge_offset[-1]
        vertex_offset.append(vertex_base + hypergraph.num_vertices)
        edge_offset.append(edge_base + hypergraph.num_edges)
        weights.extend(hypergraph.weights)
        instance_of_vertex.extend([index] * hypergraph.num_vertices)
        instance_of_edge.extend([index] * hypergraph.num_edges)
        for members in hypergraph.edges:
            membership_lengths.append(len(members))
            membership_cells.extend(
                vertex_base + vertex for vertex in members
            )
    membership = CSRLayout(
        lengths=tuple(membership_lengths),
        starts=_starts_of(membership_lengths),
        cells=tuple(membership_cells),
    )
    return BatchArena(
        num_instances=len(vertex_offset) - 1,
        vertex_offset=tuple(vertex_offset),
        edge_offset=tuple(edge_offset),
        weights=tuple(weights),
        membership=membership,
        instance_of_vertex=tuple(instance_of_vertex),
        instance_of_edge=tuple(instance_of_edge),
    )


def _pack_arrays(hypergraphs: Sequence[Hypergraph]) -> BatchArena | None:
    """:func:`pack_arena`'s array branch (``None`` if an instance has no
    ``int64`` form)."""
    int64 = _np.int64
    vertex_offset = [0]
    edge_offset = [0]
    weights: list = []
    cell_blocks = []
    length_blocks = []
    for hypergraph in hypergraphs:
        arrays = hypergraph._arrays()
        if arrays is None:
            return None
        cells, offsets = arrays
        vertex_base = vertex_offset[-1]
        vertex_offset.append(vertex_base + hypergraph.num_vertices)
        edge_offset.append(edge_offset[-1] + hypergraph.num_edges)
        weights.extend(hypergraph.weights)
        cell_blocks.append(cells + vertex_base if vertex_base else cells)
        length_blocks.append(_np.diff(offsets))
    all_cells = _np.concatenate(cell_blocks)
    lengths = _np.concatenate(length_blocks)
    starts = _np.zeros(len(lengths), dtype=int64)
    _np.cumsum(lengths[:-1], out=starts[1:])
    instance_ids = _np.arange(len(hypergraphs), dtype=int64)
    return BatchArena(
        num_instances=len(hypergraphs),
        vertex_offset=tuple(vertex_offset),
        edge_offset=tuple(edge_offset),
        weights=tuple(weights),
        membership=CSRLayout(lengths=lengths, starts=starts, cells=all_cells),
        instance_of_vertex=_np.repeat(
            instance_ids, _np.diff(_np.array(vertex_offset, dtype=int64))
        ),
        instance_of_edge=_np.repeat(
            instance_ids, _np.diff(_np.array(edge_offset, dtype=int64))
        ),
    )
