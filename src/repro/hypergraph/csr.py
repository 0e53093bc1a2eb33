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

An arena has one binary form, the container of
:mod:`repro.hypergraph.store` (:func:`~repro.hypergraph.store.encode_arena`
/ :func:`~repro.hypergraph.store.decode_arena`): it is what a corpus
keeps on disk and what the multiprocess executor
(:mod:`repro.core.parallel`) ships to a worker, weights included.
:func:`arena_hypergraphs` reconstructs the packed instances — the
exact inverse of :func:`pack_arena` — from any arena.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction

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
    "slice_arena",
    "arena_incidence",
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
    back into per-instance views, and the instance owning a global
    vertex or edge is a ``repeat`` over their differences.

    The membership slabs are tuples or ``int64`` numpy arrays;
    ``weights`` is a tuple, or an ``array("q")`` when it is an arena
    container's ``int64`` weight section (its items read as plain
    ints).  Arenas compare by value, so an array-packed arena equals
    the tuple-built arena of the same instances; only tuple-built
    arenas are hashable.
    """

    num_instances: int
    vertex_offset: tuple[int, ...]
    edge_offset: tuple[int, ...]
    weights: tuple[int | Fraction, ...]
    membership: CSRLayout
    #: Provenance annotation for arenas materialized from a persistent
    #: container (:func:`repro.hypergraph.store.load_arena`): carries
    #: the backing file path (and, for mmap loads, the mapped buffer
    #: keeping the views alive).  ``None`` for arenas packed in memory.
    #: Excluded from equality — a loaded arena must compare equal to
    #: the freshly packed arena it round-tripped from — and consulted
    #: by the multiprocess transport, which ships a file-backed arena
    #: to workers *by reference* instead of inline in the payload
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
    lengths: list[int] = []
    cells: list[int] = []
    for old_index in indices:
        vertex_lo = arena.vertex_offset[old_index]
        vertex_hi = arena.vertex_offset[old_index + 1]
        edge_lo = arena.edge_offset[old_index]
        edge_hi = arena.edge_offset[old_index + 1]
        shift = vertex_offset[-1] - vertex_lo
        vertex_offset.append(vertex_offset[-1] + (vertex_hi - vertex_lo))
        edge_offset.append(edge_offset[-1] + (edge_hi - edge_lo))
        weights.extend(arena.weights[vertex_lo:vertex_hi])
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
    plain tuples :func:`slice_arena` builds.
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
    membership_lengths: list[int] = []
    membership_cells: list[int] = []
    for hypergraph in hypergraphs:
        vertex_base = vertex_offset[-1]
        edge_base = edge_offset[-1]
        vertex_offset.append(vertex_base + hypergraph.num_vertices)
        edge_offset.append(edge_base + hypergraph.num_edges)
        weights.extend(hypergraph.weights)
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
    return BatchArena(
        num_instances=len(hypergraphs),
        vertex_offset=tuple(vertex_offset),
        edge_offset=tuple(edge_offset),
        weights=tuple(weights),
        membership=CSRLayout(lengths=lengths, starts=starts, cells=all_cells),
    )
