"""Weighted hypergraph data structure for covering problems.

A hypergraph ``G = (V, E)`` with positive integer vertex weights is the
central combinatorial object of the paper: Minimum Weight Hypergraph
Vertex Cover (MWHVC) asks for a minimum-weight vertex subset meeting
every hyperedge.  The *rank* ``f`` is the maximum hyperedge size and the
*degree* ``Δ`` is the maximum number of hyperedges containing a single
vertex; both parameterize every bound in the paper.

Vertices and hyperedges are identified by dense integer ids
(``0..n-1`` and ``0..m-1``), which keeps the CONGEST simulator and the
algorithm state machines allocation-friendly and deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from typing import Optional

from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError

try:  # pragma: no cover - exercised implicitly by either branch
    import numpy as _np

    _ndarray = _np.ndarray
except ImportError:  # pragma: no cover
    _np = None
    _ndarray = ()

__all__ = ["Hypergraph"]


def _normalized_weights(
    num_vertices: int, weights: Optional[Sequence[int]]
) -> tuple[tuple, bool]:
    """Validate ``weights`` for ``num_vertices`` vertices.

    Returns the weight tuple (integral Fractions become ints; ``None``
    means all ones) and whether every weight is a plain ``int``.
    """
    if weights is None:
        return (1,) * num_vertices, True
    weight_list = list(weights)
    if len(weight_list) != num_vertices:
        raise InvalidInstanceError(
            f"expected {num_vertices} weights, got {len(weight_list)}"
        )
    if set(map(type, weight_list)) <= {int} and min(weight_list, default=1) > 0:
        return tuple(weight_list), True
    all_int = True
    for vertex, weight in enumerate(weight_list):
        if isinstance(weight, bool) or not isinstance(weight, (int, Fraction)):
            raise InvalidInstanceError(
                f"weight of vertex {vertex} must be an int or "
                f"Fraction, got {weight!r}"
            )
        if weight <= 0:
            raise InvalidInstanceError(
                f"weight of vertex {vertex} must be positive, got {weight}"
            )
        if type(weight) is not int:
            if isinstance(weight, Fraction) and weight.denominator == 1:
                weight_list[vertex] = int(weight)
            else:
                all_int = False
    return tuple(weight_list), all_int


def _tuple_rows(cells, offsets, rank: int) -> tuple[tuple[int, ...], ...]:
    """CSR int64 arrays as a tuple of plain-int tuples, one per segment."""
    flat = cells.tolist()
    count = len(offsets) - 1
    if count and len(flat) == count * rank:
        # Uniform arity: one C-level pass chunks the flat list.
        return tuple(zip(*[iter(flat)] * rank))
    bounds = offsets.tolist()
    return tuple(
        tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])
    )


class Hypergraph:
    """An immutable vertex-weighted hypergraph.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are ``0..n-1``.
    edges:
        Iterable of hyperedges, each a non-empty iterable of distinct
        vertex ids.  Edges are stored as sorted tuples in input order.
    weights:
        Optional sequence of ``n`` positive vertex weights — ints or
        exact rationals (:class:`~fractions.Fraction`; integral
        Fractions are normalized to ints).  Defaults to all ones (the
        unweighted / cardinality problem).  Floats are rejected: the
        algorithm's exactness guarantees require rational arithmetic.

    Raises
    ------
    InvalidInstanceError
        On malformed input: negative ids, out-of-range ids, duplicate
        vertices inside an edge, non-positive or non-rational weights.
    InfeasibleInstanceError
        If some hyperedge is empty (it can never be covered).

    Storage
    -------
    With numpy present an instance can also hold its structure as CSR
    arrays: ``int64`` member cells (each edge's members sorted, edges
    in id order) with ``m + 1`` offsets, plus an ``int64`` weight array
    when every weight is an int that fits.  Instances read from
    ``.hg`` text of the shape :func:`repro.hypergraph.io.dumps` writes
    with edges of one arity (:func:`repro.hypergraph.io.loads`),
    from packed arenas (:func:`repro.hypergraph.csr.arena_hypergraphs`)
    and from arena stores (:func:`repro.hypergraph.store.load_arena`)
    are **array-backed**: they start with the arrays only, and the
    vectorized solve path (iteration 0, packing, the big-int loop's
    reductions, the certificate) reads them directly.  The tuple views
    — :attr:`edges`, :attr:`weights` and the incidence behind
    :meth:`incident_edges` — are built on first read; ``hash``, the
    lockstep and congest executors and the scalar iteration 0 (weights
    beyond ``int64`` or fractional) read them, as does ``==`` against
    an instance without arrays.  Instances built from tuples (this
    constructor) gain their arrays the first time a vectorized
    consumer asks.  Either way equality, hashing, pickling and every
    accessor behave the same.

    Examples
    --------
    >>> hg = Hypergraph(4, [(0, 1), (1, 2, 3)], weights=[3, 1, 2, 2])
    >>> hg.rank, hg.max_degree
    (3, 2)
    >>> hg.is_cover({1})
    True
    """

    __slots__ = (
        "_num_vertices",
        "_edges",
        "_weights",
        "_incidence",
        "_rank",
        "_max_degree",
        "_weights_all_int",
        "_weights_int64",
        "_max_weight",
        "_cells",
        "_offsets",
        "_nnz",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Iterable[int]],
        weights: Optional[Sequence[int]] = None,
    ) -> None:
        if not isinstance(num_vertices, int) or num_vertices < 0:
            raise InvalidInstanceError(
                f"num_vertices must be a non-negative int, got {num_vertices!r}"
            )
        self._num_vertices = num_vertices

        normalized_edges: list[tuple[int, ...]] = []
        for edge_id, raw_edge in enumerate(edges):
            members = tuple(sorted(raw_edge))
            if not members:
                raise InfeasibleInstanceError(
                    f"hyperedge {edge_id} is empty and can never be covered"
                )
            if len(set(members)) != len(members):
                raise InvalidInstanceError(
                    f"hyperedge {edge_id} contains duplicate vertices: {raw_edge!r}"
                )
            for vertex in members:
                if not isinstance(vertex, int) or isinstance(vertex, bool):
                    raise InvalidInstanceError(
                        f"hyperedge {edge_id} has non-int vertex {vertex!r}"
                    )
                if not 0 <= vertex < num_vertices:
                    raise InvalidInstanceError(
                        f"hyperedge {edge_id} references vertex {vertex} "
                        f"outside 0..{num_vertices - 1}"
                    )
            normalized_edges.append(members)
        self._edges = tuple(normalized_edges)

        self._weights, all_int = _normalized_weights(num_vertices, weights)
        self._derive_structure()
        # The validation loop just visited every weight — record the
        # all-int verdict now so the fast paths never rescan.
        self._weights_all_int = all_int

    def _derive_structure(self) -> None:
        """Derived state from ``_num_vertices``/``_edges``: rank now,
        incidence and max degree on first use.  The single source both
        tuple constructors call, so validated and trusted instances can
        never diverge.  The incidence transpose costs ``O(n + nnz)``
        Python work, and the vectorized batch lanes never read it —
        deferring it keeps arena reconstruction (and plain construction)
        at the cost of what the caller actually touches.  Instances are
        immutable, so the deferred values are a pure function of the
        ``(n, edges)`` pair and lazy computation is idempotent."""
        self._incidence = None
        self._rank = max((len(edge) for edge in self._edges), default=0)
        self._max_degree = None
        self._weights_all_int = None
        self._weights_int64 = None
        self._max_weight = None
        self._cells = None
        self._offsets = None
        self._nnz = None

    def _ensure_incidence(self) -> tuple[tuple[int, ...], ...]:
        """The vertex->edge-ids transpose, built and cached on demand."""
        if self._incidence is None:
            incidence: list[list[int]] = [
                [] for _ in range(self._num_vertices)
            ]
            for edge_id, members in enumerate(self.edges):
                for vertex in members:
                    incidence[vertex].append(edge_id)
            self._incidence = tuple(
                tuple(edge_ids) for edge_ids in incidence
            )
        return self._incidence

    @classmethod
    def _from_validated(
        cls,
        num_vertices: int,
        edges: tuple[tuple[int, ...], ...],
        weights: tuple,
    ) -> "Hypergraph":
        """Rebuild a hypergraph from *already-validated* parts.

        For transport layers (the multiprocess executor's worker-side
        arena reconstruction) whose inputs were extracted from a live
        ``Hypergraph``: edges must be sorted tuples of in-range vertex
        ids and weights the normalized tuple a previous construction
        produced.  Skips per-cell input validation only; the derived
        state comes from the same :meth:`_derive_structure` as
        ``__init__``, so the result is ``==`` to the original.
        """
        instance = cls.__new__(cls)
        instance._num_vertices = num_vertices
        instance._edges = edges
        instance._weights = weights
        instance._derive_structure()
        return instance

    @classmethod
    def _from_arrays(
        cls, num_vertices: int, cells, offsets, weights
    ) -> "Hypergraph":
        """An array-backed instance from *already-validated* CSR arrays.

        ``cells`` and ``offsets`` are ``int64`` arrays: ``offsets`` has
        ``m + 1`` entries from 0, every segment is non-empty, sorted,
        duplicate-free and in ``0..num_vertices-1``.  ``weights`` is
        either an ``int64`` array of positive weights or the normalized
        weight tuple a previous construction produced.  Callers own the
        validation (the ``.hg`` parser checks the arrays; an arena's
        cells came from live instances); the arrays are kept, not
        copied, and must not be mutated afterwards.
        """
        instance = cls.__new__(cls)
        instance._num_vertices = num_vertices
        instance._edges = None
        instance._incidence = None
        instance._max_degree = None
        instance._max_weight = None
        instance._cells = cells
        instance._offsets = offsets
        instance._nnz = len(cells)
        instance._rank = (
            int(_np.diff(offsets).max()) if len(offsets) > 1 else 0
        )
        if isinstance(weights, tuple):
            instance._weights = weights
            instance._weights_int64 = None
            instance._weights_all_int = None
        else:
            instance._weights = None
            instance._weights_int64 = weights
            instance._weights_all_int = True
        return instance

    def _arrays(self):
        """The ``(cells, offsets)`` int64 CSR arrays, or ``None``.

        Array-backed instances return their own arrays; instances built
        from tuples convert once and keep the result (the arrays are a
        pure function of the immutable edges).  ``None`` without numpy
        or when a vertex id does not fit ``int64``.  Callers must not
        mutate the arrays.
        """
        if self._cells is None:
            if _np is None:
                return None
            edges = self._edges
            count = len(edges)
            offsets = _np.zeros(count + 1, dtype=_np.int64)
            _np.cumsum(
                _np.fromiter(map(len, edges), dtype=_np.int64, count=count),
                out=offsets[1:],
            )
            try:
                if count and int(offsets[-1]) == count * self._rank:
                    cells = _np.array(edges, dtype=_np.int64).reshape(-1)
                else:
                    cells = _np.fromiter(
                        chain.from_iterable(edges),
                        dtype=_np.int64,
                        count=int(offsets[-1]),
                    )
            except OverflowError:
                return None
            self._cells, self._offsets = cells, offsets
        return self._cells, self._offsets

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of hyperedges ``m``."""
        if self._edges is None:
            return len(self._offsets) - 1
        return len(self._edges)

    @property
    def nnz(self) -> int:
        """Number of (vertex, edge) incidences: the sum of edge sizes."""
        if self._nnz is None:
            self._nnz = sum(map(len, self._edges))
        return self._nnz

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """All hyperedges as sorted vertex tuples, indexed by edge id.

        Built from the arrays on first read for array-backed instances.
        """
        if self._edges is None:
            self._edges = _tuple_rows(self._cells, self._offsets, self._rank)
        return self._edges

    @property
    def weights(self) -> tuple[int | Fraction, ...]:
        """Vertex weights indexed by vertex id.

        Built from the ``int64`` weight array on first read for
        array-backed instances.
        """
        if self._weights is None:
            self._weights = tuple(self._weights_int64.tolist())
        return self._weights

    @property
    def rank(self) -> int:
        """The rank ``f``: maximum hyperedge size (0 if no edges)."""
        return self._rank

    @property
    def max_degree(self) -> int:
        """The maximum degree ``Δ``: most hyperedges on one vertex."""
        if self._max_degree is None:
            if self._incidence is not None:
                self._max_degree = max(
                    (len(edge_ids) for edge_ids in self._incidence),
                    default=0,
                )
            elif self._cells is not None:
                self._max_degree = (
                    int(_np.bincount(self._cells).max())
                    if len(self._cells)
                    else 0
                )
            else:
                # O(nnz) tally without materializing the O(n) transpose.
                counts: dict[int, int] = {}
                for members in self._edges:
                    for vertex in members:
                        counts[vertex] = counts.get(vertex, 0) + 1
                self._max_degree = max(counts.values(), default=0)
        return self._max_degree

    @property
    def weights_all_int(self) -> bool:
        """Whether every weight is a plain ``int`` (cached).

        The integer-only fast paths (fused iteration 0, the kernel
        lanes' exact scaling) each need this predicate; caching it on
        the immutable instance replaces repeated ``O(n)`` scans with
        one.  Integral :class:`~fractions.Fraction` weights were
        already normalized to ``int`` at construction, so this is
        exactly "no fractional weight survives".
        """
        if self._weights_all_int is None:
            self._weights_all_int = all(
                type(weight) is int for weight in self.weights
            )
        return self._weights_all_int

    def weights_int64(self):
        """The weights as an ``int64`` numpy array, or ``None``.

        ``None`` when numpy is unavailable, a weight is not a plain
        ``int``, or a weight overflows int64.  Cached: the integer
        kernel lanes and the fused iteration-0 sweep both need this
        exact conversion, and the tuple is immutable, so one C-speed
        pass serves every consumer.  Callers must not mutate the
        returned array.
        """
        cached = self._weights_int64
        if cached is None:
            if _np is None or not self.weights_all_int:
                cached = False
            else:
                try:
                    cached = _np.asarray(self._weights, dtype=_np.int64)
                except OverflowError:
                    cached = False
            self._weights_int64 = cached
        return None if cached is False else cached

    @property
    def max_weight(self):
        """Largest vertex weight (cached; 0 for zero vertices).

        The lane admission checks bound every scaled product by the
        maximum weight, so this is read once per instance per lane —
        the cache (and the int64 array when available) turns repeated
        ``O(n)`` Python scans into one C-speed reduction.
        """
        if self._max_weight is None:
            arr = self.weights_int64()
            if arr is not None and arr.size:
                self._max_weight = int(arr.max())
            else:
                self._max_weight = max(self.weights, default=0)
        return self._max_weight

    @property
    def max_weight_ratio(self) -> int:
        """``W`` as used in the paper: max weight / min weight, rounded up.

        Returns 1 for the empty hypergraph.
        """
        weights = self.weights
        if not weights:
            return 1
        largest = max(weights)
        smallest = min(weights)
        return -(-largest // smallest)

    def edge(self, edge_id: int) -> tuple[int, ...]:
        """Vertices of hyperedge ``edge_id``."""
        if self._edges is None and 0 <= edge_id < len(self._offsets) - 1:
            start, stop = self._offsets[edge_id : edge_id + 2].tolist()
            return tuple(self._cells[start:stop].tolist())
        return self.edges[edge_id]

    def weight(self, vertex: int) -> int | Fraction:
        """Weight of ``vertex``."""
        return self.weights[vertex]

    def incident_edges(self, vertex: int) -> tuple[int, ...]:
        """Ids of hyperedges containing ``vertex`` (``E(v)``)."""
        return self._ensure_incidence()[vertex]

    def degree(self, vertex: int) -> int:
        """``|E(v)|``: the number of hyperedges containing ``vertex``."""
        return len(self._ensure_incidence()[vertex])

    def local_max_degree(self, edge_id: int) -> int:
        """``Δ(e) = max_{u in e} |E(u)|`` (Theorem 9's local variant)."""
        return max(self.degree(vertex) for vertex in self.edge(edge_id))

    def _vertex_sums(self, values, edge_ids=None) -> list[int]:
        """``sum_{e in E(v)} values[e]`` per vertex ``v``, exact, as ints.

        ``values`` are non-negative ints of any width, one per id in
        ``edge_ids`` (distinct valid edge ids; default ``0..len-1``);
        edges not named count 0.  With numpy the sum is a scatter over
        the CSR arrays: values whose per-vertex sums fit ``int64`` go
        as one array, wider ones as 32-bit limbs (every limb sum stays
        below ``2**63`` while ``Delta < 2**31``) recombined per vertex.
        The tuple loop is the numpy-less path.
        """
        arrays = self._arrays() if values else None
        if arrays is None or self.max_degree >= 1 << 31:
            edges = self.edges
            sums = [0] * self._num_vertices
            for edge_id, value in zip(
                range(len(values)) if edge_ids is None else edge_ids, values
            ):
                for vertex in edges[edge_id]:
                    sums[vertex] += value
            return sums
        cells, offsets = arrays
        count = len(values)
        if edge_ids is None:
            ids = slice(0, count)
        else:
            ids = _np.fromiter(edge_ids, dtype=_np.int64, count=count)
        width = max(values).bit_length()
        if width + self.max_degree.bit_length() <= 63:
            limbs = [_np.array(values, dtype=_np.int64)]
        elif width <= 64:
            words = _np.array(values, dtype=_np.uint64)
            limbs = [
                (words & 0xFFFFFFFF).astype(_np.int64),
                (words >> 32).astype(_np.int64),
            ]
        else:
            size = -(-width // 32) * 4
            words = _np.frombuffer(
                b"".join([value.to_bytes(size, "little") for value in values]),
                dtype="<u4",
            ).reshape(count, -1)
            limbs = [words[:, index].astype(_np.int64) for index in range(size // 4)]
        lengths = _np.diff(offsets)
        sums = None
        for limb in reversed(limbs):
            per_edge = limb
            if len(limb) != len(lengths) or edge_ids is not None:
                per_edge = _np.zeros(len(lengths), dtype=_np.int64)
                per_edge[ids] = limb
            partial = _np.zeros(self._num_vertices, dtype=_np.int64)
            _np.add.at(partial, cells, _np.repeat(per_edge, lengths))
            sums = (
                partial.tolist()
                if sums is None
                else [(high << 32) + low for high, low in zip(sums, partial.tolist())]
            )
        return sums

    # ------------------------------------------------------------------
    # Cover queries
    # ------------------------------------------------------------------

    def is_cover(self, vertices: Iterable[int]) -> bool:
        """Whether ``vertices`` intersects every hyperedge."""
        return not self.uncovered_edges(vertices)

    def uncovered_edges(self, vertices: Iterable[int]) -> list[int]:
        """Ids of hyperedges disjoint from ``vertices``."""
        chosen = set(vertices)
        if self._cells is not None and set(map(type, chosen)) <= {int}:
            if self._cells.size == 0:
                return []
            # One vectorized pass over the cells: an edge is hit when
            # any member is chosen (ids outside 0..n-1 hit nothing).
            n = self._num_vertices
            mask = _np.zeros(n, dtype=bool)
            mask[[vertex for vertex in chosen if 0 <= vertex < n]] = True
            hit = _np.logical_or.reduceat(
                mask[self._cells], self._offsets[:-1]
            )
            return _np.flatnonzero(~hit).tolist()
        return [
            edge_id
            for edge_id, edge in enumerate(self.edges)
            if not chosen.intersection(edge)
        ]

    def cover_weight(self, vertices: Iterable[int]) -> int | Fraction:
        """Total weight of a vertex set (vertices counted once each)."""
        chosen = set(vertices)
        if self._weights is None and set(map(type, chosen)) <= {int}:
            # Gathered from the int64 array, summed as Python ints.
            return sum(self._weights_int64[list(chosen)].tolist())
        weights = self.weights
        return sum(weights[vertex] for vertex in chosen)

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Snapshot identity: value equality over ``(n, edges, weights)``.

        A :meth:`MutableHypergraph.snapshot
        <repro.hypergraph.mutable.MutableHypergraph.snapshot>` taken at
        version ``v`` compares equal to an identically-constructed
        ``Hypergraph`` — and *only* to one.  Instances are immutable,
        so equality (and the hash below) is stable for the object's
        lifetime, making snapshots safe dict/set keys; the mutable
        store itself is deliberately unhashable so it can never
        masquerade as such a key and go stale.  Comparison never
        considers derived state (incidence, rank, degree): both
        constructors derive it from the compared triple.  When both
        sides hold CSR arrays the edges compare as arrays (the arrays
        are a faithful image of the sorted edge tuples), and so do the
        weights when both hold ``int64`` weight arrays.
        """
        if not isinstance(other, Hypergraph):
            return NotImplemented
        if self._num_vertices != other._num_vertices:
            return False
        if self._cells is not None and other._cells is not None:
            if not (
                _np.array_equal(self._offsets, other._offsets)
                and _np.array_equal(self._cells, other._cells)
            ):
                return False
        elif self.edges != other.edges:
            return False
        mine, theirs = self._weights_int64, other._weights_int64
        if isinstance(mine, _ndarray) and isinstance(theirs, _ndarray):
            return _np.array_equal(mine, theirs)
        return self.weights == other.weights

    def __hash__(self) -> int:
        """Hash of the ``(n, edges, weights)`` identity triple."""
        return hash((self._num_vertices, self.edges, self.weights))

    def __repr__(self) -> str:
        return (
            f"Hypergraph(n={self._num_vertices}, m={self.num_edges}, "
            f"f={self._rank}, max_degree={self.max_degree})"
        )

    def reweighted(self, weights: Sequence[int]) -> "Hypergraph":
        """A copy of this hypergraph with different vertex weights."""
        return Hypergraph(self._num_vertices, self.edges, weights)

    def without_isolated_vertices(self) -> tuple["Hypergraph", list[int]]:
        """Drop degree-0 vertices.

        Returns the compacted hypergraph and a mapping from new vertex
        ids to original ids.  Useful before expensive exact solves.
        """
        incidence = self._ensure_incidence()
        kept = [
            vertex
            for vertex in range(self._num_vertices)
            if incidence[vertex]
        ]
        new_id = {old: new for new, old in enumerate(kept)}
        edges = [
            tuple(new_id[vertex] for vertex in edge) for edge in self.edges
        ]
        weights = self.weights
        return Hypergraph(len(kept), edges, [weights[v] for v in kept]), kept
