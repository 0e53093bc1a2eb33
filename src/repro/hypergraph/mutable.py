"""A versioned delta store over immutable :class:`Hypergraph` snapshots.

:class:`Hypergraph` stays the frozen snapshot type every solver
consumes; :class:`MutableHypergraph` is the thing traffic mutates.  It
validates each operation eagerly, counts a *version* per operation, and
can answer two questions the incremental pipeline needs:

* :meth:`MutableHypergraph.snapshot` — the current state as a validated
  immutable ``Hypergraph`` (safe as a dict/set key);
* :meth:`MutableHypergraph.delta_since` — a coalesced
  :class:`GraphDelta` describing the net difference against the
  snapshot taken at an earlier version (an edge added then removed
  cancels out; repeated reweights collapse to the final value).

Deltas are expressed against the *base* snapshot: removed edges are
positions in the base's edge order, added edges/vertices append after
it.  :func:`apply_delta` replays a delta on a base snapshot and returns
the mutated (validated) snapshot; for any mutable store ``g``,
``apply_delta(s_v, g.delta_since(v)) == g.snapshot()`` where ``s_v`` is
the snapshot taken at version ``v``.  Edge order is deterministic:
surviving base edges keep their relative order, added edges follow in
insertion order — this positional stability is what lets the warm
restart map cached per-component results onto the mutated snapshot.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from repro.exceptions import InvalidInstanceError
from repro.hypergraph.hypergraph import (
    Hypergraph,
    _normalized_edge,
    _normalized_weight,
)

__all__ = ["GraphDelta", "MutableHypergraph", "apply_delta"]


@dataclass(frozen=True)
class GraphDelta:
    """A net difference between two snapshots of a mutable hypergraph.

    All references are relative to the *base* snapshot: ``removed_edges``
    are positions in its edge order, ``reweighted`` pairs name its
    vertex ids (or newly added ones), ``added_vertices`` are the weights
    of vertices appended after ``base.num_vertices``, and ``added_edges``
    may reference both old and new vertex ids.  ``base_version`` /
    ``version`` tie the delta to a :class:`MutableHypergraph` history;
    bare deltas constructed by hand (e.g. by the serving layer) may
    leave both at 0.
    """

    base_version: int = 0
    version: int = 0
    added_vertices: tuple = ()
    added_edges: tuple = ()
    removed_edges: tuple = ()
    reweighted: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "added_vertices", tuple(self.added_vertices)
        )
        object.__setattr__(
            self,
            "added_edges",
            tuple(tuple(members) for members in self.added_edges),
        )
        object.__setattr__(
            self, "removed_edges", tuple(self.removed_edges)
        )
        object.__setattr__(
            self,
            "reweighted",
            tuple((vertex, weight) for vertex, weight in self.reweighted),
        )

    @property
    def is_empty(self) -> bool:
        """Whether applying this delta is the identity."""
        return not (
            self.added_vertices
            or self.added_edges
            or self.removed_edges
            or self.reweighted
        )

    def touched_vertices(self, base: Hypergraph) -> set[int]:
        """Vertex ids whose solver-visible neighborhood this delta moves.

        Members of removed edges (resolved via ``base``), members of
        added edges, reweighted vertices, and all newly added vertices.
        """
        touched: set[int] = set()
        for position in self.removed_edges:
            touched.update(base.edge(position))
        for members in self.added_edges:
            touched.update(members)
        touched.update(vertex for vertex, _ in self.reweighted)
        touched.update(
            range(
                base.num_vertices,
                base.num_vertices + len(self.added_vertices),
            )
        )
        return touched


def apply_delta(base: Hypergraph, delta: GraphDelta) -> Hypergraph:
    """The mutated snapshot: ``base`` with ``delta`` replayed onto it.

    Surviving base edges keep their relative order; added edges append
    in order.  Only the delta's own pieces need validating — the base
    snapshot already validated everything it carries over — so the
    result is built through the trusted constructor, keeping warm
    restarts from re-paying a full-instance validation pass per point
    update.  Malformed deltas (out-of-range positions or vertices,
    duplicate removals, bad weights, degenerate edges) still raise
    ``InvalidInstanceError`` rather than producing a corrupt snapshot.
    """
    removed = set()
    for position in delta.removed_edges:
        if (
            not isinstance(position, int)
            or isinstance(position, bool)
            or not 0 <= position < base.num_edges
        ):
            raise InvalidInstanceError(
                f"removed edge position {position!r} outside "
                f"0..{base.num_edges - 1}"
            )
        if position in removed:
            raise InvalidInstanceError(
                f"edge position {position} removed twice"
            )
        removed.add(position)
    weights = list(base.weights)
    for offset, weight in enumerate(delta.added_vertices):
        weights.append(
            _normalized_weight(
                weight,
                f"weight of added vertex {base.num_vertices + offset}",
            )
        )
    num_vertices = len(weights)
    for vertex, weight in delta.reweighted:
        if (
            not isinstance(vertex, int)
            or isinstance(vertex, bool)
            or not 0 <= vertex < num_vertices
        ):
            raise InvalidInstanceError(
                f"reweighted vertex {vertex!r} outside 0..{num_vertices - 1}"
            )
        weights[vertex] = _normalized_weight(
            weight, f"weight of vertex {vertex}"
        )
    if removed:
        edges = [
            members
            for position, members in enumerate(base.edges)
            if position not in removed
        ]
    else:
        edges = list(base.edges)
    for members in delta.added_edges:
        edges.append(_normalized_edge(members, num_vertices, "added hyperedge"))
    return Hypergraph._from_validated(
        num_vertices, tuple(edges), tuple(weights)
    )


#: Operation kinds recorded in the mutation log.
_ADD_EDGE = "add_edge"
_REMOVE_EDGE = "remove_edge"
_ADD_VERTEX = "add_vertex"
_SET_WEIGHT = "set_weight"


@dataclass(frozen=True)
class _Op:
    """One logged mutation (enough to undo it during reconstruction)."""

    kind: str
    version: int
    # add_edge/remove_edge: the edge's stable uid; remove_edge also
    # records the position the edge held when removed.  add_vertex /
    # set_weight: the vertex id; set_weight records the prior weight.
    uid: int = -1
    position: int = -1
    vertex: int = -1
    old_weight: int | Fraction = 0


class MutableHypergraph:
    """A mutable, versioned hypergraph; explicitly **unhashable**.

    Construct from an existing snapshot (``MutableHypergraph(hg)``) or
    a vertex count (``MutableHypergraph(6)`` — six unit-weight isolated
    vertices).  Every successful mutation increments :attr:`version`
    by one.  Operations validate eagerly, so :meth:`snapshot` can skip
    re-validation and the store never holds a malformed state.

    Unhashability is deliberate: snapshots (``Hypergraph``) have value
    semantics and key the session's instance catalogs; letting the
    mutable store masquerade as a key would silently poison those dicts
    the moment it mutates.  Take a :meth:`snapshot` when a key is
    needed.
    """

    __hash__ = None  # mutable: see class docstring

    def __init__(self, base: Hypergraph | int = 0) -> None:
        if isinstance(base, bool) or (
            not isinstance(base, (Hypergraph, int))
        ):
            raise InvalidInstanceError(
                "MutableHypergraph takes a Hypergraph or a vertex "
                f"count, got {base!r}"
            )
        if isinstance(base, int):
            base = Hypergraph(base, ())
        self._weights: list[int | Fraction] = list(base.weights)
        self._edge_uids: list[int] = list(range(base.num_edges))
        self._members: dict[int, tuple[int, ...]] = dict(
            enumerate(base.edges)
        )
        self._next_uid = base.num_edges
        self._version = 0
        self._log: list[_Op] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic operation counter (0 for a fresh store)."""
        return self._version

    @property
    def num_vertices(self) -> int:
        return len(self._weights)

    @property
    def num_edges(self) -> int:
        return len(self._edge_uids)

    def __repr__(self) -> str:
        return (
            f"MutableHypergraph(n={self.num_vertices}, "
            f"m={self.num_edges}, version={self._version})"
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def add_vertex(self, weight: int | Fraction = 1) -> int:
        """Append a new isolated vertex; returns its id."""
        weight = _normalized_weight(weight, "vertex weight")
        vertex = len(self._weights)
        self._weights.append(weight)
        self._version += 1
        self._log.append(
            _Op(_ADD_VERTEX, self._version, vertex=vertex)
        )
        return vertex

    def add_edge(self, members: Iterable[int]) -> int:
        """Insert a hyperedge; returns its current position (end)."""
        edge = _normalized_edge(members, len(self._weights), "hyperedge")
        uid = self._next_uid
        self._next_uid += 1
        self._members[uid] = edge
        self._edge_uids.append(uid)
        self._version += 1
        self._log.append(_Op(_ADD_EDGE, self._version, uid=uid))
        return len(self._edge_uids) - 1

    def remove_edge(self, position: int) -> tuple[int, ...]:
        """Remove the edge at ``position`` (current snapshot order).

        Later edges shift down by one, exactly as in the snapshot the
        next :meth:`snapshot` call returns.  Returns the removed
        edge's members.
        """
        if not isinstance(position, int) or isinstance(position, bool):
            raise InvalidInstanceError(
                f"edge position must be an int, got {position!r}"
            )
        if not 0 <= position < len(self._edge_uids):
            raise InvalidInstanceError(
                f"edge position {position} outside "
                f"0..{len(self._edge_uids) - 1}"
            )
        uid = self._edge_uids.pop(position)
        self._version += 1
        self._log.append(
            _Op(_REMOVE_EDGE, self._version, uid=uid, position=position)
        )
        return self._members[uid]

    def set_weight(self, vertex: int, weight: int | Fraction) -> None:
        """Change ``vertex``'s weight (positive int or Fraction)."""
        if not isinstance(vertex, int) or isinstance(vertex, bool):
            raise InvalidInstanceError(
                f"vertex id must be an int, got {vertex!r}"
            )
        if not 0 <= vertex < len(self._weights):
            raise InvalidInstanceError(
                f"vertex {vertex} outside 0..{len(self._weights) - 1}"
            )
        weight = _normalized_weight(weight, f"weight of vertex {vertex}")
        old = self._weights[vertex]
        self._weights[vertex] = weight
        self._version += 1
        self._log.append(
            _Op(
                _SET_WEIGHT,
                self._version,
                vertex=vertex,
                old_weight=old,
            )
        )

    # ------------------------------------------------------------------
    # Snapshots and deltas
    # ------------------------------------------------------------------

    def snapshot(self) -> Hypergraph:
        """The current state as a validated immutable snapshot.

        Mutations are validated eagerly, so this uses the trusted
        constructor; the result compares equal (and hashes equal) to an
        identically-constructed ``Hypergraph``.
        """
        return Hypergraph._from_validated(
            len(self._weights),
            tuple(self._members[uid] for uid in self._edge_uids),
            tuple(self._weights),
        )

    def _state_at(self, version: int) -> tuple[list[int], list]:
        """(edge uid order, weights) as of ``version``, by undoing the log."""
        uids = list(self._edge_uids)
        weights = list(self._weights)
        for op in reversed(self._log):
            if op.version <= version:
                break
            if op.kind == _ADD_EDGE:
                uids.remove(op.uid)
            elif op.kind == _REMOVE_EDGE:
                uids.insert(op.position, op.uid)
            elif op.kind == _ADD_VERTEX:
                weights.pop()
            else:  # _SET_WEIGHT
                weights[op.vertex] = op.old_weight
        return uids, weights

    def delta_since(self, version: int) -> GraphDelta:
        """The coalesced net difference against the ``version`` snapshot.

        ``apply_delta(snapshot_at_version, delta) == self.snapshot()``.
        Edges added then removed within the window cancel; repeated
        reweights collapse to the final value; weights of vertices
        added within the window fold into ``added_vertices``.
        """
        if (
            not isinstance(version, int)
            or isinstance(version, bool)
            or not 0 <= version <= self._version
        ):
            raise InvalidInstanceError(
                f"version must be in 0..{self._version}, got {version!r}"
            )
        base_uids, base_weights = self._state_at(version)
        base_positions = {uid: pos for pos, uid in enumerate(base_uids)}
        current = set(self._edge_uids)
        removed = tuple(
            sorted(
                pos
                for uid, pos in base_positions.items()
                if uid not in current
            )
        )
        added = tuple(
            self._members[uid]
            for uid in self._edge_uids
            if uid not in base_positions
        )
        n_base = len(base_weights)
        reweighted = tuple(
            (vertex, self._weights[vertex])
            for vertex in range(n_base)
            if self._weights[vertex] != base_weights[vertex]
        )
        return GraphDelta(
            base_version=version,
            version=self._version,
            added_vertices=tuple(self._weights[n_base:]),
            added_edges=added,
            removed_edges=removed,
            reweighted=reweighted,
        )
