"""Corpus cataloging: one directory = one persistent instance corpus.

The store layer (:mod:`repro.hypergraph.store`) makes a single packed
arena durable; this module scales that to the ROADMAP's corpus regime.
An :class:`ArenaCatalog` directory holds

* ``manifest.json`` — the corpus index: per-segment container files
  with content hashes, and per-instance records (stable id, size/nnz/
  rank stats, predicted kernel lane, content hash of the canonical
  ``.hg`` text);
* ``segment-NNNNN.arena`` — page-aligned store containers, each
  packing a bounded number of instances.

:func:`pack_corpus` streams inputs (``.hg`` paths, HIF ``.json``
paths, or in-memory hypergraphs) into segments holding at most
``segment_instances`` instances, so packing a million-instance corpus
never materializes more than one segment of hypergraphs at a time.
:func:`solve_corpus` walks the segments the same way — load one
(``mmap`` by default, so the OS pages slabs in on demand), solve it,
yield the results, drop it — which is what makes corpora larger than
RAM solvable.  A corrupt segment surfaces as a typed
:class:`~repro.exceptions.ArenaStoreError`; with ``skip_corrupt=True``
the iterator *reports* the damaged segment in its yielded record and
keeps solving the healthy ones — degraded, never silently wrong.

:meth:`ArenaCatalog.update_instance` re-packs exactly the one segment
containing a mutated instance (manifest rewritten atomically), so
incremental corpus maintenance costs one segment, not one corpus.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.batch import run_fastpath_batch
from repro.core.params import AlgorithmConfig
from repro.core.result import CoverResult
from repro.exceptions import ArenaStoreError, InvalidInstanceError
from repro.hypergraph import io as hg_io
from repro.hypergraph.csr import BatchArena, arena_hypergraphs, pack_arena
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.store import load_arena, save_arena

__all__ = [
    "CATALOG_VERSION",
    "MANIFEST_NAME",
    "ArenaCatalog",
    "InstanceRecord",
    "SegmentRecord",
    "SegmentSolve",
    "pack_corpus",
    "solve_corpus",
]

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-arena-corpus"
CATALOG_VERSION = 1

#: Default instances per segment: small enough that one segment's
#: reconstructed hypergraphs stay cheap, large enough that the batch
#: executor amortizes its per-call setup.
DEFAULT_SEGMENT_INSTANCES = 64


@dataclass(frozen=True)
class InstanceRecord:
    """Manifest entry for one corpus instance."""

    id: str
    num_vertices: int
    num_edges: int
    #: Incidence cells (sum of edge ranks) — the nnz of the CSR slab.
    nnz: int
    max_rank: int
    #: Kernel lane :func:`~repro.core.parallel.predicted_lane` expects
    #: under the catalog's default config (advisory: the executor's
    #: spill ladder re-checks at run time).
    lane: str
    #: SHA-256 of the canonical ``.hg`` text — a content address, so
    #: identical instances hash identically across corpora.
    sha256: str


@dataclass(frozen=True)
class SegmentRecord:
    """Manifest entry for one container file."""

    file: str
    sha256: str
    instances: tuple[InstanceRecord, ...]


@dataclass(frozen=True)
class SegmentSolve:
    """One yielded step of :func:`solve_corpus`.

    Either ``results`` holds one :class:`CoverResult` per instance id
    (healthy segment) or ``error`` holds the typed
    :class:`ArenaStoreError` the segment's load raised and ``results``
    is ``None`` (damaged segment, only yielded under
    ``skip_corrupt=True``).
    """

    index: int
    path: str
    ids: tuple[str, ...]
    results: list[CoverResult] | None = None
    error: ArenaStoreError | None = field(default=None, compare=False)


def _instance_record(
    instance_id: str, hypergraph: Hypergraph, config: AlgorithmConfig
) -> InstanceRecord:
    from repro.core.parallel import predicted_lane

    text = hg_io.dumps(hypergraph)
    return InstanceRecord(
        id=instance_id,
        num_vertices=hypergraph.num_vertices,
        num_edges=hypergraph.num_edges,
        nnz=hypergraph.nnz,
        max_rank=hypergraph.rank,
        lane=predicted_lane(hypergraph, config),
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _segment_name(index: int) -> str:
    return f"segment-{index:05d}.arena"


def _coerce_input(item) -> tuple[str, Hypergraph]:
    """One pack input as ``(id, hypergraph)``.

    Accepted shapes: an explicit ``(id, Hypergraph)`` pair, a bare
    :class:`Hypergraph` (id assigned by position at the call site), or
    a path — ``.hg`` text, or HIF JSON for any other suffix.
    """
    if isinstance(item, tuple) and len(item) == 2:
        instance_id, hypergraph = item
        if not isinstance(hypergraph, Hypergraph):
            raise InvalidInstanceError(
                f"pack input pair {instance_id!r} does not carry a "
                f"Hypergraph"
            )
        return str(instance_id), hypergraph
    if isinstance(item, Hypergraph):
        return "", item
    path = Path(item)
    if path.suffix == ".hg":
        return path.stem, hg_io.load(path)
    return path.stem, hg_io.load_hif(path)


def pack_corpus(
    inputs: Iterable,
    directory,
    *,
    segment_instances: int = DEFAULT_SEGMENT_INSTANCES,
    config: AlgorithmConfig | None = None,
) -> "ArenaCatalog":
    """Stream ``inputs`` into a catalog directory; returns the catalog.

    ``inputs`` yields ``.hg``/HIF paths, ``(id, Hypergraph)`` pairs, or
    bare hypergraphs (ids default to the file stem or the running
    index).  At most ``segment_instances`` instances are resident at a
    time — the corpus as a whole never is.  Duplicate ids are refused
    (the catalog is an index; two instances under one key would make
    lookups ambiguous).  The directory is created if missing; an
    existing manifest is overwritten atomically once every segment is
    durable, so an interrupted pack never leaves a manifest naming
    half-written segments.
    """
    if segment_instances < 1:
        raise ValueError(
            f"segment_instances must be >= 1, got {segment_instances}"
        )
    config = config or AlgorithmConfig()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    segments: list[SegmentRecord] = []
    seen_ids: set[str] = set()
    buffer: list[tuple[str, Hypergraph]] = []

    def flush() -> None:
        if not buffer:
            return
        index = len(segments)
        name = _segment_name(index)
        arena = pack_arena([hypergraph for _, hypergraph in buffer])
        save_arena(arena, directory / name)
        records = tuple(
            _instance_record(instance_id, hypergraph, config)
            for instance_id, hypergraph in buffer
        )
        segments.append(
            SegmentRecord(
                file=name,
                sha256=_file_sha256(directory / name),
                instances=records,
            )
        )
        buffer.clear()

    for position, item in enumerate(inputs):
        instance_id, hypergraph = _coerce_input(item)
        if not instance_id:
            instance_id = f"instance-{position:06d}"
        if instance_id in seen_ids:
            raise InvalidInstanceError(
                f"duplicate corpus instance id {instance_id!r}"
            )
        seen_ids.add(instance_id)
        buffer.append((instance_id, hypergraph))
        if len(buffer) >= segment_instances:
            flush()
    flush()
    _write_manifest(directory, segments)
    return ArenaCatalog(directory)


def _write_manifest(directory: Path, segments: list[SegmentRecord]) -> None:
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": CATALOG_VERSION,
        "segments": [
            {
                "file": segment.file,
                "sha256": segment.sha256,
                "instances": [
                    {
                        "id": record.id,
                        "num_vertices": record.num_vertices,
                        "num_edges": record.num_edges,
                        "nnz": record.nnz,
                        "max_rank": record.max_rank,
                        "lane": record.lane,
                        "sha256": record.sha256,
                    }
                    for record in segment.instances
                ],
            }
            for segment in segments
        ],
    }
    temp = directory / (MANIFEST_NAME + ".tmp")
    temp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    temp.replace(directory / MANIFEST_NAME)


class ArenaCatalog:
    """A packed corpus directory: manifest plus arena segments.

    Opening a catalog reads and validates only the manifest — segment
    containers are opened lazily, one at a time, by
    :meth:`load_segment` / :func:`solve_corpus`.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        try:
            raw = manifest_path.read_text(encoding="utf-8")
        except OSError as error:
            raise ArenaStoreError(
                f"{self.directory} is not a corpus catalog: {error}"
            ) from error
        except UnicodeDecodeError as error:
            raise ArenaStoreError(
                f"{manifest_path}: byte {error.start} is not valid UTF-8"
            ) from error
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ArenaStoreError(
                f"{manifest_path} is not valid JSON: {error}"
            ) from error
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != _MANIFEST_FORMAT
        ):
            raise ArenaStoreError(
                f"{manifest_path} is not a {_MANIFEST_FORMAT} manifest"
            )
        version = manifest.get("version")
        if not isinstance(version, int) or version > CATALOG_VERSION:
            raise ArenaStoreError(
                f"{manifest_path}: manifest version {version!r} is newer "
                f"than this build understands (<= {CATALOG_VERSION})"
            )
        try:
            self.segments: tuple[SegmentRecord, ...] = tuple(
                SegmentRecord(
                    file=str(segment["file"]),
                    sha256=str(segment["sha256"]),
                    instances=tuple(
                        InstanceRecord(
                            id=str(record["id"]),
                            num_vertices=int(record["num_vertices"]),
                            num_edges=int(record["num_edges"]),
                            nnz=int(record["nnz"]),
                            max_rank=int(record["max_rank"]),
                            lane=str(record["lane"]),
                            sha256=str(record["sha256"]),
                        )
                        for record in segment["instances"]
                    ),
                )
                for segment in manifest["segments"]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ArenaStoreError(
                f"{manifest_path}: malformed manifest: {error!r}"
            ) from error
        self._segment_of_id: dict[str, tuple[int, int]] = {}
        for segment_index, segment in enumerate(self.segments):
            for offset, record in enumerate(segment.instances):
                if record.id in self._segment_of_id:
                    raise ArenaStoreError(
                        f"{manifest_path}: duplicate instance id "
                        f"{record.id!r}"
                    )
                self._segment_of_id[record.id] = (segment_index, offset)

    def __len__(self) -> int:
        return len(self._segment_of_id)

    @property
    def instance_ids(self) -> tuple[str, ...]:
        """Every instance id, in segment order."""
        return tuple(
            record.id
            for segment in self.segments
            for record in segment.instances
        )

    def locate(self, instance_id: str) -> tuple[int, int]:
        """``(segment index, offset within segment)`` of an id."""
        try:
            return self._segment_of_id[instance_id]
        except KeyError:
            raise KeyError(
                f"instance id {instance_id!r} is not in the catalog"
            ) from None

    def record(self, instance_id: str) -> InstanceRecord:
        segment_index, offset = self.locate(instance_id)
        return self.segments[segment_index].instances[offset]

    def segment_path(self, index: int) -> Path:
        return self.directory / self.segments[index].file

    def load_segment(self, index: int, *, mmap: bool = True) -> BatchArena:
        """Load one segment's arena (zero-copy ``mmap`` by default)."""
        return load_arena(self.segment_path(index), mmap=mmap)

    def load_instance(self, instance_id: str) -> Hypergraph:
        """Reconstruct one instance by id (loads only its segment)."""
        segment_index, offset = self.locate(instance_id)
        arena = self.load_segment(segment_index)
        return arena_hypergraphs(arena)[offset]

    def update_instance(
        self,
        instance_id: str,
        hypergraph: Hypergraph,
        *,
        config: AlgorithmConfig | None = None,
    ) -> None:
        """Replace one instance and re-pack only its segment.

        The segment container is rewritten (atomically, via the store
        layer's temp+rename) and the manifest updated to match — the
        other segments' bytes are untouched, so an incremental corpus
        update costs one segment regardless of corpus size.
        """
        config = config or AlgorithmConfig()
        segment_index, offset = self.locate(instance_id)
        segment = self.segments[segment_index]
        arena = load_arena(self.segment_path(segment_index), mmap=False)
        instances = arena_hypergraphs(arena)
        instances[offset] = hypergraph
        save_arena(
            pack_arena(instances), self.segment_path(segment_index)
        )
        records = list(segment.instances)
        records[offset] = _instance_record(instance_id, hypergraph, config)
        updated = SegmentRecord(
            file=segment.file,
            sha256=_file_sha256(self.segment_path(segment_index)),
            instances=tuple(records),
        )
        segments = list(self.segments)
        segments[segment_index] = updated
        _write_manifest(self.directory, segments)
        self.segments = tuple(segments)


def solve_corpus(
    catalog,
    *,
    config: AlgorithmConfig | None = None,
    verify: bool = True,
    mmap: bool = True,
    skip_corrupt: bool = False,
    session=None,
) -> Iterator[SegmentSolve]:
    """Solve a catalog segment by segment, yielding per-segment results.

    ``catalog`` is an :class:`ArenaCatalog` or a directory path.  One
    segment is resident at a time: loaded (``mmap`` by default — the
    lane executors then read the container's pages directly), solved,
    yielded, dropped.  With a :class:`~repro.core.stream.BatchSession`
    as ``session`` the segment is admitted via
    :meth:`~repro.core.stream.BatchSession.submit_arena` (pre-sealed
    shard, file-reference transport to the worker pool); otherwise it
    solves in-process through
    :func:`~repro.core.batch.run_fastpath_batch` — bit-identical
    either way.

    ``skip_corrupt=True`` turns a damaged segment into a yielded
    :class:`SegmentSolve` with ``error`` set (ids from the manifest, no
    results) instead of an exception, and the iteration continues with
    the remaining segments — the catalog degrades, it does not lie.
    """
    if not isinstance(catalog, ArenaCatalog):
        catalog = ArenaCatalog(catalog)
    for index, segment in enumerate(catalog.segments):
        path = catalog.segment_path(index)
        ids = tuple(record.id for record in segment.instances)
        try:
            arena = load_arena(path, mmap=mmap)
        except ArenaStoreError as error:
            if not skip_corrupt:
                raise
            yield SegmentSolve(
                index=index, path=str(path), ids=ids, error=error
            )
            continue
        if len(ids) != arena.num_instances:
            error = ArenaStoreError(
                f"{path}: manifest lists {len(ids)} instances but the "
                f"container packs {arena.num_instances}"
            )
            if not skip_corrupt:
                raise error
            yield SegmentSolve(
                index=index, path=str(path), ids=ids, error=error
            )
            continue
        if session is not None:
            tickets = session.submit_arena(arena, config=config)
            results = [ticket.result() for ticket in tickets]
        else:
            results = run_fastpath_batch(
                arena_hypergraphs(arena),
                config,
                verify=verify,
                arena=arena,
            )
        yield SegmentSolve(
            index=index, path=str(path), ids=ids, results=results
        )
