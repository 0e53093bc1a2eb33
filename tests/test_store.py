"""Disk must equal memory: the persistent arena store's contract.

The store layer (:mod:`repro.hypergraph.store`,
:mod:`repro.core.corpus`) makes packed CSR arenas durable; these tests
pin that durability is *invisible* in results and *loud* in failure:

* **differential**: solving a ``load_arena(mmap=True)`` arena is
  bit-identical to solving the freshly packed original — per kernel
  lane (int64 / two-limb / three-limb / bigint), forced mid-run spills
  included, on every observable (cover, duals, lane, iterations);
* **zero-copy**: the mapped arena's structural slabs are numpy views
  over the container's buffer, and the lane executors consume them
  without conversion — pinned by identity/``shares_memory`` asserts,
  not by timing;
* **byte-identical persistence** (hypothesis soak): save → load →
  save reproduces the container file byte for byte over random
  int/Fraction-weighted mixes, ``10^16``-scale weights included; HIF
  export → import round-trips exactly;
* **corruption is typed**: a bad magic, a future version, a truncated
  tail, a bit-flipped section each raise
  :class:`~repro.exceptions.ArenaStoreError` (a
  :class:`~repro.exceptions.TransportError`) — never a silent wrong
  answer, never an out-of-bounds view; a catalog with one corrupt
  segment still solves the rest and reports the skip;
* the **transport** ships store-backed arenas by file reference (and
  falls back to copying when the file vanishes), and the streaming
  session's ``submit_arena`` door preserves both provenance and
  results.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_module
from repro.core.batch import run_fastpath_batch, run_ladder
from repro.core.corpus import (
    ArenaCatalog,
    pack_corpus,
    solve_corpus,
)
from repro.core.fastpath import HAS_NUMPY
from repro.core.params import AlgorithmConfig
from repro.core.parallel import _solve_shard, ship_arena, shard_payload
from repro.core.stream import BatchSession
from repro.exceptions import (
    ArenaStoreError,
    InvalidInstanceError,
    TransportError,
)
from repro.hypergraph import io as hg_io
from repro.hypergraph.csr import arena_hypergraphs, pack_arena, slice_arena
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    uniform_weights,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.store import (
    STORE_VERSION,
    ArenaSource,
    decode_arena,
    encode_arena,
    load_arena,
    save_arena,
)

from conftest import spy_lane_runs

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="mmap views require numpy"
)

OBSERVABLES = (
    "cover",
    "weight",
    "iterations",
    "rounds",
    "dual",
    "dual_total",
    "levels",
    "lane",
    "stats",
)


def random_batch(count, *, base_seed=0, max_weight=40):
    return [
        mixed_rank_hypergraph(
            10 + 2 * ((seed + base_seed) % 7),
            14 + 3 * ((seed + base_seed) % 5),
            4,
            seed=seed + base_seed,
            weights=uniform_weights(
                10 + 2 * ((seed + base_seed) % 7),
                max_weight,
                seed=seed + base_seed + 77,
            ),
        )
        for seed in range(count)
    ]


def lane_batch(scale):
    """Instances whose weights land the fastpath on a chosen lane."""
    return [
        mixed_rank_hypergraph(
            12 + 2 * seed,
            18 + 3 * seed,
            3,
            seed=seed,
            weights=[
                scale + 31 * vertex for vertex in range(12 + 2 * seed)
            ],
        )
        for seed in range(3)
    ]


def assert_same_results(actual, expected):
    assert len(actual) == len(expected)
    for position, (left, right) in enumerate(zip(actual, expected)):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute), (
                f"instance {position} disagrees on {attribute}"
            )


def roundtrip(tmp_path, hypergraphs, *, mmap=True):
    arena = pack_arena(hypergraphs)
    path = tmp_path / "batch.arena"
    save_arena(arena, path)
    return arena, load_arena(path, mmap=mmap), path


# ----------------------------------------------------------------------
# Container roundtrip and zero-copy pinning
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mmap", [False, True])
def test_roundtrip_reconstructs_instances(tmp_path, mmap):
    hypergraphs = random_batch(6, base_seed=3)
    hypergraphs[1] = Hypergraph(
        4, [(0, 1), (2, 3)], [Fraction(3, 7), 10**20, 5, Fraction(1, 9)]
    )
    _, loaded, _ = roundtrip(tmp_path, hypergraphs, mmap=mmap)
    assert arena_hypergraphs(loaded) == hypergraphs
    # Structural offsets and weights come back as plain Python objects
    # (numpy scalars would poison Fraction arithmetic downstream).
    assert all(type(v) is int for v in loaded.vertex_offset)
    assert all(type(v) is int for v in loaded.edge_offset)
    assert all(
        type(w) in (int, Fraction) for w in loaded.weights
    )


def test_weights_past_the_decimal_digit_cap_roundtrip(tmp_path):
    """Weights wider than CPython's default 4300-digit int/str guard
    save, load and resave byte-identically under that guard: the
    weights section writes them as hex tokens."""
    hypergraphs = [
        Hypergraph(
            3, [(0, 1), (1, 2)],
            [2**20000, Fraction(2**20000 + 1, 3), 5],
        ),
    ]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for mmap in (False, True):
            _, loaded, path = roundtrip(tmp_path, hypergraphs, mmap=mmap)
            assert arena_hypergraphs(loaded) == hypergraphs
            assert encode_arena(loaded) == path.read_bytes()
    finally:
        sys.set_int_max_str_digits(previous)


@needs_numpy
def test_mmap_load_is_zero_copy(tmp_path):
    import numpy as np

    _, loaded, _ = roundtrip(tmp_path, random_batch(4))
    source = loaded.source
    assert isinstance(source, ArenaSource) and source.mmapped
    mapped = np.frombuffer(source.buffer, dtype=np.uint8)
    membership = loaded.membership
    for slab in (
        membership.lengths,
        membership.starts,
        membership.cells,
    ):
        assert isinstance(slab, np.ndarray) and slab.dtype == np.int64
        assert np.shares_memory(mapped, slab)
    assert not hasattr(loaded, "instance_of_vertex")
    # The lane executors ingest membership via asarray(..., int64):
    # on these views that conversion is the identity — no copy ever.
    assert np.asarray(membership.cells, dtype=np.int64) is membership.cells
    # The batch runner's whole-arena slice is the identity too, so the
    # mapped arena object (provenance included) reaches the executor.
    assert (
        slice_arena(loaded, range(loaded.num_instances)) is loaded
    )


def test_save_is_deterministic_and_atomic(tmp_path):
    hypergraphs = random_batch(3, base_seed=9)
    arena = pack_arena(hypergraphs)
    save_arena(arena, tmp_path / "a.arena")
    save_arena(arena, tmp_path / "b.arena")
    assert (
        (tmp_path / "a.arena").read_bytes()
        == (tmp_path / "b.arena").read_bytes()
    )
    assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# Differential gate: every lane, disk == memory
# ----------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize(
    "scale, lane",
    [
        (1, "int64"),
        (10**16, "two-limb"),
        (10**26, "three-limb"),
        (10**38, "bigint"),
    ],
)
def test_store_solve_matches_memory_per_lane(tmp_path, scale, lane):
    config = AlgorithmConfig(epsilon=Fraction(1, 5))
    hypergraphs = lane_batch(scale)
    arena, loaded, _ = roundtrip(tmp_path, hypergraphs)
    expected = run_fastpath_batch(hypergraphs, config, arena=arena)
    assert any(result.lane == lane for result in expected)
    actual = run_fastpath_batch(
        arena_hypergraphs(loaded), config, arena=loaded
    )
    assert_same_results(actual, expected)


@needs_numpy
def test_store_solve_matches_memory_fractional_weights(tmp_path):
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    hypergraphs = [
        Hypergraph(
            5,
            [(0, 1, 2), (2, 3), (3, 4)],
            [Fraction(2, 3), 7, Fraction(9, 4), 1, Fraction(10**16, 3)],
        ),
        mixed_rank_hypergraph(
            8, 12, 3, seed=5, weights=uniform_weights(8, 9, seed=6)
        ),
    ]
    arena, loaded, _ = roundtrip(tmp_path, hypergraphs)
    assert_same_results(
        run_fastpath_batch(arena_hypergraphs(loaded), config, arena=loaded),
        run_fastpath_batch(hypergraphs, config, arena=arena),
    )


@needs_numpy
def test_store_solve_matches_memory_forced_spill(tmp_path, monkeypatch):
    """Shrunken headroom forces mid-run spills on both paths alike (the
    ladder entered at int64, which ``auto`` would skip at this budget)."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    hypergraphs = random_batch(6, base_seed=4)
    arena, loaded, _ = roundtrip(tmp_path, hypergraphs)
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 26)
    runs = spy_lane_runs(monkeypatch)
    expected = run_ladder(
        hypergraphs, config, verify=True, start="int64", arena=arena
    )
    assert runs[0].ops.name == "int64" and runs[0].carries_out
    runs.clear()
    actual = run_ladder(
        arena_hypergraphs(loaded), config, verify=True, start="int64",
        arena=loaded,
    )
    assert runs[0].ops.name == "int64" and runs[0].carries_out
    assert_same_results(actual, expected)


# ----------------------------------------------------------------------
# Hypothesis soak: byte-identical persistence, exact HIF interchange
# ----------------------------------------------------------------------

weight_strategy = st.one_of(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=10**16, max_value=10**16 + 10**4),
    st.fractions(
        min_value=Fraction(1, 997), max_value=10**17, max_denominator=997
    ),
)


@st.composite
def small_instance(draw):
    num_vertices = draw(st.integers(min_value=1, max_value=8))
    edges = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=num_vertices - 1),
                min_size=1,
                max_size=4,
                unique=True,
            ).map(tuple),
            min_size=0,
            max_size=6,
        )
    )
    weights = draw(
        st.lists(
            weight_strategy,
            min_size=num_vertices,
            max_size=num_vertices,
        )
    )
    return Hypergraph(num_vertices, edges, weights)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batch=st.lists(small_instance(), min_size=1, max_size=4))
def test_save_load_save_is_byte_identical(tmp_path_factory, batch):
    tmp_path = tmp_path_factory.mktemp("soak")
    arena = pack_arena(batch)
    first = tmp_path / "first.arena"
    save_arena(arena, first)
    for mmap in (False, True):
        loaded = load_arena(first, mmap=mmap)
        assert arena_hypergraphs(loaded) == batch
        again = tmp_path / f"again-{mmap}.arena"
        save_arena(loaded, again)
        assert first.read_bytes() == again.read_bytes()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(hypergraph=small_instance())
def test_hif_roundtrip_exact(hypergraph):
    document = hg_io.to_hif(hypergraph)
    json.dumps(document)  # must be JSON-serializable as-is
    assert hg_io.from_hif(document) == hypergraph


def test_hif_file_roundtrip_and_weight_edges(tmp_path):
    hypergraph = Hypergraph(
        4,
        [(0, 1), (1, 2, 3)],
        [10**20, Fraction(7, 3), 1, 2**53 + 1],
    )
    path = tmp_path / "instance.json"
    hg_io.save_hif(hypergraph, path)
    assert hg_io.load_hif(path) == hypergraph
    # Beyond-double ints and rationals travel as exact string tokens.
    document = json.loads(path.read_text())
    weights = [node["weight"] for node in document["nodes"]]
    assert weights[0] == str(10**20)
    assert weights[1] == "7/3"
    assert weights[2] == 1
    assert weights[3] == str(2**53 + 1)
    # Integral floats are accepted; non-integral floats are refused.
    document["nodes"][2]["weight"] = 3.0
    assert hg_io.from_hif(document).weights[2] == 3
    document["nodes"][2]["weight"] = 3.5
    with pytest.raises(InvalidInstanceError):
        hg_io.from_hif(document)


def test_hif_rejects_malformed_documents():
    with pytest.raises(InvalidInstanceError):
        hg_io.from_hif([])
    with pytest.raises(InvalidInstanceError):
        hg_io.from_hif({"edges": []})
    with pytest.raises(InvalidInstanceError):
        hg_io.from_hif(
            {
                "nodes": [{"node": 0}],
                "edges": [],
                "incidences": [{"edge": 0, "node": 99}],
            }
        )


# ----------------------------------------------------------------------
# Corruption: typed refusal, never a silent wrong answer
# ----------------------------------------------------------------------


def _container(tmp_path) -> bytes:
    arena = pack_arena(random_batch(3, base_seed=1))
    path = tmp_path / "good.arena"
    save_arena(arena, path)
    return path.read_bytes()


def _corruptions(raw: bytes) -> dict[str, bytes]:
    header_payload_length = struct.unpack_from("<q", raw, 8)[0]
    future = bytearray(raw)
    struct.pack_into("<q", future, 24, 999)
    struct.pack_into(
        "<q",
        future,
        16,
        zlib.crc32(bytes(future[24 : 24 + header_payload_length])),
    )
    bad_magic = bytearray(raw)
    bad_magic[0] ^= 0xFF
    flipped = bytearray(raw)
    flipped[4097] ^= 0x01  # inside the first page-aligned section
    header_flip = bytearray(raw)
    header_flip[30] ^= 0x01  # inside the header payload
    return {
        "bad-magic": bytes(bad_magic),
        "future-version": bytes(future),
        "truncated-tail": raw[: len(raw) // 2],
        "truncated-frame": raw[:10],
        "empty": b"",
        "garbage": b"definitely not an arena container" * 3,
        "bitflip-section": bytes(flipped),
        "bitflip-header": bytes(header_flip),
    }


@pytest.mark.parametrize("mmap", [False, True])
def test_every_corruption_mode_raises_typed_error(tmp_path, mmap):
    raw = _container(tmp_path)
    for label, damaged in _corruptions(raw).items():
        path = tmp_path / f"{label}.arena"
        path.write_bytes(damaged)
        with pytest.raises(ArenaStoreError) as excinfo:
            load_arena(path, mmap=mmap)
        assert isinstance(excinfo.value, TransportError), label


def _section_table(raw: bytes) -> dict[int, tuple[int, int, int]]:
    """``kind -> (table entry, offset, length)`` of a container."""
    header_payload_length = struct.unpack_from("<q", raw, 8)[0]
    header = struct.unpack_from(f"<{header_payload_length // 8}q", raw, 24)
    return {
        header[7 + 4 * entry]: (entry, *header[8 + 4 * entry : 10 + 4 * entry])
        for entry in range((len(header) - 7) // 4)
    }


def _rewrite_section(raw: bytes, kind: int, patch) -> bytes:
    """``raw`` with section ``kind`` rewritten in place by
    ``patch(bytearray)`` and its CRC and the header's recomputed, so
    only the section's content is wrong."""
    entry, offset, length = _section_table(raw)[kind]
    raw = bytearray(raw)
    body = bytearray(raw[offset : offset + length])
    patch(body)
    raw[offset : offset + length] = body
    struct.pack_into("<q", raw, 24 + (10 + 4 * entry) * 8, zlib.crc32(body))
    header_payload_length = struct.unpack_from("<q", raw, 8)[0]
    struct.pack_into(
        "<q", raw, 16,
        zlib.crc32(bytes(raw[24 : 24 + header_payload_length])),
    )
    return bytes(raw)


def test_wrong_but_checksummed_structure_is_refused(tmp_path):
    """A CRC-consistent container with impossible structure (cells
    pointing outside the vertex range, an edge table ending short of
    the header's edge count, a weights section too short for the
    vertices, membership rows no ``Hypergraph`` edge can be) must
    still be refused — that is what stands between a crafted container
    and an out-of-bounds sweep or a solve of an impossible instance."""
    arena = pack_arena([Hypergraph(3, [(0, 1), (1, 2)], [1, 2, 3])])
    raw = encode_arena(arena)
    two = encode_arena(
        pack_arena(
            [Hypergraph(2, [(0, 1)], [1, 2]), Hypergraph(2, [(0, 1)], [3, 4])]
        )
    )
    three = encode_arena(
        pack_arena([Hypergraph(3, [(0, 1), (1,), (2,)], [1, 2, 3])])
    )

    def words(*values):
        return lambda body: struct.pack_into(
            f"<{len(values)}q", body, 0, *values
        )

    def rows(lengths, starts):
        """``raw`` with its membership lengths and starts rewritten."""
        return _rewrite_section(
            _rewrite_section(raw, 3, words(*lengths)), 4, words(*starts)
        )

    crafted = {
        "cells": _rewrite_section(
            raw, 5, lambda body: struct.pack_into("<q", body, 0, 10**6)
        ),
        "edge_offset": _rewrite_section(
            raw, 2, lambda body: struct.pack_into("<q", body, 8, 1)
        ),
        "int64 weights": encode_arena(replace(arena, weights=(1, 2))),
        "text weights": encode_arena(
            replace(arena, weights=(Fraction(1, 2), 2))
        ),
        # Rows (0, 1, 1) and (2,): a repeated member.
        "repeated member": rows((3, 1), (0, 3)),
        # Rows () and (0, 1, 1, 2): an empty edge.
        "empty row": rows((0, 4), (0, 0)),
        # The first instance's row (0, 2) names the second's vertex 2.
        "cross-instance id": _rewrite_section(two, 5, words(0, 2, 2, 3)),
        # Lengths whose int64 prefix sums wrap around to the cell count.
        "wrapping lengths": _rewrite_section(
            _rewrite_section(three, 3, words(2**63 - 1, 2**63 - 1, 6)),
            4,
            words(0, 2**63 - 1, -2),
        ),
    }
    path = tmp_path / "evil.arena"
    for label, damaged in crafted.items():
        path.write_bytes(damaged)
        for mmap in (False, True):
            with pytest.raises(ArenaStoreError, match="cells|ends at|holds"):
                load_arena(path, mmap=mmap)
        with pytest.raises(ArenaStoreError, match="cells|ends at|holds"):
            decode_arena(damaged)


#: The instances each version-1 container under ``fixtures/`` holds;
#: a version-1 ``save_arena`` wrote the files from these instances.
FIXTURES = Path(__file__).parent / "fixtures"
V1_BATCHES = {
    "store-v1-int64.arena": lambda: [
        hg_io.load(FIXTURES / name)
        for name in ("path9.hg", "star12.hg", "regular24.hg")
    ],
    "store-v1-text.arena": lambda: [
        Hypergraph(
            4,
            [(0, 1), (1, 2, 3), (0, 3)],
            [Fraction(3, 2), 2**70, 5, Fraction(7, 3)],
        ),
        Hypergraph(3, [(0, 1), (1, 2)], [1, 2**64 + 1, 3]),
    ],
}


@pytest.mark.parametrize("mmap", [False, True])
def test_version1_containers_solve_bit_identically(tmp_path, mmap):
    """Version-1 containers still load.  Their instance-map sections
    (kinds 6 and 7) are CRC-checked and never read, so a container
    whose vertex map was rewritten to zeros, CRCs recomputed, solves
    exactly like the in-memory instances too."""
    def zeros(body):
        body[:] = bytes(len(body))

    containers = {name: (FIXTURES / name).read_bytes() for name in V1_BATCHES}
    int64_raw = containers["store-v1-int64.arena"]
    containers["wrong-map.arena"] = _rewrite_section(int64_raw, 6, zeros)
    for name, raw in containers.items():
        assert struct.unpack_from("<q", raw, 24)[0] == 1, name
        batch = V1_BATCHES.get(name, V1_BATCHES["store-v1-int64.arena"])()
        path = tmp_path / name
        path.write_bytes(raw)
        loaded = load_arena(path, mmap=mmap)
        assert loaded == pack_arena(batch)
        instances = arena_hypergraphs(loaded)
        assert instances == batch
        assert_same_results(
            run_fastpath_batch(instances, arena=loaded),
            run_fastpath_batch(batch),
        )
        # Resaving writes the current version, which loads back equal.
        save_arena(loaded, tmp_path / "resaved.arena")
        assert load_arena(tmp_path / "resaved.arena") == loaded
    # The ignored sections are still covered by their CRCs.
    damaged = bytearray(int64_raw)
    damaged[_section_table(int64_raw)[6][1]] ^= 1
    with pytest.raises(ArenaStoreError, match="section 6 failed"):
        decode_arena(bytes(damaged))
    # A version newer than this build's is refused, not guessed at.
    assert STORE_VERSION == 2
    future = bytearray(int64_raw)
    struct.pack_into("<q", future, 24, STORE_VERSION + 1)
    header_payload_length = struct.unpack_from("<q", future, 8)[0]
    struct.pack_into(
        "<q", future, 16,
        zlib.crc32(bytes(future[24 : 24 + header_payload_length])),
    )
    with pytest.raises(ArenaStoreError, match="version 3"):
        decode_arena(bytes(future))


def test_verify_false_skips_crc_but_not_frame(tmp_path):
    raw = _container(tmp_path)
    flipped = bytearray(raw)
    flipped[4097] ^= 0x01
    path = tmp_path / "flip.arena"
    path.write_bytes(bytes(flipped))
    with pytest.raises(ArenaStoreError):
        load_arena(path)
    # verify=False trades the CRC sweep for speed, by explicit opt-in.
    load_arena(path, verify=False)
    path.write_bytes(raw[:10])
    with pytest.raises(ArenaStoreError):
        load_arena(path, verify=False)


# ----------------------------------------------------------------------
# Corpus catalog
# ----------------------------------------------------------------------


def _packed_corpus(tmp_path, count=10, segment_instances=4):
    hypergraphs = random_batch(count, base_seed=6)
    catalog = pack_corpus(
        (
            (f"inst-{position:03d}", hypergraph)
            for position, hypergraph in enumerate(hypergraphs)
        ),
        tmp_path / "corpus",
        segment_instances=segment_instances,
    )
    return hypergraphs, catalog


def test_corpus_solve_matches_direct_batch(tmp_path):
    hypergraphs, catalog = _packed_corpus(tmp_path)
    expected = run_fastpath_batch(hypergraphs)
    actual = []
    for segment in solve_corpus(catalog):
        assert segment.error is None
        actual.extend(segment.results)
    assert_same_results(actual, expected)
    assert len(catalog) == len(hypergraphs)
    assert catalog.instance_ids[3] == "inst-003"
    assert catalog.load_instance("inst-007") == hypergraphs[7]
    record = catalog.record("inst-007")
    assert record.num_vertices == hypergraphs[7].num_vertices
    assert record.nnz == sum(len(e) for e in hypergraphs[7].edges)


def test_corpus_with_corrupt_segment_degrades_loudly(tmp_path):
    hypergraphs, catalog = _packed_corpus(tmp_path)
    victim = catalog.segment_path(1)
    raw = bytearray(victim.read_bytes())
    raw[4097] ^= 0xFF
    victim.write_bytes(bytes(raw))
    # Strict mode refuses the whole iteration at the damaged segment.
    with pytest.raises(ArenaStoreError):
        list(solve_corpus(catalog.directory))
    # skip_corrupt solves every healthy segment and reports the skip.
    outcomes = list(solve_corpus(catalog.directory, skip_corrupt=True))
    assert [s.error is not None for s in outcomes] == [False, True, False]
    damaged = outcomes[1]
    assert damaged.results is None and damaged.ids  # ids still known
    healthy = [r for s in outcomes if s.results for r in s.results]
    expected = run_fastpath_batch(hypergraphs[:4] + hypergraphs[8:])
    assert_same_results(healthy, expected)


def test_update_instance_repacks_only_its_segment(tmp_path):
    hypergraphs, catalog = _packed_corpus(tmp_path)
    untouched_before = catalog.segment_path(2).read_bytes()
    replacement = mixed_rank_hypergraph(
        9, 13, 3, seed=42, weights=uniform_weights(9, 11, seed=43)
    )
    catalog.update_instance("inst-001", replacement)
    assert catalog.segment_path(2).read_bytes() == untouched_before
    reopened = ArenaCatalog(catalog.directory)
    assert reopened.load_instance("inst-001") == replacement
    assert reopened.load_instance("inst-000") == hypergraphs[0]
    mutated = hypergraphs[:]
    mutated[1] = replacement
    actual = [
        result
        for segment in solve_corpus(reopened)
        for result in segment.results
    ]
    assert_same_results(actual, run_fastpath_batch(mutated))


def test_manifest_digests_match_the_segment_files(tmp_path):
    """``save_arena`` hashes the container as it writes it: after a pack
    and after an update, every manifest digest is the file's SHA-256,
    and the bytes on disk are ``encode_arena``'s."""
    hypergraphs, catalog = _packed_corpus(tmp_path)

    def assert_digests_match(directory):
        manifest = json.loads((directory / "manifest.json").read_text())
        for segment in manifest["segments"]:
            raw = (directory / segment["file"]).read_bytes()
            assert segment["sha256"] == hashlib.sha256(raw).hexdigest()

    assert_digests_match(catalog.directory)
    assert catalog.segment_path(0).read_bytes() == encode_arena(
        pack_arena(hypergraphs[:4])
    )
    before = catalog.segments[0].sha256
    replacement = mixed_rank_hypergraph(
        9, 13, 3, seed=42, weights=uniform_weights(9, 11, seed=43)
    )
    catalog.update_instance("inst-001", replacement)
    assert catalog.segments[0].sha256 != before
    assert_digests_match(catalog.directory)
    assert save_arena(
        pack_arena(hypergraphs), tmp_path / "whole.arena"
    ) == hashlib.sha256((tmp_path / "whole.arena").read_bytes()).hexdigest()


def test_pack_corpus_refuses_duplicate_ids(tmp_path):
    hypergraph = Hypergraph(2, [(0, 1)], [1, 1])
    with pytest.raises(InvalidInstanceError):
        pack_corpus(
            [("same", hypergraph), ("same", hypergraph)],
            tmp_path / "corpus",
        )


def test_catalog_refuses_malformed_manifests(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    with pytest.raises(ArenaStoreError):
        ArenaCatalog(directory)  # no manifest at all
    (directory / "manifest.json").write_text("{not json")
    with pytest.raises(ArenaStoreError):
        ArenaCatalog(directory)
    (directory / "manifest.json").write_text('{"format": "other"}')
    with pytest.raises(ArenaStoreError):
        ArenaCatalog(directory)
    (directory / "manifest.json").write_text(
        json.dumps(
            {
                "format": "repro-arena-corpus",
                "version": 999,
                "segments": [],
            }
        )
    )
    with pytest.raises(ArenaStoreError):
        ArenaCatalog(directory)


# ----------------------------------------------------------------------
# Transport: store-backed shards ship by file reference
# ----------------------------------------------------------------------


@needs_numpy
def test_store_backed_arena_ships_by_file_reference(tmp_path):
    hypergraphs = random_batch(4, base_seed=2)
    arena, loaded, path = roundtrip(tmp_path, hypergraphs)
    assert ship_arena(loaded) == ("file", str(path))
    # A freshly packed arena has no file to reference: it ships inline.
    assert ship_arena(arena) == ("bytes", encode_arena(arena))
    payload = shard_payload(loaded, 0, AlgorithmConfig(), True)
    assert payload["transport"] == ("file", str(path))
    assert "weights" not in payload
    # The worker entry point maps the container and solves identically.
    shard, encoded, observed, faulted = _solve_shard(payload)
    assert shard == 0 and len(encoded) == len(hypergraphs)
    assert len(observed) == len(hypergraphs) and not faulted
    expected = run_fastpath_batch(hypergraphs, arena=arena)
    from repro.core.parallel import _decode_result

    assert_same_results(
        [_decode_result(wire, 0) for wire in encoded], expected
    )


@needs_numpy
def test_vanished_container_falls_back_to_copy_transport(tmp_path):
    _, loaded, path = roundtrip(tmp_path, random_batch(3))
    path.unlink()
    assert ship_arena(loaded) == ("bytes", encode_arena(loaded))


# ----------------------------------------------------------------------
# Streaming session: the submit_arena door
# ----------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("jobs", [1, 2])
def test_submit_arena_matches_direct_solve(tmp_path, jobs):
    hypergraphs = random_batch(5, base_seed=8)
    _, loaded, _ = roundtrip(tmp_path, hypergraphs)
    expected = run_fastpath_batch(hypergraphs)
    with BatchSession(jobs=jobs) as session:
        tickets = session.submit_arena(loaded)
        results = [ticket.result() for ticket in tickets]
    assert_same_results(results, expected)


@needs_numpy
def test_solve_corpus_through_session(tmp_path):
    hypergraphs, catalog = _packed_corpus(tmp_path, count=6)
    expected = run_fastpath_batch(hypergraphs)
    with BatchSession(jobs=2) as session:
        actual = [
            result
            for segment in solve_corpus(catalog, session=session)
            for result in segment.results
        ]
    assert_same_results(actual, expected)


# ----------------------------------------------------------------------
# CLI: pack / batch --store / serve --store
# ----------------------------------------------------------------------


def _write_instances(directory: Path, count=5):
    from repro.cli import main

    directory.mkdir()
    for seed in range(count):
        assert (
            main(
                [
                    "generate",
                    str(directory / f"g{seed}.hg"),
                    "--vertices",
                    "12",
                    "--edges",
                    "18",
                    "--seed",
                    str(seed),
                ]
            )
            == 0
        )


def test_cli_pack_and_batch_store_agree_with_text_batch(
    tmp_path, capsys
):
    from repro.cli import main

    _write_instances(tmp_path / "in")
    corpus = tmp_path / "corpus"
    assert (
        main(
            [
                "pack",
                str(tmp_path / "in"),
                str(corpus),
                "--segment-size",
                "2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["batch", str(corpus), "--store", "--json"]) == 0
    from_store = json.loads(capsys.readouterr().out)
    assert main(["batch", str(tmp_path / "in"), "--json"]) == 0
    from_text = json.loads(capsys.readouterr().out)
    assert from_store["total_weight"] == from_text["total_weight"]
    assert from_store["count"] == from_text["count"] == 5
    weights_by_id = {
        row["id"]: row["weight"] for row in from_store["instances"]
    }
    for row in from_text["instances"]:
        assert weights_by_id[Path(row["file"]).stem] == row["weight"]


def test_cli_batch_store_skip_corrupt(tmp_path, capsys):
    from repro.cli import main

    _write_instances(tmp_path / "in")
    corpus = tmp_path / "corpus"
    assert (
        main(
            ["pack", str(tmp_path / "in"), str(corpus), "--segment-size", "2"]
        )
        == 0
    )
    victim = sorted(corpus.glob("segment-*.arena"))[1]
    raw = bytearray(victim.read_bytes())
    raw[4097] ^= 0xFF
    victim.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["batch", str(corpus), "--store"]) == 2  # strict: abort
    assert (
        main(["batch", str(corpus), "--store", "--skip-corrupt", "--json"])
        == 2
    )
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["count"] == 3  # 5 instances minus the damaged segment
    assert report["skipped_segments"] == [str(victim)]
    assert "skipped corrupt segment" in captured.err


def test_cli_serve_store_resolves_ids(tmp_path, capsys, monkeypatch):
    import io as _io

    from repro.cli import main

    _write_instances(tmp_path / "in", count=3)
    corpus = tmp_path / "corpus"
    assert main(["pack", str(tmp_path / "in"), str(corpus)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        "sys.stdin", _io.StringIO("g1\ng0\nmissing-id\n")
    )
    code = main(
        ["serve", "--store", str(corpus), "--jobs", "1", "--json"]
    )
    captured = capsys.readouterr()
    assert code == 2  # the unknown id is reported, serving continues
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert [row["file"] for row in rows] == ["g1", "g0"]
    assert "missing-id" in captured.err


@pytest.mark.parametrize(
    "flags",
    [["--jobs", "2"], ["--stream"], ["--stream", "--jobs", "2"]],
)
def test_cli_batch_store_rejects_dispatch_flags(tmp_path, capsys, flags):
    """``batch --store`` solves in-process segment by segment; a flag it
    would silently ignore is an error naming that flag (exit 2)."""
    from repro.cli import main

    _write_instances(tmp_path / "in", count=2)
    corpus = tmp_path / "corpus"
    assert main(["pack", str(tmp_path / "in"), str(corpus)]) == 0
    capsys.readouterr()
    assert main(["batch", str(corpus), "--store", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = [flag for flag in flags if flag.startswith("--")]
    assert any(flag in captured.err for flag in named)
