"""Columnar ingest: array-backed instances against their tuple-built twins.

An array-backed :class:`Hypergraph` keeps its edges as ``int64`` CSR
arrays (and its weights as an ``int64`` array when they fit) and builds
the tuple views only when something reads them.  ``.hg`` text of one
final uniform-arity ``e`` block, packed arenas and arena stores all
produce such instances.  Everything here pins that they are the same
instances as the tuple-built ones:

* the parse differential: every generated ``.hg`` text goes through the
  column reader and the line-by-line reference parser, which must give
  ``==`` instances with equal hashes, edges and weights, or the same
  exception type and message (``PARSE_DIFF_EXAMPLES`` raises the
  hypothesis example count);
* the solve differential: an array-backed instance and its tuple-built
  twin give bit-identical results on every forced lane, in batches with
  ``jobs=1`` and ``jobs=2``, through the store and through incremental
  re-solves (``LANE_DIFF_EXAMPLES`` raises the example count);
* the guard: parse, a verified fastpath solve and the JSON encoding
  with the dual never build the tuple edges.
"""

from __future__ import annotations

import io as _io
import os
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_module
import repro.hypergraph.hypergraph as hypergraph_module
from repro.core.corpus import ArenaCatalog, pack_corpus, solve_corpus
from repro.core.fastpath import HAS_NUMPY, LANES
from repro.core.incremental import (
    _components,
    _components_walk,
    resolve_incremental,
    solve_state,
)
from repro.core.params import AlgorithmConfig
from repro.core.solver import solve_mwhvc, solve_mwhvc_batch
from repro.hypergraph import io as hg_io
from repro.hypergraph.csr import arena_hypergraphs, pack_arena, slice_arena
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.mutable import MutableHypergraph
from repro.hypergraph.store import (
    decode_arena,
    encode_arena,
    load_arena,
    save_arena,
)

from conftest import array_twin

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="arrays need numpy")

PARSE_SETTINGS = settings(
    max_examples=int(os.environ.get("PARSE_DIFF_EXAMPLES", "100")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
LANE_SETTINGS = settings(
    max_examples=int(os.environ.get("LANE_DIFF_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Everything a result carries except provenance.
OBSERVABLES = (
    "cover", "weight", "iterations", "rounds", "dual", "dual_total",
    "levels", "stats", "lane", "certificate", "alpha_min", "alpha_max",
)


def is_array_backed(hypergraph: Hypergraph) -> bool:
    """Constructed from arrays, with no tuple edges built yet."""
    return hypergraph._cells is not None and hypergraph._edges is None


def assert_same_results(left, right):
    for attribute in OBSERVABLES:
        assert getattr(left, attribute) == getattr(right, attribute), attribute


def random_instance(rng, n, m, rank, max_weight):
    edges = [tuple(rng.sample(range(n), rank)) for _ in range(m)]
    weights = [rng.randint(1, max_weight) for _ in range(n)]
    return Hypergraph(n, edges, weights)


# ----------------------------------------------------------------------
# The parse differential
# ----------------------------------------------------------------------


def outcome(parse, text):
    """The parsed instance, or the exception's type and message."""
    try:
        return parse(text)
    except Exception as error:  # type and message are what is compared
        return type(error), str(error)


#: Line separators ``str.splitlines`` honours; all but ``\n`` are also
#: plain whitespace to ``str.split``.
SEPARATORS = ["\n", "\n", "\n", "\r\n", "\r", "\x1c", "\x85", " "]
#: Spellings ``int()`` accepts that a byte tokenizer must not misread.
INT_SPELLINGS = [
    lambda value: f"+{value}",
    lambda value: f"0{value}",
    lambda value: "_".join(str(value)) if value >= 10 else str(value),
    lambda value: str(value).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda value: str(value).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    lambda value: f"{value}x",
    lambda value: f"-{value}",
    lambda value: f"{value}.0",
]


@st.composite
def hg_texts(draw):
    """``.hg`` text.  Half the examples are well formed (and mostly in
    the column reader's shape); the rest carry the perturbations a
    whitespace or byte tokenizer gets wrong."""
    noisy = draw(st.booleans())

    def rarely(odds):
        return noisy and draw(st.integers(0, odds)) == 0

    n = draw(st.integers(min_value=0, max_value=8))
    m = draw(st.integers(min_value=0, max_value=6))
    arity = draw(st.integers(min_value=1, max_value=max(1, min(3, n))))
    rows = []
    for _ in range(m):
        size = draw(st.integers(0, 4)) if rarely(5) else arity
        if n and size <= n:
            row = draw(st.permutations(range(n)))[:size]
        else:
            row = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
        rows.append([str(vertex) for vertex in row])
    big = draw(st.sampled_from([2**63 - 1, 2**63, 10**20, 10**40]))
    valid_weights = st.one_of(
        st.integers(1, 50).map(str),
        st.just(str(big)),
        st.sampled_from(["3/2", "4/2", "2/3"]),
    )
    weight_pool = (
        st.one_of(valid_weights, st.sampled_from(["0", "-1", "1/0", "x"]))
        if noisy
        else valid_weights
    )
    weights = draw(st.lists(weight_pool, min_size=n, max_size=n))
    if rarely(4):
        weights = weights + ["1"]  # wrong count
    lines = []
    if not rarely(9):
        declared = m + draw(st.sampled_from([-1, 1])) if rarely(5) else m
        lines.append(["p", "mwhvc", str(n), str(declared)])
    if draw(st.booleans()):
        lines.append(["w", *weights])
    lines.extend(["e", *row] for row in rows)
    # Perturb tokens: signs, leading zeros, underscores, non-ASCII
    # digits, garbage, and ids past int64.
    for line in lines:
        for position in range(1, len(line)):
            if line[position].isdigit() and rarely(15):
                spell = draw(st.sampled_from(INT_SPELLINGS))
                line[position] = spell(int(line[position]))
            elif line[0] == "e" and rarely(40):
                line[position] = str(draw(st.sampled_from([2**63, 10**19, n])))
    if lines and rarely(10):
        lines.insert(draw(st.integers(0, len(lines))), ["e", *rows[0]] if rows else ["x"])
    rendered = [" ".join(line) for line in lines]
    # Comments and blank lines: anywhere when noisy, else before the
    # edge block only.
    header = len(rendered) - len(rows)
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["c comment", "c", "cat e 1 2", "", "   ", "\t", "c e 0 1"]))
        where = len(rendered) if noisy else header
        rendered.insert(draw(st.integers(0, where)), extra)
    separators = SEPARATORS if noisy else ["\n"]
    joined = ""
    for line in rendered:
        if rarely(6):
            line = draw(st.sampled_from([" ", "\t", "  "])) + line
        if draw(st.integers(0, 6)) == 0:
            line = line + draw(st.sampled_from([" ", "\t", "\x1f", "\x0b"]))
        if draw(st.integers(0, 8)) == 0:
            line = line.replace(" ", draw(st.sampled_from(["  ", "\t", " "] + ["\x1c"] * noisy)), 1)
        joined += line + draw(st.sampled_from(separators))
    if draw(st.booleans()):
        joined = joined.rstrip("\n")
    if draw(st.integers(0, 6)) == 0:
        joined += draw(st.sampled_from(["\r\n", "\n\n", " \n", "\u2028"]))
    return joined


def assert_same_parse(text):
    reference = outcome(hg_io._loads_scalar, text)
    parsed = outcome(hg_io.loads, text)
    columnar = hg_io._loads_columnar(text)
    if isinstance(reference, tuple):
        assert columnar is None
        assert parsed == reference
        return
    for candidate in (parsed, columnar):
        if candidate is None:
            continue
        assert isinstance(candidate, Hypergraph)
        assert candidate == reference
        assert hash(candidate) == hash(reference)
        assert candidate.edges == reference.edges
        assert candidate.weights == reference.weights
        assert all(
            type(vertex) is int for edge in candidate.edges for vertex in edge
        )
        assert all(type(weight) in (int, Fraction) for weight in candidate.weights)


@PARSE_SETTINGS
@given(text=hg_texts())
def test_parse_differential(text):
    assert_same_parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "p mwhvc 3 1\ne 0 1\r\n",
        "p mwhvc 3 2\r\ne 0 1\r\ne 1 2\r\n",
        "p mwhvc 3 2\ne 0 1\x1ce 1 2\n",
        "p mwhvc 3 2\ne 0 1\x85e 1 2\n",
        "p mwhvc 3 2\ne 0 1 e 1 2\n",
        "p mwhvc 3 2\ne 0 1\n\ne 1 2\n",
        "p mwhvc 3 2\ne 0 1\nc note\ne 1 2\n",
        "p mwhvc 3 2\ne +1 2\ne 0_1 2\n",
        "p mwhvc 3 1\ne ١ 2\n",
        "p mwhvc 3 1\ne 0 1 2\ne 0 1\n",
        "p mwhvc 3 1\ne 0 9223372036854775808\n",
        "p mwhvc 3 1\ne 00000000000000000000001 2\n",
        "p mwhvc 3 1\nw 1 3/2 2\ne 0 1\n",
        "p mwhvc 3 1\nw 1 100000000000000000000 2\ne 0 1\n",
        "p mwhvc 3 1\ne 0 1\nw 1 2 3\n",
        "p mwhvc 3 2\ne 0 1\n",
        "p mwhvc 3 1\ne 0 0\n",
        "p mwhvc 3 1\ne 0 3\n",
        "p mwhvc 3 1\ne\n",
        "p mwhvc 3 1\ne1 2\n",
        "e 0 1\np mwhvc 3 1\n",
        "p mwhvc x 1\ne 0 1\n",
        "p mwhvc 2 1\ne 0 x\n",
        "p mwhvc 2 1\nw 1 0\ne 0 1\n",
        "p mwhvc 2 1\nw 1\ne 0 1\n",
        "  e 0 1\np mwhvc 3 1\n",
        "p mwhvc 3 1\n  e 0 1\n",
        "p mwhvc 3 1\ne 0 1 \t\n\n\n",
    ],
)
def test_parse_edge_cases(text):
    assert_same_parse(text)


@needs_numpy
def test_canonical_text_is_read_column_wise():
    """``dumps`` output of uniform-arity instances becomes array-backed,
    with ``int64`` weights when they fit and tuple weights otherwise."""
    rng = random.Random(19)
    for max_weight in (1, 10**4, 2**62, 10**30):
        hypergraph = random_instance(rng, 30, 50, 3, max_weight)
        parsed = hg_io.loads(hg_io.dumps(hypergraph))
        assert is_array_backed(parsed)
        assert (parsed.weights_int64() is not None) == (max_weight < 2**63)
        assert parsed == hypergraph and hash(parsed) == hash(hypergraph)
        assert parsed.edges == hypergraph.edges
        assert parsed.weights == hypergraph.weights
    ragged = Hypergraph(4, [(0, 1), (1, 2, 3)])
    assert not is_array_backed(hg_io.loads(hg_io.dumps(ragged)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("p mwhvc x 1\ne 0 1\n", "line 1: malformed vertex count 'x'"),
        ("p mwhvc 2 y\ne 0 1\n", "line 1: malformed edge count 'y'"),
        ("p mwhvc 2 1\ne 0 x\n", "line 2: malformed vertex id 'x'"),
    ],
)
def test_cli_solve_rejects_non_integer_tokens(tmp_path, capsys, text, message):
    from repro.cli import main

    path = tmp_path / "bad.hg"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_cli_serve_survives_non_integer_tokens(tmp_path, capsys, monkeypatch):
    """A malformed file in the stdin stream is reported; the paths after
    it are still solved."""
    from repro.cli import main

    bad_problem = tmp_path / "bad-p.hg"
    bad_problem.write_text("p mwhvc x 1\ne 0 1\n")
    bad_edge = tmp_path / "bad-e.hg"
    bad_edge.write_text("p mwhvc 2 1\ne 0 x\n")
    good = tmp_path / "good.hg"
    hg_io.save(Hypergraph(3, [(0, 1), (1, 2)], [2, 1, 2]), good)
    monkeypatch.setattr(
        "sys.stdin", _io.StringIO(f"{bad_problem}\n{bad_edge}\n{good}\n")
    )
    assert main(["serve", "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert "malformed vertex count 'x'" in captured.err
    assert "malformed vertex id 'x'" in captured.err
    assert f"{good}:" in captured.out


def test_non_utf8_files_raise_typed_errors(tmp_path, capsys, monkeypatch):
    """A file that is not UTF-8 is a bad instance or a bad catalog,
    named with the offset of its first bad byte, never a traceback:
    ``solve`` exits 2 and ``serve`` solves the paths after it."""
    from repro.cli import main
    from repro.exceptions import ArenaStoreError, InvalidInstanceError

    bad = tmp_path / "bad.hg"
    bad.write_bytes(b"p mwhvc 2 1\ne 0 1 \xff\n")
    assert main(["solve", str(bad)]) == 2
    message = f"{bad}: byte 18 is not valid UTF-8"
    assert capsys.readouterr().err.strip() == f"error: {message}"
    good = tmp_path / "good.hg"
    hg_io.save(Hypergraph(3, [(0, 1), (1, 2)], [2, 1, 2]), good)
    monkeypatch.setattr("sys.stdin", _io.StringIO(f"{bad}\n{good}\n"))
    assert main(["serve", "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert f"{good}:" in captured.out
    hif = tmp_path / "bad.json"
    hif.write_bytes(b'{"nodes": [\xfe]}')
    with pytest.raises(InvalidInstanceError, match="byte 11 is not valid"):
        hg_io.load_hif(hif)
    (tmp_path / "manifest.json").write_bytes(b'{"format": "\xff"}')
    with pytest.raises(ArenaStoreError, match="byte 12 is not valid"):
        ArenaCatalog(tmp_path)


# ----------------------------------------------------------------------
# Instance semantics
# ----------------------------------------------------------------------


@needs_numpy
def test_array_backed_instance_behaves_like_its_twin():
    rng = random.Random(5)
    for rank, max_weight in ((3, 40), (2, 10**20)):
        tuple_built = random_instance(rng, 12, 20, rank, max_weight)
        if max_weight > 2**63:
            tuple_built = tuple_built.reweighted(
                [Fraction(w, 3) for w in tuple_built.weights]
            )
        twin = array_twin(tuple_built)
        assert is_array_backed(twin)
        assert twin.num_edges == tuple_built.num_edges
        assert twin.nnz == tuple_built.nnz
        assert twin.rank == tuple_built.rank
        assert twin.max_degree == tuple_built.max_degree
        assert twin.edge(3) == tuple_built.edge(3)
        cover = set(range(0, 12, 2))
        assert twin.uncovered_edges(cover) == tuple_built.uncovered_edges(cover)
        assert twin.is_cover(range(12))
        assert twin.cover_weight(cover) == tuple_built.cover_weight(cover)
        assert repr(twin) == repr(tuple_built)
        assert twin.max_weight == tuple_built.max_weight
        assert twin.weights_all_int == tuple_built.weights_all_int
        # None of the reads above needed the tuple edges.
        assert is_array_backed(twin)
        assert twin.edge(-1) == tuple_built.edge(-1)
        assert twin.uncovered_edges([0.0, -1, 99]) == tuple_built.uncovered_edges(
            [0.0, -1, 99]
        )
        assert twin.incident_edges(1) == tuple_built.incident_edges(1)
        assert hash(twin) == hash(tuple_built)
        assert twin.edges == tuple_built.edges
        assert twin.weights == tuple_built.weights
        for value in (twin, array_twin(tuple_built)):
            restored = pickle.loads(pickle.dumps(value))
            assert restored == tuple_built and hash(restored) == hash(tuple_built)
        assert twin != tuple_built.reweighted([7] * 12)
        assert twin != Hypergraph(12, tuple_built.edges[1:], tuple_built.weights)


@needs_numpy
def test_one_packer_concatenates_instance_arrays():
    """The array branch of ``pack_arena`` packs what the tuple branch
    packs; the kernels keep no packer of their own."""
    assert not hasattr(kernels_module, "fused_pack_arena")
    rng = random.Random(2)
    batch = [random_instance(rng, 9, 12, rank, 30) for rank in (2, 3, 3)]
    batch.append(Hypergraph(2, []))
    batch.append(Hypergraph(4, [(0, 1), (1, 2, 3)], [Fraction(1, 2), 1, 2, 3]))
    scalar = pack_arena(batch)
    assert isinstance(scalar.membership.cells, tuple)
    arrays = pack_arena([array_twin(hypergraph) for hypergraph in batch])
    for name in ("lengths", "starts", "cells"):
        assert getattr(arrays.membership, name).tolist() == list(
            getattr(scalar.membership, name)
        )
    assert arrays.vertex_offset == scalar.vertex_offset
    assert arrays.edge_offset == scalar.edge_offset
    assert arrays.weights == scalar.weights
    assert arena_hypergraphs(arrays) == batch


@needs_numpy
def test_arenas_compare_by_value_whatever_their_slabs(tmp_path):
    """Solving a tuple-built instance caches its arrays, so packing it
    again concatenates arrays; that arena still equals the tuple-packed,
    sliced, serialized and store-loaded arenas of the same instances."""
    rng = random.Random(4)
    batch = [random_instance(rng, 9, 12, 3, 30) for _ in range(3)]
    before = pack_arena(batch)
    assert isinstance(before.membership.cells, tuple)
    for hypergraph in batch:
        solve_mwhvc(hypergraph, Fraction(1, 3), executor="fastpath")
    after = pack_arena(batch)
    assert not isinstance(after.membership.cells, tuple)
    assert after == before and before == after
    assert slice_arena(after, [2, 0]) == pack_arena([batch[2], batch[0]])
    assert decode_arena(encode_arena(after)) == before
    for mmap in (False, True):
        save_arena(after, tmp_path / "after.arena")
        assert load_arena(tmp_path / "after.arena", mmap=mmap) == before
    assert after != pack_arena(batch[:2])


# ----------------------------------------------------------------------
# The solve differential
# ----------------------------------------------------------------------


INT_WEIGHTS = st.integers(min_value=1, max_value=10**4)
HUGE_WEIGHTS = st.integers(min_value=10**17, max_value=10**27)
FRACTION_WEIGHTS = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=60),
)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=0, max_value=16))
    uniform = draw(st.booleans())
    arity = draw(st.integers(min_value=1, max_value=min(4, n)))
    edges = []
    for _ in range(m):
        size = arity if uniform else draw(st.integers(1, min(4, n)))
        edges.append(draw(st.permutations(range(n)))[:size])
    pool = draw(st.sampled_from([INT_WEIGHTS, HUGE_WEIGHTS, FRACTION_WEIGHTS]))
    weights = draw(st.lists(pool, min_size=n, max_size=n))
    return Hypergraph(n, edges, weights)


@needs_numpy
@pytest.mark.parametrize("lane", LANES)
@LANE_SETTINGS
@given(hypergraph=instances(), epsilon=st.sampled_from([Fraction(1), Fraction(1, 7)]))
def test_twin_solves_are_bit_identical(lane, hypergraph, epsilon):
    twin = array_twin(hypergraph)
    reference = solve_mwhvc(
        hypergraph, epsilon, executor="fastpath", lane=lane
    )
    assert_same_results(
        solve_mwhvc(twin, epsilon, executor="fastpath", lane=lane), reference
    )
    # The column reader's instances too, when the text allows them.
    parsed = hg_io.loads(hg_io.dumps(hypergraph))
    assert_same_results(
        solve_mwhvc(parsed, epsilon, executor="fastpath", lane=lane), reference
    )


@needs_numpy
@LANE_SETTINGS
@given(batch=st.lists(instances(), min_size=1, max_size=6))
def test_twin_batches_are_bit_identical(batch):
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    expected = solve_mwhvc_batch(batch, config=config)
    twins = [array_twin(hypergraph) for hypergraph in batch]
    for left, right in zip(solve_mwhvc_batch(twins, config=config), expected):
        assert_same_results(left, right)
    # Mixed: some members array-backed, some tuple-built.
    mixed = [
        twin if position % 2 else hypergraph
        for position, (hypergraph, twin) in enumerate(zip(batch, twins))
    ]
    for left, right in zip(solve_mwhvc_batch(mixed, config=config), expected):
        assert_same_results(left, right)


@needs_numpy
def test_twin_batches_match_across_jobs(monkeypatch):
    """``jobs=2`` shards array-backed instances (their arena packs as
    arrays and serializes for the pool) with the same bits as ``jobs=1``
    on the tuple-built twins, forced spills included."""
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 44)
    rng = random.Random(11)
    batch = [
        random_instance(rng, 10 + size, 18 + size, 3, weight)
        for size, weight in zip(range(8), (9, 10**3, 10**9, 10**15) * 2)
    ]
    config = AlgorithmConfig(epsilon=Fraction(1, 5))
    expected = solve_mwhvc_batch(batch, config=config, jobs=1)
    twins = [hg_io.loads(hg_io.dumps(hypergraph)) for hypergraph in batch]
    assert all(is_array_backed(twin) for twin in twins)
    for jobs in (1, 2):
        results = solve_mwhvc_batch(twins, config=config, jobs=jobs)
        for left, right in zip(results, expected):
            assert_same_results(left, right)


@needs_numpy
def test_store_instances_are_array_backed_and_identical(tmp_path):
    rng = random.Random(4)
    batch = [
        random_instance(rng, 12, 20, 3, weight)
        for weight in (9, 10**6, 10**12, 10**18, 10**30)
    ]
    batch.append(Hypergraph(3, [(0, 1), (1, 2)], [Fraction(1, 2), 2, 3]))
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    pack_corpus(
        [(f"i{index}", hypergraph) for index, hypergraph in enumerate(batch)],
        tmp_path / "corpus",
        segment_instances=3,
        config=config,
    )
    catalog = ArenaCatalog(tmp_path / "corpus")
    loaded = catalog.load_instance("i1")
    assert is_array_backed(loaded) and loaded.weights_int64() is not None
    assert loaded == batch[1]
    results = [
        result
        for segment in solve_corpus(catalog, config=config)
        for result in segment.results
    ]
    for hypergraph, result in zip(batch, results):
        assert_same_results(
            result, solve_mwhvc(hypergraph, config=config, executor="fastpath")
        )
    # An update re-packs array-backed survivors with a tuple-built newcomer.
    replacement = random_instance(rng, 12, 20, 3, 50)
    catalog.update_instance("i0", replacement, config=config)
    assert arena_hypergraphs(catalog.load_segment(0)) == [replacement, *batch[1:3]]
    arena = pack_arena(arena_hypergraphs(catalog.load_segment(1)))
    save_arena(arena, tmp_path / "again.arena")
    assert arena_hypergraphs(load_arena(tmp_path / "again.arena")) == batch[3:6]


@needs_numpy
@LANE_SETTINGS
@given(hypergraph=instances(), seed=st.integers(0, 10**6))
def test_twin_incremental_resolves_are_bit_identical(hypergraph, seed):
    """Warm re-solves from an array-backed base track the ones from its
    tuple-built twin, and both match a from-scratch solve."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    states = [
        solve_state(base, config, version=0)
        for base in (array_twin(hypergraph), hypergraph)
    ]
    assert states[0].result == states[1].result
    stores = [MutableHypergraph(state.snapshot) for state in states]
    rng = random.Random(seed)
    for _ in range(2):
        n = stores[0].num_vertices
        members = rng.sample(range(n), rng.randint(1, min(3, n)))
        removed = (
            rng.randrange(stores[0].num_edges)
            if stores[0].num_edges and rng.random() < 0.5
            else None
        )
        vertex, weight = rng.randrange(n), rng.randint(1, 50)
        for store in stores:
            if removed is not None:
                store.remove_edge(removed)
            store.add_edge(members)
            store.set_weight(vertex, weight)
        states = [
            resolve_incremental(state, store)
            for state, store in zip(states, stores)
        ]
        expected = solve_mwhvc(
            stores[1].snapshot(), config=config, executor="fastpath"
        )
        assert states[0].result == states[1].result == expected


@st.composite
def component_graphs(draw):
    """Graphs with isolated vertices, singleton and repeated edges."""
    n = draw(st.integers(min_value=1, max_value=14))
    edges = [
        draw(st.permutations(range(n)))[: draw(st.integers(1, min(4, n)))]
        for _ in range(draw(st.integers(min_value=0, max_value=12)))
    ]
    edges += draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else []
    return Hypergraph(n, edges, [1] * n)


@needs_numpy
@LANE_SETTINGS
@given(hypergraph=component_graphs())
def test_array_components_match_the_walk(hypergraph):
    """Hook-and-shortcut labelling on the CSR arrays gives the tuple
    walk's components, isolated vertices and order."""
    assert _components(array_twin(hypergraph)) == _components_walk(hypergraph)


@needs_numpy
def test_array_components_on_a_long_shuffled_path():
    """A path of 20 000 shuffled vertices: the labelling must hook
    roots, or it needs one round per step of the path."""
    rng = random.Random(5)
    order = list(range(20_000))
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))
    rng.shuffle(edges)
    hypergraph = Hypergraph(len(order), edges, [1] * len(order))
    components, isolated = _components(array_twin(hypergraph))
    assert (components, isolated) == _components_walk(hypergraph)
    assert len(components) == 1 and not isolated


# ----------------------------------------------------------------------
# The guard: no tuple edges from parse to wire
# ----------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize(
    "max_weight, numerator_bits", [(10**4, 1), (10**9, 60), (10**15, 65)]
)
def test_load_solve_encode_never_builds_tuple_edges(
    tmp_path, monkeypatch, max_weight, numerator_bits
):
    """``load`` -> verified fastpath solve -> ``to_json(include_dual=True)``
    reads only the arrays, also when the certificate's per-vertex sums
    of dual numerators outgrow int64 (two 32-bit limbs) or the
    numerators themselves pass 64 bits (byte-split limbs)."""
    rng = random.Random(max_weight)
    hypergraph = random_instance(rng, 200, 800, 3, max_weight)
    path = tmp_path / "large.hg"
    hg_io.save(hypergraph, path)
    expected = solve_mwhvc(hypergraph, Fraction(1, 3), executor="fastpath")

    def refuse(*args):
        raise AssertionError("the tuple edges were built")

    monkeypatch.setattr(hypergraph_module, "_tuple_rows", refuse)
    loaded = hg_io.load(path)
    result = solve_mwhvc(loaded, Fraction(1, 3), executor="fastpath")
    text = result.to_json(include_dual=True)
    assert is_array_backed(loaded)
    assert result.certificate is not None
    assert text == expected.to_json(include_dual=True)
    assert max(result.dual.numerators).bit_length() >= numerator_bits
