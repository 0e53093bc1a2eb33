"""Seeded inputs for every workload, built only from this directory's code.

Nothing here calls ``repro.hypergraph.generators`` or the ``.hg``
writer: a change to the library must never change what a workload
solves.  Every function here takes the workload seed and returns plain
Python data (``n``, edge lists, integer weights); the workloads turn
that into files, ``Hypergraph`` objects or request lines themselves.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

#: The large solve's slack: the ROADMAP baseline solve.
EPSILON_LARGE = Fraction(1, 3)
#: Slack of every small instance (corpus and serve).  A small slack
#: makes beta's denominator large, so the weight classes below spread
#: the instances over all four kernel lanes.
EPSILON_SMALL = Fraction(1, 200)

#: Vertex-weight classes of the small instances.  On the regular
#: rank-3 degree-6 shapes below, with ``EPSILON_SMALL``, the classes
#: complete on the lane they are named after; a few ``int64``
#: instances outgrow int64 mid-run and finish on the two-limb lane.
WEIGHT_CLASSES = {
    "int64": 10**4,
    "two-limb": 10**10,
    "three-limb": 10**18,
    "bigint": 10**30,
}

#: Sizes.  ``full`` is what the benchmark measures; ``smoke`` is the
#: tiny variant the benchmark's own tests run in seconds.
SIZES = {
    "full": {
        "large_n": 20_000,
        "large_m": 100_000,
        "large_max_weight": 10**4,
        "corpus_n": (60, 120, 240, 480),
        "corpus_copies": 8,
        "segment_instances": 64,
        "pool_n": (60, 120, 240),
        "pool_copies": 8,
        "components": 32,
        "component_n": 20,
        "component_edges": 20,
        "anchor_degree": 24,
    },
    "smoke": {
        "large_n": 600,
        "large_m": 3_000,
        "large_max_weight": 10**4,
        "corpus_n": (12, 24),
        "corpus_copies": 2,
        "segment_instances": 8,
        "pool_n": (12, 24),
        "pool_copies": 1,
        "components": 4,
        "component_n": 8,
        "component_edges": 8,
        "anchor_degree": 12,
    },
}

#: Degree of every vertex in the small regular instances (m = 2n).
REGULAR_DEGREE = 6
RANK = 3


@dataclass
class Instance:
    """One generated instance as plain data."""

    name: str
    n: int
    edges: list[tuple[int, ...]]
    weights: list[int]
    weight_class: str = "int64"


def stream_rng(seed: int, *stream) -> random.Random:
    """An independent generator per (seed, stream) pair."""
    return random.Random(repr((seed,) + stream))


def large_instance(seed: int, size: str) -> Instance:
    """The solve-large instance: uniform random 3-subsets."""
    shape = SIZES[size]
    rng = stream_rng(seed, "large")
    n, m = shape["large_n"], shape["large_m"]
    top = shape["large_max_weight"]
    weights = [rng.randint(1, top) for _ in range(n)]
    vertices = range(n)
    edges = [tuple(sorted(rng.sample(vertices, RANK))) for _ in range(m)]
    return Instance("large", n, edges, weights)


def _regular_edges(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """``REGULAR_DEGREE`` random perfect triple-matchings of ``n`` vertices.

    Every vertex gets the same degree, which keeps the scaled bids'
    denominators small; members of one edge are distinct by
    construction.
    """
    order = list(range(n))
    edges = []
    for _ in range(REGULAR_DEGREE):
        rng.shuffle(order)
        edges.extend(
            tuple(sorted(order[start:start + RANK]))
            for start in range(0, n, RANK)
        )
    return edges


def small_instance(rng: random.Random, name: str, n: int, weight_class: str):
    top = WEIGHT_CLASSES[weight_class]
    edges = _regular_edges(rng, n)
    weights = [rng.randint(1, top) for _ in range(n)]
    return Instance(name, n, edges, weights, weight_class)


def corpus_instances(seed: int, size: str) -> list[Instance]:
    """The corpus: every (n, weight class) cell ``corpus_copies`` times.

    Copies are the outer loop, so each segment of
    ``segment_instances`` holds the same mix of sizes and lanes.
    """
    shape = SIZES[size]
    rng = stream_rng(seed, "corpus")
    return [
        small_instance(rng, f"c{copy}-n{n}-{weight_class}", n, weight_class)
        for copy in range(shape["corpus_copies"])
        for n in shape["corpus_n"]
        for weight_class in WEIGHT_CLASSES
    ]


def pool_instances(seed: int, size: str) -> list[Instance]:
    """serve-mixed's solve pool: every (n, weight class) cell, copied."""
    shape = SIZES[size]
    rng = stream_rng(seed, "pool")
    return [
        small_instance(rng, f"p{copy}-n{n}-{weight_class}", n, weight_class)
        for copy in range(shape["pool_copies"])
        for n in shape["pool_n"]
        for weight_class in WEIGHT_CLASSES
    ]


def reprice(instance: Instance, seed: int, step: int) -> Instance:
    """``instance`` with one vertex re-priced inside its weight class."""
    rng = stream_rng(seed, "reprice", step)
    weights = list(instance.weights)
    weights[rng.randrange(instance.n)] = rng.randint(
        1, WEIGHT_CLASSES[instance.weight_class]
    )
    return Instance(
        instance.name, instance.n, instance.edges, weights,
        instance.weight_class,
    )


def hg_text(instance: Instance) -> str:
    """``instance`` in the ``.hg`` text format."""
    lines = [f"p mwhvc {instance.n} {len(instance.edges)}"]
    lines.append("w " + " ".join(map(str, instance.weights)))
    lines.extend(
        "e " + " ".join(map(str, edge)) for edge in instance.edges
    )
    return "\n".join(lines) + "\n"


def solve_body(instance: Instance) -> bytes:
    """The tail of a ``solve`` request line, after its id.

    Request lines are ``{"op": "solve", "id": ID, <body>}``; the body
    is encoded once during set-up and reused by every request.
    """
    text = json.dumps(
        {"n": instance.n, "edges": instance.edges, "weights": instance.weights},
        separators=(",", ":"),
    )
    return text[1:].encode("utf-8") + b"\n"


# ----------------------------------------------------------------------
# serve-mixed's update bases and their chained updates
# ----------------------------------------------------------------------


@dataclass
class Base:
    """A union of small components plus one anchor star.

    ``component_of`` maps each edge position to its component (the
    anchor is component ``-1``); it is kept in step with ``edges`` so
    an edge swap can find its component's live positions.
    """

    n: int
    edges: list[tuple[int, ...]]
    weights: list[int]
    component_of: list[int]
    blocks: list[range]

    def copy(self) -> "Base":
        return Base(
            self.n, list(self.edges), list(self.weights),
            list(self.component_of), self.blocks,
        )

    def instance(self, name: str) -> Instance:
        return Instance(name, self.n, list(self.edges), list(self.weights))


def update_base(seed: int, size: str, connection: int) -> Base:
    """The instance one connection solves, then updates in a chain.

    The anchor's hub lies on ``anchor_degree`` edges, more than any
    component can ever reach (a component has only
    ``component_edges`` edges), so the global maximum degree is pinned
    and every update stays on the warm incremental path.
    """
    shape = SIZES[size]
    rng = stream_rng(seed, "base", connection)
    size_n, size_m = shape["component_n"], shape["component_edges"]
    edges, component_of, blocks = [], [], []
    for component in range(shape["components"]):
        block = range(component * size_n, (component + 1) * size_n)
        blocks.append(block)
        for _ in range(size_m):
            edges.append(tuple(sorted(rng.sample(block, RANK))))
            component_of.append(component)
    hub = shape["components"] * size_n
    for spoke in range(shape["anchor_degree"]):
        edges.append((hub, hub + 1 + 2 * spoke, hub + 2 + 2 * spoke))
        component_of.append(-1)
    n = hub + 1 + 2 * shape["anchor_degree"]
    top = WEIGHT_CLASSES["int64"]
    weights = [rng.randint(1, top) for _ in range(n)]
    return Base(n, edges, weights, component_of, blocks)


def next_update(rng: random.Random, base: Base) -> dict:
    """One update inside one component, applied to ``base`` in place.

    Returns the request fields: either one vertex re-weighted or one
    edge swapped (removed by its position, a fresh edge appended —
    the server's position semantics).
    """
    component = rng.randrange(len(base.blocks))
    block = base.blocks[component]
    if rng.random() < 0.5:
        vertex = rng.choice(block)
        weight = rng.randint(1, WEIGHT_CLASSES["int64"])
        base.weights[vertex] = weight
        return {"set_weights": [[vertex, weight]]}
    positions = [
        position
        for position, owner in enumerate(base.component_of)
        if owner == component
    ]
    position = rng.choice(positions)
    added = tuple(sorted(rng.sample(block, RANK)))
    del base.edges[position]
    del base.component_of[position]
    base.edges.append(added)
    base.component_of.append(component)
    return {"remove_edges": [position], "add_edges": [list(added)]}


def update_chain(seed: int, base: Base, connection: int):
    """Yield one connection's chained updates, without end.

    Each item is ``(request fields, snapshot after the update)``; the
    snapshot is one mirror object, mutated in place by the next step.
    """
    rng = stream_rng(seed, "updates", connection)
    mirror = base.copy()
    while True:
        yield next_update(rng, mirror), mirror
