"""Differential suite: the integer certificate checker against the oracle.

:meth:`ApproximationCertificate.verify` checks the Claim 20 chain in
exact integers over one common denominator.  The reference is the
Fraction chain it replaced — :func:`require_cover`, then
:func:`dual_feasible`, :func:`dual_value` and the ``(f + eps)`` ratio —
rebuilt here as :func:`oracle_verify`.  Every certificate below goes
through both, valid and deliberately corrupted, and the two must agree
exactly: an equal certificate when they accept, the same exception type
and message when they reject.

Certificates come from random instances with int and Fraction weights,
solved on every forced kernel lane, with forced mid-run spills, and on
the lockstep executor.  ``CERT_DIFF_EXAMPLES`` raises the hypothesis
example count (CI's fastpath-gate job); the default keeps tier-1 quick.

The scaled-integer executors hand out their dual as a
:class:`~repro.lp.scaled.ScaledDual`, which the checker reads as
``N_e / L`` directly.  Those duals, and every corruption of their
``(S, D)``, go through three checks: the checker on the ``ScaledDual``,
the checker on ``dict()`` of it, and the oracle.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_module
from repro.core.fastpath import HAS_NUMPY
from repro.core.incremental import solve_state
from repro.core.params import AlgorithmConfig
from repro.core.solver import solve_mwhvc
from repro.exceptions import CertificateError
from repro.hypergraph.generators import mixed_rank_hypergraph, uniform_weights
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.validation import require_cover
from repro.lp.covering_lp import dual_feasible, dual_value, vertex_load
from repro.lp.duality import ApproximationCertificate
from repro.lp.scaled import ScaledDual

from conftest import array_twin, spy_lane_runs

CERT_SETTINGS = settings(
    max_examples=int(os.environ.get("CERT_DIFF_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

LANES = ("int64", "two-limb", "three-limb", "four-limb", "bigint")
SOLVERS = (*LANES, "spill", "lockstep")
#: Solvers whose dual is a ScaledDual; "incremental" is the merge of
#: per-component fragment solves.
SCALED_SOLVERS = (*LANES, "spill", "incremental")

#: Every machine lane's headroom shrunk to this many bits: a run
#: entered at int64 (forced, since the growth-aware ``auto`` entry
#: would skip a lane this tight) that the lane admits trips the budget
#: mid-run and carries its state down the ladder.
SPILL_HEADROOM_BITS = 41


def oracle_verify(hypergraph, cover, delta, rank, epsilon):
    """The Fraction chain the integer checker must match, step for step."""
    epsilon = Fraction(epsilon)
    chosen = require_cover(hypergraph, cover)
    if not dual_feasible(hypergraph, delta):
        raise CertificateError(
            "dual packing is infeasible: some vertex constraint "
            "sum_{e in E(v)} delta(e) <= w(v) is violated"
        )
    cover_weight = Fraction(hypergraph.cover_weight(chosen))
    total = dual_value(delta)
    bound = Fraction(rank) + epsilon
    if hypergraph.num_edges > 0 and cover_weight > bound * total:
        raise CertificateError(
            f"cover weight {cover_weight} exceeds (f+eps) * dual = "
            f"{bound} * {total} = {bound * total}"
        )
    return ApproximationCertificate(
        cover_weight=cover_weight, dual_total=total, ratio_bound=bound
    )


def outcome(check, *args):
    """The certificate ``check`` returns, or its exception's type and text."""
    try:
        return check(*args)
    except Exception as error:  # type and message are what is compared
        return type(error), str(error)


def solve(hypergraph, epsilon, solver):
    """``(cover, dual)`` of one unverified solve on ``solver``."""
    config = AlgorithmConfig(epsilon=epsilon)
    if solver == "lockstep":
        result = solve_mwhvc(
            hypergraph, config=config, executor="lockstep", verify=False
        )
    elif solver == "incremental":
        result = solve_state(hypergraph, config, verify=False).result
    elif solver == "spill":
        with ExitStack() as stack:
            for row in kernels_module.LANE_TABLE.values():
                stack.enter_context(
                    patch.object(row, "headroom_bits", SPILL_HEADROOM_BITS)
                )
            result = solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                lane="int64", verify=False,
            )
    else:
        result = solve_mwhvc(
            hypergraph,
            config=config,
            executor="fastpath",
            lane=solver,
            verify=False,
        )
    return result.cover, result.dual


def rekeyed(delta, old, new):
    """``delta`` with key ``old`` replaced by ``new``, order kept."""
    return {
        (new if key == old else key): value for key, value in delta.items()
    }


def variants(hypergraph, cover, delta, pick):
    """``(name, hypergraph, cover, delta)``: the valid certificate first,
    then every corruption of it; ``pick`` chooses the edge or vertex."""
    common = lcm(*(Fraction(value).denominator for value in delta.values()))
    yield "valid", hypergraph, cover, delta
    yield "reversed-order", hypergraph, cover, dict(reversed(delta.items()))
    edge_ids = list(delta)
    if edge_ids:
        edge = edge_ids[pick % len(edge_ids)]
        raised = {**delta, edge: delta[edge] + Fraction(1, common)}
        yield "raise-one", hypergraph, cover, raised
        yield "negate-one", hypergraph, cover, {**delta, edge: -delta[edge]}
        partial = dict(delta)
        del partial[edge]
        yield "drop-entry", hypergraph, cover, partial
        for name, value in (
            ("inf", float("inf")),
            ("-inf", float("-inf")),
            ("nan", float("nan")),
            ("text", "not a number"),
            ("rational-text", "1/3"),
            ("none", None),
        ):
            yield f"value-{name}", hypergraph, cover, {**delta, edge: value}
        if len(edge_ids) > 1:
            # dual_feasible stops at the first negative value it reads:
            # a malformed value after it is never converted, one before
            # it is rejected as malformed.
            first, last = edge_ids[0], edge_ids[-1]
            yield "negative-then-text", hypergraph, cover, {
                **delta,
                first: Fraction(-1),
                last: "not a number",
            }
            yield "text-then-negative", hypergraph, cover, {
                **delta,
                first: "not a number",
                last: Fraction(-1),
            }
        for name, key in (
            ("text", str(edge)),
            ("float", float(edge)),
            ("negative", -1 - edge),
        ):
            yield f"key-{name}", hypergraph, cover, rekeyed(delta, edge, key)
        if edge in (0, 1):
            bad = rekeyed(delta, edge, bool(edge))
            yield "key-bool", hypergraph, cover, bad
    yield "unknown-edge", hypergraph, cover, {
        **delta,
        hypergraph.num_edges: Fraction(0),
    }
    yield "float-values", hypergraph, cover, {
        key: float(value) for key, value in delta.items()
    }
    yield "int-values", hypergraph, cover, {
        key: int(value) for key, value in delta.items()
    }
    loaded = [
        (vertex, load)
        for vertex in range(hypergraph.num_vertices)
        if (load := vertex_load(hypergraph, delta, vertex)) > 0
    ]
    if loaded:
        vertex, load = loaded[pick % len(loaded)]
        weights = list(hypergraph.weights)
        weights[vertex] = load - Fraction(1, 2 * common)
        yield "lower-weight", hypergraph.reweighted(weights), cover, delta
    if cover:
        members = sorted(cover)
        dropped = set(cover) - {members[pick % len(members)]}
        yield "drop-cover-vertex", hypergraph, dropped, delta


def assert_checkers_agree(hypergraph, cover, delta, epsilon, pick=0):
    """Both checkers on every variant; returns the rejected variants' names."""
    rank = max(1, hypergraph.rank)
    rejected = set()
    for name, graph, chosen, dual in variants(hypergraph, cover, delta, pick):
        args = (graph, chosen, dual, rank, epsilon)
        fast = outcome(ApproximationCertificate.verify, *args)
        reference = outcome(oracle_verify, *args)
        assert fast == reference, f"{name}: {fast!r} != {reference!r}"
        if name == "valid":
            assert isinstance(fast, ApproximationCertificate)
        elif not isinstance(fast, ApproximationCertificate):
            rejected.add(name)
    return rejected


def scaled_variants(hypergraph, cover, dual, pick):
    """``(name, hypergraph, cover, ScaledDual)``: the valid scaled dual
    first, then every corruption of its ``(S, D)``; ``pick`` chooses the
    edge or vertex."""
    scale, numerators = dual.scale, list(dual.numerators)
    yield "valid", hypergraph, cover, dual
    if numerators:
        edge = pick % len(numerators)
        raised = list(numerators)
        raised[edge] += 1
        yield "raise-one", hypergraph, cover, ScaledDual(scale, raised)
        negated = list(numerators)
        negated[edge] = -(negated[edge] or 1)
        yield "negate-one", hypergraph, cover, ScaledDual(scale, negated)
        yield "drop-last", hypergraph, cover, ScaledDual(
            scale, numerators[:-1]
        )
    if scale > 1:
        yield "scale-minus-one", hypergraph, cover, ScaledDual(
            scale - 1, numerators
        )
    yield "extra-entry", hypergraph, cover, ScaledDual(
        scale, [*numerators, 0]
    )
    loaded = [
        (vertex, load)
        for vertex in range(hypergraph.num_vertices)
        if (load := vertex_load(hypergraph, dual, vertex)) > 0
    ]
    if loaded:
        vertex, load = loaded[pick % len(loaded)]
        weights = list(hypergraph.weights)
        weights[vertex] = load - Fraction(1, 2 * scale)
        yield "lower-weight", hypergraph.reweighted(weights), cover, dual
    if cover:
        members = sorted(cover)
        dropped = set(cover) - {members[pick % len(members)]}
        yield "drop-cover-vertex", hypergraph, dropped, dual


def assert_scaled_checks_agree(hypergraph, cover, dual, epsilon, pick=0):
    """The checker on each scaled variant, on ``dict()`` of it, and the
    oracle agree; returns the rejected variants' names."""
    assert isinstance(dual, ScaledDual)
    rank = max(1, hypergraph.rank)
    rejected = set()
    for name, graph, chosen, scaled in scaled_variants(
        hypergraph, cover, dual, pick
    ):
        fast = outcome(
            ApproximationCertificate.verify, graph, chosen, scaled, rank,
            epsilon,
        )
        plain = outcome(
            ApproximationCertificate.verify, graph, chosen, dict(scaled),
            rank, epsilon,
        )
        reference = outcome(oracle_verify, graph, chosen, scaled, rank, epsilon)
        assert fast == plain == reference, (
            f"{name}: {fast!r} / {plain!r} / {reference!r}"
        )
        if name == "valid":
            assert isinstance(fast, ApproximationCertificate)
        elif not isinstance(fast, ApproximationCertificate):
            rejected.add(name)
    return rejected


INT_WEIGHTS = st.integers(min_value=1, max_value=10**4)
#: Beyond int64's and two-limb's headroom: the three-limb regime.
HUGE_WEIGHTS = st.integers(min_value=10**26, max_value=10**27)
FRACTION_WEIGHTS = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=60),
)
WEIGHT_POOLS = st.sampled_from([INT_WEIGHTS, HUGE_WEIGHTS, FRACTION_WEIGHTS])
EPSILONS = st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 7)])


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=0, max_value=14))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        edges.append(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
    pool = draw(WEIGHT_POOLS)
    weights = draw(st.lists(pool, min_size=n, max_size=n))
    return Hypergraph(n, edges, weights)


@pytest.mark.parametrize("solver", SOLVERS)
@CERT_SETTINGS
@given(
    hypergraph=hypergraphs(),
    epsilon=EPSILONS,
    pick=st.integers(min_value=0, max_value=10**6),
)
def test_integer_checker_matches_oracle(solver, hypergraph, epsilon, pick):
    cover, dual = solve(hypergraph, epsilon, solver)
    assert_checkers_agree(hypergraph, cover, dual, epsilon, pick)


@pytest.mark.parametrize("solver", SCALED_SOLVERS)
@CERT_SETTINGS
@given(
    hypergraph=hypergraphs(),
    epsilon=EPSILONS,
    pick=st.integers(min_value=0, max_value=10**6),
)
def test_scaled_dual_checks_match_oracle(solver, hypergraph, epsilon, pick):
    cover, dual = solve(hypergraph, epsilon, solver)
    assert_scaled_checks_agree(hypergraph, cover, dual, epsilon, pick)


def test_midrun_spill_certificate_matches_oracle(monkeypatch):
    """A run that spills mid-run still hands out a dual both accept."""
    hypergraph = mixed_rank_hypergraph(
        20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
    )
    epsilon = Fraction(1, 7)
    config = AlgorithmConfig(epsilon=epsilon)
    runs = spy_lane_runs(monkeypatch)
    with patch.object(
        kernels_module.LANE_TABLE["int64"], "headroom_bits", SPILL_HEADROOM_BITS
    ):
        result = solve_mwhvc(
            hypergraph, config=config, executor="fastpath", lane="int64",
            verify=False,
        )
    if HAS_NUMPY:
        assert runs[0].ops.name == "int64" and runs[0].carries_out
        assert result.lane == "two-limb"
    assert_checkers_agree(hypergraph, result.cover, result.dual, epsilon)
    assert_scaled_checks_agree(
        hypergraph, result.cover, result.dual, epsilon
    )


def test_every_corruption_is_caught_somewhere():
    """The suite is not vacuous: over a few seeded instances each kind of
    corruption that must fail is rejected by both checkers."""
    rejected = set()
    for seed in range(6):
        weights = uniform_weights(14, 60, seed=seed + 20)
        if seed % 2:
            weights = [
                Fraction(weight, 1 + vertex % 4)
                for vertex, weight in enumerate(weights)
            ]
        hypergraph = mixed_rank_hypergraph(
            14, 24, 3, seed=seed, weights=weights
        )
        for solver in ("bigint", "lockstep"):
            cover, dual = solve(hypergraph, Fraction(1, 3), solver)
            for pick in range(3):
                rejected |= assert_checkers_agree(
                    hypergraph, cover, dual, Fraction(1, 3), pick
                )
    assert {
        "raise-one",
        "negate-one",
        "lower-weight",
        "drop-cover-vertex",
        "unknown-edge",
        "value-inf",
        "value-nan",
        "value-text",
        "value-none",
        "negative-then-text",
        "text-then-negative",
        "key-text",
        "key-float",
        "key-negative",
        "key-bool",
    } <= rejected


def test_every_scaled_corruption_is_caught_somewhere():
    """The scaled suite is not vacuous either: over a few seeded
    instances, lane and merged results, each corruption of ``(S, D)``
    that must fail is rejected by all three checks."""
    rejected = set()
    for seed in range(6):
        weights = uniform_weights(14, 60, seed=seed + 20)
        if seed % 2:
            weights = [
                Fraction(weight, 1 + vertex % 4)
                for vertex, weight in enumerate(weights)
            ]
        hypergraph = mixed_rank_hypergraph(
            14, 24, 3, seed=seed, weights=weights
        )
        for solver in ("int64", "bigint", "incremental"):
            cover, dual = solve(hypergraph, Fraction(1, 3), solver)
            for pick in range(3):
                rejected |= assert_scaled_checks_agree(
                    hypergraph, cover, dual, Fraction(1, 3), pick
                )
    assert {
        "raise-one",
        "negate-one",
        "scale-minus-one",
        "extra-entry",
        "lower-weight",
        "drop-cover-vertex",
    } <= rejected


# ----------------------------------------------------------------------
# Array-backed instances
# ----------------------------------------------------------------------


def widened(dual, shift):
    """The same packing over ``S * 2**shift``: numerators ``shift`` bits
    wider."""
    return ScaledDual(
        dual.scale << shift, [numerator << shift for numerator in dual.numerators]
    )


def assert_twin_checks_agree(hypergraph, cover, dual, epsilon, pick=0):
    """Every scaled variant, checked on the array-backed twin of its
    instance (as the ``ScaledDual`` and as ``dict()`` of it), agrees
    with the oracle on the tuple-built instance; returns the rejected
    variants' names."""
    rank = max(1, hypergraph.rank)
    rejected = set()
    for name, graph, chosen, scaled in scaled_variants(
        hypergraph, cover, dual, pick
    ):
        reference = outcome(oracle_verify, graph, chosen, scaled, rank, epsilon)
        for delta in (scaled, dict(scaled)):
            fast = outcome(
                ApproximationCertificate.verify, array_twin(graph), chosen,
                delta, rank, epsilon,
            )
            assert fast == reference, f"{name}: {fast!r} != {reference!r}"
        if not isinstance(reference, ApproximationCertificate):
            rejected.add(name)
    return rejected


@pytest.mark.skipif(not HAS_NUMPY, reason="array-backed instances need numpy")
@pytest.mark.parametrize("shift", (0, 64, 130))
@pytest.mark.parametrize("solver", SCALED_SOLVERS)
@CERT_SETTINGS
@given(
    hypergraph=hypergraphs(),
    epsilon=EPSILONS,
    pick=st.integers(min_value=0, max_value=10**6),
)
def test_scaled_dual_checks_on_array_twin_match_oracle(
    solver, shift, hypergraph, epsilon, pick
):
    """The checker's array scatter: int64, two 32-bit limbs, and the
    byte-split limbs past 2**64 (``shift`` 64 and 130 put every nonzero
    numerator past 2**63 and 2**128)."""
    cover, dual = solve(hypergraph, epsilon, solver)
    assert_twin_checks_agree(hypergraph, cover, widened(dual, shift), epsilon, pick)


@pytest.mark.skipif(not HAS_NUMPY, reason="array-backed instances need numpy")
def test_every_scaled_corruption_is_caught_on_array_twins():
    rejected = set()
    for seed in range(6):
        hypergraph = mixed_rank_hypergraph(
            14, 24, 3, seed=seed, weights=uniform_weights(14, 60, seed=seed + 20)
        )
        for solver in ("int64", "incremental"):
            cover, dual = solve(hypergraph, Fraction(1, 3), solver)
            for pick, shift in zip(range(3), (0, 64, 130)):
                rejected |= assert_twin_checks_agree(
                    hypergraph, cover, widened(dual, shift), Fraction(1, 3), pick
                )
    assert {
        "raise-one",
        "negate-one",
        "scale-minus-one",
        "extra-entry",
        "lower-weight",
        "drop-cover-vertex",
    } <= rejected
