"""The TCP serving front end must be invisible in the results.

:mod:`repro.core.server` layers an asyncio newline-delimited-JSON
protocol over :class:`~repro.core.stream.BatchSession`.  Like the
scheduler tests, the contract under test is that *serving* facts —
concurrent clients, pipelining, admission backpressure, worker
crashes, client disconnects, cancellation, deadlines — are never
*result* facts: every ``solve`` response is bit-identical to a solo
``run_fastpath`` of the same instance, and the server always drains
cleanly.

The ``serve-smoke`` CI job runs this file: its headline test boots the
server and drives 8 concurrent clients through a mixed int/Fraction
corpus with one injected worker crash and one mid-request disconnect.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.core.faults import FaultPlan
from repro.core.params import AlgorithmConfig
from repro.core.parallel import shutdown_pool
from repro.core.server import (
    CoverClient,
    CoverServer,
    _percentile,
    instance_payload,
    parse_instance,
)
from repro.core.solver import solve_mwhvc
from repro.exceptions import InvalidInstanceError
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    regular_hypergraph,
    uniform_weights,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.mutable import MutableHypergraph

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: A deliberately expensive instance (~0.5s solo): rational weights
#: whose denominators' lcm exceeds every machine-lane headroom and
#: whose huge numerators make each big-int operation proportionally
#: slow.  Used wherever a test must reliably win a race against its
#: own solve (cancel, deadline, mid-request disconnect).
_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
           151, 157, 163, 167, 173, 179, 181, 191, 193, 197)
SLOW_N = 400
SLOW_BITS = 40_000
SLOW_EPSILON = "1/2000"


def slow_instance(seed: int = 3) -> Hypergraph:
    weights = [
        Fraction((1 << SLOW_BITS) + 7 * i + 1, _PRIMES[i % len(_PRIMES)])
        for i in range(SLOW_N)
    ]
    return regular_hypergraph(SLOW_N, 3, 6, seed=seed, weights=weights)


def small_instance(seed: int, *, fractional: bool = False) -> Hypergraph:
    n = 10 + 2 * (seed % 7)
    if fractional:
        weights = [
            Fraction(3 * i + 2, _PRIMES[i % 5]) for i in range(n)
        ]
    else:
        weights = uniform_weights(n, 40, seed=seed + 77)
    return mixed_rank_hypergraph(
        n, 14 + 3 * (seed % 5), 4, seed=seed, weights=weights
    )


def solo_dict(hypergraph, config, *, include_dual=False) -> dict:
    result = solve_mwhvc(hypergraph, config=config, executor="fastpath")
    data = result.as_dict(include_dual=include_dual)
    data.pop("lane", None)
    data.pop("worker", None)
    return data


def response_dict(response: dict) -> dict:
    assert response["ok"], response
    data = dict(response["result"])
    data.pop("lane", None)
    data.pop("worker", None)
    return data


@pytest.fixture(autouse=True, scope="module")
def _teardown_pool():
    yield
    shutdown_pool()


# ----------------------------------------------------------------------
# Wire format units
# ----------------------------------------------------------------------


def test_instance_payload_roundtrip():
    instances = [
        small_instance(0),
        small_instance(1, fractional=True),
        Hypergraph(2, []),
        Hypergraph(1, [(0,)], weights=[10**40]),
    ]
    for hypergraph in instances:
        assert parse_instance(instance_payload(hypergraph)) == hypergraph
    # The payload is pure JSON (Fractions rendered as strings).
    json.dumps(instance_payload(small_instance(1, fractional=True)))


def test_parse_instance_rejects_malformed_shapes():
    for message in (
        {"n": -1},
        {"n": "4"},
        {"n": True},
        {"n": 3, "edges": "nope"},
        {"n": 3, "edges": [[0, "x"]]},
        {"n": 3, "edges": [[0, 1]], "weights": "heavy"},
        {"n": 3, "edges": [[0, 1]], "weights": [1, 2.5, 1]},
        {"n": 3, "edges": [[0, 1]], "weights": [1, "3/0", 1]},
    ):
        with pytest.raises(InvalidInstanceError):
            parse_instance(message)


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert _percentile(values, 0.50) in (50.0, 51.0)
    assert _percentile(values, 0.95) == 95.0
    assert _percentile(values, 0.99) == 99.0
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 1.0) == 100.0
    assert _percentile([7.0], 0.99) == 7.0


# ----------------------------------------------------------------------
# The serve-smoke headline: 8 concurrent clients + crash + disconnect
# ----------------------------------------------------------------------


def test_serve_smoke_concurrent_clients_crash_and_disconnect():
    """8 pipelining clients, mixed int/Fraction weights, one injected
    worker crash, one mid-request disconnect: every response that is
    read must be bit-identical to solo fastpath, and shutdown must
    drain cleanly."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    per_client = 4
    corpora = [
        [
            small_instance(client * per_client + index,
                           fractional=(client + index) % 3 == 0)
            for index in range(per_client)
        ]
        for client in range(8)
    ]

    fault_plan = FaultPlan(seed=0)

    async def run_client(host, port, client_index):
        client = await CoverClient.connect(host, port)
        try:
            if client_index == 3:
                # The crash injection rides client 3's first request:
                # its dispatch kills the worker, and the retry (or
                # budget-exhausted inline fallback) must answer anyway.
                fault_plan.force_worker("kill")
            responses = await asyncio.gather(*[
                client.solve(hypergraph)
                for hypergraph in corpora[client_index]
            ])
            return [response_dict(response) for response in responses]
        finally:
            await client.close()

    async def run_disconnector(host, port):
        # A ninth client that submits an expensive request and hangs
        # up before the answer: the server must cancel its ticket and
        # keep serving everyone else.
        client = await CoverClient.connect(host, port)
        message = {
            "op": "solve", "id": "gone",
            **instance_payload(slow_instance()),
            "epsilon": SLOW_EPSILON,
        }
        client._writer.write(json.dumps(message).encode() + b"\n")
        await client._writer.drain()
        await asyncio.sleep(0.05)
        await client.close()

    async def main():
        server = CoverServer(
            config=config, jobs=2, max_batch=4, fault_plan=fault_plan
        )
        host, port = await server.start()
        results = await asyncio.gather(
            run_disconnector(host, port),
            *[run_client(host, port, index) for index in range(8)],
        )
        # Clean drain: everything admitted is settled before close.
        await server.shutdown()
        snapshot = server.session.snapshot()
        assert snapshot["unsettled"] == 0
        assert snapshot["buffered"] == 0
        assert snapshot["inflight"] == 0
        assert not snapshot["open"]
        return results[1:], dict(server.session.stats)

    all_responses, stats = asyncio.run(main())
    assert stats["crashes"] >= 1, stats
    for client_index, responses in enumerate(all_responses):
        for index, response in enumerate(responses):
            assert response == solo_dict(
                corpora[client_index][index], config
            ), f"client {client_index} response {index} drifted"


# ----------------------------------------------------------------------
# Per-request control: cancel, deadline, backpressure
# ----------------------------------------------------------------------


def test_cancel_verb_withdraws_inflight_request():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    small = small_instance(5)

    async def main():
        server = CoverServer(config=config, jobs=2, max_batch=2)
        host, port = await server.start()
        client = await CoverClient.connect(host, port)
        try:
            solve_task = asyncio.create_task(
                client.solve(
                    slow_instance(), epsilon=SLOW_EPSILON,
                    request_id="victim",
                )
            )
            await asyncio.sleep(0.05)  # the request is admitted by now
            ack = await client.cancel("victim")
            response = await solve_task
            assert ack["ok"] and ack["cancelled"] is True, ack
            assert not response["ok"] and response["kind"] == "cancelled", (
                response
            )
            # Cancelling an unknown (or already-answered) id is a no-op.
            ack = await client.cancel("victim")
            assert ack["cancelled"] is False
            # The session is not poisoned: the next request is exact.
            follow_up = await client.solve(small)
            assert response_dict(follow_up) == solo_dict(small, config)
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(main())


def test_deadline_surfaces_timeout_response():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    small = small_instance(6)

    async def main():
        server = CoverServer(config=config, jobs=2, max_batch=2)
        host, port = await server.start()
        client = await CoverClient.connect(host, port)
        try:
            response = await client.solve(
                slow_instance(), epsilon=SLOW_EPSILON, deadline=0.05
            )
            assert not response["ok"], response
            assert response["kind"] == "timeout", response
            follow_up = await client.solve(small)
            assert response_dict(follow_up) == solo_dict(small, config)
            stats = await client.stats()
            assert stats["session"]["stats"]["timeouts"] == 1
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(main())


def test_bounded_admission_backpressure_stays_exact():
    """``max_pending=2`` with a 12-request pipeline burst: admission
    throttles the socket instead of the scheduler, and every response
    is still exact."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    corpus = [small_instance(seed) for seed in range(12)]

    async def main():
        server = CoverServer(
            config=config, jobs=2, max_batch=2, max_pending=2
        )
        host, port = await server.start()
        client = await CoverClient.connect(host, port)
        try:
            responses = await asyncio.gather(*[
                client.solve(hypergraph) for hypergraph in corpus
            ])
            return [response_dict(response) for response in responses]
        finally:
            await client.close()
            await server.shutdown()

    responses = asyncio.run(main())
    for hypergraph, response in zip(corpus, responses):
        assert response == solo_dict(hypergraph, config)


def test_per_request_epsilon_and_dual_payload():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    instance = small_instance(7, fractional=True)

    async def main():
        server = CoverServer(config=config, jobs=2)
        host, port = await server.start()
        client = await CoverClient.connect(host, port)
        try:
            loose = await client.solve(instance)  # server default eps=1/3
            sharp = await client.solve(
                instance, epsilon="1/7", include_dual=True
            )
            return loose, sharp
        finally:
            await client.close()
            await server.shutdown()

    loose, sharp = asyncio.run(main())
    assert response_dict(loose) == solo_dict(instance, config)
    sharp_config = AlgorithmConfig(epsilon=Fraction(1, 7))
    assert response_dict(sharp) == solo_dict(
        instance, sharp_config, include_dual=True
    )
    assert "dual" in sharp["result"]


# ----------------------------------------------------------------------
# Protocol errors and stats
# ----------------------------------------------------------------------


def test_protocol_errors_keep_the_connection_serving():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    instance = small_instance(9)

    async def main():
        server = CoverServer(config=config, jobs=2)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            checks = []
            for line in (
                b"this is not json",
                b'["not", "an", "object"]',
                json.dumps({"op": "mystery", "id": 1}).encode(),
                json.dumps({"op": "solve", "id": 2, "n": 2,
                            "edges": [[0, 5]]}).encode(),
                json.dumps({"op": "solve", "id": 3, "n": 2,
                            "edges": [[0, 1]],
                            "epsilon": "7/2"}).encode(),
                json.dumps({"op": "solve", "id": 4, "n": 2,
                            "edges": [[0, 1]],
                            "deadline": -1}).encode(),
                # NaN would pass a bare `<= 0` check (refused at JSON
                # parse) and a 1e400 literal parses to inf (refused by
                # the isfinite validation): both are bad requests.
                b'{"op": "solve", "id": 5, "n": 2, "edges": [[0, 1]],'
                b' "deadline": NaN}',
                b'{"op": "solve", "id": 6, "n": 2, "edges": [[0, 1]],'
                b' "deadline": 1e400}',
                # Valid JSON but unhashable ids (would blow up the
                # request registries after admission).
                json.dumps({"op": "solve", "id": [1, 2], "n": 2,
                            "edges": [[0, 1]]}).encode(),
                json.dumps({"op": "cancel", "id": {"a": 1}}).encode(),
            ):
                writer.write(line + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                checks.append(response)
            # After ten bad requests the connection still solves.
            writer.write(
                json.dumps(
                    {"op": "solve", "id": "good",
                     **instance_payload(instance)}
                ).encode() + b"\n"
            )
            await writer.drain()
            good = json.loads(await reader.readline())
            return checks, good
        finally:
            writer.close()
            await writer.wait_closed()
            await server.shutdown()

    checks, good = asyncio.run(main())
    for response in checks:
        assert response["ok"] is False
        assert response["kind"] == "bad-request", response
    assert response_dict(good) == solo_dict(instance, config)


def test_unhashable_id_never_leaks_an_admission_slot():
    """Regression: a list-typed ``id`` is valid JSON but unhashable —
    it must be refused *before* the admission slot is acquired.  With
    ``max_pending=1``, a single leak would deadlock all admission, so
    three attempts followed by a served solve pin the fix."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    instance = small_instance(13)

    async def main():
        server = CoverServer(config=config, jobs=2, max_pending=1)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            bad = {"op": "solve", "id": [1, 2],
                   **instance_payload(instance)}
            for _ in range(3):
                writer.write(json.dumps(bad).encode() + b"\n")
                await writer.drain()
                response = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=60)
                )
                assert response["ok"] is False
                assert response["kind"] == "bad-request", response
            writer.write(
                json.dumps(
                    {"op": "solve", "id": "good",
                     **instance_payload(instance)}
                ).encode() + b"\n"
            )
            await writer.drain()
            return json.loads(
                await asyncio.wait_for(reader.readline(), timeout=60)
            )
        finally:
            writer.close()
            await writer.wait_closed()
            await server.shutdown()

    good = asyncio.run(main())
    assert response_dict(good) == solo_dict(instance, config)


def test_half_close_after_pipelining_reads_every_response():
    """A client may pipeline its solves and shut down its write side
    (clean EOF, the common NDJSON pattern) before reading anything:
    the server must flush every admitted response and only then close,
    rather than treating the EOF as a disconnect and cancelling."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    corpus = [
        small_instance(seed, fractional=seed % 2 == 1) for seed in range(6)
    ]

    async def main():
        server = CoverServer(config=config, jobs=2, max_batch=2)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for index, hypergraph in enumerate(corpus):
                writer.write(
                    json.dumps(
                        {"op": "solve", "id": index,
                         **instance_payload(hypergraph)}
                    ).encode() + b"\n"
                )
            await writer.drain()
            writer.write_eof()  # done sending; still reading
            responses = {}
            while len(responses) < len(corpus):
                line = await asyncio.wait_for(reader.readline(), timeout=120)
                assert line, "server closed before flushing all responses"
                message = json.loads(line)
                responses[message["id"]] = message
            # ... and only after the last response, a clean close.
            assert await asyncio.wait_for(reader.readline(), timeout=60) == b""
            return responses
        finally:
            writer.close()
            await writer.wait_closed()
            await server.shutdown()

    responses = asyncio.run(main())
    for index, hypergraph in enumerate(corpus):
        assert response_dict(responses[index]) == solo_dict(
            hypergraph, config
        ), f"response {index} drifted"


def test_decimal_guard_lift_is_bounded_and_monotonic():
    """The wire layer raises the int<->str digit guard to the line
    bound — never to unlimited, and never down from a wider setting —
    so embedding applications keep a finite interpreter-wide guard."""
    from repro.core.server import _DIGIT_LIMIT, _lift_decimal_guard

    original = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        _lift_decimal_guard()
        assert sys.get_int_max_str_digits() == _DIGIT_LIMIT
        sys.set_int_max_str_digits(0)  # unlimited stays unlimited
        _lift_decimal_guard()
        assert sys.get_int_max_str_digits() == 0
        sys.set_int_max_str_digits(2 * _DIGIT_LIMIT)  # wider stays wider
        _lift_decimal_guard()
        assert sys.get_int_max_str_digits() == 2 * _DIGIT_LIMIT
    finally:
        sys.set_int_max_str_digits(original)


def test_stats_verb_reports_queue_and_latency():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    corpus = [small_instance(seed) for seed in range(5)]

    async def main():
        server = CoverServer(config=config, jobs=2, max_batch=2)
        host, port = await server.start()
        client = await CoverClient.connect(host, port)
        try:
            assert (await client.ping())["ok"]
            for hypergraph in corpus:
                assert (await client.solve(hypergraph))["ok"]
            return await client.stats()
        finally:
            await client.close()
            await server.shutdown()

    stats = asyncio.run(main())
    assert stats["ok"]
    assert stats["latency"]["count"] == len(corpus)
    assert 0 < stats["latency"]["p50_ms"] <= stats["latency"]["p99_ms"]
    session = stats["session"]
    assert session["stats"]["shards"] >= 1
    assert session["unsettled"] == 0
    assert len(session["pending_shards"]) == session["jobs"] == 2
    assert stats["server"]["responses"] >= len(corpus)
    assert sum(stats["lanes"].values()) == len(corpus)


# ----------------------------------------------------------------------
# CLI entry point: repro-cover serve --tcp
# ----------------------------------------------------------------------


def test_cli_serve_tcp_boots_serves_and_drains_on_sigint(tmp_path):
    """End to end through the console entry point: boot ``serve --tcp``
    as a real process, solve over a raw socket, SIGINT, clean exit."""
    if not hasattr(signal, "SIGINT") or os.name == "nt":
        pytest.skip("POSIX signal semantics required")
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    instance = small_instance(11, fractional=True)
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH")
        else ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli",
            "serve", "--tcp", "127.0.0.1:0", "--jobs", "2",
            "--epsilon", "1/3",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=environment,
    )
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving on "), banner
        port = int(banner.rpartition(":")[2])
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.sendall(
                json.dumps(
                    {"op": "solve", "id": 1, **instance_payload(instance)}
                ).encode() + b"\n"
            )
            # Half-close, then demand the server's FIN.  This request
            # forked the worker pool while this very socket was open,
            # so pool workers hold an inherited copy of its fd — the
            # close must still reach the client (the server shuts the
            # TCP stream down explicitly, it does not just drop fds).
            sock.shutdown(socket.SHUT_WR)
            stream = sock.makefile("r", encoding="utf-8")
            response = json.loads(stream.readline())
            assert stream.readline() == "", "no FIN after half-close"
        assert response_dict(response) == solo_dict(instance, config)
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        assert "draining" in stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=30)


def test_cli_serve_tcp_rejects_bad_addresses():
    from repro.cli import main

    assert main(["serve", "--tcp", "no-port-here"]) == 2
    assert main(["serve", "--tcp", "127.0.0.1:notaport"]) == 2
    assert main(["serve", "--tcp", "127.0.0.1:70000"]) == 2


# ----------------------------------------------------------------------
# Dynamic hypergraphs over the wire: update / delete_edge
# ----------------------------------------------------------------------


def components_instance(seed: int) -> Hypergraph:
    """Three disjoint 8-vertex components with a rank-3 anchor each."""
    import random as random_module

    rng = random_module.Random(seed)
    edges = []
    for block in range(3):
        lo = 8 * block
        edges.append((lo, lo + 1, lo + 2))
        for _ in range(4):
            size = rng.randint(2, 3)
            edges.append(tuple(sorted(rng.sample(range(lo, lo + 8), size))))
    return Hypergraph(
        24, edges, weights=[rng.randint(1, 40) for _ in range(24)]
    )


def test_update_verbs_chain_and_stay_exact():
    """solve -> update (cold bootstrap) -> update (warm) -> delete_edge:
    every response is bit-identical to solving the mutated snapshot
    from scratch, and warm/invalidated report honestly."""
    config = AlgorithmConfig(epsilon=Fraction(1, 2))
    base = components_instance(41)

    async def main():
        server = CoverServer(config=config, jobs=2)
        host, port = await server.start()
        client = await CoverClient.connect(host, port)
        try:
            solved = await client.solve(base, request_id="s0")
            assert response_dict(solved) == solo_dict(base, config)

            store = MutableHypergraph(base)
            store.remove_edge(1)
            store.add_edge((0, 3))
            first = await client.update(
                "s0", remove_edges=[1], add_edges=[(0, 3)],
                request_id="u1",
            )
            snapshot1 = store.snapshot()
            body = response_dict(first)
            assert body.pop("warm") is False  # plain solves keep no state
            assert body.pop("invalidated") == snapshot1.num_edges
            assert body == solo_dict(snapshot1, config)

            chain = MutableHypergraph(snapshot1)
            position = next(
                index
                for index in range(snapshot1.num_edges)
                if max(snapshot1.edge(index)) < 8
                and len(snapshot1.edge(index)) < 3
            )
            chain.remove_edge(position)
            chain.add_edge((1, 5))
            chain.set_weight(4, Fraction(9, 2))
            second = await client.update(
                "u1",
                remove_edges=[position],
                add_edges=[(1, 5)],
                set_weights=[(4, Fraction(9, 2))],
                request_id="u2",
            )
            snapshot2 = chain.snapshot()
            body = response_dict(second)
            assert body.pop("warm") is True  # chained on u1's state
            assert 0 < body.pop("invalidated") < snapshot2.num_edges
            assert body == solo_dict(snapshot2, config)

            final = MutableHypergraph(snapshot2)
            final.remove_edge(0)
            deleted = await client.delete_edge("u2", 0, request_id="d0")
            body = response_dict(deleted)
            body.pop("warm")
            body.pop("invalidated")
            assert body == solo_dict(final.snapshot(), config)

            stats = await client.stats()
            assert stats["server"]["updates"] == 3
            assert stats["server"]["warm_updates"] >= 1
            assert stats["session"]["resident_states"] == 3
            assert "cost_model" in stats["session"]
            exported = stats["session"]["cost_model"]
            assert exported["observations"] >= 1
            assert all(
                entry["samples"] >= 1
                for entry in exported["rates"].values()
            )
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(main())


def test_update_verb_rejects_bad_requests():
    config = AlgorithmConfig(epsilon=Fraction(1, 2))
    base = components_instance(43)

    async def main():
        server = CoverServer(config=config, jobs=2)
        host, port = await server.start()
        client = await CoverClient.connect(host, port)
        try:
            await client.solve(base, request_id="s0")
            # Unknown base id.
            response = await client.update("ghost", remove_edges=[0])
            assert not response["ok"], response
            assert response["kind"] == "bad-request"
            # Malformed delta shapes.
            for message in (
                {"op": "update", "id": "b1", "base": "s0",
                 "add_edges": [[0, "x"]]},
                {"op": "update", "id": "b2", "base": "s0",
                 "remove_edges": [1.5]},
                {"op": "update", "id": "b3", "base": "s0",
                 "set_weights": [[0]]},
                {"op": "update", "id": "b4", "base": "s0",
                 "threshold": -1},
                {"op": "delete_edge", "id": "b5", "base": "s0"},
            ):
                response = await client.request(message)
                assert not response["ok"], (message, response)
                assert response["kind"] == "bad-request", response
            # Semantically invalid (position out of range): a
            # solver-level error, and the connection keeps serving.
            response = await client.delete_edge("s0", 10_000)
            assert not response["ok"] and response["kind"] == "error"
            follow_up = await client.solve(base)
            assert response_dict(follow_up) == solo_dict(base, config)
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Per-client fairness
# ----------------------------------------------------------------------


def test_per_client_quota_prevents_starvation():
    """A greedy pipeliner saturating the server must not starve a
    second client: the per-client quota caps the greedy connection at
    one slot, so the fair client's request is admitted and answered
    while the greedy backlog is still running."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    small = small_instance(9)

    async def main():
        server = CoverServer(
            config=config, jobs=2, max_batch=1,
            max_pending=2, per_client_pending=1,
        )
        host, port = await server.start()
        greedy = await CoverClient.connect(host, port)
        fair = await CoverClient.connect(host, port)
        try:
            burst = [
                asyncio.create_task(
                    greedy.solve(
                        slow_instance(seed), epsilon=SLOW_EPSILON,
                        request_id=f"g{seed}",
                    )
                )
                for seed in range(3)
            ]
            await asyncio.sleep(0.2)  # greedy now holds its one slot
            response = await fair.solve(small, request_id="fair")
            still_running = sum(not task.done() for task in burst)
            burst_responses = await asyncio.gather(*burst)
            stats = await greedy.stats()
            return response, still_running, burst_responses, stats
        finally:
            await greedy.close()
            await fair.close()
            await server.shutdown()

    response, still_running, burst_responses, stats = asyncio.run(main())
    # The fair client was answered exactly while greedy work remained.
    assert response_dict(response) == solo_dict(small, config)
    assert still_running >= 1
    # The greedy client's burst still completes exactly (throttled,
    # never dropped).
    for seed, burst_response in enumerate(burst_responses):
        assert burst_response["ok"], burst_response
    assert stats["server"]["per_client_pending"] == 1


# ----------------------------------------------------------------------
# include_dual is a JSON boolean
# ----------------------------------------------------------------------


def test_include_dual_accepts_only_json_booleans():
    """Absent or ``false`` sends no dual and ``true`` sends it; any
    other value (a string, a list, a number, ``null``) is a bad request
    naming the field, on ``solve`` and ``update`` alike."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    instance = small_instance(5)
    payload = instance_payload(instance)

    async def main():
        server = CoverServer(config=config, jobs=2)
        host, port = await server.start()
        client = await CoverClient.connect(host, port)
        try:
            answers = {}
            for label, extra in (
                ("absent", {}),
                ("false", {"include_dual": False}),
                ("true", {"include_dual": True}),
            ):
                answers[label] = await client.request(
                    {"op": "solve", "id": label, **payload, **extra}
                )
            bad = []
            for index, value in enumerate(
                ("false", "true", [1], 1, 0, None, {})
            ):
                bad.append(
                    await client.request(
                        {"op": "solve", "id": f"bad{index}", **payload,
                         "include_dual": value}
                    )
                )
            bad.append(
                await client.request(
                    {"op": "update", "id": "bad-update", "base": "absent",
                     "remove_edges": [0], "include_dual": "false"}
                )
            )
            return answers, bad
        finally:
            await client.close()
            await server.shutdown()

    answers, bad = asyncio.run(main())
    assert response_dict(answers["absent"]) == solo_dict(instance, config)
    assert response_dict(answers["false"]) == solo_dict(instance, config)
    assert response_dict(answers["true"]) == solo_dict(
        instance, config, include_dual=True
    )
    assert "dual" in answers["true"]["result"]
    for response in bad:
        assert response["ok"] is False, response
        assert response["kind"] == "bad-request", response
        assert "'include_dual'" in response["error"], response
