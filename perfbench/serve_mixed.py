"""serve-mixed: ``repro-cover serve --tcp`` under solves and chained updates.

The server runs in a subprocess with its default settings
(``--jobs 0``: one worker per core) and ``--epsilon 1/200``.  The load
is a closed loop from one asyncio process over two connections.  Each
connection keeps four pipelined solves in flight, drawn from a pool of
small instances encoded during set-up (n in {60, 120, 240}, the
corpus-mixed weight classes), plus one chained update: each update
re-weights one vertex or swaps one edge inside one component of the
32-component instance that connection solved during set-up.  An
anchor component pins the maximum degree, so every timed update stays
warm.  This is the only workload that runs admission, micro-batching,
stealing, shared-memory transport, supervision and incremental
updates; updates, which write resident state, run beside fresh solves,
which only read.

Everything is measured from outside the server: client-observed
latency, each response's ``latency_ms``, one ``stats`` verb after the
window, and per-process CPU and peak RSS from ``/proc``.  Latency and
throughput use wall time, because waiting is what they measure; the
CPU per response is their steal-immune companion.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import host
import inputs
from outcome import Outcome, p90

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
CONNECTIONS = 2
SOLVES_IN_FLIGHT = 4
#: Chained updates encoded per connection and second of the window:
#: more than the server can answer, so the chain never runs dry.
UPDATES_PER_SECOND = 25
#: ``peak_rss_mib`` is read when the window has this many responses
#: per second of its length (the whole window if it has fewer).  The
#: server keeps every request of a connection as a possible update
#: base, so its RSS grows with the responses served; read at a fixed
#: count, it does not follow throughput.  Ten runs under 0.1-39 %
#: steal answered at least 32 per second.
RSS_RESPONSES_PER_SECOND = 24
#: Bound on any single wait (server start, one response, shutdown).
WAIT_S = 60.0
READ_LIMIT = 1 << 24


class Server:
    """The ``repro-cover serve --tcp 127.0.0.1:0`` subprocess."""

    def __init__(self, workdir: Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
        self.log = open(workdir / "server.log", "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--tcp", "127.0.0.1:0", "--epsilon", str(inputs.EPSILON_SMALL),
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], WAIT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start (got {line!r})")
        address = line.split()[-1]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Drain and stop the server, then wait for every process it ran."""
        tree = [self.pid] + host.descendants(self.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=WAIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.pid, signal.SIGKILL)
            self.process.wait()
        deadline = time.monotonic() + WAIT_S
        for pid in tree[1:]:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.05)
        self.process.stdout.close()
        self.log.close()


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return state[state.rindex(")") + 2] != "Z"


class Connection:
    """One NDJSON connection; responses are matched by ``(op, id)``."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.pending: dict[tuple, asyncio.Future] = {}
        self.ids = itertools.count()
        self.listener = asyncio.create_task(self._listen())

    @classmethod
    async def open(cls, server: Server) -> "Connection":
        reader, writer = await asyncio.open_connection(
            server.host, server.port, limit=READ_LIMIT
        )
        return cls(reader, writer)

    async def _listen(self) -> None:
        while line := await self.reader.readline():
            message = json.loads(line)
            future = self.pending.pop((message.get("op"), message.get("id")), None)
            if future is not None and not future.done():
                future.set_result((message, host.wall()))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    async def request(self, key: tuple, line: bytes):
        """Send one encoded line; returns (response, wall time received)."""
        future = asyncio.get_running_loop().create_future()
        self.pending[key] = future
        self.writer.write(line)
        return await asyncio.wait_for(future, WAIT_S)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
            await self.listener
        except (ConnectionError, OSError):
            pass


def _line(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def _solve_line(request_id: str, body: bytes) -> bytes:
    return b'{"op":"solve","id":"' + request_id.encode() + b'",' + body


class Setup:
    """Everything one set-up builds: inputs, lines, server, connections."""

    def __init__(self, seed: int, size: str, seconds: float):
        self.seed = seed
        self.pool = inputs.pool_instances(seed, size)
        self.bodies = [inputs.solve_body(instance) for instance in self.pool]
        self.bases = [
            inputs.update_base(seed, size, connection)
            for connection in range(CONNECTIONS)
        ]
        count = max(64, int(seconds * UPDATES_PER_SECOND))
        self.chains = []
        for connection, base in enumerate(self.bases):
            chain = inputs.update_chain(seed, base, connection)
            self.chains.append([
                _line({
                    "op": "update", "id": f"u{step}",
                    "base": f"u{step - 1}" if step else "base", **fields,
                })
                for step, (fields, _) in zip(range(count), chain)
            ])
        self.base_lines = [
            _solve_line("base", inputs.solve_body(base.instance("base")))
            for base in self.bases
        ]
        self.server = None
        self.connections = []
        self.responses = {}

    async def start(self, workdir: Path) -> None:
        """Server start, pool warm-up, base solves and the cold update."""
        self.server = Server(workdir)
        self.connections = [
            await Connection.open(self.server) for _ in range(CONNECTIONS)
        ]
        warm_up = [
            connection.request(
                ("solve", f"w{slot}"),
                _solve_line(f"w{slot}", self.bodies[slot % len(self.bodies)]),
            )
            for connection in self.connections
            for slot in range(SOLVES_IN_FLIGHT)
        ]
        for message, _ in await asyncio.gather(*warm_up):
            _require_ok(message)
        for connection, base_line, chain in zip(
            self.connections, self.base_lines, self.chains
        ):
            base, _ = await connection.request(("solve", "base"), base_line)
            cold, _ = await connection.request(("update", "u0"), chain[0])
            _require_ok(base)
            _require_ok(cold)
            self.responses.setdefault("base", []).append(base)
            self.responses.setdefault("cold", []).append(cold)

    async def stop(self) -> None:
        for connection in self.connections:
            await connection.close()
        if self.server is not None:
            self.server.stop()


def _require_ok(message: dict) -> None:
    if not message.get("ok"):
        raise RuntimeError(f"set-up request failed: {message}")


async def _stats(connection: Connection) -> dict:
    message, _ = await connection.request(
        ("stats", "stats"), _line({"op": "stats", "id": "stats"})
    )
    return message


async def _window(setup: Setup, seconds: float):
    """The timed closed loop; returns records and the /proc readings."""
    server_pid = setup.server.pid
    workers = host.descendants(server_pid)
    pids = [server_pid] + workers
    records = []
    readings = {}
    rss_at = int(seconds * RSS_RESPONSES_PER_SECOND)

    def peak_mib() -> float:
        return sum(host.peak_rss_mib(pid) for pid in pids)

    def record(entry) -> None:
        records.append(entry)
        if len(records) == rss_at and "peak_mib" not in readings:
            readings["peak_mib"] = peak_mib()

    async def solves(connection, rng, deadline):
        while host.wall() < deadline:
            index = rng.randrange(len(setup.bodies))
            request_id = f"s{next(connection.ids)}"
            sent = host.wall()
            message, received = await connection.request(
                ("solve", request_id), _solve_line(request_id, setup.bodies[index])
            )
            record(("solve", index, sent, received, message))

    async def updates(connection, chain, number, deadline):
        for step in range(1, len(chain)):
            if host.wall() >= deadline:
                return
            sent = host.wall()
            message, received = await connection.request(
                ("update", f"u{step}"), chain[step]
            )
            record(("update", (number, step), sent, received, message))
        raise RuntimeError("the update chain ran dry inside the window")

    async def meter(deadline):
        await asyncio.sleep(max(0.0, deadline - host.wall()))
        readings["cpu_after"] = {pid: host.process_cpu(pid) for pid in pids}
        readings["window_peak_mib"] = peak_mib()
        readings.setdefault("peak_mib", readings["window_peak_mib"])
        readings["steal_after"] = host.steal_counters()

    for pid in pids:
        host.reset_peak_rss(pid)
    readings["steal_before"] = host.steal_counters()
    readings["cpu_before"] = {pid: host.process_cpu(pid) for pid in pids}
    start = host.wall()
    deadline = start + seconds
    tasks = [asyncio.create_task(meter(deadline))]
    for number, connection in enumerate(setup.connections):
        rng = inputs.stream_rng(setup.seed, "draws", number)
        tasks.extend(
            asyncio.create_task(solves(connection, rng, deadline))
            for _ in range(SOLVES_IN_FLIGHT)
        )
        tasks.append(
            asyncio.create_task(
                updates(connection, setup.chains[number], number, deadline)
            )
        )
    await asyncio.gather(*tasks)
    readings.update(start=start, deadline=deadline, server=server_pid, workers=workers)
    return records, readings


async def _measure(seed, size, seconds, workdir):
    """Set up three times, then run the window on the last set-up.

    Set-up is timed in CPU, the client's plus every server process's:
    wall time here mostly measured steal, which reached 11-29 % of the
    host's time while the server kept both cores busy (ten runs read
    1.75-2.73 s of set-up wall).
    """
    setup_cpu, setup_wall = [], []
    for repeat in range(SETUP_REPEATS):
        cpu0, wall0 = host.cpu(), host.wall()
        setup = Setup(seed, size, seconds)
        try:
            await setup.start(workdir)
            server = setup.server.pid
            setup_cpu.append(host.cpu() - cpu0 + sum(
                host.process_cpu(pid) for pid in [server] + host.descendants(server)
            ))
            setup_wall.append(host.wall() - wall0)
            if repeat < SETUP_REPEATS - 1:
                await setup.stop()
        except BaseException:
            await setup.stop()
            raise
    try:
        before = await _stats(setup.connections[0])
        records, readings = await _window(setup, seconds)
        after = await _stats(setup.connections[0])
    finally:
        await setup.stop()
    return setup, (setup_cpu, setup_wall), records, readings, before, after


def run(seed: int, seconds: float, trace: bool, size: str, workdir, spans_path) -> Outcome:
    setup, (setup_cpu, setup_wall), records, readings, before, after = asyncio.run(
        _measure(seed, size, seconds, workdir)
    )
    digest = _check(setup, records)

    window = readings["deadline"] - readings["start"]
    responses = sum(record[3] <= readings["deadline"] for record in records)
    failed = sum(not record[4].get("ok") for record in records)
    cpu_before, cpu_after = readings["cpu_before"], readings["cpu_after"]
    used = {pid: cpu_after[pid] - cpu_before[pid] for pid in cpu_after}
    tree_cpu = sum(used.values())
    solve_ms = [
        (received - sent) * 1e3 for kind, _, sent, received, _ in records
        if kind == "solve"
    ]
    update_ms = [
        (received - sent) * 1e3 for kind, _, sent, received, _ in records
        if kind == "update"
    ]
    steal = host.steal_share(readings["steal_before"], readings["steal_after"])
    outcome = Outcome(attempted=len(records), failed=failed, digest=digest)
    outcome.metrics = {
        "setup_s": (median(setup_cpu), "s"),
        "cpu_ms_per_instance": (tree_cpu / responses * 1e3, "ms"),
        # The client's wall p50 counted in time the VM ran: the closed
        # loop keeps both vCPUs busy, so wall latency scales with
        # 1 / (1 - steal share of their runnable time).  Raw wall p50
        # moved 40 % between calm and stolen hours; it stays in the
        # report as solve_p50_ms.
        "request_p50_ms": (median(solve_ms) * (1 - steal), "ms"),
        "peak_rss_mib": (readings["peak_mib"], "MiB"),
    }
    outcome.report = {
        "setup_s": (median(setup_cpu), "s"),
        "setup_wall_s": (median(setup_wall), "s"),
        "instances_per_s": (responses / window, "1/s"),
        "solve_p50_ms": (median(solve_ms), "ms"),
        "solve_p90_ms": (p90(solve_ms), "ms"),
        "update_p50_ms": (median(update_ms), "ms"),
        "cpu_ms_per_request": (tree_cpu / responses * 1e3, "ms"),
        "peak_rss_mib": (readings["peak_mib"], "MiB"),
        "window_peak_rss_mib": (readings["window_peak_mib"], "MiB"),
        "failed_share": (failed / len(records), "ratio"),
        "solves": (len(solve_ms), "count"),
        "updates": (len(update_ms), "count"),
        "host.steal_share": (steal, "ratio"),
        "wall_over_cpu": (window / tree_cpu, "ratio"),
    }
    if trace:
        outcome.layers = _layers(
            records, readings, used, responses, before, after, window, steal
        )
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(after))
    return outcome


def _layers(records, readings, used, responses, before, after, window, steal) -> dict:
    """Per-layer figures, all read from outside the server process."""
    server_latency = [record[4]["latency_ms"] for record in records]
    client_latency = [(record[3] - record[2]) * 1e3 for record in records]
    wire = [c - s for c, s in zip(client_latency, server_latency)]
    session_before = before["session"]["stats"]
    session_after = after["session"]["stats"]

    def grew(counter):
        return session_after[counter] - session_before[counter]

    worker_cpu = sum(used[pid] for pid in readings["workers"])
    jobs = after["session"]["jobs"]
    timed_updates = [r for r in records if r[0] == "update"]
    return {
        "host.steal_share": (steal, "ratio"),
        "wall_over_cpu": (window / sum(used.values()), "ratio"),
        "server.latency_p50_ms": (median(server_latency), "ms"),
        "wire.overhead_p50_ms": (median(wire), "ms"),
        "server.cpu_ms_per_request": (used[readings["server"]] / responses * 1e3, "ms"),
        "workers.cpu_ms_per_request": (worker_cpu / responses * 1e3, "ms"),
        "workers.busy_share": (worker_cpu / (window * jobs), "ratio"),
        "stream.batch_size": (responses / max(1, grew("shards")), "count"),
        "stream.steals": (grew("steals"), "count"),
        "stream.splits": (grew("splits"), "count"),
        "stream.duplicates": (grew("duplicates"), "count"),
        "stream.retries": (grew("retries"), "count"),
        "stream.degraded": (grew("degraded"), "count"),
        "breaker.trips": (
            after["session"]["breaker"]["trips"] - before["session"]["breaker"]["trips"],
            "count",
        ),
        "incremental.warm_share": (
            sum(bool(r[4]["result"].get("warm")) for r in timed_updates)
            / max(1, len(timed_updates)),
            "ratio",
        ),
    }


def _check(setup: Setup, records) -> str:
    """Check every served result; returns the run's digest.

    Pool instances and bases are re-solved in-process (solo fastpath)
    and must match what the server returned; every update response is
    checked against the benchmark's own replay of the chain, and the
    last snapshot of each chain is re-solved in-process too.
    """
    import repro.core.solver as solver
    from repro.core.params import AlgorithmConfig
    from repro.hypergraph.hypergraph import Hypergraph

    config = AlgorithmConfig(epsilon=inputs.EPSILON_SMALL)

    def reference(instance) -> str:
        hypergraph = Hypergraph(instance.n, instance.edges, instance.weights)
        result = solver.solve_mwhvc(hypergraph, config=config, executor="fastpath")
        return checks.digest(result.as_dict())

    served: dict[int, set] = {}
    for kind, index, _, _, message in records:
        if kind != "solve" or not message.get("ok"):
            continue
        instance = setup.pool[index]
        checks.check_cover(instance, message["result"], instance.name)
        served.setdefault(index, set()).add(checks.digest(message["result"]))
    expected = [reference(instance) for instance in setup.pool]
    for index, digests in served.items():
        if digests != {expected[index]}:
            raise checks.CheckFailure(
                f"serve-mixed: {setup.pool[index].name} served a result that "
                f"differs from the in-process solve"
            )

    base_digests = []
    for number, base in enumerate(setup.bases):
        instance = base.instance("base")
        served_base = setup.responses["base"][number]["result"]
        checks.check_cover(instance, served_base, f"base {number}")
        base_digests.append(reference(instance))
        if checks.digest(served_base) != base_digests[-1]:
            raise checks.CheckFailure(f"serve-mixed: base {number} differs")
        answered = {
            index[1]: message
            for kind, index, _, _, message in records
            if kind == "update" and index[0] == number
        }
        replay = inputs.update_chain(setup.seed, base, number)
        _, snapshot = next(replay)
        checks.check_cover(snapshot, setup.responses["cold"][number]["result"], "u0")
        last = None
        for step in range(1, len(answered) + 1):
            _, snapshot = next(replay)
            message = answered[step]
            if not message.get("ok"):
                break
            checks.check_cover(snapshot, message["result"], f"update {number}/{step}")
            if message["result"].get("warm") is not True:
                raise checks.CheckFailure(f"serve-mixed: update {number}/{step} ran cold")
            last = (snapshot.instance("last"), message)
        if last is not None:
            if reference(last[0]) != checks.digest(last[1]["result"]):
                raise checks.CheckFailure(
                    f"serve-mixed: chain {number}'s last snapshot differs from "
                    f"the in-process solve"
                )
    return checks.combine(expected + base_digests)
