"""``repro-cover``: command-line front end for the covering solvers.

Subcommands
-----------
solve
    Solve an MWHVC instance from a ``.hg`` file (see
    :mod:`repro.hypergraph.io` for the format) and print the cover.
batch
    Solve every ``.hg`` file in a directory as one batched execution
    over a shared CSR arena (bit-identical to solving them one by one
    with the fastpath executor, but substantially faster).
    ``--stream`` routes the batch through the streaming work-stealing
    session instead of the static shards.  ``--store`` treats the
    directory as a packed corpus catalog (see ``pack``) and solves its
    arena segments directly — no text parsing, zero-copy ``mmap``.
pack
    Pack a directory of ``.hg``/HIF instance files into a persistent
    arena corpus: page-aligned, CRC-checked container segments plus a
    ``manifest.json`` catalog (:mod:`repro.core.corpus`), which
    ``batch --store`` / ``serve --store`` then solve without re-parsing
    or re-packing anything.
serve
    Stream instance file paths from stdin through a
    :class:`~repro.core.stream.BatchSession` — one result line per
    instance, admission micro-batched and scheduled across the worker
    pool while paths keep arriving.  With ``--tcp HOST:PORT`` it
    becomes the network front end instead
    (:class:`~repro.core.server.CoverServer`): concurrent clients
    speaking newline-delimited JSON, per-request cancellation and
    deadlines, bounded admission with backpressure, and a ``stats``
    verb.
generate
    Write a random instance to a ``.hg`` file.
stats
    Print instance statistics (n, m, f, Δ, W, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.fastpath import LANES
from repro.core.params import AlgorithmConfig
from repro.core.result import rational_for_json
from repro.core.solver import (
    solve_mwhvc,
    solve_mwhvc_batch,
    solve_mwhvc_f_approx,
)
from repro.exceptions import InvalidInstanceError, ReproError
from repro.hypergraph import generators, io
from repro.hypergraph.stats import instance_stats

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cover",
        description=(
            "Distributed (f+eps)-approximate weighted hypergraph vertex "
            "cover (DISC 2019 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve an instance file")
    solve.add_argument("path", help="instance file (.hg format)")
    solve.add_argument(
        "--epsilon", default="1", help="approximation slack in (0,1], e.g. 1/2"
    )
    solve.add_argument(
        "--f-approx",
        action="store_true",
        help="use Corollary 10's exact f-approximation epsilon",
    )
    solve.add_argument(
        "--executor",
        choices=("lockstep", "fastpath", "congest"),
        default="lockstep",
        help=(
            "lockstep (object cores), fastpath (vectorized arrays, "
            "fastest) or congest (message-passing engine); all three "
            "produce identical covers"
        ),
    )
    solve.add_argument(
        "--lane",
        choices=LANES,
        default="auto",
        help=(
            "fastpath only: strongest kernel lane to attempt (auto "
            "enters the cheapest lane with room for the expected scale "
            "growth; ineligible or overflowing runs degrade down the "
            "spill ladder to bigint with bit-identical results)"
        ),
    )
    solve.add_argument(
        "--schedule", choices=("spec", "compact"), default="spec"
    )
    solve.add_argument(
        "--check-invariants",
        action="store_true",
        help="verify Claims 1, 2, 4 every iteration",
    )
    solve.add_argument(
        "--json",
        action="store_true",
        help="print the full result as JSON instead of a summary",
    )

    batch = commands.add_parser(
        "batch",
        help=(
            "solve every instance file in a directory as one batched "
            "arena execution"
        ),
    )
    batch.add_argument("directory", help="directory containing .hg files")
    batch.add_argument(
        "--pattern",
        default="*.hg",
        help="glob selecting the instance files (default: *.hg)",
    )
    batch.add_argument(
        "--epsilon", default="1", help="approximation slack in (0,1]"
    )
    batch.add_argument(
        "--schedule", choices=("spec", "compact"), default="spec"
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the batch (default 1 = in-process, "
            "or one per core with --stream; 0 = one per core).  "
            "Shards are cost-balanced and results are bit-identical "
            "for every N"
        ),
    )
    batch.add_argument(
        "--stream",
        action="store_true",
        help=(
            "admit the instances through the streaming work-stealing "
            "session instead of static cost-model shards (identical "
            "results; wins when per-instance cost is skewed)"
        ),
    )
    batch.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object with per-instance results",
    )
    batch.add_argument(
        "--store",
        action="store_true",
        help=(
            "the directory is a packed corpus catalog (see 'pack'): "
            "solve its arena segments in-process via zero-copy mmap "
            "instead of parsing instance files (not combinable with "
            "--jobs or --stream)"
        ),
    )
    batch.add_argument(
        "--skip-corrupt",
        action="store_true",
        help=(
            "--store only: a segment failing its integrity checks is "
            "reported and skipped instead of aborting the batch "
            "(exit code 2 when anything was skipped)"
        ),
    )

    pack = commands.add_parser(
        "pack",
        help=(
            "pack instance files into a persistent arena corpus "
            "(solved later with 'batch --store' / 'serve --store')"
        ),
    )
    pack.add_argument("directory", help="directory of instance files")
    pack.add_argument("output", help="corpus catalog output directory")
    pack.add_argument(
        "--pattern",
        default="*.hg",
        help=(
            "glob selecting the instance files (default: *.hg; "
            "non-.hg matches are read as HIF JSON)"
        ),
    )
    pack.add_argument(
        "--segment-size",
        type=int,
        default=64,
        metavar="K",
        help=(
            "instances per arena segment (bounds packing and solving "
            "memory; default 64)"
        ),
    )

    serve = commands.add_parser(
        "serve",
        help=(
            "serve instances through a batch session: paths from stdin "
            "(default), or a TCP JSON protocol with --tcp HOST:PORT"
        ),
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help=(
            "serve concurrent clients over TCP (newline-delimited JSON "
            "protocol; port 0 picks a free port, reported on stdout) "
            "instead of reading instance paths from stdin"
        ),
    )
    serve.add_argument(
        "--epsilon", default="1", help="approximation slack in (0,1]"
    )
    serve.add_argument(
        "--schedule", choices=("spec", "compact"), default="spec"
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help=(
            "worker processes for the session (default 0 = one per "
            "core)"
        ),
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        metavar="K",
        help="micro-batch size cap for compatible submissions",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        metavar="R",
        help=(
            "TCP only: admission bound — requests in flight across all "
            "clients before backpressure pauses their sockets"
        ),
    )
    serve.add_argument(
        "--per-client-pending",
        type=int,
        default=None,
        metavar="R",
        help=(
            "TCP only: fairness quota — in-flight requests a single "
            "connection may hold before only it is paused (default "
            "max-pending // 4)"
        ),
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help=(
            "stdin mode only: print one JSON object per line instead "
            "of summaries"
        ),
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "stdin mode only: resolve each stdin line as an instance "
            "id in this packed corpus catalog (see 'pack') instead of "
            "an instance file path"
        ),
    )
    serve.add_argument(
        "--shed-after",
        type=float,
        default=None,
        metavar="S",
        help=(
            "TCP only: load-shedding bound in seconds — a request whose "
            "admission wait exceeds it is answered 'overloaded' with a "
            "retry_after hint instead of queueing (default: pure TCP "
            "backpressure)"
        ),
    )
    serve.add_argument(
        "--max-resident",
        type=int,
        default=None,
        metavar="K",
        help=(
            "TCP only: bound on resident incremental solve states for "
            "the update verb; least-recently-used states beyond it are "
            "evicted and re-solve cold (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help=(
            "TCP only, dev/chaos: deterministic fault-injection spec "
            "('seed=3,kill=0.05,hang=0.02,drop=0.01,...'); refused "
            "unless the REPRO_CHAOS=1 environment variable is set, so "
            "a production launcher cannot arm it by accident"
        ),
    )

    generate = commands.add_parser(
        "generate", help="write a random instance file"
    )
    generate.add_argument("path", help="output file")
    generate.add_argument("--vertices", type=int, default=100)
    generate.add_argument("--edges", type=int, default=200)
    generate.add_argument("--rank", type=int, default=3)
    generate.add_argument("--max-weight", type=int, default=100)
    generate.add_argument("--seed", type=int, default=0)

    stats = commands.add_parser("stats", help="print instance statistics")
    stats.add_argument("path", help="instance file (.hg format)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 2 usage/instance errors (bad file, malformed
    instance, invalid parameters).
    """
    arguments = _build_parser().parse_args(argv)
    try:
        return _dispatch(arguments)
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(arguments: argparse.Namespace) -> int:
    if arguments.command == "solve":
        hypergraph = io.load(arguments.path)
        config = AlgorithmConfig(
            epsilon=arguments.epsilon,
            schedule=arguments.schedule,
            check_invariants=arguments.check_invariants,
        )
        options = {}
        if arguments.executor == "fastpath" or arguments.lane != "auto":
            # Lane forcing applies to the fastpath executor only; the
            # solver rejects it for the others with a clear error.
            options["lane"] = arguments.lane
        if arguments.f_approx:
            result = solve_mwhvc_f_approx(
                hypergraph, config=config, executor=arguments.executor,
                **options,
            )
        else:
            result = solve_mwhvc(
                hypergraph, config=config, executor=arguments.executor,
                **options,
            )
        if arguments.json:
            print(result.to_json(include_dual=True))
        else:
            print(result.summary())
            print("cover:", " ".join(map(str, sorted(result.cover))))
        return 0
    if arguments.command == "batch":
        if arguments.store:
            return _dispatch_batch_store(arguments)
        return _dispatch_batch(arguments)
    if arguments.command == "pack":
        return _dispatch_pack(arguments)
    if arguments.command == "serve":
        return _dispatch_serve(arguments)
    if arguments.command == "generate":
        weights = generators.uniform_weights(
            arguments.vertices, arguments.max_weight, seed=arguments.seed + 1
        )
        hypergraph = generators.mixed_rank_hypergraph(
            arguments.vertices,
            arguments.edges,
            arguments.rank,
            seed=arguments.seed,
            weights=weights,
        )
        io.save(
            hypergraph,
            arguments.path,
            comment=(
                f"random instance: n={arguments.vertices} "
                f"m={arguments.edges} rank<={arguments.rank} "
                f"seed={arguments.seed}"
            ),
        )
        print(f"wrote {hypergraph!r} to {arguments.path}")
        return 0
    if arguments.command == "stats":
        hypergraph = io.load(arguments.path)
        for key, value in instance_stats(hypergraph).as_dict().items():
            print(f"{key:>18}: {value}")
        return 0
    raise AssertionError("unreachable")


def _dispatch_batch(arguments: argparse.Namespace) -> int:
    directory = Path(arguments.directory)
    if not directory.is_dir():
        raise InvalidInstanceError(f"{directory} is not a directory")
    paths = sorted(directory.glob(arguments.pattern))
    if not paths:
        raise InvalidInstanceError(
            f"no files matching {arguments.pattern!r} in {directory}"
        )
    hypergraphs = [io.load(path) for path in paths]
    config = AlgorithmConfig(
        epsilon=arguments.epsilon, schedule=arguments.schedule
    )
    jobs = arguments.jobs
    if jobs is None:
        # The streaming session always runs over the worker pool, so
        # its useful default is the machine; the static paths keep
        # their in-process default.
        jobs = 0 if arguments.stream else 1
    results = solve_mwhvc_batch(
        hypergraphs,
        config=config,
        jobs=jobs,
        stream=arguments.stream,
    )
    if arguments.json:
        # Weights may be exact rationals (fractional-weight instances):
        # render them the same canonical "num/den" way CoverResult's
        # own JSON view does, never handing a Fraction to json.dumps.
        print(
            json.dumps(
                {
                    "instances": [
                        {"file": path.name, **result.as_dict()}
                        for path, result in zip(paths, results)
                    ],
                    "count": len(results),
                    "total_weight": rational_for_json(
                        sum(result.weight for result in results)
                    ),
                }
            )
        )
        return 0
    for path, result in zip(paths, results):
        print(f"{path.name}: {result.summary()}")
    total = sum(result.weight for result in results)
    print(f"batch: {len(results)} instances, total cover weight {total}")
    return 0


def _dispatch_pack(arguments: argparse.Namespace) -> int:
    from repro.core.corpus import pack_corpus

    directory = Path(arguments.directory)
    if not directory.is_dir():
        raise InvalidInstanceError(f"{directory} is not a directory")
    paths = sorted(directory.glob(arguments.pattern))
    if not paths:
        raise InvalidInstanceError(
            f"no files matching {arguments.pattern!r} in {directory}"
        )
    catalog = pack_corpus(
        paths, arguments.output, segment_instances=arguments.segment_size
    )
    total_bytes = sum(
        catalog.segment_path(index).stat().st_size
        for index in range(len(catalog.segments))
    )
    print(
        f"packed {len(catalog)} instances into "
        f"{len(catalog.segments)} segments "
        f"({total_bytes} bytes) at {catalog.directory}"
    )
    return 0


def _dispatch_batch_store(arguments: argparse.Namespace) -> int:
    """``batch --store``: solve a packed corpus catalog segment by
    segment — manifest ids label the results, no text files are read,
    and each segment is dropped before the next is mapped."""
    from repro.core.corpus import solve_corpus

    for flag, given in (
        ("--jobs", arguments.jobs is not None),
        ("--stream", arguments.stream),
    ):
        if given:
            raise InvalidInstanceError(
                f"{flag} cannot be combined with --store: a corpus is "
                f"solved in-process, one segment at a time"
            )
    config = AlgorithmConfig(
        epsilon=arguments.epsilon, schedule=arguments.schedule
    )
    rows: list[tuple[str, object]] = []
    skipped: list[str] = []
    for segment in solve_corpus(
        arguments.directory,
        config=config,
        skip_corrupt=arguments.skip_corrupt,
    ):
        if segment.error is not None:
            skipped.append(segment.path)
            print(
                f"error: skipped corrupt segment {segment.path}: "
                f"{segment.error}",
                file=sys.stderr,
            )
            continue
        rows.extend(zip(segment.ids, segment.results))
    if arguments.json:
        print(
            json.dumps(
                {
                    "instances": [
                        {"id": instance_id, **result.as_dict()}
                        for instance_id, result in rows
                    ],
                    "count": len(rows),
                    "skipped_segments": skipped,
                    "total_weight": rational_for_json(
                        sum(result.weight for _, result in rows)
                    ),
                }
            )
        )
        return 2 if skipped else 0
    for instance_id, result in rows:
        print(f"{instance_id}: {result.summary()}")
    total = sum(result.weight for _, result in rows)
    print(
        f"corpus: {len(rows)} instances, total cover weight {total}"
        + (f", {len(skipped)} segments skipped" if skipped else "")
    )
    return 2 if skipped else 0


def _parse_host_port(text: str) -> tuple[str, int]:
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise InvalidInstanceError(
            f"--tcp expects HOST:PORT, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError as error:
        raise InvalidInstanceError(
            f"--tcp expects an integer port, got {port_text!r}"
        ) from error
    if not 0 <= port <= 65535:
        raise InvalidInstanceError(f"--tcp port out of range: {port}")
    return host.strip("[]"), port


def _dispatch_serve_tcp(arguments: argparse.Namespace) -> int:
    """The network front end: concurrent TCP clients over one session.

    Binds, reports the actual address on stdout (``serving on
    HOST:PORT`` — port 0 picks a free one, so harnesses parse this
    line), then serves until SIGINT/SIGTERM, draining gracefully:
    every admitted request is answered before the session closes.
    """
    import asyncio
    import os
    import signal

    from repro.core.server import CoverServer

    host, port = _parse_host_port(arguments.tcp)
    config = AlgorithmConfig(
        epsilon=arguments.epsilon, schedule=arguments.schedule
    )
    fault_plan = None
    if arguments.fault_plan is not None:
        if os.environ.get("REPRO_CHAOS") != "1":
            # Fault injection kills real workers and resets real client
            # connections: an explicit env opt-in keeps the flag from
            # ever being armed by a copy-pasted production launcher.
            raise InvalidInstanceError(
                "--fault-plan is a chaos-testing flag; set REPRO_CHAOS=1 "
                "in the environment to confirm this is not production"
            )
        from repro.core.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_spec(arguments.fault_plan)
        except ValueError as error:
            raise InvalidInstanceError(
                f"bad --fault-plan spec: {error}"
            ) from error

    async def run() -> None:
        server = CoverServer(
            host,
            port,
            config=config,
            jobs=arguments.jobs,
            max_batch=arguments.max_batch,
            max_pending=arguments.max_pending,
            per_client_pending=arguments.per_client_pending,
            shed_after=arguments.shed_after,
            fault_plan=fault_plan,
            max_resident=arguments.max_resident,
        )
        bound_host, bound_port = await server.start()
        print(f"serving on {bound_host}:{bound_port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signal_number, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without signal handler support
        try:
            await stop.wait()
        except KeyboardInterrupt:
            pass
        print("draining ...", file=sys.stderr, flush=True)
        await server.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass  # drain already ran (or never started accepting)
    return 0


def _dispatch_serve(arguments: argparse.Namespace) -> int:
    """The serving loop: paths in on stdin, results out as they land.

    Each non-blank stdin line names one ``.hg`` instance file; it is
    admitted into the session the moment it is read, and finished
    results print in admission order as soon as they (and everything
    admitted before them) resolve — later paths keep streaming in
    while earlier instances are still being solved.  A line that fails
    to load is reported on stderr without stopping the loop; the exit
    code is 2 if any line failed, else 0.
    """
    if arguments.tcp:
        if arguments.store:
            raise InvalidInstanceError(
                "--store is a stdin-mode flag; the TCP protocol ships "
                "instances inline"
            )
        return _dispatch_serve_tcp(arguments)
    from repro.core.stream import BatchSession

    catalog = None
    if arguments.store is not None:
        from repro.core.corpus import ArenaCatalog

        catalog = ArenaCatalog(arguments.store)
    config = AlgorithmConfig(
        epsilon=arguments.epsilon, schedule=arguments.schedule
    )
    failures = 0
    pending: list[tuple[str, object]] = []

    def emit_ready(block: bool) -> None:
        nonlocal failures
        while pending and (block or pending[0][1].done()):
            name, ticket = pending.pop(0)
            try:
                result = ticket.result()
            except Exception as error:  # keep serving past bad instances
                failures += 1
                print(f"error: {name}: {error}", file=sys.stderr)
                continue
            if arguments.json:
                print(
                    json.dumps({"file": name, **result.as_dict()}),
                    flush=True,
                )
            else:
                print(f"{name}: {result.summary()}", flush=True)

    with BatchSession(
        config=config,
        jobs=arguments.jobs,
        max_batch=arguments.max_batch,
        # A service may run indefinitely: don't accumulate the
        # admission log.
        record_schedule=False,
    ) as session:
        for line in sys.stdin:
            path = line.strip()
            if not path:
                continue
            try:
                if catalog is not None:
                    # A --store line is a catalog instance id: the
                    # instance comes off the packed segment, no text
                    # file is opened at all.
                    hypergraph = catalog.load_instance(path)
                else:
                    hypergraph = io.load(path)
            except KeyError as error:
                failures += 1
                print(f"error: {path}: {error}", file=sys.stderr)
                continue
            except (OSError, ReproError) as error:
                failures += 1
                print(f"error: {path}: {error}", file=sys.stderr)
                continue
            pending.append((path, session.submit(hypergraph)))
            emit_ready(block=False)
        emit_ready(block=True)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
