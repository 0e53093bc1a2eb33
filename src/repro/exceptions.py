"""Shared exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also catching unrelated
built-in exceptions.  Sub-hierarchies mirror the package layout:
instance-construction problems, simulator protocol violations, and
algorithm invariant failures are distinguishable by type.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidInstanceError(ReproError, ValueError):
    """An input instance (hypergraph, set system, LP/ILP) is malformed.

    Examples: empty hyperedge, non-positive vertex weight, a constraint
    row with no non-zero coefficients, an infeasible zero-one covering
    program.
    """


class InfeasibleInstanceError(InvalidInstanceError):
    """The instance admits no feasible solution at all.

    For covering problems this means some constraint can never be
    satisfied (e.g. an empty hyperedge, or an ILP row whose maximal
    assignment still violates the bound).
    """


class SimulationError(ReproError, RuntimeError):
    """The CONGEST simulation itself failed (not the algorithm)."""


class BandwidthExceededError(SimulationError):
    """A message exceeded the CONGEST per-link bandwidth budget."""


class ProtocolViolationError(SimulationError):
    """A node violated the messaging protocol (e.g. sent to a non-neighbor)."""


class RoundLimitExceededError(SimulationError):
    """The simulation did not terminate within the configured round limit."""


class TransportError(ReproError, RuntimeError):
    """Cross-process transport between parent and worker was damaged.

    Distinct from :class:`SimulationError` (the CONGEST protocol layer)
    and from algorithm errors: a transport error means the *serving*
    machinery shipped or received bytes it cannot trust.  The streaming
    scheduler treats these as recoverable scheduling accidents — the
    shard is re-dispatched or re-solved in-process — never as result
    facts, so a damaged buffer can surface as latency but never as
    silent corruption.
    """


class ArenaTransportError(TransportError):
    """A shipped CSR arena could not be read at all.

    Raised by the worker entry point
    (:func:`repro.core.parallel._solve_shard`) when the container file
    a shard ships by reference vanished before the worker could map
    it.  Bytes that arrive damaged, inline or on disk, raise
    :class:`ArenaStoreError` instead, from the container decoder.
    """


class ArenaStoreError(TransportError):
    """An arena container failed integrity validation.

    Raised by :func:`repro.hypergraph.store.decode_arena` and
    :func:`~repro.hypergraph.store.load_arena` (and the catalog layer
    over them) when a container — a file, or a shard shipped to a
    worker — is unreadable as written: missing or damaged magic
    header, a version newer than this library understands, a truncated
    buffer, a section whose checksum does not match its bytes,
    structurally inconsistent slabs, or a malformed corpus manifest.
    Like its :class:`TransportError` siblings this is a *typed
    refusal*: a damaged container must surface as an error the caller
    (the corpus iterator, which can skip the segment and report it, or
    the scheduler, which retries the shard) handles — never as a
    silently wrong cover or an out-of-bounds numpy view over a short
    buffer.
    """


class WorkerResultError(TransportError):
    """A worker returned a result payload with an invalid wire shape.

    Raised by the parent-side decoder when a worker's encoded result
    tuple is malformed (wrong arity, wrong field types) — a corrupted
    or version-skewed payload must fail loudly and typed, never decode
    into a plausible-looking wrong cover.
    """


class SessionClosedError(ReproError, RuntimeError):
    """A submission was attempted on a closed streaming session.

    Raised by :meth:`repro.core.stream.BatchSession.submit` after
    ``close()`` (or after the session's ``with`` block exited); results
    of instances admitted before the close remain retrievable.
    """


class TicketCancelled(ReproError):
    """A streamed instance was cancelled before its result settled.

    Raised by :meth:`repro.core.stream.StreamTicket.result` after a
    successful :meth:`~repro.core.stream.StreamTicket.cancel`.  A
    cancellation is strictly local to its ticket: micro-batch peers
    sharing the same shard still resolve normally, and a solve already
    running to completion simply has its result discarded.
    """


class TicketTimeout(ReproError, TimeoutError):
    """A streamed instance missed its submission deadline.

    Raised by :meth:`repro.core.stream.StreamTicket.result` when the
    ticket was admitted with ``deadline=seconds`` and did not settle in
    time.  Like :class:`TicketCancelled` this never poisons the
    session: peers are unaffected and a late in-flight result is
    discarded by the first-wins settle rule.
    """


class AlgorithmError(ReproError, RuntimeError):
    """An algorithm reached a state its specification forbids."""


class InvariantViolationError(AlgorithmError):
    """A paper invariant (Claims 1, 2, 4; Corollary 21) was violated.

    Raised only when invariant checking is enabled; indicates a bug in
    the implementation, never expected on valid inputs.
    """


class CertificateError(AlgorithmError):
    """A produced solution failed its own correctness certificate."""
