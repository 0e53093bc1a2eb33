"""Public solve state: the warm-restart handle of an incremental solve.

:func:`repro.core.incremental.solve_state` decomposes a snapshot into
connected-component fragments and returns a :class:`SolveState`;
:func:`repro.core.incremental.resolve_incremental` consumes one and
returns the next.  The handle is lane- and process-neutral Python
data: the snapshot, its config and version, the fragments with their
cached standalone results, and the merged result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.incremental import Fragment
    from repro.core.params import AlgorithmConfig
    from repro.core.result import CoverResult
    from repro.hypergraph import Hypergraph

__all__ = ["SolveState"]


@dataclass
class SolveState:
    """A finished solve decomposed into fragments, ready to re-solve.

    ``snapshot`` is the solved instance and ``config`` its (unpinned)
    config; ``version`` ties the state to a
    :class:`~repro.hypergraph.MutableHypergraph` history (``None``
    when untracked).  ``fragments`` holds each component's cached
    standalone solve, and ``result`` is the merged monolithic result.
    """

    snapshot: Hypergraph
    config: AlgorithmConfig
    version: int | None
    fragments: tuple[Fragment, ...]
    result: CoverResult
