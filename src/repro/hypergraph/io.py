"""Text serialization for hypergraphs (a DIMACS-like line format).

Format (whitespace separated, ``c``-prefixed comment lines ignored)::

    p mwhvc <num_vertices> <num_edges>
    w <w0> <w1> ... <w_{n-1}>          # optional; defaults to all ones
    e <v> <v> ...                      # one line per hyperedge

Weights are positive rationals: plain integers or exact ``num/den``
tokens (e.g. ``3/2``) — the form ``str(Fraction(...))`` produces, so
fractional-weight instances round-trip exactly.

The format is deliberately minimal and line-oriented so instances can be
versioned, diffed, and produced by other tools.  ``loads``/``dumps`` are
exact inverses (modulo comments), which the round-trip tests enforce.

For interchange with the wider hypergraph ecosystem this module also
speaks **HIF** (the Hypergraph Interchange Format: a JSON document with
``network-type`` / ``nodes`` / ``edges`` / ``incidences`` keys):
:func:`to_hif` / :func:`from_hif` convert to and from the HIF dict
shape, :func:`save_hif` / :func:`load_hif` do the file I/O.  Weights
stay exact across the boundary — integers as JSON ints, big integers
and rationals as their canonical ``str(int)`` / ``"num/den"`` string
tokens (JSON numbers are doubles; round-tripping a ``10^16``-scale
weight through a float would corrupt it silently).  Floats are accepted
on import only when integral.
"""

from __future__ import annotations

import json

from fractions import Fraction
from pathlib import Path

from repro.exceptions import InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph, _normalized_weights

try:  # pragma: no cover - exercised implicitly by either branch
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "dumps",
    "loads",
    "save",
    "load",
    "to_hif",
    "from_hif",
    "save_hif",
    "load_hif",
]


def _parse_weight(token: str, line_number: int) -> int | Fraction:
    """An integer or exact ``num/den`` rational weight token."""
    try:
        if "/" in token:
            return Fraction(token)
        return int(token)
    except (ValueError, ZeroDivisionError) as error:
        raise InvalidInstanceError(
            f"line {line_number}: malformed weight {token!r}"
        ) from error


def _parse_int(token: str, line_number: int, what: str) -> int:
    """An integer token of a ``p`` or ``e`` line."""
    try:
        return int(token)
    except ValueError as error:
        raise InvalidInstanceError(
            f"line {line_number}: malformed {what} {token!r}"
        ) from error


def dumps(hypergraph: Hypergraph, *, comment: str | None = None) -> str:
    """Serialize ``hypergraph`` to the text format."""
    lines: list[str] = []
    if comment:
        for comment_line in comment.splitlines():
            lines.append(f"c {comment_line}")
    lines.append(
        f"p mwhvc {hypergraph.num_vertices} {hypergraph.num_edges}"
    )
    if any(weight != 1 for weight in hypergraph.weights):
        lines.append("w " + " ".join(str(weight) for weight in hypergraph.weights))
    for edge in hypergraph.edges:
        lines.append("e " + " ".join(str(vertex) for vertex in edge))
    return "\n".join(lines) + "\n"


def loads(text: str) -> Hypergraph:
    """Parse the text format back into a :class:`Hypergraph`.

    With numpy present, text whose ``e`` lines form one final block of
    uniform arity with single-space separators (the shape :func:`dumps`
    writes) is read column-wise into an array-backed instance; any
    other text, and any text the column reader cannot vouch for, goes
    through the line-by-line parser, so the result and every error are
    the same either way.
    """
    hypergraph = _loads_columnar(text)
    return hypergraph if hypergraph is not None else _loads_scalar(text)


def _scan(text: str):
    """The line-by-line pass: ``(n, declared m, weights, edges)``."""
    num_vertices: int | None = None
    declared_edges: int | None = None
    weights: list[int | Fraction] | None = None
    edges: list[tuple[int, ...]] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if num_vertices is not None:
                raise InvalidInstanceError(
                    f"line {line_number}: duplicate problem line"
                )
            if len(fields) != 4 or fields[1] != "mwhvc":
                raise InvalidInstanceError(
                    f"line {line_number}: expected 'p mwhvc <n> <m>', got {line!r}"
                )
            num_vertices = _parse_int(fields[2], line_number, "vertex count")
            declared_edges = _parse_int(fields[3], line_number, "edge count")
        elif tag == "w":
            if num_vertices is None:
                raise InvalidInstanceError(
                    f"line {line_number}: weights before problem line"
                )
            weights = [
                _parse_weight(field, line_number) for field in fields[1:]
            ]
        elif tag == "e":
            if num_vertices is None:
                raise InvalidInstanceError(
                    f"line {line_number}: edge before problem line"
                )
            try:
                edges.append(tuple(int(field) for field in fields[1:]))
            except ValueError:
                for field in fields[1:]:  # name the first malformed id
                    _parse_int(field, line_number, "vertex id")
                raise
        else:
            raise InvalidInstanceError(
                f"line {line_number}: unknown line tag {tag!r}"
            )
    return num_vertices, declared_edges, weights, edges


def _loads_scalar(text: str) -> Hypergraph:
    """The reference parser: every line through :func:`_scan`."""
    num_vertices, declared_edges, weights, edges = _scan(text)
    if num_vertices is None:
        raise InvalidInstanceError("missing problem line 'p mwhvc <n> <m>'")
    if declared_edges is not None and declared_edges != len(edges):
        raise InvalidInstanceError(
            f"problem line declares {declared_edges} edges but "
            f"{len(edges)} were given"
        )
    return Hypergraph(num_vertices, edges, weights)


#: Byte classes of an ``e`` block: 0 anything else, 1 digit, 2 blank,
#: 3 newline, 4 the ``e`` tag.
_BYTE_CLASS = bytearray(256)
_BYTE_CLASS[ord("0") : ord("9") + 1] = b"\x01" * 10
_BYTE_CLASS[ord(" ")] = _BYTE_CLASS[ord("\t")] = 2
_BYTE_CLASS[ord("\n")] = 3
_BYTE_CLASS[ord("e")] = 4

#: Longest decimal token summed in int64 without overflow.
_MAX_DIGITS = 18


def _edge_rows(block: bytes):
    """``e`` lines of one arity as an ``(m, k)`` int64 array, or ``None``.

    ``block`` must be ASCII lines, each ``e`` followed by blank-separated
    unsigned decimal ids, joined by ``\\n`` with no trailing newline.
    Anything else (comments, other tags, signs, blank lines, mixed
    arities, ids of more than 18 digits) returns ``None``.
    """
    data = _np.frombuffer(block, dtype=_np.uint8)
    kind = _np.frombuffer(_BYTE_CLASS, dtype=_np.uint8)[data]
    if not kind.all():
        return None
    tags = _np.flatnonzero(kind == 4)
    breaks = _np.flatnonzero(kind == 3)
    rows = len(tags)
    # Every line starts with its tag, and only there; a blank follows.
    if (
        rows != len(breaks) + 1
        or tags[0] != 0
        or (tags[1:] != breaks + 1).any()
        or tags[-1] + 1 >= len(data)
        or (kind[tags + 1] != 2).any()
    ):
        return None
    # Digit runs are the tokens.  The block starts with a tag, so the
    # digit/non-digit flips alternate start, end, start, ...
    digit = kind == 1
    flips = _np.flatnonzero(digit[1:] != digit[:-1]) + 1
    starts = flips[0::2]
    ends = flips[1::2]
    if len(ends) < len(starts):
        ends = _np.append(ends, len(data))
    widths = ends - starts
    count = len(starts)
    if count == 0 or count % rows or widths.max() > _MAX_DIGITS:
        return None
    arity = count // rows
    # Tokens before each line's tag: the same arity on every line.
    if (
        _np.searchsorted(starts, tags) != _np.arange(0, count, arity)
    ).any():
        return None
    # Decimal values, Horner style: one pass per digit position.
    values = _np.zeros(count, dtype=_np.int64)
    for position in range(int(widths.max())):
        live = widths > position
        digits = data[starts[live] + position] - ord("0")
        values[live] = values[live] * 10 + digits
    return values.reshape(rows, arity)


def _loads_columnar(text: str) -> Hypergraph | None:
    """Array-backed :func:`loads` for one final uniform ``e`` block
    whose ids are separated by single spaces.

    Returns ``None`` whenever the text is not of that shape or fails a
    check, leaving the reference parser to produce the result or the
    error.  The lines before the block go through :func:`_scan`.
    """
    if _np is None:
        return None
    start = 0 if text.startswith("e") else text.find("\ne") + 1
    if start == 0 and not text.startswith("e"):
        return None
    block = text[start:].rstrip()
    # Before any array work: one space per id on every line, as dumps
    # writes it, and no \r.  Ragged blocks, trailing comments and \r\n
    # line ends fall back here for the cost of a few string counts.
    end = block.find("\n")
    arity = block.count(" ", 0, end if end >= 0 else len(block))
    if (
        "\r" in block
        or block.count(" ") != arity * (block.count("\n") + 1)
        or not block.isascii()
    ):
        return None
    try:
        num_vertices, declared_edges, weights, edges = _scan(text[:start])
    except InvalidInstanceError:
        return None
    if num_vertices is None or edges:
        return None
    rows = _edge_rows(block.encode("ascii"))
    if rows is None or len(rows) != declared_edges:
        return None
    rows.sort(axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any() or rows[:, -1].max() >= num_vertices:
        return None
    try:
        weights, all_int = _normalized_weights(num_vertices, weights)
    except InvalidInstanceError:
        return None
    if all_int:
        try:  # an int64 weight array when every weight fits
            weights = _np.array(weights, dtype=_np.int64)
        except OverflowError:
            pass
    count, arity = rows.shape
    offsets = _np.arange(0, count * arity + 1, arity, dtype=_np.int64)
    return Hypergraph._from_arrays(
        num_vertices, rows.reshape(-1), offsets, weights
    )


def save(hypergraph: Hypergraph, path: str | Path, *, comment: str | None = None) -> None:
    """Write ``hypergraph`` to ``path`` in the text format."""
    Path(path).write_text(dumps(hypergraph, comment=comment), encoding="utf-8")


def load(path: str | Path) -> Hypergraph:
    """Read a hypergraph from ``path``."""
    return loads(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# HIF (Hypergraph Interchange Format) import/export
# --------------------------------------------------------------------------

#: JSON numbers are IEEE doubles in most HIF consumers; integers beyond
#: 2**53 lose bits there.  We emit ints up to this bound as JSON numbers
#: and everything larger (plus all rationals) as exact string tokens.
_JSON_SAFE_INT = 2**53


def _weight_to_hif(weight: int | Fraction):
    if type(weight) is int and -_JSON_SAFE_INT <= weight <= _JSON_SAFE_INT:
        return weight
    return str(weight)


def _weight_from_hif(value, node) -> int | Fraction:
    if isinstance(value, bool):
        raise InvalidInstanceError(
            f"HIF node {node!r}: boolean weight {value!r}"
        )
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not value.is_integer():
            raise InvalidInstanceError(
                f"HIF node {node!r}: non-integral float weight {value!r}; "
                f"exact rationals must travel as 'num/den' strings"
            )
        return int(value)
    if isinstance(value, str):
        try:
            return Fraction(value) if "/" in value else int(value)
        except (ValueError, ZeroDivisionError) as error:
            raise InvalidInstanceError(
                f"HIF node {node!r}: malformed weight token {value!r}"
            ) from error
    raise InvalidInstanceError(
        f"HIF node {node!r}: unsupported weight type "
        f"{type(value).__name__}"
    )


def to_hif(hypergraph: Hypergraph) -> dict:
    """``hypergraph`` as a HIF document (a JSON-serializable dict).

    Nodes are the integers ``0..n-1`` carrying their exact weights
    (string tokens beyond double precision); incidences list every
    (edge, node) membership.  Hyperedges are kept in order under
    integer ids so :func:`from_hif` reconstructs the identical
    instance, duplicate edges included.
    """
    incidences = [
        {"edge": edge_id, "node": vertex}
        for edge_id, edge in enumerate(hypergraph.edges)
        for vertex in edge
    ]
    return {
        "network-type": "undirected",
        "metadata": {"problem": "mwhvc"},
        "nodes": [
            {"node": vertex, "weight": _weight_to_hif(weight)}
            for vertex, weight in enumerate(hypergraph.weights)
        ],
        "edges": [
            {"edge": edge_id} for edge_id in range(hypergraph.num_edges)
        ],
        "incidences": incidences,
    }


def from_hif(document: dict) -> Hypergraph:
    """Build a :class:`Hypergraph` from a HIF document.

    Node ids may be arbitrary (ints, strings); they are mapped to dense
    vertex indices in first-appearance order over ``nodes``.  Documents
    exported by :func:`to_hif` round-trip exactly; foreign documents
    get the usual :class:`Hypergraph` validation (so an empty hyperedge
    or a non-positive weight is still a typed refusal, not a crash ten
    layers down).
    """
    if not isinstance(document, dict):
        raise InvalidInstanceError(
            f"HIF document must be a JSON object, got "
            f"{type(document).__name__}"
        )
    nodes = document.get("nodes")
    if not isinstance(nodes, list):
        raise InvalidInstanceError("HIF document has no 'nodes' list")
    index_of_node: dict = {}
    weights: list[int | Fraction] = []
    for entry in nodes:
        if not isinstance(entry, dict) or "node" not in entry:
            raise InvalidInstanceError(
                f"malformed HIF node record {entry!r}"
            )
        node = entry["node"]
        if node in index_of_node:
            raise InvalidInstanceError(f"duplicate HIF node {node!r}")
        index_of_node[node] = len(index_of_node)
        weight = entry.get("weight", 1)
        weights.append(_weight_from_hif(weight, node))
    edge_ids: list = []
    seen_edges: set = set()
    for entry in document.get("edges", []):
        if not isinstance(entry, dict) or "edge" not in entry:
            raise InvalidInstanceError(
                f"malformed HIF edge record {entry!r}"
            )
        edge = entry["edge"]
        if edge in seen_edges:
            raise InvalidInstanceError(f"duplicate HIF edge {edge!r}")
        seen_edges.add(edge)
        edge_ids.append(edge)
    members: dict = {edge: [] for edge in edge_ids}
    for entry in document.get("incidences", []):
        if (
            not isinstance(entry, dict)
            or "edge" not in entry
            or "node" not in entry
        ):
            raise InvalidInstanceError(
                f"malformed HIF incidence record {entry!r}"
            )
        edge, node = entry["edge"], entry["node"]
        if edge not in members:
            # HIF allows edges introduced only through incidences.
            members[edge] = []
            edge_ids.append(edge)
        if node not in index_of_node:
            raise InvalidInstanceError(
                f"HIF incidence references unknown node {node!r}"
            )
        members[edge].append(index_of_node[node])
    edges = [tuple(members[edge]) for edge in edge_ids]
    return Hypergraph(len(index_of_node), edges, weights)


def save_hif(hypergraph: Hypergraph, path: str | Path) -> None:
    """Write ``hypergraph`` to ``path`` as a HIF JSON file."""
    Path(path).write_text(
        json.dumps(to_hif(hypergraph), indent=None, sort_keys=False)
        + "\n",
        encoding="utf-8",
    )


def load_hif(path: str | Path) -> Hypergraph:
    """Read a HIF JSON file from ``path``."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise InvalidInstanceError(
            f"{path} is not valid JSON: {error}"
        ) from error
    return from_hif(document)
