"""Text and JSON serialization for digraphs and permutation files.

Edge-list format: first line ``n m``, then m lines ``u v`` (0-indexed).
JSON alternative: ``{"n": ..., "edges": [[u, v], ...]}``.  Both parsers
reject self-loops and duplicate edges.  Permutation files hold one
permutation per line, space-separated.
"""

from __future__ import annotations

import json

from .digraph import Digraph, Permutation
from .errors import InvalidInputError


def parse_edge_list(text: str) -> Digraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidInputError("empty graph input")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidInputError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InvalidInputError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise InvalidInputError(f"header promises {m} edges, found {len(lines) - 1}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidInputError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InvalidInputError(f"bad edge line {ln!r}") from exc
        if (u, v) in seen:
            raise InvalidInputError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Digraph(n, edges)


def format_edge_list(g: Digraph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"


def is_json_int(x: object) -> bool:
    """JSON integers only: bool is an int subclass, and floats would be truncated."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph_json(text: str) -> Digraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidInputError('graph JSON needs keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if not is_json_int(n):
        raise InvalidInputError(f'"n" must be an integer, got {n!r}')
    if not isinstance(edges, list):
        raise InvalidInputError(f'"edges" must be a list, got {edges!r}')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(is_json_int, e))):
            raise InvalidInputError(f"each edge must be a pair [u, v] of integers, got {e!r}")
    pairs = [(u, v) for u, v in edges]
    if len(set(pairs)) != len(pairs):
        raise InvalidInputError("duplicate edge in JSON input")
    return Digraph(n, pairs)


def parse_graph(text: str) -> Digraph:
    """Accept either format; JSON when the input starts with '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_edge_list(text)


def parse_permutations(text: str) -> list[Permutation]:
    perms: list[Permutation] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            order = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise InvalidInputError(f"bad permutation line {ln!r}") from exc
        perms.append(Permutation(order))
    if perms and any(len(p) != len(perms[0]) for p in perms):
        raise InvalidInputError("permutations in one file must share a length")
    return perms
