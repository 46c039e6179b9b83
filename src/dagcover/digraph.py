"""Core digraph and permutation machinery.

Vertices are dense integers 0..n-1.  A single immutable type serves both
as host graph (large, possibly with 2-cycles) and pattern graph (small
dag).  Edges are ordered pairs; (u,v) and (v,u) may both be present but
self-loops and duplicates are rejected.

A permutation covers an edge (u, v) when u comes before v; the edges
it covers form an acyclic spanning subgraph.  `forward_count` counts
them, and counting forward edges is the basic move behind every
covering computation in the package.

One lowest-first Kahn peel over an edge set's endpoints answers every
whole-graph acyclicity question: `is_dag` asks whether it finishes, and
`topological_order` merges the untouched vertices into its order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import InvalidInputError

Edge = tuple[int, int]


@dataclass(frozen=True, slots=True, eq=False)
class EdgeIndex:
    """A digraph's edges as arrays, for joins that run in numpy.

    `keys` holds u * n + v for every edge (u, v), sorted, so it is the
    edge list in lexicographic order; `out_idx[out_ptr[u]:out_ptr[u + 1]]`
    lists u's out-neighbours in increasing order and `in_idx`, `in_ptr`
    its in-neighbours the same way.
    """

    keys: np.ndarray      # int64
    out_ptr: np.ndarray   # int64, n + 1 entries
    out_idx: np.ndarray   # int32
    in_ptr: np.ndarray
    in_idx: np.ndarray
    out_deg: np.ndarray   # int32
    in_deg: np.ndarray

    @classmethod
    def build(cls, n: int, edges: Iterable[Edge]) -> "EdgeIndex":
        pairs = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
        us, vs = pairs[:, 0], pairs[:, 1]
        keys = np.sort(us * n + vs)
        back = np.sort(vs * n + us)
        out_deg = np.bincount(us, minlength=n).astype(np.int32)
        in_deg = np.bincount(vs, minlength=n).astype(np.int32)
        out_ptr = np.zeros(n + 1, dtype=np.int64)
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_deg, out=out_ptr[1:])
        np.cumsum(in_deg, out=in_ptr[1:])
        return cls(keys=keys, out_ptr=out_ptr, out_idx=(keys % max(n, 1)).astype(np.int32),
                   in_ptr=in_ptr, in_idx=(back % max(n, 1)).astype(np.int32),
                   out_deg=out_deg, in_deg=in_deg)


@dataclass(frozen=True)
class Digraph:
    """Immutable simple digraph on vertices 0..n-1 (2-cycles allowed)."""

    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise InvalidInputError(f"vertex count must be >= 0, got {n}")
        edge_set = frozenset((int(u), int(v)) for u, v in edges)
        for u, v in edge_set:
            if u == v:
                raise InvalidInputError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edge ({u},{v}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edge_set)

    @classmethod
    def _from_trusted(cls, n: int, edge_set: frozenset[Edge]) -> "Digraph":
        # Fast path for internal callers that already guarantee validity.
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edge_set)
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """Edges in lexicographic order; all deterministic iteration goes through this."""
        return tuple(sorted(self.edges))

    @cached_property
    def out_adj(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v in self.sorted_edges:
            adj[u].append(v)
        return {v: tuple(ws) for v, ws in adj.items()}

    @cached_property
    def in_adj(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v in self.sorted_edges:
            adj[v].append(u)
        return {v: tuple(ws) for v, ws in adj.items()}

    @cached_property
    def index(self) -> EdgeIndex:
        """Sorted edge keys, out- and in-CSR arrays and degrees, built once per graph."""
        return EdgeIndex.build(self.n, self.edges)

    def isolated_vertices(self) -> tuple[int, ...]:
        touched = set()
        for u, v in self.edges:
            touched.add(u)
            touched.add(v)
        return tuple(v for v in range(self.n) if v not in touched)

    def edges_within(self, vertices: Iterable[int]) -> frozenset[Edge]:
        """Edge set of the induced subgraph on `vertices` (labels unchanged)."""
        s = set(vertices)
        return frozenset((u, v) for u, v in self.edges if u in s and v in s)

    def __repr__(self) -> str:  # keep failure output in tests readable
        return f"Digraph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True, slots=True)
class Permutation:
    """A vertex order; position[v] is the index of v in `order`, built on each read."""

    order: tuple[int, ...]

    def __init__(self, order: Iterable[int]):
        seq = tuple(int(v) for v in order)
        if sorted(seq) != list(range(len(seq))):
            raise InvalidInputError(f"not a permutation of 0..{len(seq) - 1}: {seq}")
        object.__setattr__(self, "order", seq)

    @classmethod
    def _from_trusted(cls, order: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        object.__setattr__(p, "order", order)
        return p

    def __len__(self) -> int:
        return len(self.order)

    @property
    def position(self) -> tuple[int, ...]:
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)

    def __repr__(self) -> str:
        return f"Permutation({list(self.order)})"


def forward_count(edges: Iterable[Edge], p: Permutation) -> int:
    """Number of edges (u,v) with u earlier than v under p."""
    pos = p.position
    return sum(1 for u, v in edges if pos[u] < pos[v])


def _peel(edges: Iterable[Edge]) -> Optional[list[int]]:
    """Lowest-first Kahn peel over the edges' endpoints only (its cost follows the edges).

    Returns the endpoints in peel order, or None when the edges close a cycle.
    """
    out: dict[int, list[int]] = {}
    indeg: dict[int, int] = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
        indeg[v] = indeg.get(v, 0) + 1
        indeg.setdefault(u, 0)
    heap = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for w in out.get(u, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return order if len(order) == len(indeg) else None


def is_dag(g: Digraph) -> bool:
    """True iff g has no directed cycle."""
    return _peel(g.edges) is not None


def topological_order(g: Digraph) -> Optional[Permutation]:
    """A permutation with every edge forward, or None if g has a cycle.

    Ties are broken lowest-vertex-first so the result is reproducible.
    Untouched vertices are free throughout, so merging them into the
    peel by head keeps that rule over all n vertices.
    """
    order = _peel(g.edges)
    if order is None:
        return None
    touched = set(order)
    untouched = (v for v in range(g.n) if v not in touched)
    return Permutation._from_trusted(tuple(heapq.merge(order, untouched)))


def shortest_directed_cycle(g: Digraph) -> Optional[list[int]]:
    """A minimum-length directed cycle as a vertex list, or None for a dag.

    BFS from every start vertex; the first shortest cycle found (lowest
    start vertex, sorted adjacency) is returned, so output is stable.
    """
    best: Optional[list[int]] = None
    out = g.out_adj
    for s in range(g.n):
        if best is not None and len(best) == 2:
            break  # nothing shorter exists
        dist = {s: 0}
        parent: dict[int, int] = {}
        queue = [s]
        found_len = None
        closing = None
        while queue and found_len is None:
            nxt: list[int] = []
            for u in queue:
                if best is not None and dist[u] + 1 >= len(best):
                    continue
                for w in out[u]:
                    if w == s:
                        found_len = dist[u] + 1
                        closing = u
                        break
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                if found_len is not None:
                    break
            queue = nxt
        if found_len is not None and (best is None or found_len < len(best)):
            path = [closing]
            while path[-1] != s:
                path.append(parent[path[-1]])
            best = list(reversed(path))
    return best


def make_transitive_tournament(h: int) -> Digraph:
    """T_h: edges (i,j) for all i < j."""
    if h < 1:
        raise InvalidInputError(f"transitive tournament needs h >= 1, got {h}")
    return Digraph._from_trusted(
        h, frozenset((i, j) for i in range(h) for j in range(i + 1, h))
    )


def make_rooted_star(h: int, source: bool = True) -> Digraph:
    """Star on h vertices rooted at vertex 0, pointing out (source) or in (sink)."""
    if h < 2:
        raise InvalidInputError(f"rooted star needs h >= 2, got {h}")
    if source:
        edges = frozenset((0, i) for i in range(1, h))
    else:
        edges = frozenset((i, 0) for i in range(1, h))
    return Digraph._from_trusted(h, edges)


def make_directed_path(length: int) -> Digraph:
    """Directed path with `length` edges on length+1 vertices."""
    if length < 1:
        raise InvalidInputError(f"directed path needs length >= 1, got {length}")
    return Digraph._from_trusted(length + 1, frozenset((i, i + 1) for i in range(length)))


def is_rooted_star(g: Digraph) -> bool:
    """True iff all edges share one endpoint which is a source or a sink.

    Judged from the edges alone; callers are expected to pass graphs
    without isolated vertices.
    """
    edges = g.sorted_edges
    if not edges:
        raise InvalidInputError("rooted-star test needs at least one edge")
    u0, v0 = edges[0]
    common = {u0, v0}
    for u, v in edges[1:]:
        common &= {u, v}
        if not common:
            return False
    for c in sorted(common):
        if all(u == c for u, _ in edges):  # c is a source
            return True
        if all(v == c for _, v in edges):  # c is a sink
            return True
    return False
