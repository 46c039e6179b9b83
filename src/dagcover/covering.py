"""H-copy enumeration and permutation covering numbers.

Copies are listed by a join (`_join`), the generic-join view of
subgraph listing: a matrix of partial embeddings, one int32 column per
pattern vertex in `_pattern_order`, grows one column at a time from the
host's CSR rows (`Digraph.index`), and the other adjacencies are looked
up in its sorted edge keys.  Rows come in blocks of bounded size,
finished depth first, in the lexicographic order of a backtracking
search trying the lowest host vertex first; `tests/oracles._embed` is
that search, kept as the oracle.

A permutation covers a copy when all of the copy's edges run forward.
The whole module leans on one fact: a single permutation can cover a
family of copies if and only if the union of their edge sets is acyclic
(a topological order of an acyclic union covers every member; a
directed cycle in the union defeats any single order, because each
permutation makes some cycle edge backward).  It follows that
tau(H, G) equals the minimum number of groups in a partition of the
copies into acyclic-union families, which is what the exact solver
searches for, and that tau <= 1 exactly when the union of all copies is
acyclic.  The brute-force oracle over all n! permutations in the test
suite confirms the equivalence.

`_Group` is the one group engine: an acyclic copy union with a
topological order and one adjacency, its in-edges, grown by `try_add`
and shrunk by `remove`.  `try_add` inserts a copy's edges in one pass: a
backward edge's search for the vertices reaching its tail both keeps
the order topological and finds any cycle the edge closes; a copy that
closes one is taken back out exactly.  The greedy cover and the exact
search build their groups with it, first fit in `_first_fit`; the
conflict relation (below) needs no group.  A group of _SNAPSHOT_EDGES or
more edges also keeps `anc`, each vertex's ancestor bitset taken forward
over the order, again each time the union grows by a quarter: a path it
saw survives every later add, so it rejects copies without a search.

Two copies conflict when their union has a cycle.  Each copy is acyclic,
so a simple cycle in the union uses edges of both: it switches from one
copy's edges to the other's and back at 2k distinct vertices, all
shared, and each stretch between two switches is a path inside one
copy, so a reachable pair of that copy.  When the copies share at most
three vertices, 2k = 2: one copy reaches b from a and the other reaches
a from b.  Conversely, two such paths make a closed walk in the union,
so a cycle.  The conflict relation (`_conflicts`) decides every pair
from the key rows in numpy, with one bit closure (`_closure`): the
h-bit closure of each row gives its reachable pairs, and a join of each
pair key a * n + b against the reversed keys pairs up the copies
reaching opposite ways.  The pairs sharing four or more vertices that it
leaves apart, found by the same join over vertex keys, get the closure
of their union, and conflict when a vertex reaches itself.  The pair
join misses some: the copies {(0, 1), (2, 3)} and {(1, 2), (3, 0)}
close a 4-cycle but reach no pair in opposite directions.  Both clique
lower bounds read this one relation and grow their cliques with one
routine, `_greedy_clique`: `tau_exact` on the whole set,
`tau_lower_clique` on the copies sharing two or more vertices with its
start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator, Optional, Sequence

import numpy as np

from .digraph import (
    Digraph,
    Edge,
    EdgeIndex,
    Permutation,
    forward_count,
    is_dag,
    is_rooted_star,
    shortest_directed_cycle,
    topological_order,
)
from .errors import InfeasibleSizeError, InvalidInputError, SizeLimitError
from .rng import substream
from .skewness import Partition, SkewReport, skewness_exact

DEFAULT_COPY_CAP = 10**6
DEFAULT_NODE_BUDGET = 2_000_000
MAX_HOST_VERTICES = 10**7  # the host's CSR arrays and vertex orders take O(n) memory
MAX_PATTERN_VERTICES = 10
MAX_EXACT_COPIES = 512


@dataclass(frozen=True, slots=True)
class Copy:
    """One H-copy, identified by its edge set (automorphic re-embeddings collapse)."""

    vertices: frozenset[int]
    edges: frozenset[Edge]


@dataclass(frozen=True, eq=False)
class CopySet:
    """The copies of `pattern` in `host`, one row of `keys` each.

    Row i of the [count, e(H)] int64 array `keys` is copy i's edges
    (u, v) as keys u * n + v, ascending, so in (u, v) order, and the
    rows are distinct and ascending: 8 * e(H) bytes a copy.  The library
    reads only the rows; `decode` turns a block of them into edge lists.
    `copies` builds the `Copy` objects the first time it is read and
    keeps them.
    """

    host: Digraph
    pattern: Digraph
    keys: np.ndarray
    truncated: bool

    def __len__(self) -> int:
        return len(self.keys)

    def decode(self, ids: Sequence[int] | np.ndarray) -> list[list[Edge]]:
        """The edges of each copy in `ids`, in (u, v) order."""
        tails, heads = np.divmod(self.keys[ids], self.host.n)
        pairs = list(zip(tails.ravel().tolist(), heads.ravel().tolist()))
        e = tails.shape[1]
        return [pairs[lo:lo + e] for lo in range(0, len(pairs), e)]

    @cached_property
    def copies(self) -> tuple[Copy, ...]:
        """Every copy as a `Copy`, in row order, built on first read and kept."""
        tails, heads = np.divmod(self.keys, self.host.n)
        return tuple(
            Copy(frozenset(us + vs), frozenset(zip(us, vs)))
            for us, vs in zip(tails.tolist(), heads.tolist())
        )


@dataclass(frozen=True, slots=True)
class CoverSolution:
    """Permutations plus copy -> permutation assignment; every copy fully forward.

    `truncated` marks a cover of a copy set cut off by the enumeration
    cap: copies beyond the cap may need more permutations.
    """

    permutations: tuple[Permutation, ...]
    assignment: tuple[int, ...]
    truncated: bool = False

    @property
    def size(self) -> int:
        return len(self.permutations)

    def covers(self, copies: CopySet) -> bool:
        """True iff each copy's edges all run forward in its assigned permutation."""
        if len(copies) != len(self.assignment):
            return False
        if not self.assignment:
            return True
        positions = np.array([perm.position for perm in self.permutations], dtype=np.int64)
        tails, heads = np.divmod(copies.keys, copies.host.n)
        at = np.array(self.assignment, dtype=np.int64)[:, None]
        return bool((positions[at, tails] < positions[at, heads]).all())

    def to_json_dict(self) -> dict:
        return {
            "tau": self.size,
            "perms": [list(p.order) for p in self.permutations],
            "assignment": list(self.assignment),
        }


@dataclass(frozen=True)
class ConsistentFamily:
    """Disjoint vertex sets appearing as blocks, one before the other, in every permutation."""

    sets: tuple[frozenset[int], ...]
    x: int

    @property
    def r(self) -> int:
        return len(self.sets)

    def to_json_dict(self) -> dict:
        return {"sets": [sorted(s) for s in self.sets]}


# --- copy enumeration ------------------------------------------------------

def _pattern_order(h: Digraph) -> list[int]:
    """Visit pattern vertices so each one hangs off the already-mapped part."""
    deg = [len(h.out_adj[v]) + len(h.in_adj[v]) for v in range(h.n)]
    order = [max(range(h.n), key=lambda v: (deg[v], -v))]
    placed = set(order)
    while len(order) < h.n:
        def rank(v: int) -> tuple[int, int, int]:
            links = sum(1 for w in h.out_adj[v] if w in placed) + sum(
                1 for w in h.in_adj[v] if w in placed
            )
            return (links, deg[v], -v)

        nxt = max((v for v in range(h.n) if v not in placed), key=rank)
        order.append(nxt)
        placed.add(nxt)
    return order


def _check_pattern(h: Digraph) -> None:
    if h.n > MAX_PATTERN_VERTICES:
        raise SizeLimitError(f"pattern enumeration is limited to {MAX_PATTERN_VERTICES} vertices")
    if not is_dag(h):
        raise InvalidInputError("pattern must be a dag")
    if h.edge_count == 0:
        raise InvalidInputError("pattern needs at least one edge")
    if h.isolated_vertices():
        raise InvalidInputError("pattern must not have isolated vertices")


_JOIN_BLOCK = 1 << 15  # candidate rows per extension step: bounds the join's memory


def _extend(step: tuple, cols: list[np.ndarray], index: EdgeIndex, n: int) -> Iterator[list[np.ndarray]]:
    """The partial embeddings `cols` extended by one column, chunk by chunk."""
    ok, links, apart = step
    if not cols:
        first = np.flatnonzero(ok).astype(np.int32)
        if len(first):
            yield [first]
        return
    rows = len(cols[0])
    if links:
        c, tail = links[0]
        ptr, nbr, deg = ((index.in_ptr, index.in_idx, index.in_deg) if tail
                         else (index.out_ptr, index.out_idx, index.out_deg))
        starts = ptr[cols[c]]
        lens = deg[cols[c]]
    else:
        nbr = np.flatnonzero(ok).astype(np.int32)  # w has no mapped neighbour, so ok is set
        starts = np.zeros(rows, dtype=np.int64)
        lens = np.full(rows, len(nbr), dtype=np.int64)
    ends = np.cumsum(lens, dtype=np.int64)
    firsts = ends - lens
    shift = starts - firsts  # candidate j of the step is nbr[j + shift[row]]
    # chunks of the rows whose candidates start in one _JOIN_BLOCK window
    cuts = [0, rows]
    if ends[-1] > _JOIN_BLOCK:
        cuts[1:1] = (np.flatnonzero(np.diff(firsts // _JOIN_BLOCK)) + 1).tolist()
    keys = index.keys
    for lo, hi in zip(cuts, cuts[1:]):
        span = lens[lo:hi]
        rep = np.repeat(np.arange(lo, hi), span)
        cand = nbr[np.repeat(shift[lo:hi], span) + np.arange(firsts[lo], ends[hi - 1])]
        keep = None if ok is None else ok[cand]
        if len(links) > 1:
            wide = cand.astype(np.int64)
        for c, tail in links[1:]:
            other = cols[c][rep].astype(np.int64)
            q = wide * n + other if tail else other * n + wide
            hit = keys.take(np.searchsorted(keys, q), mode="clip") == q
            keep = hit if keep is None else keep & hit
        for c in apart:
            differ = cand != cols[c][rep]
            keep = differ if keep is None else keep & differ
        if keep is not None:
            rep, cand = rep[keep], cand[keep]
        if len(rep):
            yield [col[rep] for col in cols] + [cand]


def _join(
    g: Digraph,
    h: Digraph,
    order: Sequence[int],
    allowed: Optional[Sequence[Optional[frozenset[int]]]] = None,
) -> Iterator[list[np.ndarray]]:
    """Every embedding of h in g, in blocks of int32 columns.

    Column d of a block holds the images of pattern vertex order[d].
    Each step extends the partial embeddings by one column: candidates
    come from the CSR slice of the first mapped neighbour (every host
    vertex when there is none), the other adjacencies are looked up in
    the sorted edge keys, and the degree filter, `allowed` and
    injectivity are column compares.  Slices are sorted, so the rows of
    the blocks, read in turn, come in lexicographic order of their
    columns, the order of a backtracking search trying candidates
    lowest first.  Each step extends its rows in chunks of at most
    _JOIN_BLOCK candidates plus one row's, and a stack finishes each
    chunk depth first, so the join holds O(h^2 * (_JOIN_BLOCK + n))
    integers whatever the number of partial embeddings, and a caller
    that stops reading stops the search.  A host of more than
    MAX_HOST_VERTICES vertices is refused before its arrays are built.
    """
    if g.n > MAX_HOST_VERTICES:
        raise SizeLimitError(f"copy enumeration is limited to hosts of {MAX_HOST_VERTICES} vertices, got {g.n}")
    index = g.index
    at = {w: d for d, w in enumerate(order)}
    steps = []
    for d, w in enumerate(order):
        # the degree filter only prunes: once every neighbour of w is
        # mapped, the adjacency checks imply it
        ok = None
        if any(at[u] > d for u in h.out_adj[w] + h.in_adj[w]):
            ok = (index.out_deg >= len(h.out_adj[w])) & (index.in_deg >= len(h.in_adj[w]))
        if allowed is not None and allowed[w] is not None:
            inside = np.zeros(g.n, dtype=bool)
            inside[[v for v in allowed[w] if 0 <= v < g.n]] = True
            ok = inside if ok is None else ok & inside
        # mapped neighbours: (column, True when w is the edge's tail)
        links = sorted([(at[u], True) for u in h.out_adj[w] if at[u] < d]
                       + [(at[u], False) for u in h.in_adj[w] if at[u] < d])
        # a candidate differs from its neighbours' images: the host has no loops
        apart = [c for c in range(d) if c not in {c for c, _ in links}]
        steps.append((ok, links, apart))
    stack = [_extend(steps[0], [], index, g.n)]
    while stack:
        cols = next(stack[-1], None)
        if cols is None:
            stack.pop()
        elif len(cols) == len(order):
            yield cols
        else:
            stack.append(_extend(steps[len(cols)], cols, index, g.n))


def _first_copies(keys: np.ndarray, cap: int) -> tuple[np.ndarray, bool]:
    """The first `cap` distinct rows of `keys`, sorted, and whether another exists.

    A stable lexsort puts equal rows together in their order, so the
    first of each run is the row's first occurrence.
    """
    at = np.lexsort(keys.T[::-1])
    keys = keys[at]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    keys, at = keys[first], at[first]
    if len(keys) <= cap:
        return keys, False
    return keys[at < np.partition(at, cap)[cap]], True


def enumerate_copies(g: Digraph, h: Digraph, cap: int = DEFAULT_COPY_CAP) -> CopySet:
    """All subgraphs of g isomorphic to h, deduplicated by edge set.

    The embeddings come from `_join` in lexicographic order, the order
    of a backtracking search trying candidates lowest first
    (`tests/oracles._embed` is that search, kept as the oracle).  Each
    embedding's copy is its sorted row of edge keys u * n + v.  The rows
    are deduplicated whenever more than max(cap, twice the copies found)
    are held, so the search stops soon after a copy beyond the first
    `cap` appears.  A truncated set holds the first `cap` copies in that
    order and is flagged, not an error.  The set keeps the rows
    themselves, sorted, so copies come ordered by their sorted edge
    lists; no `Copy` is built until `CopySet.copies` is read.  Hosts are
    limited to MAX_HOST_VERTICES declared vertices, isolated ones
    included.
    """
    _check_pattern(h)
    if cap < 0:
        raise InvalidInputError(f"copy cap must be >= 0, got {cap}")
    order = _pattern_order(h)
    at = {w: d for d, w in enumerate(order)}
    ends = [(at[u], at[v]) for u, v in h.sorted_edges]
    n = g.n
    held = [np.empty((0, len(ends)), dtype=np.int64)]
    rows, limit = 0, cap
    truncated = False
    for cols in _join(g, h, order):
        keys = np.empty((len(cols[0]), len(ends)), dtype=np.int64)
        for j, (a, b) in enumerate(ends):
            np.multiply(cols[a], n, out=keys[:, j], dtype=np.int64)
            keys[:, j] += cols[b]
        keys.sort(axis=1)
        held.append(keys)
        rows += len(keys)
        if rows > limit:
            found, truncated = _first_copies(np.concatenate(held), cap)
            held = [found]
            if truncated:
                break
            rows, limit = len(found), max(cap, 2 * len(found))
    if not truncated:
        found, truncated = _first_copies(np.concatenate(held), cap)
    found.flags.writeable = False
    return CopySet(host=g, pattern=h, keys=found, truncated=truncated)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of `a`, all >= 0, ascending.

    Not numpy's unique, whose first call in a process adds about 1.7 MB
    to peak RSS whatever the input size.
    """
    a = np.sort(a, axis=None)
    return a[np.diff(a, prepend=-1) > 0]


def union_graph(copyset: CopySet) -> Digraph:
    """The spanning subgraph of the host holding every edge lying in some copy."""
    tails, heads = np.divmod(_distinct(copyset.keys), copyset.host.n)
    return Digraph._from_trusted(copyset.host.n, frozenset(zip(tails.tolist(), heads.tolist())))


@dataclass(frozen=True)
class TauOneResult:
    acyclic: bool
    order: Optional[Permutation]
    cycle: Optional[tuple[int, ...]]
    truncated: bool
    union: Digraph


def tau_le_one(g: Digraph, h: Digraph, cap: int = DEFAULT_COPY_CAP) -> TauOneResult:
    """Is one permutation enough?  True iff the union of all copies is acyclic.

    The certificate is a covering permutation (topological order of the
    union, extended over all of g) or a shortest directed cycle of it.
    """
    cs = enumerate_copies(g, h, cap)
    gh = union_graph(cs)
    order = topological_order(gh)
    if order is not None:
        return TauOneResult(acyclic=True, order=order, cycle=None, truncated=cs.truncated, union=gh)
    cyc = shortest_directed_cycle(gh)
    assert cyc is not None
    return TauOneResult(acyclic=False, order=None, cycle=tuple(cyc), truncated=cs.truncated, union=gh)


# --- a group of copies with an acyclic union ---------------------------------

_SNAPSHOT_EDGES = 64  # a group this large keeps a reachability snapshot


class _Group:
    """The edge union of a family of copies, acyclic, with a topological order.

    `order` lists every vertex the group has touched, with each union
    edge running forward; `in_` maps each to its in-neighbours, and
    `count` each union edge to the number of member copies holding it.
    `try_add` is the one way in: it inserts a copy's edges one by one,
    and places a backward edge (u, v) by the window shift of
    Marchetti-Spaccamela, Nanni and Rohnert: the vertices of the window
    [pos(v), pos(u)] reaching u, found by a backward search over
    in-edges, move to just before v, both they and the rest keeping
    their relative order.  No other window vertex has an edge into them,
    since it would reach u too, so the order stays topological.  The
    search is also the cycle test: a cycle through (u, v) is a path from
    v to u, which stays inside the window, so the search meets v.

    `anc` is a reachability snapshot (the per-vertex bitsets of
    Italiano's incremental closure, taken whole instead of kept up to
    date): it maps each vertex of `order` to the bitset of itself and
    its ancestors over group edges when the snapshot was taken, and is
    empty while there is none.  `try_add` takes it once the union holds
    _SNAPSHOT_EDGES edges and again whenever the union has grown by a
    quarter since, in one pass over the order, at most |order| * n / 8
    bytes.  Between removes the union only grows, so a stale snapshot
    holds only true paths: it may reject a copy, never accept one.
    """

    def __init__(self, edges: Collection[Edge] = ()) -> None:
        """A group holding `edges`, one acyclic copy, or nothing."""
        self.in_: dict[int, set[int]] = {}
        self.pos: dict[int, int] = {}
        self.order: list[int] = []
        self.count: dict[Edge, int] = {}
        # edges (u, v) whose head v reaches u over group edges alone: no
        # copy holding one fits while the union only grows; remove clears it
        self.closing: set[Edge] = set()
        self.anc: dict[int, int] = {}
        self.snapshot_at = _SNAPSHOT_EDGES  # union size that takes the next snapshot
        if not self.try_add(edges):
            raise AssertionError("a group's first copy must be acyclic")

    def try_add(self, edges: Collection[Edge]) -> bool:
        """Add one copy's edges if the union stays acyclic; True iff added.

        An edge in `closing`, or an edge (u, v) whose head reached u in
        the snapshot, refuses the copy at once.  Otherwise the edges go
        in sorted, with vertices new to the group appended to the order.
        A backward edge (u, v) closes a cycle iff the backward search from
        u, over positions above pos(v), meets v; if so, the copy comes
        out again: the windows logged before each move are put back in
        reverse, the inserted edges deleted, the appended vertices
        dropped and the holder counts restored.  When none of the copy's
        edges had gone in yet, group edges alone closed that cycle, and
        (u, v) goes into `closing`, which refuses the next copy holding
        it at once.
        """
        closing = self.closing
        if closing and not closing.isdisjoint(edges):
            return False
        anc = self.anc
        if anc:
            for u, v in edges:
                if anc.get(u, 0) >> v & 1:
                    return False
        pos, order, count, in_ = self.pos, self.order, self.count, self.in_
        end = len(order)
        held: list[Edge] = []  # edges already in the union, whose counts went up
        added: list[Edge] = []  # edges new to the union
        moved: list[tuple[int, list[int]]] = []  # (pos(v), window [pos(v), pos(u)]) before each move
        for e in sorted(edges):
            if e in count:
                count[e] += 1
                held.append(e)
                continue
            u, v = e
            if u not in pos:
                pos[u] = len(order)
                order.append(u)
                in_[u] = set()
            if v not in pos:
                pos[v] = len(order)
                order.append(v)
                in_[v] = set()
            pu, pv = pos[u], pos[v]
            if pu > pv:
                # the window's vertices reaching u, found breadth first
                block = [u]
                seen = {u}
                for x in block:
                    for y in in_[x]:
                        if y not in seen:
                            if pos[y] > pv:
                                seen.add(y)
                                block.append(y)
                            elif y == v:
                                if not added:
                                    closing.add(e)
                                self._undo(end, moved, added, held)
                                return False
                moved.append((pv, order[pv:pu + 1]))
                block.sort(key=pos.__getitem__)
                for x in reversed(block):
                    del order[pos[x]]
                order[pv:pv] = block
                pos.update(zip(order[pv:pu + 1], range(pv, pu + 1)))
            count[e] = 1
            added.append(e)
            in_[v].add(u)
        if len(count) >= self.snapshot_at:
            self._snapshot()
        return True

    def _undo(self, end: int, moved: list[tuple[int, list[int]]], added: list[Edge],
              held: list[Edge]) -> None:
        """Take a refused copy back out, leaving the group as it was before `try_add`."""
        order, pos, count, in_ = self.order, self.pos, self.count, self.in_
        for lo, window in reversed(moved):
            order[lo:lo + len(window)] = window
            pos.update(zip(window, range(lo, lo + len(window))))
        # the edges first: an inserted edge's head may be an appended vertex
        for u, v in added:
            del count[u, v]
            in_[v].discard(u)
        for x in order[end:]:
            del pos[x], in_[x]
        del order[end:]
        for e in held:
            count[e] -= 1

    def _snapshot(self) -> None:
        """Take `anc` afresh over the order, which meets each edge's tail first."""
        anc: dict[int, int] = {}
        in_ = self.in_
        for x in self.order:
            reach = 1 << x
            for y in in_[x]:
                reach |= anc[y]
            anc[x] = reach
        self.anc = anc
        self.snapshot_at = len(self.count) * 5 // 4

    def remove(self, edges: Iterable[Edge]) -> None:
        """Take one copy's edges out; an edge leaves when no member holds it.

        Deleting edges keeps any topological order valid, so nothing
        moves, but the path behind a `closing` edge or a snapshot bit
        may go, so the memo is cleared and a snapshot dropped; the next
        one waits for the union to grow by a quarter again.  A remove
        from a group without one leaves that rule alone, so adding and
        removing one small copy in turn takes no snapshot.
        """
        self.closing.clear()
        for u, v in edges:
            left = self.count[u, v] - 1
            if left:
                self.count[u, v] = left
            else:
                del self.count[u, v]
                self.in_[v].discard(u)
        if self.anc:
            self.anc = {}
            self.snapshot_at = len(self.count) * 5 // 4


def _extend_to_permutation(n: int, prefix: Sequence[int]) -> Permutation:
    """Extension rule: the group's order first, remaining vertices by index."""
    seen = set(prefix)
    order = list(prefix) + [v for v in range(n) if v not in seen]
    return Permutation._from_trusted(tuple(order))


# --- greedy and lower bounds ------------------------------------------------

# copies `tau_greedy` decodes at a time: over sweep hosts (500, 0..3),
# decoding each whole scan at once raised peak RSS from 50.3 to 54.0 MB
_DECODE_BLOCK = 1024

def _first_fit(cs: CopySet, blocks: Iterable[tuple[list[int], list[list[Edge]]]]) -> CoverSolution:
    """The checked first-fit cover of `cs`, over its copies' (ids, rows) blocks in turn."""
    groups: list[_Group] = []
    assignment = [0] * len(cs)
    for ids, rows in blocks:
        for i, edges in zip(ids, rows):
            for gi, group in enumerate(groups):
                if group.try_add(edges):
                    break
            else:
                gi = len(groups)
                groups.append(_Group(edges))
            assignment[i] = gi
    perms = tuple(_extend_to_permutation(cs.host.n, group.order) for group in groups)
    solution = CoverSolution(permutations=perms, assignment=tuple(assignment), truncated=cs.truncated)
    if not solution.covers(cs):
        raise AssertionError("greedy cover failed verification")
    return solution


def tau_greedy(
    g: Digraph,
    h: Digraph,
    seed: int,
    cap: int = DEFAULT_COPY_CAP,
    copies: Optional[CopySet] = None,
) -> CoverSolution:
    """First-fit cover: scan copies in seeded random order, first group whose
    union stays acyclic takes the copy, otherwise a new group opens."""
    cs = copies if copies is not None else enumerate_copies(g, h, cap)
    scan = substream(seed).permutation(len(cs))
    blocks = (scan[lo:lo + _DECODE_BLOCK] for lo in range(0, len(cs), _DECODE_BLOCK))
    return _first_fit(cs, ((ids.tolist(), cs.decode(ids)) for ids in blocks))


# copies `tau_lower_clique` adds to its conflict relation at a time; the
# relation is quadratic in its rows.  On D8 with 4- and 5-vertex patterns a
# block of 512 took 3 to 6 times as long as one of 64 (process time,
# 2-vCPU machine); on T3 sweep hosts, D32 and D48 the two took the same.
_CLIQUE_BLOCK = 64


def _greedy_clique(near: Sequence[set[int]], start: int, order: Iterable[int]) -> list[int]:
    """`start`, then each copy of `order` in conflict with every member so far.

    near[i] is the set of copies in conflict with copy i.
    """
    clique = [start]
    left = near[start]
    for j in order:
        if j in left:
            clique.append(j)
            left = left & near[j]  # not &=: the sets are the caller's
    return clique


def tau_lower_clique(
    g: Digraph,
    h: Digraph,
    seed: int,
    cap: int = DEFAULT_COPY_CAP,
    copies: Optional[CopySet] = None,
) -> int:
    """Greedy clique in the conflict graph: pairwise-conflicting copies
    all need distinct permutations, so the clique size bounds tau from below.

    The scan order is the seeded shuffle, but the growth starts from the
    first shuffled copy containing an edge whose reversal also lies in
    some copy: such a copy is guaranteed a conflict partner, whereas a
    uniformly random start is usually conflict-free in sparse hosts and
    would freeze the clique at size 1.  Every member conflicts with the
    start, so shares two or more of its vertices (see the module
    docstring).  Only those copies are scanned, in the shuffled order
    and _CLIQUE_BLOCK at a time: `_conflicts` builds the relation on the
    members and the block, and `_greedy_clique` takes the members again,
    then each copy of the block in conflict with every member so far.
    """
    cs = copies if copies is not None else enumerate_copies(g, h, cap)
    if not len(cs):
        return 0
    scan = substream(seed).permutation(len(cs))
    n = cs.host.n
    tails, heads = np.divmod(cs.keys, n)
    has_reversal = np.isin(heads * n + tails, cs.keys).any(axis=1)
    starts = scan[has_reversal[scan]]
    start = int(starts[0] if len(starts) else scan[0])
    verts = _vertices(cs.keys, n, cs.pattern.n)
    near_start = np.isin(verts, verts[start]).sum(axis=1) >= 2
    scan = scan[near_start[scan] & (scan != start)]
    clique = [start]
    for lo in range(0, len(scan), _CLIQUE_BLOCK):
        ids = clique + scan[lo:lo + _CLIQUE_BLOCK].tolist()
        near = [set(js) for js in _conflicts(cs.keys[ids], n, cs.pattern.n)]
        clique = [ids[j] for j in _greedy_clique(near, 0, range(1, len(ids)))]
    return len(clique)


# --- exact tau --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TauExactResult:
    """Bounds on tau over the copies in the set, exact only when they meet.

    A truncated copy set is never exact: `lower` still bounds the true
    tau from below, but `upper` covers only the copies found.
    """

    lower: int
    upper: int
    exact: bool
    solution: CoverSolution
    nodes: int
    truncated: bool = False

    @property
    def value(self) -> int:
        if not self.exact:
            raise InvalidInputError("node budget or copy cap hit; only bounds are available")
        return self.upper


class _Budget(Exception):
    pass


def _equal_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with a[i] == b[j], ascending in i."""
    at = np.argsort(b, kind="stable")
    ordered = b[at]
    lo = np.searchsorted(ordered, a, "left")
    hits = np.searchsorted(ordered, a, "right") - lo
    i = np.repeat(np.arange(len(a)), hits)
    return i, at[np.arange(len(i)) - np.repeat(np.cumsum(hits) - hits - lo, hits)]


def _vertices(keys: np.ndarray, n: int, h: int) -> np.ndarray:
    """Row i: the h vertices of key row i, ascending."""
    ends = np.sort(np.concatenate(np.divmod(keys, n), axis=1), axis=1)
    first = np.ones(ends.shape, dtype=bool)
    first[:, 1:] = ends[:, 1:] != ends[:, :-1]
    return ends[first].reshape(len(keys), h)


def _closure(tails: np.ndarray, heads: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """reach[r, a] masks the local ids that local id a reaches over row r's edges.

    Row r's edges run from tails[r] to heads[r], and a vertex's local id
    counts the entries of verts[r] below it, so distinct vertices get
    distinct ids, all below verts.shape[1].
    """
    lt, lh = (np.stack([tails, heads])[..., None] > verts[:, None, :]).sum(axis=3)
    reach = np.zeros(verts.shape, dtype=np.int64)
    np.bitwise_or.at(reach, (np.arange(len(verts))[:, None], lt), 1 << lh)
    for k in range(verts.shape[1]):
        reach |= (reach >> k & 1) * reach[:, k:k + 1]
    return reach


def _conflicts(keys: np.ndarray, n: int, h: int) -> list[list[int]]:
    """Entry i lists, ascending, the key rows that cannot share a group with row i.

    `keys` holds copies of an h-vertex pattern in an n-vertex host, one
    row each (see the module docstring).  A row's h vertices, ascending,
    are its local ids, and the pair join reads each row's closure.  The
    pairs sharing four or more vertices that it leaves apart get the
    closure of their union, over the 2h vertices of the two rows: a
    shared vertex is there twice, but the count below it is the same
    for both, so each vertex keeps one local id below 2h, and a vertex
    reaching itself is a cycle.  The relation can be quadratic in the
    rows, so the library builds it only on small sets: within
    MAX_EXACT_COPIES for `tau_exact`, and for `tau_lower_clique` on its
    members and at most _CLIQUE_BLOCK copies sharing two or more
    vertices with its start.
    """
    count = len(keys)
    tails, heads = np.divmod(keys, n)
    verts = _vertices(keys, n, h)
    row, a, b = np.nonzero(_closure(tails, heads, verts)[:, :, None] >> np.arange(h) & 1)
    ta, tb = verts[row, a], verts[row, b]
    p, q = _equal_pairs(ta * n + tb, tb * n + ta)
    codes = row[p] * count + row[q]  # rows i and j in conflict, as i * count + j
    if h >= 4:
        p, q = _equal_pairs(verts.ravel(), verts.ravel())
        p, q = p // h, q // h
        shared = np.sort((p * count + q)[p < q])  # one code per shared vertex
        shared = _distinct(shared[3:][shared[3:] == shared[:-3]])
        p, q = np.divmod(shared[~np.isin(shared, codes)], count)
        reach = _closure(np.concatenate([tails[p], tails[q]], axis=1),
                         np.concatenate([heads[p], heads[q]], axis=1),
                         np.concatenate([verts[p], verts[q]], axis=1))
        cycle = (reach >> np.arange(2 * h) & 1).any(axis=1)
        p, q = p[cycle], q[cycle]
        codes = np.concatenate([codes, p * count + q, q * count + p])
    codes = _distinct(codes)
    flat = (codes % count).tolist()
    cuts = np.cumsum(np.bincount(codes // count, minlength=count)).tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + cuts, cuts)]


def tau_exact(
    g: Digraph,
    h: Digraph,
    budget: int = DEFAULT_NODE_BUDGET,
    cap: int = DEFAULT_COPY_CAP,
    copies: Optional[CopySet] = None,
) -> TauExactResult:
    """Minimum number of acyclic-union groups partitioning the copies.

    Branch and bound over copy -> group assignments.  A greedy conflict
    clique is pre-assigned to distinct groups (sound: its members are
    pairwise incompatible and group labels are interchangeable), and a
    copy may open at most one new group.  The next copy branched on is
    the first remaining one with the most blocked groups, those holding
    a member it conflicts with, so the fewest open groups left to try.
    Blocked counts are kept up to date as copies join and leave groups
    and groups open and close, not recounted at every node.  The clique
    and the blocked counts read the conflict lists of `_conflicts`,
    joined from the key rows (see the module docstring); the rows are
    decoded once, for the search and tau_greedy's seed-0 cover, its
    first upper bound.  If the node budget runs out, or the copy set is
    truncated, the result degrades to (lower, upper) bounds.
    """
    if budget < 0:
        raise InvalidInputError(f"node budget must be >= 0, got {budget}")
    cs = copies if copies is not None else enumerate_copies(g, h, cap)
    count = len(cs)
    if count == 0:
        empty = CoverSolution(permutations=(), assignment=(), truncated=cs.truncated)
        return TauExactResult(lower=0, upper=0, exact=not cs.truncated, solution=empty, nodes=0,
                              truncated=cs.truncated)
    if count > MAX_EXACT_COPIES:
        raise SizeLimitError(
            f"exact tau lists every copy's conflicts; limited to {MAX_EXACT_COPIES} copies, got {count}"
        )

    conflicts = _conflicts(cs.keys, cs.host.n, cs.pattern.n)

    # deterministic greedy clique, the first longest over all starting
    # copies: each takes the lowest copy that conflicts with every member
    sets = [set(near) for near in conflicts]
    best_clique = max((_greedy_clique(sets, i, near) for i, near in enumerate(conflicts)), key=len)
    lower = len(best_clique)

    items = cs.decode(np.arange(count))
    scan = substream(0).permutation(count).tolist()
    greedy = _first_fit(cs, [(scan, [items[i] for i in scan])])
    best_size = greedy.size
    best_assign = list(greedy.assignment)
    if lower == best_size:
        return TauExactResult(lower=lower, upper=best_size, exact=not cs.truncated, solution=greedy,
                              nodes=0, truncated=cs.truncated)

    anchor = sorted(best_clique)
    pinned = set(anchor)
    rest = [i for i in range(count) if i not in pinned]

    assignment = [-1] * count
    groups: list[_Group] = []
    # hits[gi][j]: members of group gi in conflict with copy j;
    # blocked[j]: groups with a hit on j, which copy j cannot join
    hits: list[list[int]] = []
    blocked = [0] * count

    def open_group(first: int) -> None:
        groups.append(_Group(items[first]))
        row = [0] * count
        for j in conflicts[first]:
            row[j] = 1
            blocked[j] += 1
        hits.append(row)
        assignment[first] = len(groups) - 1

    def close_group(last: int) -> None:
        groups.pop()
        hits.pop()
        for j in conflicts[last]:
            blocked[j] -= 1

    for a in anchor:
        open_group(a)

    nodes = 0

    def search(remaining: list[int]) -> None:
        nonlocal nodes, best_size, best_assign
        nodes += 1
        if nodes > budget:
            raise _Budget
        used = len(groups)
        if used >= best_size:
            return
        if not remaining:
            best_size = used
            best_assign = list(assignment)
            return
        # most constrained copy first: the first with the most blocked groups
        i = max(remaining, key=blocked.__getitem__)
        pick_at = remaining.index(i)
        edges = items[i]
        near = conflicts[i]
        others = remaining[:pick_at] + remaining[pick_at + 1:]
        for gi in range(used):
            row = hits[gi]
            if not row[i] and groups[gi].try_add(edges):
                for j in near:
                    if not row[j]:
                        blocked[j] += 1
                    row[j] += 1
                assignment[i] = gi
                search(others)
                groups[gi].remove(edges)
                for j in near:
                    row[j] -= 1
                    if not row[j]:
                        blocked[j] -= 1
        if used + 1 < best_size:
            open_group(i)
            search(others)
            close_group(i)
        assignment[i] = -1

    complete = True
    try:
        search(rest)
    except _Budget:
        complete = False
    # search holds itself through its closure; dropping the name frees
    # the groups and tables by reference counting
    del search

    unions: list[set[Edge]] = [set() for _ in range(best_size)]
    for idx, gi in enumerate(best_assign):
        unions[gi].update(items[idx])
    perms = [topological_order(Digraph._from_trusted(cs.host.n, frozenset(union))) for union in unions]
    assert all(perm is not None for perm in perms)
    solution = CoverSolution(permutations=tuple(perms), assignment=tuple(best_assign),
                             truncated=cs.truncated)
    if not solution.covers(cs):
        raise AssertionError("exact cover failed verification")
    return TauExactResult(
        lower=best_size if complete else lower,
        upper=best_size,
        exact=complete and not cs.truncated,
        solution=solution,
        nodes=nodes,
        truncated=cs.truncated,
    )


# --- consistent families ----------------------------------------------------

def _restrict(perm: Permutation, ground: set[int]) -> list[int]:
    return [v for v in perm.order if v in ground]


def _pair_split(ground: set[int], perms: Sequence[Permutation]) -> tuple[set[int], set[int]]:
    """Two consistent sets of size floor(|ground| / 2**len(perms)).

    First and last halves of the first permutation, then refined through
    each further permutation keeping the larger consistent halves.
    """
    sigma = _restrict(perms[0], ground)
    size = len(sigma) // 2
    a = set(sigma[:size])
    b = set(sigma[len(sigma) - size:])
    for perm in perms[1:]:
        sigma = _restrict(perm, a | b)
        half = len(sigma) // 2
        c, d = sigma[:half], sigma[half:]
        a_in_c = [v for v in c if v in a]
        a_in_d = [v for v in d if v in a]
        nsize = size // 2
        if len(a_in_c) >= len(a_in_d):
            new_a = a_in_c[:nsize]
            new_b = [v for v in d if v in b][:nsize]
        else:
            new_a = a_in_d[:nsize]
            new_b = [v for v in c if v in b][:nsize]
        a, b, size = set(new_a), set(new_b), nsize
    return a, b


def consistent_sets(x_perms: Sequence[Permutation], t: int) -> ConsistentFamily:
    """r = 2**t disjoint sets, each a block of every permutation, sizes >= floor(n / r**x).

    Repeated halving: the ground set splits in two through all x
    permutations, then each part splits again, t levels deep.  Floors
    replace the exact divisibility of the idealized statement, which
    only costs the guaranteed size.  The result is verifier-checked.
    """
    if t < 1:
        raise InvalidInputError(f"t must be >= 1, got {t}")
    if not x_perms:
        raise InvalidInputError("need at least one permutation")
    n = len(x_perms[0])
    if any(len(p) != n for p in x_perms):
        raise InvalidInputError("permutations must share a length")
    x = len(x_perms)
    if n.bit_length() <= t * x:  # n < r**x = 2**(t * x), tested without building r**x
        raise InfeasibleSizeError(f"need n >= r**x = 2**{t * x}, got n = {n}")
    r = 1 << t

    parts: list[set[int]] = [set(range(n))]
    for _ in range(t):
        nxt: list[set[int]] = []
        for part in parts:
            a, b = _pair_split(part, x_perms)
            nxt.extend((a, b))
        parts = nxt
    family = ConsistentFamily(sets=tuple(frozenset(p) for p in parts), x=x)
    if not verify_consistent(x_perms, family.sets):
        raise AssertionError("constructed family failed the consistency verifier")
    if any(len(s) < n // r**x for s in family.sets):
        raise AssertionError("constructed family violates the size guarantee")
    return family


def verify_consistent(
    x_perms: Sequence[Permutation], sets: "Sequence[Iterable[int]] | ConsistentFamily"
) -> bool:
    """True iff in every permutation, any two sets appear one entirely before the other."""
    if isinstance(sets, ConsistentFamily):
        sets = sets.sets
    families = [frozenset(s) for s in sets]
    for perm in x_perms:
        pos = perm.position
        spans = []
        for s in families:
            if not s:
                continue
            ps = [pos[v] for v in s]
            spans.append((min(ps), max(ps)))
        spans.sort()
        for (lo1, hi1), (lo2, _) in zip(spans, spans[1:]):
            if lo2 <= hi1:
                return False
    return True


# --- the skew-witness pipeline ----------------------------------------------

def find_consistent_copy(
    g: Digraph,
    h: Digraph,
    coloring: Partition,
    sets: Sequence[Iterable[int]],
) -> Optional[Copy]:
    """First copy whose embedding maps color class i into sets[i], or None."""
    _check_pattern(h)
    fams = [frozenset(s) for s in sets]
    if len(coloring.blocks) > len(fams):
        raise InvalidInputError("coloring has more blocks than there are target sets")
    union_check: set[int] = set()
    for s in fams:
        if union_check & s:
            raise InvalidInputError("target sets must be disjoint")
        union_check |= s
    if coloring.n != h.n:
        raise InvalidInputError("coloring must partition the pattern's vertices")
    allowed: list[Optional[frozenset[int]]] = [None] * h.n
    for i, block in enumerate(coloring.blocks):
        for v in block:
            allowed[v] = fams[i]
    return _first_copy(g, h, allowed)


def _first_copy(g: Digraph, h: Digraph,
                allowed: Optional[Sequence[Optional[frozenset[int]]]] = None) -> Optional[Copy]:
    """The copy of the join's first embedding of h in g, or None; nothing else is listed."""
    order = _pattern_order(h)
    for cols in _join(g, h, order, allowed):
        image = {w: int(col[0]) for w, col in zip(order, cols)}
        return Copy(vertices=frozenset(image.values()),
                    edges=frozenset((image[u], image[v]) for u, v in h.edges))
    return None


def skew_witness_pipeline(
    g: Digraph,
    h: Digraph,
    x_perms: Sequence[Permutation],
    skew: Optional[SkewReport] = None,
) -> Optional[tuple[Copy, tuple[int, ...]]]:
    """A copy of h in g that no permutation of x_perms covers beyond s(h) edges.

    Witness coloring of the skewness, color count padded to a power of
    two, consistent sets for the given permutations, then a copy
    embedded color-class-by-set.  Inside the returned copy every color
    class is consecutive under every permutation, so the skewness bound
    applies per permutation; the coverage profile lists the per-
    permutation forward counts.  With no permutations, the copy is the
    join's first, with an empty profile.
    """
    if is_rooted_star(h):
        raise InvalidInputError("pipeline requires a pattern that is not a rooted star")
    report = skew if skew is not None else skewness_exact(h)
    if not x_perms:
        _check_pattern(h)  # a caller's skew report does not check it
        copy = _first_copy(g, h)
        return None if copy is None else (copy, ())
    if any(len(p) != g.n for p in x_perms):
        raise InvalidInputError("permutations must cover the host's vertex set")
    k = len(report.witness_coloring.blocks)
    t = max(1, (k - 1).bit_length())
    family = consistent_sets(x_perms, t)
    copy = find_consistent_copy(g, h, report.witness_coloring, family.sets[:k])
    if copy is None:
        return None
    profile = tuple(forward_count(copy.edges, p) for p in x_perms)
    if any(cnt > report.value for cnt in profile):
        raise AssertionError("pipeline postcondition violated: coverage exceeds the skewness")
    return copy, profile
