"""Independent reference implementations used as test oracles.

Everything here recomputes results along a different route than the
package: permutation covers are minimized by exhaustive search over all
n! coverage sets, coloring skews by explicitly generating every
respecting permutation, graph catalogs by raw bitmask enumeration,
copy conflicts by a Kahn peel of each pair's edge union, conflict
cliques by the same peel against every member, densest subsets by
enumerating every vertex subset, per-root min cuts on a fresh token
network (a node per edge, not the package's vertex network) with a flow
from zero, and H-copies by a backtracking search over
Python sets.  `compatible` is the one exception: it asks the package's
group engine, so that its tests can check that engine against is_dag.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from typing import Collection, Iterable, Optional, Sequence

from dagcover.covering import Copy, CopySet, _Group, _pattern_order, enumerate_copies, union_graph
from dagcover.density import DensityReport, _Dinic, _active_vertices, _check_input
from dagcover.digraph import Digraph, Edge, Permutation, forward_count, is_dag
from dagcover.errors import InvalidInputError, SizeLimitError
from dagcover.rng import substream


def _embed(
    g: Digraph,
    h: Digraph,
    cap: Optional[int],
    allowed: Optional[Sequence[Optional[frozenset[int]]]] = None,
    first_only: bool = False,
) -> tuple[list[Copy], bool]:
    """Backtracking embedding search; copies deduplicated by edge set.

    `allowed` optionally restricts the image of each pattern vertex.
    Candidates are tried in increasing host-vertex order, so the first
    `cap` copies are those of the lexicographically first embeddings;
    `truncated` is set iff another copy exists.  Copies are returned
    sorted by their sorted edge lists.
    """
    order = _pattern_order(h)
    h_out = h.out_adj
    h_in = h.in_adj
    g_out = {v: frozenset(ws) for v, ws in g.out_adj.items()}
    g_in = {v: frozenset(ws) for v, ws in g.in_adj.items()}
    g_outdeg = {v: len(g.out_adj[v]) for v in range(g.n)}
    g_indeg = {v: len(g.in_adj[v]) for v in range(g.n)}
    need_out = [len(h.out_adj[v]) for v in range(h.n)]
    need_in = [len(h.in_adj[v]) for v in range(h.n)]

    mapping: dict[int, int] = {}
    used: set[int] = set()
    seen_edge_sets: set[frozenset[Edge]] = set()
    found: list[Copy] = []
    truncated = False
    h_edges = h.sorted_edges

    def candidates(w: int) -> Iterable[int]:
        sets = []
        for u in h_out[w]:
            if u in mapping:
                sets.append(g_in[mapping[u]])
        for u in h_in[w]:
            if u in mapping:
                sets.append(g_out[mapping[u]])
        if allowed is not None and allowed[w] is not None:
            sets.append(allowed[w])
        if not sets:
            return range(g.n)
        base = min(sets, key=len)
        rest = [s for s in sets if s is not base]
        return sorted(base.intersection(*rest)) if rest else sorted(base)

    def rec(depth: int) -> bool:
        nonlocal truncated
        if depth == h.n:
            edges = frozenset((mapping[u], mapping[v]) for u, v in h_edges)
            if edges not in seen_edge_sets:
                if cap is not None and len(found) >= cap:
                    truncated = True
                    return True
                seen_edge_sets.add(edges)
                found.append(Copy(vertices=frozenset(mapping.values()), edges=edges))
                if first_only:
                    return True
            return False
        w = order[depth]
        for cand in candidates(w):
            if cand in used:
                continue
            if g_outdeg[cand] < need_out[w] or g_indeg[cand] < need_in[w]:
                continue
            mapping[w] = cand
            used.add(cand)
            stop = rec(depth + 1)
            del mapping[w]
            used.discard(cand)
            if stop:
                return True
        return False

    rec(0)
    del rec
    found.sort(key=lambda c: tuple(sorted(c.edges)))
    return found, truncated


def complete_digraph(n: int) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def all_digraphs(n: int):
    """Every labeled digraph on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def lex_min_topological_order(g: Digraph):
    """The lexicographically smallest vertex order with every edge forward, or None."""
    for order in itertools.permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(order)}
        if all(pos[u] < pos[v] for u, v in g.edges):
            return order
    return None


def dag_catalog(max_n: int):
    """Every labeled dag with >= 1 edge and no isolated vertices, n = 2..max_n."""
    for n in range(2, max_n + 1):
        for g in all_digraphs(n):
            if g.edge_count >= 1 and is_dag(g) and not g.isolated_vertices():
                yield g


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    return Digraph(
        n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    )


def random_dag(rng: random.Random, n: int, p: float) -> Digraph:
    """Random dag: undirected edges oriented along a random vertex order."""
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    edges = [
        (u, v) if pos[u] < pos[v] else (v, u)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Digraph(n, edges)


def random_tree(rng: random.Random, n: int) -> Digraph:
    """Random tree shape with random edge orientations."""
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, edges)


def all_partitions(n: int):
    """All set partitions of range(n) as block lists (restricted-growth order)."""
    assign = [0] * n

    def rec(i: int, kmax: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(kmax + 1)]
            for v, c in enumerate(assign):
                blocks[c].append(v)
            yield blocks
            return
        for c in range(kmax + 2):
            assign[i] = c
            yield from rec(i + 1, max(kmax, c))

    yield from rec(1, 0)


def respecting_orders(blocks):
    """Every vertex order in which each block is consecutive."""
    for block_order in itertools.permutations(range(len(blocks))):
        pools = [list(itertools.permutations(sorted(blocks[b]))) for b in block_order]
        for combo in itertools.product(*pools):
            yield [v for blk in combo for v in blk]


def brute_coloring_skew(h: Digraph, blocks) -> int:
    return max(
        forward_count(h.edges, Permutation(order)) for order in respecting_orders(blocks)
    )


def brute_skewness(h: Digraph) -> int:
    return min(brute_coloring_skew(h, blocks) for blocks in all_partitions(h.n))


def perm_cover_minimum(g: Digraph, h: Digraph) -> int:
    """Minimum permutations covering all copies: full n! enumeration plus an
    exhaustive branch-and-bound set cover (iterative deepening, memoized
    infeasibility bounds)."""
    copies = enumerate_copies(g, h).copies
    k = len(copies)
    if k == 0:
        return 0
    full = (1 << k) - 1
    edge_lists = [tuple(c.edges) for c in copies]
    coverage: set[int] = set()
    for order in itertools.permutations(range(g.n)):
        pos = [0] * g.n
        for i, v in enumerate(order):
            pos[v] = i
        mask = 0
        for ci, edges in enumerate(edge_lists):
            for u, v in edges:
                if pos[u] >= pos[v]:
                    break
            else:
                mask |= 1 << ci
        if mask:
            coverage.add(mask)
    masks = sorted(coverage, key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in masks:  # drop dominated coverage sets
        if not any(m & km == m for km in kept):
            kept.append(m)
    cover_by = [[m for m in kept if m >> e & 1] for e in range(k)]
    assert all(cover_by[e] for e in range(k)), "every copy has a covering permutation"
    maxcov = max(m.bit_count() for m in kept)

    unc, greedy_ub = full, 0
    while unc:
        best = max(kept, key=lambda m: (m & unc).bit_count())
        unc &= ~best
        greedy_ub += 1

    proven_infeasible: dict[int, int] = {}

    def coverable(unc: int, budget: int) -> bool:
        if unc == 0:
            return True
        if budget <= 0:
            return False
        if (unc.bit_count() + maxcov - 1) // maxcov > budget:
            return False
        if proven_infeasible.get(unc, 0) >= budget:
            return False
        pick, pick_opts = -1, None
        scan = unc
        while scan:
            e = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            opts = cover_by[e]
            if pick_opts is None or len(opts) < len(pick_opts):
                pick, pick_opts = e, opts
                if len(opts) == 1:
                    break
        for m in sorted(pick_opts, key=lambda m: -(m & unc).bit_count()):
            if coverable(unc & ~m, budget - 1):
                return True
        proven_infeasible[unc] = budget
        return False

    lo = (k + maxcov - 1) // maxcov
    for t in range(lo, greedy_ub):
        if coverable(full, t):
            return t
    return greedy_ub


def compatible(copies: Iterable[Copy]) -> bool:
    """True iff one group takes every copy: their edge union is acyclic."""
    group = _Group()
    return all(group.try_add(c.edges) for c in copies)


def conflict_masks_dense(copies) -> list[int]:
    """Bit j of entry i is set iff the edge union of copies i and j has a cycle.

    Every pair is tested, by is_dag on the union, without the group engine.
    """
    masks = [0] * len(copies)
    for i, a in enumerate(copies):
        for j in range(i + 1, len(copies)):
            union = a.edges | copies[j].edges
            n = 1 + max(max(e) for e in union)
            if not is_dag(Digraph(n, union)):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def clique_lower_unscreened(cs: CopySet, seed: int) -> int:
    """`tau_lower_clique` without its shared-vertex screen.

    The same seeded scan and start copy; each later copy joins when the
    union with every member fails `is_dag`.
    """
    order = [int(i) for i in substream(seed).permutation(len(cs.copies))]
    if not order:
        return 0
    copy_edges = union_graph(cs).edges
    start = order[0]
    for i in order:
        if any((v, u) in copy_edges for u, v in cs.copies[i].edges):
            start = i
            break
    clique = [cs.copies[start].edges]
    for i in order:
        if i == start:
            continue
        edges = cs.copies[i].edges
        if not any(is_dag(Digraph(cs.host.n, member | edges)) for member in clique):
            clique.append(edges)
    return len(clique)


def densest_subset_enum(g: Digraph, kind: str = "arboricity") -> DensityReport:
    """Brute-force maximum of e(S)/(|S|-1) (arboricity) or e(S)/|S| (density).

    Exhaustive over all subsets of the non-isolated vertices via bitmask
    DP; induced subgraphs suffice because dropping edges never raises the
    ratio.  Limited to n <= 20 declared vertices.
    """
    if kind not in ("arboricity", "density"):
        raise InvalidInputError(f"kind must be 'arboricity' or 'density', got {kind!r}")
    if g.n > 20:
        raise SizeLimitError(f"subset enumeration is limited to n <= 20, got {g.n}")
    tokens = _check_input(g)
    active = _active_vertices(tokens)
    k = len(active)
    index = {v: i for i, v in enumerate(active)}

    # multiplicity masks: m1 = neighbours with >= 1 token, m2 = with 2 tokens
    counts: dict[tuple[int, int], int] = {}
    for u, v in tokens:
        a, b = index[u], index[v]
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + 1
    m1 = [0] * k
    m2 = [0] * k
    for (a, b), c in counts.items():
        m1[a] |= 1 << b
        m1[b] |= 1 << a
        if c == 2:
            m2[a] |= 1 << b
            m2[b] |= 1 << a

    size = 1 << k
    inside = [0] * size
    min_pop = 2 if kind == "arboricity" else 1
    best_num = -1
    best_den = 1
    best_mask = 0
    for s in range(1, size):
        low = s & -s
        i = low.bit_length() - 1
        rest = s ^ low
        e = inside[rest] + (m1[i] & rest).bit_count() + (m2[i] & rest).bit_count()
        inside[s] = e
        pop = s.bit_count()
        if pop < min_pop:
            continue
        den = pop - 1 if kind == "arboricity" else pop
        if e * best_den > best_num * den:
            best_num, best_den, best_mask = e, den, s

    value = Fraction(best_num, best_den)
    witness = tuple(active[i] for i in range(k) if best_mask >> i & 1)
    whole = Fraction(len(tokens), g.n - 1 if kind == "arboricity" else g.n)
    return DensityReport(value=value, witness=witness, totally_balanced=value == whole)


def _build_network(
    tokens: list[tuple[int, int]],
    active: list[int],
    p: int,
    q: int,
    root: int | None,
    bound: Collection[int] = (),
) -> tuple[_Dinic, int]:
    """Source -> tokens (cap q) -> endpoints (inf) -> sink (cap p; 0 at root, inf if bound).

    Token i's source arc is arc 6i; vertex active[j]'s sink arc is arc
    6 * len(tokens) + 2j.
    """
    index = {v: i for i, v in enumerate(active)}
    t_count = len(tokens)
    n_nodes = 2 + t_count + len(active)
    sink = n_nodes - 1
    net = _Dinic(n_nodes)
    inf = q * t_count + 1
    for i, (u, v) in enumerate(tokens):
        net.add(0, 1 + i, q)
        net.add(1 + i, 1 + t_count + index[u], inf)
        net.add(1 + i, 1 + t_count + index[v], inf)
    for v in active:
        net.add(1 + t_count + index[v], sink, 0 if v == root else inf if v in bound else p)
    return net, sink


def cuts_from_scratch(tokens, active, lam: Fraction, roots, bind: bool = True) -> list[tuple[int, set[int]]]:
    """Per root, (gain, maximal source side) as `density._cuts` yields them.

    Each root gets its own token network and a max flow from zero; the source
    side is what cannot reach the sink, found over an explicit reverse
    adjacency list of the residual graph.  With ``bind``, every earlier root
    other than this one gets an unbounded sink arc, so the cut ranges over
    the subsets avoiding them; without it, each root's cut stands alone.
    """
    p, q = lam.numerator, lam.denominator
    t_count = len(tokens)
    out = []
    for i, root in enumerate(roots):
        bound = {r for r in roots[:i] if r is not None and r != root} if bind else set()
        net, sink = _build_network(tokens, active, p, q, root, bound)
        gain = q * t_count - net.max_flow(0, sink)
        rev: list[list[int]] = [[] for _ in range(net.n)]
        for u in range(net.n):
            for a in net.adj[u]:
                if net.cap[a] > 0:
                    rev[net.to[a]].append(u)
        reach_t = {sink}
        queue = [sink]
        for v in queue:
            for u in rev[v]:
                if u not in reach_t:
                    reach_t.add(u)
                    queue.append(u)
        out.append((gain, {active[i - 1 - t_count] for i in range(1 + t_count, sink) if i not in reach_t}))
    return out
