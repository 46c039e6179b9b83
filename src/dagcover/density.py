"""Exact maximal density and fractional arboricity.

``fractional_arboricity`` / ``maximal_density`` run Dinkelbach
iteration (Dinkelbach 1967) on min cuts in Goldberg's vertex network
(Goldberg 1984; one cut per root for arboricity), entirely in exact
arithmetic: each round's best cut gives the next ratio, and the last
round's maximal cuts the witness.  The iteration starts at the best
ratio of a min-degree peel (Charikar 2000), whose first set is every
non-isolated vertex.  That ratio is recounted on its set, so it is
attained and never above the optimum: the last round still runs at the
optimum with the same roots, and no value, witness or balance flag
changes, only the number of rounds.  The network has a node per vertex,
not per edge, and its min cut at lam = p/q is 2(qm - gain) (see `_cuts`).
A round builds one network; each root's cut starts from the previous
root's maximum flow, once two sink arcs change and the new root's sink
flow goes back to the source (the warm start of parametric max flow,
Gallo, Grigoriadis and Tarjan 1989).  Each finished root is bound to
the sink, as Hao and Orlin (1994) merge finished terminals, so a later
root's cut ranges only over subsets avoiding the earlier roots: every
subset is still counted, at the first root it contains, and `_cuts`
shows why no value, witness or balance flag changes.  A round takes a
root's min-cut side (a search over the whole network) only where it
reads it: at a new largest gain, and, while every gain is 0, up to the
first witness.  Which maximum flow is found never shows: its value is
unique, and so is the maximal min-cut source side (Picard and Queyranne
1980).  The test suite checks them against a fresh node-per-edge
network per root, bound the same way, and against subset enumeration
(`tests/oracles.py`).

Every function takes a `Digraph`.  The ratios count edges on vertex
subsets and nothing else, so an undirected graph is passed as any
orientation of it (`sample_undirected` runs each edge low to high); a
directed 2-cycle counts as two edges.  Isolated vertices never appear
in a witness (they only inflate the denominator), so the search runs
over non-isolated vertices; the whole-graph balance ratio m/(n-1) uses
the declared n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .digraph import Digraph, Edge
from .errors import InvalidInputError, UndefinedParameterError


@dataclass(frozen=True)
class DensityReport:
    """Optimal ratio, a subset attaining it, and the whole-graph attainment flag."""

    value: Fraction
    witness: tuple[int, ...]
    totally_balanced: bool

    def to_json_dict(self) -> dict:
        return {
            "value": f"{self.value.numerator}/{self.value.denominator}",
            "witness": list(self.witness),
            "totally_balanced": self.totally_balanced,
        }


def _check_input(g: Digraph) -> tuple[Edge, ...]:
    """The graph's edges, sorted for determinism: one token per counted edge."""
    if not isinstance(g, Digraph):
        raise InvalidInputError(f"expected a Digraph, got {type(g).__name__}")
    if g.n < 2:
        raise InvalidInputError("density parameters need at least 2 vertices")
    if not g.edges:
        raise UndefinedParameterError("density parameters are undefined for edgeless graphs")
    return g.sorted_edges


def _active_vertices(tokens: Sequence[Edge]) -> list[int]:
    return sorted({w for e in tokens for w in e})


def _count_within(tokens: Sequence[Edge], subset: set[int]) -> int:
    return sum(1 for u, v in tokens if u in subset and v in subset)


def _peel(tokens: Sequence[Edge], active: list[int], shift: int) -> tuple[Fraction, set[int]]:
    """The best set S of a min-degree peel (Charikar 2000) and its e(S)/(|S| - shift).

    Starting from all of ``active``, drops a vertex of least token degree,
    ties to the lowest vertex, until 1 + shift vertices are left, and
    keeps the first set of the largest ratio.  Shift is 1 for arboricity
    and 0 for density.  The set is recounted with `_count_within`, so the
    ratio is attained: it is never above the optimum.
    """
    nbrs: dict[int, list[int]] = {v: [] for v in active}
    for u, v in tokens:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = {v: len(ws) for v, ws in nbrs.items()}
    alive = list(active)  # ascending, so min() breaks ties to the lowest vertex
    edges, size = len(tokens), len(active)
    best_edges, best_size, subset = edges, size, set(alive)
    while size > 1 + shift:
        v = min(alive, key=deg.__getitem__)
        alive.remove(v)
        edges -= deg[v]
        size -= 1
        for w in nbrs[v]:
            deg[w] -= 1
        if edges * (best_size - shift) > best_edges * (size - shift):
            best_edges, best_size, subset = edges, size, set(alive)
    value = Fraction(best_edges, best_size - shift)
    if Fraction(_count_within(tokens, subset), len(subset) - shift) != value:
        raise AssertionError("the peel's set does not reproduce its ratio; its edge count is inconsistent")
    return value, subset


# --- Dinkelbach min-cut route --------------------------------------------

class _Dinic:
    """Integer max-flow; arcs stored in pairs so arc^1 is the reverse arc."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, cap: int, rcap: int = 0) -> None:
        """Arc u -> v of capacity cap, paired with v -> u of capacity rcap."""
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def _levels(self, s: int, t: int) -> list[int]:
        """BFS levels in the residual graph, up to the moment t is labelled.

        Every node closer to s than t is labelled by then; the rest stay
        at -1, which keeps the blocking-flow search off them.
        """
        to, cap, adj = self.to, self.cap, self.adj
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            next_level = level[u] + 1
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = next_level
                    if v == t:
                        return level
                    queue.append(v)
        return level

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        to, cap, adj = self.to, self.cap, self.adj
        while True:
            level = self._levels(s, t)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    aug = min(cap[a] for a in path)
                    first_sat = len(path)
                    for i, a in enumerate(path):
                        cap[a] -= aug
                        cap[a ^ 1] += aug
                        if cap[a] == 0 and i < first_sat:
                            first_sat = i
                    flow += aug
                    # retreat to the tail of the first saturated arc
                    del path[first_sat:]
                    u = to[path[-1]] if path else s
                    continue
                arcs, i, want = adj[u], it[u], level[u] + 1
                end = len(arcs)
                while i < end:
                    a = arcs[i]
                    if cap[a] > 0 and level[to[a]] == want:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(a)
                    u = to[a]
                    continue
                if u == s:
                    break
                level[u] = -1
                a = path.pop()
                u = to[a ^ 1]
                it[u] += 1

    def source_side_maximal(self, t: int) -> set[int]:
        """After max_flow: nodes that cannot reach t in the residual graph.

        Walks backward from t: for an arc a out of v, its pair a ^ 1 runs
        from to[a] into v, so to[a] reaches v when a ^ 1 has residual
        capacity.
        """
        to, cap, adj = self.to, self.cap, self.adj
        reach_t = [False] * self.n
        reach_t[t] = True
        queue = [t]
        for v in queue:
            for a in adj[v]:
                u = to[a]
                if cap[a ^ 1] > 0 and not reach_t[u]:
                    reach_t[u] = True
                    queue.append(u)
        return {v for v in range(self.n) if not reach_t[v]}


def _cuts(
    tokens: Sequence[Edge],
    active: list[int],
    lam: Fraction,
    roots: Iterable[int | None],
    sides: bool | Callable[[int], bool] = True,
) -> Iterator[tuple[int, set[int] | None]]:
    """Per root, the gain q*m - maxflow/2 at lam = p/q and the maximal source side.

    The gain is q * max over S of [e(S) - lam*|S|] (root None, density)
    or of [e(S) - lam*(|S|-1)] over S containing the root (arboricity:
    the root's sink capacity is zeroed so that the -lam shift applies
    exactly once), in both cases over S avoiding every earlier root.
    It is never negative, and the maximal min-cut side is a subset
    attaining it.  The side is None when ``sides`` is false, for callers
    that read only gains, or, when ``sides`` is a predicate, where it is
    false for the gain: finding a side searches the whole network, and
    `_parametric_max` reads few.  Yielded one root at a time, so a
    caller that only needs a positive gain stops at the first, and a
    predicate may read what the caller made of the earlier roots.

    Goldberg's vertex network: source -> v (q*deg(v), counting tokens),
    v -> sink (2p; 0 at the root), and u <-> w (q*c each way, c the
    pair's token count).  A cut with source side S costs
    q*sum(deg(S')) + q*c(S, S') + 2p*|S - {root}| (S' the rest), that is
    2qm - 2(q*e(S) - p*|S - {root}|), twice the cut of the same S in a
    network with a node per edge (tests/oracles._build_network), so the
    gain halves the flow.

    One network serves every root.  Moving to the next root, the
    previous root is bound to the sink: its sink arc, which carries no
    flow, gets a capacity above the source's total 2qm, so no min cut
    puts it on the source side (Hao and Orlin 1994 merge each finished
    terminal into the sink the same way).  A sink arc only grows, so
    the flow stays feasible.  The new root's sink arc drops to 0 (a
    root met again is unbound while it is the root).  The f units it
    carried are now an excess at the root, which always has a residual
    path back to the source; a spare node with one arc of capacity f
    into the root sends exactly f back, and max_flow then augments
    from there.  The answers do not depend on which maximum flow is
    found: its value is unique, and so is the set of nodes that reach
    the sink in its residual graph (Picard and Queyranne 1980), whose
    complement is the maximal source side.

    Binding changes no answer of `_parametric_max` or
    `is_totally_balanced`:

    - Every subset S is still counted, at the first root it contains.
      So the largest gain in a round, the stopping test, the balance
      test's any(gain > 0) and the final value a* are all unchanged.
    - An intermediate round may pick a different best subset.  Its gain
      is still positive, so its ratio is still strictly higher: the
      no-progress guard holds, and only the number of rounds can change.
    - At lam = a*, call r* the first root that lies in an optimal set of
      two or more vertices.  No earlier root lies in any such set, so
      every optimal set containing r* avoids the earlier roots, and
      r*'s maximal side, the witness, is the same set as unbound.
      Each earlier root's side is that root alone, bound or not.
    """
    p, q = lam.numerator, lam.denominator
    k = len(active)
    index = {v: i for i, v in enumerate(active)}
    deg = [0] * k
    pairs: Counter[tuple[int, int]] = Counter()
    for u, v in tokens:
        a, b = index[u], index[v]
        deg[a] += 1
        deg[b] += 1
        pairs[min(a, b), max(a, b)] += 1
    sink, spare = k + 1, k + 2
    net = _Dinic(k + 3)
    for j in range(k):
        net.add(0, 1 + j, q * deg[j])  # arc 4j
        net.add(1 + j, sink, 2 * p)  # arc 4j + 2
    for (a, b), c in pairs.items():
        net.add(1 + a, 1 + b, q * c, q * c)
    back = len(net.to)
    net.add(spare, spare, 0)  # re-aimed at each root; only the spare's list holds it
    to, cap = net.to, net.cap
    qm = q * len(tokens)
    bind_cap = 2 * qm + 1  # above the source's total capacity, so no min cut pays it
    wanted = sides if callable(sides) else lambda gain: sides
    flow = 0
    zeroed = None  # sink arc of the previous root
    for root in roots:
        if zeroed is not None:
            cap[zeroed] = bind_cap
            zeroed = None
        if root is not None:
            j = index[root]
            zeroed = 4 * j + 2
            f = cap[zeroed ^ 1]
            cap[zeroed] = cap[zeroed ^ 1] = 0
            if f:
                to[back], cap[back] = 1 + j, f
                flow -= net.max_flow(spare, 0)
                cap[back] = cap[back ^ 1] = 0
        flow += net.max_flow(0, sink)
        gain = qm - flow // 2
        if wanted(gain):
            side = net.source_side_maximal(sink)
            yield gain, {active[i - 1] for i in side if 0 < i <= k}
        else:
            yield gain, None


def _parametric_max(g: Digraph, kind: str) -> DensityReport:
    """Dinkelbach iteration: lam <- ratio of the subset with the largest gain.

    lam starts at the best ratio of a min-degree peel (`_peel`), whose
    first set is every non-isolated vertex, and rises strictly while
    some gain is positive; when none is, lam is the optimum and the same
    round's maximal cuts hold the witness.  The start is attained, so it
    is never above the optimum, and the last round runs at the optimum
    with the same roots whatever the start: it changes only how many
    rounds there are.  A round takes a root's side only where it reads
    it: when the gain beats the round's best so far (strictly, so the
    first largest gain still wins), and, while the best is 0, up to the
    first witness.  A round whose best cut does not raise lam raises
    instead of looping.
    """
    tokens = _check_input(g)
    active = _active_vertices(tokens)
    roots: list[int | None] = list(active) if kind == "arboricity" else [None]
    shift = 1 if kind == "arboricity" else 0  # the ratio is e(S) / (|S| - shift)

    def ratio(subset: set[int]) -> Fraction:
        return Fraction(_count_within(tokens, subset), len(subset) - shift)

    def read_side(gain: int) -> bool:
        return gain > best or (best == 0 and witness is None)

    value, _ = _peel(tokens, active, shift)
    while True:
        best, subset, witness = 0, None, None
        for gain, side in _cuts(tokens, active, value, roots, read_side):
            if gain > best:
                best, subset = gain, side
            elif best == 0 and witness is None and len(side) > shift and ratio(side) == value:
                witness = tuple(sorted(side))
        if best <= 0:
            break
        better = ratio(subset)
        if better <= value:  # a positive gain means a higher ratio; without it the loop never ends
            raise AssertionError("a cut with positive gain did not raise the ratio; the cuts disagree")
        value = better
    # self-consistency: the witness is a maximal cut whose recounted ratio reproduces the value
    if witness is None:
        raise AssertionError("no witness reproduces the reported ratio; parametric search is inconsistent")
    whole = Fraction(len(tokens), g.n - shift)
    return DensityReport(value=value, witness=witness, totally_balanced=value == whole)


def fractional_arboricity(g: Digraph) -> DensityReport:
    """max over subsets S, |S| >= 2, of e(S)/(|S|-1), with an attaining witness."""
    return _parametric_max(g, "arboricity")


def maximal_density(g: Digraph) -> DensityReport:
    """max over nonempty subsets S of e(S)/|S|, with an attaining witness."""
    return _parametric_max(g, "density")


def is_totally_balanced(g: Digraph) -> bool:
    """True iff the fractional arboricity is attained by the whole graph.

    The graph is totally balanced exactly when no subset beats m/(n-1).
    A min-degree peel (`_peel`) comes first: a set it finds above that
    ratio is recounted, so it decides False without a network.
    Otherwise a single strict min-cut test at m/(n-1) decides, reading
    gains only, so the peel changes no answer.  Inputs with isolated
    vertices are rejected (the whole-graph ratio would be ambiguous for
    them).
    """
    tokens = _check_input(g)
    if g.isolated_vertices():
        raise InvalidInputError("balance test requires a graph without isolated vertices")
    active = _active_vertices(tokens)
    lam = Fraction(len(tokens), g.n - 1)
    if _peel(tokens, active, 1)[0] > lam:
        return False
    return not any(gain > 0 for gain, _ in _cuts(tokens, active, lam, active, sides=False))
