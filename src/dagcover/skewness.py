"""Skewness of a dag: the best worst-case forward-edge count.

For a vertex coloring C of H, s_H(C) is the largest number of forward
edges over all permutations in which every color class is consecutive;
the skewness s(H) is the minimum of s_H(C) over all colorings
(arbitrary set partitions of V(H), not proper colorings).  It always
lies between ceil(m/2) and m, and equals m exactly for rooted stars.

The inner maximum decomposes.  Within one block the induced subgraph of
a dag is a dag, so a within-block topological order makes every inside
edge forward no matter where the block sits; and the relative order of
two blocks alone decides the direction of every edge between them.
Hence

    s_H(C) = (# edges inside blocks) + max over block orderings of
             (# cross edges oriented forward),

and the second term is a maximum-weight linear ordering of the quotient
digraph on blocks, solved exactly by dynamic programming over block
subsets.  The brute-force check over explicitly generated
coloring-respecting permutations (see the test suite) confirms the
decomposition on every dag with up to 6 vertices.

`skewness_exact` colors vertices 0, 1, ... in restricted-growth order
and bounds every partial coloring from below before going deeper.
Both bounds hold for every partition below the node, because coloring
more vertices keeps every inside edge inside and every cross edge
between the same two blocks:

* ceil((m + inside)/2): an ordering or its reverse makes at least half
  of the cross edges forward, and inside edges are forward anyway;
* inside + the forward edges among colored vertices under one concrete
  block order, by net out-degree (out minus in, summed over the block)
  from highest to lowest: no order beats the maximum, and blocks that
  appear later can go last.

A node whose bound reaches the incumbent holds no strictly better
partition, so cutting it changes neither the sequence of incumbents nor
the witness.  Only the partitions that pass both bounds build a
quotient and run the DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Iterable, Sequence

from .digraph import Digraph, Permutation, forward_count, is_dag, is_rooted_star, topological_order
from .errors import InvalidInputError, SizeLimitError
from .rng import substream

MAX_EXACT_VERTICES = 11
MAX_RANDOM_VERTICES = 10**5  # each trial colors every vertex; two trials took 0.75 s at 10^5 on a 2-vCPU machine
MAX_BLOCKS = 24


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering 0..n-1, sorted by minimum element."""

    blocks: tuple[frozenset[int], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        raw = [frozenset(b) for b in blocks]
        if any(not b for b in raw):
            raise InvalidInputError("empty block in partition")
        blks = tuple(sorted(raw, key=min))
        total = sum(len(b) for b in blks)
        union = frozenset().union(*blks) if blks else frozenset()
        if len(union) != total:
            raise InvalidInputError("blocks are not disjoint")
        if union and union != frozenset(range(max(union) + 1)):
            raise InvalidInputError("blocks must cover 0..n-1")
        object.__setattr__(self, "blocks", blks)

    @classmethod
    def _from_trusted(cls, blocks: tuple[frozenset[int], ...]) -> "Partition":
        p = object.__new__(cls)
        object.__setattr__(p, "blocks", blocks)
        return p

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_of(self) -> list[int]:
        assign = [0] * self.n
        for i, b in enumerate(self.blocks):
            for v in b:
                assign[v] = i
        return assign

    def to_lists(self) -> list[list[int]]:
        return [sorted(b) for b in self.blocks]


@dataclass(frozen=True)
class SkewReport:
    value: int
    witness_coloring: Partition
    witness_order: Permutation

    def to_json_dict(self) -> dict:
        return {
            "skewness": self.value,
            "coloring": self.witness_coloring.to_lists(),
            "witness_order": list(self.witness_order.order),
        }


def _check_pattern(h: Digraph) -> None:
    if not is_dag(h):
        raise InvalidInputError("skewness is computed for dag patterns only")


def _quotient(h: Digraph, assign: Sequence[int], k: int) -> tuple[int, list[list[int]]]:
    """(# inside edges, k x k cross-edge count matrix)."""
    inside = 0
    w = [[0] * k for _ in range(k)]
    for u, v in h.edges:
        a, b = assign[u], assign[v]
        if a == b:
            inside += 1
        else:
            w[a][b] += 1
    return inside, w


def _subset_sums(weights: Sequence[int]) -> list[int]:
    """sums[S] = sum of weights[a] over the bits a of S."""
    sums = [0]
    for x in weights:  # the subsets holding bit a extend those below 2**a
        sums += [s + x for s in sums]
    return sums


def _best_block_order(w: list[list[int]], k: int) -> tuple[int, list[int]]:
    """Max forward cross weight and the lexicographically smallest optimal order.

    f[P] = best weight obtainable by arranging the blocks outside P after
    the prefix P; appending block b to prefix P gains the weight into b
    from P, read in O(1) as lo[b][low half of P] + hi[b][high half of P].
    Two half-width tables keep the memory at O(k 2^(k/2)) next to f.
    """
    full = (1 << k) - 1
    half = k // 2
    mask = (1 << half) - 1
    lo = [_subset_sums([w[a][b] for a in range(half)]) for b in range(k)]
    hi = [_subset_sums([w[a][b] for a in range(half, k)]) for b in range(k)]
    f = [0] * (full + 1)
    for pset in range(full - 1, -1, -1):
        pl, ph = pset & mask, pset >> half
        f[pset] = max(lo[b][pl] + hi[b][ph] + f[pset | 1 << b] for b in range(k) if not pset >> b & 1)
    # walk forward, always taking the smallest block that stays optimal
    seq: list[int] = []
    pset = 0
    while pset != full:
        pl, ph = pset & mask, pset >> half
        b = next(
            b for b in range(k)
            if not pset >> b & 1 and lo[b][pl] + hi[b][ph] + f[pset | 1 << b] == f[pset]
        )
        seq.append(b)
        pset |= 1 << b
    return f[0], seq


def _order_for_blocks(h: Digraph, blocks: Sequence[frozenset[int]], seq: Sequence[int]) -> Permutation:
    order: list[int] = []
    for b in seq:
        # lowest-first peel of the induced sub-dag; vertices outside the block are isolated there
        within = topological_order(Digraph._from_trusted(h.n, h.edges_within(blocks[b])))
        order.extend(v for v in within.order if v in blocks[b])
    return Permutation(order)


def coloring_skew(h: Digraph, c: Partition) -> tuple[int, Permutation]:
    """s_H(C): the worst coloring-respecting permutation, with a witness order."""
    _check_pattern(h)
    if c.n != h.n:
        raise InvalidInputError(f"partition covers {c.n} vertices, graph has {h.n}")
    k = len(c.blocks)
    if k > MAX_BLOCKS:
        raise SizeLimitError(f"quotient ordering DP is limited to {MAX_BLOCKS} blocks, got {k}")
    assign = c.block_of()
    inside, w = _quotient(h, assign, k)
    cross, seq = _best_block_order(w, k)
    witness = _order_for_blocks(h, c.blocks, seq)
    value = inside + cross
    if forward_count(h.edges, witness) != value:
        raise AssertionError("witness order does not replay the computed value")
    return value, witness


def _blocks_from_assignment(assign: Sequence[int]) -> tuple[frozenset[int], ...]:
    k = max(assign) + 1
    groups: list[list[int]] = [[] for _ in range(k)]
    for v, c in enumerate(assign):
        groups[c].append(v)
    return tuple(frozenset(b) for b in groups)  # RGS order == sorted-by-min order


def skewness_exact(h: Digraph) -> SkewReport:
    """Minimum of coloring_skew over all set partitions of V(h).

    Restricted-growth enumeration; the witness is the first partition in
    that order that reaches the minimum, with the DP's lexicographically
    smallest optimal block order.  Two lower bounds cut a subtree whose
    partitions cannot beat the incumbent (see the module docstring):
    ceil((m + inside)/2), and inside plus the forward edges among the
    colored vertices with blocks sorted by net out-degree.  The search
    stops at ceil(m/2), which no partition can beat.  A rooted star
    skips it: every partition has value m, so the witness is the
    search's first leaf, all vertices in one block.
    """
    _check_pattern(h)
    if h.n > MAX_EXACT_VERTICES:
        raise SizeLimitError(
            f"exact skewness enumerates Bell({h.n}) partitions; limit is "
            f"{MAX_EXACT_VERTICES} vertices (use skewness_upper_random)"
        )
    if h.n == 0:
        raise InvalidInputError("skewness needs at least one vertex")
    n, m = h.n, h.edge_count
    if m and is_rooted_star(h):
        best_blocks = (frozenset(range(n)),)
        return SkewReport(value=m, witness_coloring=Partition._from_trusted(best_blocks),
                          witness_order=_order_for_blocks(h, best_blocks, [0]))
    floor_bound = ceil(m / 2)

    best_value = m + 1
    best_assign: list[int] = []
    best_seq: list[int] = []
    # A block's key is (n + 1) * its net out-degree (out minus in, summed
    # over its vertices) minus its index: distinct keys, with ties in net
    # out-degree going to the lower block.
    net = [0] * n
    for u, v in h.edges:
        net[u] += n + 1
        net[v] -= n + 1
    # edges_below[i]: the edges among vertices < i, all colored at depth i
    edges_below = [[e for e in h.sorted_edges if max(e) < i] for i in range(n + 1)]
    # prefix neighbours: vertices j < i adjacent to i in either direction
    prefix_nbrs = [
        [j for j in range(i) if (i, j) in h.edges or (j, i) in h.edges]
        for i in range(n)
    ]

    assign = [0] * n

    def rec(i: int, kmax: int, inside: int) -> bool:
        nonlocal best_value, best_assign, best_seq
        if (m + inside + 1) // 2 >= best_value:
            return False
        k = kmax + 1
        key = list(range(0, -k, -1))
        for v in range(i):
            key[assign[v]] += net[v]
        if inside + sum(1 for u, v in edges_below[i] if key[assign[u]] > key[assign[v]]) >= best_value:
            return False
        if i == n:
            cross, seq = _best_block_order(_quotient(h, assign, k)[1], k)
            if inside + cross < best_value:
                best_value = inside + cross
                best_assign = assign[:]
                best_seq = seq
                return best_value <= floor_bound
            return False
        for color in range(kmax + 2):
            assign[i] = color
            extra = sum(1 for j in prefix_nbrs[i] if assign[j] == color)
            if rec(i + 1, max(kmax, color), inside + extra):
                return True
        return False

    rec(1, 0, 0)
    best_blocks = _blocks_from_assignment(best_assign)
    coloring = Partition._from_trusted(best_blocks)
    witness = _order_for_blocks(h, best_blocks, best_seq)
    return SkewReport(value=best_value, witness_coloring=coloring, witness_order=witness)


def skewness_upper_random(h: Digraph, trials: int, seed: int) -> tuple[int, Partition]:
    """Best coloring_skew over random uniform colorings; an upper bound on s(H).

    Uses k = ceil((m/h)**(1/5)) colors as in the probabilistic bound,
    widened with k in {2, ..., k+2}; deterministic given the seed.
    Patterns are limited to MAX_RANDOM_VERTICES vertices.
    """
    _check_pattern(h)
    if h.n > MAX_RANDOM_VERTICES:
        raise SizeLimitError(f"random colorings are limited to {MAX_RANDOM_VERTICES} vertices, got {h.n}")
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    n, m = h.n, h.edge_count
    if m == 0:
        return 0, Partition([range(n)]) if n else Partition([])
    k_base = ceil((m / n) ** 0.2)
    ks = sorted({min(k, n) for k in [k_base, *range(2, k_base + 3)] if k >= 1})
    rng = substream(seed)
    floor_bound = ceil(m / 2)

    best_value = m
    best_coloring = Partition([range(n)])
    for _ in range(trials):
        for k in ks:
            colors = rng.integers(0, k, size=n)
            groups: dict[int, list[int]] = {}
            for v, c in enumerate(colors):
                groups.setdefault(int(c), []).append(v)
            part = Partition(groups.values())
            value, _ = coloring_skew(h, part)
            if value < best_value:
                best_value = value
                best_coloring = part
                if best_value <= floor_bound:
                    return best_value, best_coloring
    return best_value, best_coloring
