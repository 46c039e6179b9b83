"""Independent checks for the benchmark's outputs.

Nothing here calls into dagcover.  Copies are counted straight from a
host's edge list, acyclicity is decided by the standard library's
``graphlib``, density ratios and colouring values are recounted from
the edges, and the exhaustive cover minimises over all n! vertex
orders.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import graphlib
import itertools
from fractions import Fraction
from math import ceil
from typing import Iterable, Sequence

Edge = tuple[int, int]
CopyEdges = tuple[Edge, ...]


# --- copies -----------------------------------------------------------------

def _in_out(edges: Iterable[Edge]) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    ins: dict[int, set[int]] = {}
    outs: dict[int, set[int]] = {}
    for u, v in edges:
        outs.setdefault(u, set()).add(v)
        ins.setdefault(v, set()).add(u)
    return ins, outs


def t3_copies(edges: Iterable[Edge]) -> list[CopyEdges]:
    """Transitive triangles u->v, u->w, v->w: for each edge (v, w), every
    common in-neighbour u of v and w closes one, and the edge set fixes
    the embedding, so no copy is counted twice."""
    edges = list(edges)
    ins, _ = _in_out(edges)
    found = []
    for v, w in edges:
        for u in ins.get(v, set()) & ins.get(w, set()):
            found.append(tuple(sorted(((u, v), (u, w), (v, w)))))
    return sorted(found)


def path2_copies(edges: Iterable[Edge]) -> list[CopyEdges]:
    """Two-edge paths a->b->c with a != c, one per middle vertex and end pair."""
    ins, outs = _in_out(edges)
    found = []
    for b, preds in ins.items():
        for a in preds:
            for c in outs.get(b, ()):
                if a != c:
                    found.append(tuple(sorted(((a, b), (b, c)))))
    return sorted(found)


COPY_COUNTERS = {"T3": t3_copies, "P2": path2_copies}


def union_acyclic(copies: Iterable[CopyEdges]) -> bool:
    """Is the union of the copies' edges acyclic?  Decided by graphlib."""
    sorter: graphlib.TopologicalSorter = graphlib.TopologicalSorter()
    for copy in copies:
        for u, v in copy:
            sorter.add(v, u)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return False
    return True


def check_cover(copies: Sequence[CopyEdges], program_copies: Sequence[Iterable[Edge]],
                perms: Sequence[Sequence[int]], assignment: Sequence[int]) -> list[str]:
    """Every independently counted copy has all its edges forward in the
    permutation it is assigned to.

    `program_copies` is the program's copy list in its own order; it must
    hold exactly the independently counted copies, which also rules out
    a copy set cut short by the cap.
    """
    mine = [tuple(sorted(c)) for c in program_copies]
    if sorted(mine) != list(copies):
        return [f"copy list differs: program {len(mine)}, independent count {len(copies)}"]
    if len(assignment) != len(mine):
        return [f"assignment covers {len(assignment)} of {len(mine)} copies"]
    positions = []
    for perm in perms:
        pos = {v: i for i, v in enumerate(perm)}
        if len(pos) != len(perm):
            return ["a permutation repeats a vertex"]
        positions.append(pos)
    for copy, group in zip(mine, assignment):
        if not 0 <= group < len(positions):
            return [f"copy {copy} assigned to missing permutation {group}"]
        pos = positions[group]
        if any(pos[u] >= pos[v] for u, v in copy):
            return [f"copy {copy} is not forward in permutation {group}"]
    return []


# --- exhaustive cover over all n! orders ---------------------------------------

def min_cover_by_permutations(n: int, copies: Sequence[CopyEdges]) -> int:
    """Fewest vertex orders of 0..n-1 such that each copy is forward in one.

    Every order is tried; its covered copies form a bitmask.  Dominated
    masks are dropped and the set cover is searched by iterative
    deepening.  It branches on the uncovered copy with the fewest masks,
    over the undominated parts of them that are still uncovered, and
    prunes with a greedy set of copies that no order covers two of.
    """
    k = len(copies)
    if k == 0:
        return 0
    masks: set[int] = set()
    for order in itertools.permutations(range(n)):
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        mask = 0
        for ci, copy in enumerate(copies):
            if all(pos[u] < pos[v] for u, v in copy):
                mask |= 1 << ci
        masks.add(mask)
    kept: list[int] = []
    for m in sorted(masks, key=lambda m: -m.bit_count()):
        if not any(m & big == m for big in kept):
            kept.append(m)
    holders = [[m for m in kept if m >> c & 1] for c in range(k)]
    if not all(holders):
        raise ValueError("some copy is forward in no order; it is not acyclic")
    together = [0] * k  # together[c]: copies forward in some order with copy c
    for m in kept:
        for c in range(k):
            if m >> c & 1:
                together[c] |= m
    tightest = sorted(range(k), key=lambda c: len(holders[c]))
    failed: dict[int, int] = {}

    def apart(uncovered: int) -> int:
        """Size of a greedy set of uncovered copies no order covers two of."""
        size = 0
        for c in tightest:
            if uncovered >> c & 1:
                uncovered &= ~together[c]
                size += 1
        return size

    def coverable(uncovered: int, budget: int) -> bool:
        if not uncovered:
            return True
        if failed.get(uncovered, -1) >= budget or apart(uncovered) > budget:
            return False
        pick = min((holders[c] for c in range(k) if uncovered >> c & 1), key=len)
        options: list[int] = []  # what each holder covers here, dominated ones dropped
        for part in sorted({m & uncovered for m in pick}, key=lambda r: -r.bit_count()):
            if not any(part & o == part for o in options):
                options.append(part)
        for part in options:
            if coverable(uncovered & ~part, budget - 1):
                return True
        failed[uncovered] = budget
        return False

    full = (1 << k) - 1
    tau = 1
    while not coverable(full, tau):
        tau += 1
    return tau


# --- density parameters -------------------------------------------------------

def _within(edges: Iterable[Edge], subset: Iterable[int]) -> int:
    s = set(subset)
    return sum(1 for u, v in edges if u in s and v in s)


def check_density(edges: Sequence[Edge], n: int, report, kind: str) -> list[str]:
    """Recount the witness's ratio, compare with the whole-graph ratio, and
    check that the balance flag says whether the whole graph attains it."""
    offset = 1 if kind == "arboricity" else 0
    witness = list(report.witness)
    if len(set(witness)) != len(witness) or len(witness) < 1 + offset:
        return [f"{kind}: witness {witness} is not a usable vertex set"]
    recount = Fraction(_within(edges, witness), len(witness) - offset)
    problems = []
    if recount != report.value:
        problems.append(f"{kind}: witness ratio {recount} != reported {report.value}")
    whole = Fraction(len(edges), n - offset)
    if report.value < whole:
        problems.append(f"{kind}: {report.value} below the whole-graph ratio {whole}")
    if report.totally_balanced != (report.value == whole):
        problems.append(f"{kind}: balance flag {report.totally_balanced} but value {report.value}, whole {whole}")
    return problems


def best_ratio(edges: Sequence[Edge], n: int, kind: str) -> Fraction:
    """Maximum of e(S)/(|S|-1) or e(S)/|S| over every vertex subset (small n)."""
    offset = 1 if kind == "arboricity" else 0
    best = Fraction(0)
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size <= offset:
            continue
        inside = sum(1 for u, v in edges if mask >> u & 1 and mask >> v & 1)
        best = max(best, Fraction(inside, size - offset))
    return best


# --- skewness -----------------------------------------------------------------

def coloring_value(edges: Sequence[Edge], blocks: Sequence[Iterable[int]]) -> int:
    """s_H(C): edges inside blocks plus the most cross edges that one order
    of the blocks makes forward.  The best order is found over all block
    orders by a DP over the set of blocks placed first."""
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    k = len(blocks)
    inside = 0
    weight = [[0] * k for _ in range(k)]
    for u, v in edges:
        a, b = block_of[u], block_of[v]
        if a == b:
            inside += 1
        else:
            weight[a][b] += 1
    best = [0] * (1 << k)
    for placed in range(1, 1 << k):
        for b in range(k):
            if placed >> b & 1:
                before = placed & ~(1 << b)
                gain = sum(weight[a][b] for a in range(k) if before >> a & 1)
                best[placed] = max(best[placed], best[before] + gain)
    return inside + best[-1]


def is_rooted_star(edges: Sequence[Edge]) -> bool:
    """All edges leave one vertex, or all enter one vertex."""
    tails = {u for u, _ in edges}
    heads = {v for _, v in edges}
    return len(tails) == 1 or len(heads) == 1


def check_skewness(edges: Sequence[Edge], n: int, report) -> list[str]:
    """ceil(m/2) <= s <= m, s == m exactly for rooted stars, and the witness
    colouring's value and witness order replayed from the edges."""
    m = len(edges)
    s = report.value
    problems = []
    if not ceil(m / 2) <= s <= m:
        problems.append(f"skewness {s} outside [ceil({m}/2), {m}]")
    if (s == m) != is_rooted_star(edges):
        problems.append(f"skewness {s} == m={m} disagrees with the rooted-star test")
    blocks = [sorted(b) for b in report.witness_coloring.blocks]
    if sorted(v for b in blocks for v in b) != list(range(n)):
        problems.append("witness colouring does not partition the vertices")
        return problems
    value = coloring_value(edges, blocks)
    if value != s:
        problems.append(f"witness colouring is worth {value}, reported {s}")
    order = list(report.witness_order.order)
    pos = {v: i for i, v in enumerate(order)}
    if sorted(order) != list(range(n)):
        problems.append("witness order is not a permutation")
        return problems
    for b in blocks:
        spots = sorted(pos[v] for v in b)
        if spots[-1] - spots[0] != len(b) - 1:
            problems.append(f"block {b} is not consecutive in the witness order")
    forward = sum(1 for u, v in edges if pos[u] < pos[v])
    if forward != s:
        problems.append(f"witness order has {forward} forward edges, reported {s}")
    return problems
