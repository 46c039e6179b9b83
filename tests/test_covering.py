import copy
import hashlib
import pickle
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from dagcover import covering
from dagcover.covering import (
    Copy,
    CopySet,
    CoverSolution,
    TauExactResult,
    _conflicts,
    _Group,
    consistent_sets,
    enumerate_copies,
    find_consistent_copy,
    skew_witness_pipeline,
    tau_exact,
    tau_greedy,
    tau_le_one,
    tau_lower_clique,
    union_graph,
    verify_consistent,
)
from dagcover.digraph import (
    Digraph,
    Permutation,
    forward_count,
    is_dag,
    make_directed_path,
    make_rooted_star,
    make_transitive_tournament,
)
from dagcover.errors import InfeasibleSizeError, InvalidInputError, SizeLimitError
from dagcover.experiments import figure1_graph, sample_digraph
from dagcover.rng import substream
from dagcover.skewness import Partition, skewness_exact

from oracles import (
    _embed,
    clique_lower_unscreened,
    compatible,
    complete_digraph,
    conflict_masks_dense,
    perm_cover_minimum,
    random_digraph,
)

T3 = make_transitive_tournament(3)
P3 = make_directed_path(2)

TWO_TRIANGLES = Digraph(4, [(0, 1), (1, 2), (0, 2), (1, 0), (0, 3), (1, 3)])

# the benchmark's exact_tau family: pattern -> (pattern graph, edge probability, draws), n = 8
FAMILY = {"T3": (T3, 0.55, 20), "P2": (P3, 0.35, 12)}


def family_draw(name: str, draw: int) -> Digraph:
    rng = random.Random(f"{name}:{draw}")
    p = FAMILY[name][1]
    return Digraph(8, [(u, v) for u in range(8) for v in range(8) if u != v and rng.random() < p])


def solution_digest(sol) -> str:
    text = repr((sol.assignment, [p.order for p in sol.permutations]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def split_digests(sol) -> tuple[str, str]:
    """The assignment's digest, which depends only on which unions are
    acyclic, and the permutations', which depends on how a group orders."""
    return tuple(hashlib.sha256(repr(x).encode()).hexdigest()[:16]
                 for x in (sol.assignment, [p.order for p in sol.permutations]))


def test_enumerate_examples():
    assert len(enumerate_copies(make_transitive_tournament(4), T3)) == 4
    assert len(enumerate_copies(Digraph(3, [(0, 1), (1, 2), (2, 0)]), T3)) == 0
    assert len(enumerate_copies(T3, T3)) == 1
    assert len(enumerate_copies(Digraph(2, [(0, 1)]), P3)) == 0


def test_enumerate_copy_structure():
    cs = enumerate_copies(complete_digraph(4), T3)
    assert len(cs) == 24  # 4 triples x 6 orderings
    for c in cs.copies:
        assert c.edges <= cs.host.edges
        assert len(c.edges) == 3 and len(c.vertices) == 3
    assert len({c.edges for c in cs.copies}) == len(cs)


def test_enumerate_cap_truncates():
    cs = enumerate_copies(complete_digraph(4), T3, cap=5)
    assert cs.truncated and len(cs) == 5
    full = enumerate_copies(complete_digraph(4), T3)
    assert not full.truncated


JOIN_PATTERNS = {
    "T3": T3,
    "T4": make_transitive_tournament(4),
    "T5": make_transitive_tournament(5),
    "P2": P3,
    "P3": make_directed_path(3),
    "figure1": figure1_graph(),
    "out-star": make_rooted_star(4),
    "in-star": make_rooted_star(4, source=False),
    "two edges": Digraph(4, [(0, 1), (2, 3)]),
}


@pytest.mark.parametrize("block", [None, 1, 7])
def test_join_matches_backtracking_oracle(monkeypatch, block):
    # block 1 and 7 split every step of the join into many chunks
    if block is not None:
        monkeypatch.setattr(covering, "_JOIN_BLOCK", block)
    rng = random.Random(11 if block is None else block)
    seen = Counter()
    trials = 30 if block is None else 10
    for _ in range(trials):
        n = rng.randrange(2, 21)
        g = random_digraph(rng, n, rng.choice([0.1, 0.2, 0.4 if n < 12 else 0.25]))
        seen["2-cycles"] += any((v, u) in g.edges for u, v in g.edges)
        for name, h in JOIN_PATTERNS.items():
            for cap in (0, 1, 5, 50, None):
                cs = enumerate_copies(g, h) if cap is None else enumerate_copies(g, h, cap)
                want, truncated = _embed(g, h, cap)
                assert list(cs.copies) == want, (g, name, cap)
                assert cs.truncated == truncated, (g, name, cap)
                # each row strictly ascending; the rows distinct, ascending
                # as the copies are listed, and decoding to those copies
                keys = cs.keys
                assert keys.shape == (len(cs), h.edge_count) and len(cs) == len(keys)
                assert (keys[:, 1:] > keys[:, :-1]).all(), (g, name, cap)
                rows = keys.tolist()
                assert all(a < b for a, b in zip(rows, rows[1:])), (g, name, cap)
                assert cs.decode(range(len(cs))) == [sorted(c.edges) for c in cs.copies], (g, name, cap)
                seen["truncated"] += truncated
            # random allowed sets: the first embedding is the search's first
            blocks = [[v] for v in range(h.n)]
            sets = list(range(g.n))
            rng.shuffle(sets)
            sets = [set(sets[i::h.n]) for i in range(h.n)]
            allowed = [frozenset(sets[i]) for i in range(h.n)]
            want, _ = _embed(g, h, None, allowed, first_only=True)
            got = find_consistent_copy(g, h, Partition(blocks), sets)
            assert got == (want[0] if want else None), (g, name, sets)
            seen["witness"] += got is not None
    assert seen["2-cycles"] >= trials // 2 and seen["truncated"] > 100 and seen["witness"] > 10


def test_join_keys_do_not_overflow():
    # u * n + v passes 2**31 once n > 46,341
    rng = random.Random(5)
    n = 60_000
    edges = set()
    for _ in range(100):
        a, b, c = rng.sample(range(n), 3)
        edges |= {(a, b), (b, c), (a, c), (c, a)}
    g = Digraph(n, edges)
    for h in (T3, P3):
        want, _ = _embed(g, h, None)
        assert list(enumerate_copies(g, h).copies) == want and want


def test_join_memory_is_blocked():
    # 40 * 39 * ... * 31 embeddings of a 9-edge path: an unblocked join
    # would hold about 10**13 rows; the cap stops the blocked one early
    tracemalloc.start()
    try:
        cs = enumerate_copies(complete_digraph(40), make_directed_path(9), cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cs) == 1000 and cs.truncated
    assert peak < 64 * 2**20, peak


def test_enumerate_rejects_bad_patterns():
    with pytest.raises(InvalidInputError):
        enumerate_copies(T3, Digraph(2, [(0, 1), (1, 0)]))  # not a dag
    with pytest.raises(InvalidInputError):
        enumerate_copies(T3, Digraph(3, [(0, 1)]))  # isolated vertex
    with pytest.raises(SizeLimitError):
        enumerate_copies(T3, make_directed_path(11))


def test_union_copy_graph():
    t4 = make_transitive_tournament(4)
    cs = enumerate_copies(t4, T3)
    assert union_graph(cs).edges == t4.edges and not cs.truncated
    assert union_graph(enumerate_copies(Digraph(3, [(0, 1)]), P3)).edge_count == 0


def test_tau_le_one():
    res = tau_le_one(make_transitive_tournament(5), T3)
    assert res.acyclic and res.order is not None
    # no copies at all: trivially one permutation (tau = 0)
    res0 = tau_le_one(Digraph(4, [(0, 1)]), T3)
    assert res0.acyclic

    res2 = tau_le_one(TWO_TRIANGLES, T3)
    assert not res2.acyclic
    assert len(res2.cycle) == 2
    u, v = res2.cycle
    assert (u, v) in res2.union.edges and (v, u) in res2.union.edges


def test_compatible():
    single = enumerate_copies(T3, T3).copies
    assert compatible(single)
    a = Copy(frozenset([0, 1, 2]), frozenset([(0, 1), (1, 2)]))
    b = Copy(frozenset([2, 3, 4]), frozenset([(2, 3), (3, 4)]))
    c = Copy(frozenset([4, 5, 0]), frozenset([(4, 5), (5, 0)]))
    assert compatible([a, b]) and compatible([b, c]) and compatible([a, c])
    assert not compatible([a, b, c])  # union is a directed 6-cycle
    d = Copy(frozenset([0, 1]), frozenset([(1, 0)]))
    assert not compatible([a, d])


def test_compatible_monotone_under_superset():
    rng = random.Random(3)
    for _ in range(40):
        g = random_digraph(rng, 5, 0.7)
        copies = enumerate_copies(g, P3).copies
        if len(copies) < 3:
            continue
        chosen = rng.sample(copies, 3)
        if not compatible(chosen[:2]):
            assert not compatible(chosen)


def test_compatible_matches_union_dagness_random():
    rng = random.Random(8)
    seen = set()
    for _ in range(150):
        g = random_digraph(rng, 6, rng.choice([0.3, 0.5]))
        for pattern in (T3, P3):
            copies = enumerate_copies(g, pattern).copies
            if not copies:
                continue
            chosen = rng.sample(copies, min(len(copies), rng.randint(2, 5)))
            union = set().union(*(c.edges for c in chosen))
            got = compatible(chosen)
            assert got == is_dag(Digraph(6, union))
            seen.add(got)
    assert seen == {True, False}


def twin(group: _Group) -> _Group:
    """A copy of the group sharing no state with it."""
    other = copy.copy(group)
    other.in_ = {x: set(tails) for x, tails in group.in_.items()}
    other.pos, other.order, other.count = dict(group.pos), list(group.order), dict(group.count)
    other.closing, other.anc = set(group.closing), dict(group.anc)
    return other


def ask(group: _Group, edges, want: bool) -> bool:
    """try_add's answer, with the group left as a refusal leaves it.

    `want` is the oracle's answer: a copy it expects to go in is tried on
    a twin, and one it expects refused is tried on the group itself,
    which must then undo the copy.
    """
    return (twin(group) if want else group).try_add(edges)


def fits(group: _Group, edges) -> bool:
    """True iff `edges` could join `group`, which keeps only what it held."""
    if group.try_add(edges):
        group.remove(edges)
        return True
    return False


def group_state(group: _Group) -> tuple:
    """What a refused try_add must leave as it found it; `closing` may grow."""
    return (list(group.order), dict(group.pos), dict(group.count),
            {x: set(tails) for x, tails in group.in_.items()},
            dict(group.anc), group.snapshot_at)


class MoveLog(list):
    """A group order that counts the moved blocks whose vertices were not all adjacent.

    `try_add` deletes a block's slots highest first, then inserts the
    block with one empty-slice assignment.
    """

    def __init__(self) -> None:
        super().__init__()
        self.slots: list[int] = []
        self.spread = 0

    def __delitem__(self, key):
        if isinstance(key, int):
            self.slots.append(key)
        super().__delitem__(key)

    def __setitem__(self, key, value):
        if isinstance(key, slice) and key.start == key.stop:
            self.spread += any(a - b > 1 for a, b in zip(self.slots, self.slots[1:]))
            self.slots = []
        super().__setitem__(key, value)


def check_batch_recompute(rng: random.Random, n: int, steps: int) -> int:
    """Random adds and removes of 1-3 edges on n vertices, checked after
    every call against the batch; returns how many moved blocks held
    vertices that were not adjacent."""
    spread = 0
    for _ in range(60):
        group = _Group()
        group.order = MoveLog()
        members: list = []  # edge batches added and not yet removed
        for _ in range(steps):
            if members and rng.random() < 0.25:
                group.remove(members.pop(rng.randrange(len(members))))
            else:
                batch = {
                    (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))
                }
                batch = {(u, v) for u, v in batch if u != v}
                if not batch:
                    continue
                union = set().union(*members)
                got = group.try_add(batch)
                assert got == is_dag(Digraph(n, union | batch))
                if got:
                    members.append(batch)
            # positions must index the order, which must stay topological,
            # and the edge set exact, with its holder counts
            pos = group.pos
            assert len(pos) == len(group.order) and all(pos[x] == k for k, x in enumerate(group.order))
            union = set().union(*members)
            assert all(pos[u] < pos[v] for u, v in union)
            assert group.count == Counter(e for batch in members for e in batch)
        spread += group.order.spread
    return spread


def test_group_matches_batch_recompute():
    check_batch_recompute(random.Random(21), 8, 30)
    # a cycle that alternates between old vertices and two vertices new to the group
    group = _Group({(0, 2), (1, 3)})
    assert not group.try_add({(5, 0), (0, 6), (6, 1), (1, 5)})
    assert group.try_add({(5, 0), (0, 6), (6, 1), (5, 1)})


def test_group_matches_batch_recompute_on_24_vertices():
    # larger windows: moved blocks hold two or more vertices that were
    # not adjacent, so both the block and the rest of the window shift
    assert check_batch_recompute(random.Random(24), 24, 120) > 200


def test_group_refuses_a_cyclic_first_copy():
    with pytest.raises(AssertionError):
        _Group({(0, 1), (1, 0)})
    with pytest.raises(AssertionError):
        _Group({(0, 1), (1, 2), (2, 0)})
    assert _Group().order == [] and _Group({(1, 0)}).order == [1, 0]


def test_group_refusal_is_undone_exactly(monkeypatch):
    # after every refused try_add the group equals a copy taken before the
    # call, and every closing edge (u, v) has v reaching u over group edges
    logs: list[int] = []  # window slots logged by each refusal
    undo = _Group._undo

    def logged(self, end, moved, added, held):
        logs.append(sum(len(window) for _, window in moved))
        undo(self, end, moved, added, held)

    monkeypatch.setattr(_Group, "_undo", logged)

    # (1, 2) goes in first and moves vertex 1 below 2 and 3; (3, 1) then
    # closes a cycle through it, so both the move and the edge are undone,
    # and the cycle needs a new edge, so (3, 1) is not memoised
    group = _Group({(2, 3)})
    before = group_state(group)
    assert not group.try_add({(1, 2), (3, 1)})
    assert logs == [3] and group_state(group) == before and not group.closing
    # group edges alone close this one
    assert not group.try_add({(3, 2)}) and group.closing == {(3, 2)}
    assert group_state(group) == before

    rng = random.Random(61)
    refused = closing = two_cycles = 0
    for _ in range(30):
        n = rng.randint(4, 8)
        g = random_digraph(rng, n, 0.5)
        two_cycles += any((v, u) in g.edges for u, v in g.edges)
        batches = [c.edges for c in enumerate_copies(g, T3).copies + enumerate_copies(g, P3).copies]
        for _ in range(10):  # cycles of two and three host edges, as batches of their own
            u, v, w = rng.sample(range(n), 3)
            batches += [{(u, v), (v, u)}, {(u, v), (v, w), (w, u)}]
        group = _Group()
        members: list = []
        for _ in range(40):
            if members and rng.random() < 0.2:
                group.remove(members.pop(rng.randrange(len(members))))
                continue
            batch = rng.choice(batches)
            before = group_state(group)
            if group.try_add(batch):
                members.append(batch)
                continue
            refused += 1
            assert group_state(group) == before, batch
            union = set().union(*members)
            assert not is_dag(Digraph(n, union | batch))
            for u, v in group.closing:
                assert not is_dag(Digraph(n, union | {(u, v)})), (u, v)
            closing += len(group.closing)
    assert two_cycles > 20 and refused > 300 and closing > 100
    assert sum(1 for moved in logs if moved) > 20


def test_group_closing_memo_matches_fresh_groups():
    # try_add keeps the edges that close a cycle with group edges alone;
    # after every add and remove its answers must match a group built
    # afresh from the current members and is_dag on the union
    rng = random.Random(31)
    hits = clears = 0
    for _ in range(12):
        g = random_digraph(rng, 7, 0.5)
        copies = list(enumerate_copies(g, T3).copies + enumerate_copies(g, P3).copies)
        group = _Group()
        members: list = []
        for _ in range(40):
            if members and rng.random() < 0.3:
                had = bool(group.closing)
                group.remove(members.pop(rng.randrange(len(members))).edges)
                clears += had and not group.closing
            else:
                c = rng.choice(copies)
                if group.try_add(c.edges):
                    members.append(c)
            fresh = _Group()
            for m in members:
                assert fresh.try_add(m.edges)
            union = set().union(*(m.edges for m in members))
            for c in copies:
                hits += bool(group.closing & c.edges)
                want = is_dag(Digraph(7, union | c.edges))
                assert ask(group, c.edges, want) == fits(fresh, c.edges) == want, c
    assert hits and clears


@pytest.mark.parametrize("snapshot_edges", [0, 1, covering._SNAPSHOT_EDGES])
def test_group_snapshot_matches_fresh_groups(monkeypatch, snapshot_edges):
    # a snapshot may only reject: after every add and remove, try_add
    # must match a group built afresh from the current members and
    # is_dag on the union, and every snapshot bit but a vertex's own
    # must be a group path into it
    monkeypatch.setattr(covering, "_SNAPSHOT_EDGES", snapshot_edges)
    rng = random.Random(41)
    snapshots = 0
    for _ in range(10):
        g = random_digraph(rng, 8, 0.5)
        copies = list(enumerate_copies(g, T3).copies + enumerate_copies(g, P3).copies)
        group = _Group()
        members: list = []
        for _ in range(40):
            if members and rng.random() < 0.3:
                group.remove(members.pop(rng.randrange(len(members))).edges)
            else:
                c = rng.choice(copies)
                if group.try_add(c.edges):
                    members.append(c)
            snapshots += bool(group.anc)
            fresh = _Group()
            for m in members:
                assert fresh.try_add(m.edges)
            union = set().union(*(m.edges for m in members))
            for x, reach in group.anc.items():
                for y in (y for y in range(reach.bit_length()) if reach >> y & 1 and y != x):
                    assert not is_dag(Digraph(8, union | {(x, y)})), (x, y)
            for c in copies:
                want = is_dag(Digraph(8, union | c.edges))
                assert ask(group, c.edges, want) == fits(fresh, c.edges) == want, c
    # n = 8 groups hold at most 56 edges, so only lowered thresholds take one
    assert (snapshots > 0) == (snapshot_edges < 56)


def ancestors(edges, x: int) -> int:
    """The bitset of x and every vertex with a path into x over `edges`."""
    into: dict = {}
    for u, v in edges:
        into.setdefault(v, []).append(u)
    found, stack = 1 << x, [x]
    while stack:
        for y in into.get(stack.pop(), ()):
            if not found >> y & 1:
                found |= 1 << y
                stack.append(y)
    return found


@pytest.mark.parametrize("snapshot_edges", [0, 1, 8])
def test_group_snapshot_holds_every_ancestor(monkeypatch, snapshot_edges):
    # a snapshot just taken maps each vertex of the order to exactly its
    # ancestors over the union's in-edges, its own bit included
    monkeypatch.setattr(covering, "_SNAPSHOT_EDGES", snapshot_edges)
    taken = []
    take = _Group._snapshot

    def counted(self):
        taken.append(len(self.count))
        take(self)

    monkeypatch.setattr(_Group, "_snapshot", counted)
    rng = random.Random(43)
    checked = 0
    for _ in range(10):
        g = random_digraph(rng, 8, 0.5)
        copies = list(enumerate_copies(g, T3).copies + enumerate_copies(g, P3).copies)
        group = _Group()
        members: list = []
        for _ in range(40):
            if members and rng.random() < 0.3:
                group.remove(members.pop(rng.randrange(len(members))).edges)
                continue
            c = rng.choice(copies)
            before = len(taken)
            if group.try_add(c.edges):
                members.append(c)
            if len(taken) > before:
                union = set().union(*(m.edges for m in members))
                assert group.anc == {x: ancestors(union, x) for x in group.order}
                checked += 1
    assert checked > 20

    # the 101-vertex path takes its last snapshot with its last edge
    monkeypatch.setattr(covering, "_SNAPSHOT_EDGES", 64)
    group = _Group()
    for i in range(100):
        assert group.try_add({(i, i + 1)})
    assert taken[-1] == 100
    assert group.anc == {x: (1 << x + 1) - 1 for x in range(101)}  # anc[100] holds 0..100


def test_group_snapshot_rule(monkeypatch):
    taken = []
    take = _Group._snapshot

    def counted(self):
        taken.append(len(self.count))
        take(self)

    monkeypatch.setattr(_Group, "_snapshot", counted)
    # a 101-vertex path, one edge at a time: snapshots at 64 edges, then
    # each time the union has grown by a quarter
    group = _Group()
    for i in range(100):
        assert group.try_add({(i, i + 1)})
    assert taken == [64, 80, 100]
    assert group.anc[100] == sum(1 << y for y in range(101))

    # a rejection the snapshot sees runs no search
    searched = []

    class Spy(dict):
        def get(self, key, default=None):
            searched.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            searched.append(key)
            return super().__getitem__(key)

    group.in_ = Spy(group.in_)
    assert not group.try_add({(100, 0)})
    assert searched == []

    # add and remove of one copy in turn, as the exact search does, takes
    # no snapshot: the first remove drops it and re-arms the growth rule
    taken.clear()
    for _ in range(20):
        assert group.try_add({(100, 101), (101, 102)})
        group.remove({(100, 101), (101, 102)})
        assert not group.anc
    assert not group.try_add({(100, 0)})
    assert group.try_add({(101, 0)})
    assert taken == []
    # the exact search's n = 8 groups stay below the threshold
    assert tau_exact(family_draw("T3", 3), T3, budget=2000).nodes > 0
    assert taken == []


def test_tau_greedy():
    sol = tau_greedy(complete_digraph(3), T3, seed=1)
    assert sol.size >= 2
    assert sol.covers(enumerate_copies(complete_digraph(3), T3))

    t5 = make_transitive_tournament(5)
    sol1 = tau_greedy(t5, T3, seed=9)
    assert sol1.size == 1

    empty = tau_greedy(Digraph(3, [(0, 1)]), T3, seed=0)
    assert empty.size == 0 and empty.assignment == ()


def test_greedy_verifies_its_cover(monkeypatch):
    # the first group's order reversed puts its copies' edges backward
    extend = covering._extend_to_permutation
    calls = []

    def reverse_first(n, prefix):
        calls.append(prefix)
        return extend(n, prefix[::-1] if len(calls) == 1 else prefix)

    monkeypatch.setattr(covering, "_extend_to_permutation", reverse_first)
    with pytest.raises(AssertionError, match="greedy cover failed verification"):
        tau_greedy(complete_digraph(4), T3, seed=1)
    assert len(calls) > 1


def test_tau_lower_clique_edges():
    # all copies mutually compatible: the clique cannot grow past one copy
    assert tau_lower_clique(make_transitive_tournament(5), T3, seed=2) == 1
    assert tau_lower_clique(complete_digraph(3), T3, seed=2) >= 2
    assert tau_lower_clique(Digraph(3, [(0, 1)]), T3, seed=2) == 0


def test_tau_greedy_deterministic():
    g = random_digraph(random.Random(5), 6, 0.6)
    a = tau_greedy(g, T3, seed=4)
    b = tau_greedy(g, T3, seed=4)
    assert a == b


def test_tau_exact_examples():
    res = tau_exact(complete_digraph(3), T3)
    assert res.exact and res.value == 6
    assert res.solution.covers(enumerate_copies(complete_digraph(3), T3))

    assert tau_exact(make_transitive_tournament(6), T3).value == 1
    assert tau_exact(complete_digraph(4), T3).value == perm_cover_minimum(
        complete_digraph(4), T3
    )


def test_tau_exact_budget_degrades_to_bounds():
    # D5/T3 needs actual search nodes (greedy overshoots the clique bound),
    # so a unit budget is guaranteed to leave only bounds
    res = tau_exact(complete_digraph(5), T3, budget=1)
    assert not res.exact
    assert res.lower <= res.upper
    with pytest.raises(InvalidInputError):
        _ = res.value
    assert res.solution is not None and res.solution.size == res.upper
    # a generous budget gets the exact answer back, inside the old bounds
    full = tau_exact(complete_digraph(5), T3, budget=5_000_000)
    assert full.exact
    assert res.lower <= full.value <= res.upper


def test_tau_exact_refuses_before_building_copies(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Copy was built")

    d10 = complete_digraph(10)
    cs = enumerate_copies(d10, T3)
    assert len(cs) == 720 > covering.MAX_EXACT_COPIES
    monkeypatch.setattr(covering, "Copy", refuse)
    with pytest.raises(SizeLimitError, match="limited to 512 copies, got 720"):
        tau_exact(d10, T3, copies=cs)


def test_tau_exact_decodes_each_row_once_on_an_early_return(monkeypatch):
    g = family_draw("T3", 0)  # greedy meets the clique: 0 search nodes
    cs = enumerate_copies(g, T3)
    decode = CopySet.decode
    calls = Counter()

    def counting(self, ids):
        calls.update(int(i) for i in ids)
        return decode(self, ids)

    monkeypatch.setattr(CopySet, "decode", counting)
    res = tau_exact(g, T3, copies=cs)
    assert res.exact and res.nodes == 0
    assert calls == Counter(range(len(cs)))  # greedy's scan, and nothing else
    # a host that searches: greedy's scan and the search share one decode
    g = family_draw("T3", 1)
    cs = enumerate_copies(g, T3)
    calls.clear()
    res = tau_exact(g, T3, copies=cs)
    assert res.exact and res.nodes > 0
    assert calls == Counter(range(len(cs)))


def test_truncated_copy_set_is_never_exact():
    k6 = complete_digraph(6)  # 120 T3 copies, tau >= 6
    res = tau_exact(k6, T3, cap=2)
    assert res.truncated and not res.exact and res.solution.truncated
    with pytest.raises(InvalidInputError):
        _ = res.value
    none_kept = tau_exact(k6, T3, cap=0)
    assert none_kept.truncated and not none_kept.exact
    assert tau_greedy(k6, T3, seed=1, cap=2).truncated
    assert not tau_greedy(k6, T3, seed=1).truncated
    assert not tau_exact(complete_digraph(3), T3).truncated


def test_seeded_covers_pinned():
    # values recorded before the group engine was unified; they must not move
    g = sample_digraph(8, 0.45, 24)
    greedy = tau_greedy(g, T3, seed=3)
    assert greedy.assignment == (
        1, 0, 1, 0, 1, 2, 2, 2, 0, 0, 0, 4, 3, 3, 2, 1, 1, 0, 0, 1, 0, 0, 2, 1, 1
    )
    assert [list(p.order) for p in greedy.permutations] == [
        [7, 2, 6, 0, 3, 4, 5, 1],
        [6, 2, 4, 7, 0, 1, 3, 5],
        [4, 1, 7, 6, 0, 5, 2, 3],
        [3, 1, 4, 7, 0, 2, 5, 6],
        [1, 3, 4, 0, 2, 5, 6, 7],
    ]
    res = tau_exact(g, T3)
    assert (res.lower, res.upper, res.exact, res.nodes) == (4, 4, True, 2118)
    assert res.solution.assignment == (
        1, 2, 0, 1, 0, 1, 0, 1, 2, 1, 0, 1, 3, 2, 0, 3, 3, 2, 1, 3, 0, 0, 3, 3, 0
    )
    assert [list(p.order) for p in res.solution.permutations] == [
        [6, 3, 4, 0, 1, 5, 2, 7],
        [6, 7, 0, 2, 5, 1, 3, 4],
        [5, 6, 7, 2, 0, 3, 1, 4],
        [1, 2, 3, 4, 5, 6, 7, 0],
    ]
    # clique bounds recorded before the clique kept one group per member
    assert [tau_lower_clique(g, T3, seed) for seed in range(8)] == [2, 3, 2, 3, 3, 3, 2, 3]
    larger = sample_digraph(40, 0.25, 3)  # 867 T3 copies
    cs = enumerate_copies(larger, T3)
    assert [tau_lower_clique(larger, T3, seed, copies=cs) for seed in range(8)] == [
        2, 2, 2, 3, 3, 4, 2, 3
    ]


def test_greedy_sweep_host_pinned():
    # a host of the sweep_tau regime, whose groups pass _SNAPSHOT_EDGES;
    # the assignment was recorded before groups kept a reachability
    # snapshot, the orders when a backward edge moved to a window shift
    g = sample_digraph(300, 300**-0.5, 606, 0)
    sol = tau_greedy(g, T3, seed=1)
    assert (len(sol.assignment), sol.size) == (5267, 7)
    assert split_digests(sol) == ("18fbcdda3261f345", "41e4659b7a68f959")


def test_greedy_bench_host_pinned():
    # the benchmark's sweep_tau host size; the assignment was recorded
    # before a copy went in with one insert that also finds the cycle,
    # the orders when a backward edge moved to a window shift
    g = sample_digraph(500, 500**-0.5, 606, 0)
    sol = tau_greedy(g, T3, seed=1)
    assert (len(sol.assignment), sol.size) == (11344, 8)
    assert split_digests(sol) == ("7036e4c9c2036eed", "929d6d952df36615")


@pytest.mark.parametrize(
    "pattern",
    [T3, P3, make_directed_path(3), figure1_graph(), Digraph(4, [(0, 1), (2, 3)]),
     Digraph(5, [(0, 1), (0, 2), (3, 4)])],
    ids=["T3", "P2", "P3", "figure1", "two_edges", "fork_edge"],
)
def test_clique_screen_matches_unscreened_oracle(pattern):
    # the screen scans only copies sharing two or more vertices with the
    # start; the two-edge pattern's copies share 0 to 4.  On the complete
    # hosts that is most of the set, more than one _CLIQUE_BLOCK for P3,
    # and the 5-vertex patterns' copies sharing four vertices get the
    # closure of their union inside it
    rng = random.Random(f"clique:{pattern.sorted_edges}")
    hosts = [random_digraph(rng, rng.randint(6, 14), 0.3) for _ in range(4)]
    for g in hosts + [complete_digraph(4), complete_digraph(5)]:
        cs = enumerate_copies(g, pattern)
        for seed in range(8):
            assert tau_lower_clique(g, pattern, seed, copies=cs) == clique_lower_unscreened(cs, seed)


def _no_group(*args):
    raise AssertionError("a group was built")


@pytest.mark.parametrize(
    "host, pattern, want",
    [(sample_digraph(300, 300**-0.5, 606, 0), T3, [2, 2, 2, 2, 2, 3, 2, 2]),
     (complete_digraph(8), Digraph(5, [(0, 1), (2, 3), (3, 4)]), [10, 9, 12, 10, 9, 11, 10, 11])],
    ids=["T3_sweep_host", "edge_path_D8"],
)
def test_clique_builds_no_group(monkeypatch, host, pattern, want):
    # the pair join and, for copies sharing four or more vertices, the
    # closure of their union decide every conflict, so no copy goes into
    # a group; values recorded before the union closure, without the patch
    cs = enumerate_copies(host, pattern)
    monkeypatch.setattr(covering, "_Group", _no_group)
    assert [tau_lower_clique(host, pattern, seed, copies=cs) for seed in range(8)] == want


def as_lists(masks: list[int]) -> list[list[int]]:
    """The set bits of each mask, lowest first."""
    return [[j for j in range(len(masks)) if mask >> j & 1] for mask in masks]


def assert_conflict_lists(conflicts: list[list[int]]) -> None:
    """Each list ascending without its own index, and the relation symmetric."""
    for i, near in enumerate(conflicts):
        assert near == sorted(set(near)) and i not in near, i
        assert all(i in conflicts[j] for j in near), i


def test_conflict_masks_match_dense_oracle():
    # the pair index skips copies sharing fewer than two vertices; the
    # oracle tests every pair with a Kahn peel of the union
    hosts = [(family_draw(name, d), pattern) for name, (pattern, _, draws) in FAMILY.items()
             for d in range(draws)]
    hosts += [(complete_digraph(5), T3), (complete_digraph(6), T3), (sample_digraph(8, 0.45, 24), T3)]
    # 4-vertex patterns, whose copies can share three vertices, or four
    # for two disjoint edges
    diamond = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    two_edges = Digraph(4, [(0, 1), (2, 3)])
    rng = random.Random(8)
    for pattern in (make_transitive_tournament(4), make_directed_path(3), diamond, two_edges):
        hosts += [(random_digraph(rng, 6, 0.5), pattern) for _ in range(3)]
    # 5-vertex patterns, whose copies can share four vertices, which the
    # reachable-pair lookup alone does not decide
    for pattern in (make_transitive_tournament(5), make_directed_path(4),
                    Digraph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 4)])):
        hosts += [(random_digraph(rng, 7, 0.5), pattern) for _ in range(3)]
    # the 10-vertex path, at MAX_PATTERN_VERTICES: its closure masks use
    # bit 9.  On the directed 18-cycle, opposite copies share only their
    # ends and close the cycle, so the pair join alone must find them
    path9 = make_directed_path(9)
    hosts += [(random_digraph(random.Random(10), 10, 0.3), path9),
              (Digraph(18, [(v, (v + 1) % 18) for v in range(18)]), path9)]
    shared = Counter()
    for g, pattern in hosts:
        cs = enumerate_copies(g, pattern)
        copies = cs.copies
        conflicts = _conflicts(cs.keys, cs.host.n, cs.pattern.n)
        assert conflicts == as_lists(conflict_masks_dense(copies)), (g, pattern)
        assert_conflict_lists(conflicts)
        if pattern.n >= 4:
            shared.update(min(len(a.vertices & b.vertices), 4) for a, b in combinations(copies, 2))
    assert shared[3] and shared[4]


def test_conflict_masks_four_shared_vertices(monkeypatch):
    # a 4-cycle through both copies, with no pair reached in opposite
    # directions; the closure of the union finds it without a group
    a = Copy(frozenset(range(4)), frozenset({(0, 1), (2, 3)}))
    b = Copy(frozenset(range(4)), frozenset({(1, 2), (3, 0)}))
    cs = enumerate_copies(Digraph(4, a.edges | b.edges), Digraph(4, [(0, 1), (2, 3)]))
    assert cs.copies == (a, b)
    monkeypatch.setattr(covering, "_Group", _no_group)
    assert _conflicts(cs.keys, 4, 4) == as_lists(conflict_masks_dense([a, b])) == [[1], [0]]


def test_conflicts_whole_sweep_host():
    # recorded with the whole-width bitmasks the lists replaced
    cs = enumerate_copies(sample_digraph(500, 500**-0.5, 606, 0), T3)
    conflicts = _conflicts(cs.keys, cs.host.n, cs.pattern.n)
    assert_conflict_lists(conflicts)
    assert len(conflicts) == 11_344
    assert sum(1 for near in conflicts if near) == 1_463
    assert sum(map(len, conflicts)) == 2 * 3_001
    assert max(map(len, conflicts)) == 15


# (pattern, draw, tau, nodes, solution digest), recorded before the sparse
# conflict table and the kept blocked counts; T3 draw 3 ends at the budget.
# Four draws return greedy's cover with 0 nodes, and its orders moved when
# a backward edge moved to a window shift: they pin split_digests, the
# assignment's as recorded before
FAMILY_PINNED = [
    ("T3", 0, 6, 0, ("df9979b4793b06b4", "911e4493b6b04d0a")), ("T3", 1, 6, 11, "bf1c52b35091c2f0"),
    ("T3", 2, 4, 122, "9d9a9ea794063e02"), ("T3", 4, 6, 11, "fc0b14de49e104a1"),
    ("T3", 5, 6, 162, "f2c116d3cad06b33"), ("T3", 6, 5, 2121, "75b5e0433c0b5fe5"),
    ("T3", 7, 6, 111, "b0302eda51214cf6"), ("T3", 8, 6, 0, "70fc0dd72dfe8c97"),
    ("T3", 9, 6, 127, "c5a840e28331c42f"), ("T3", 10, 6, 23, "8ab0c166034442dc"),
    ("T3", 11, 4, 26, "0b87f191bf80b05f"), ("T3", 12, 6, 11, "a1a5885c0c40d5ae"),
    ("T3", 13, 6, 449, "fdf180366d519be9"), ("T3", 14, 6, 61, "aa4d731b9691fd1e"),
    ("T3", 15, 6, 0, "4e0d2bca62c9a711"), ("T3", 16, 6, 11, "463aa179f0b2c692"),
    ("T3", 17, 6, 218, "4641b5debda20292"), ("T3", 18, 4, 0, "dcc0a13acda0ae21"),
    ("T3", 19, 6, 283, "b0548d07f839ffae"),
    ("P2", 0, 4, 0, ("2efbcdf2b935c681", "9b55ff4ca5a4a60e")), ("P2", 1, 3, 0, "30dea409e6a75888"),
    ("P2", 2, 4, 90, "01bf3d5ab3aca566"), ("P2", 3, 4, 0, ("031b45dbac420aea", "2d963ec089ba3760")),
    ("P2", 4, 3, 67, "fabd5ba65127a6ae"), ("P2", 5, 2, 0, "e8e71cd98d741c3b"),
    ("P2", 6, 3, 44, "398c2d94129b0bb3"), ("P2", 7, 3, 69, "cac20cf4cf84fb05"),
    ("P2", 8, 4, 70, "7895fac10c15e0d9"), ("P2", 9, 4, 75, "00c1a3efe6f03b48"),
    ("P2", 10, 4, 45, "c07fcba21bae03c6"), ("P2", 11, 4, 0, ("5c52c7ee1dbcc2fa", "ca9cb3fef5f5e849")),
]


def test_exact_search_pinned():
    for name, draw, tau, nodes, digest in FAMILY_PINNED:
        res = tau_exact(family_draw(name, draw), FAMILY[name][0], budget=100_000)
        assert (res.lower, res.upper, res.exact, res.nodes) == (tau, tau, True, nodes), (name, draw)
        split = isinstance(digest, tuple)
        assert (split_digests if split else solution_digest)(res.solution) == digest, (name, draw)
    k6 = tau_exact(complete_digraph(6), T3, budget=20_000)
    assert (k6.lower, k6.upper, k6.exact, k6.nodes) == (6, 8, False, 20_001)
    assert solution_digest(k6.solution) == "cec27cbbf7f9a154"


def test_tau_oracle_and_sandwich_random():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.choice([3, 4])
        g = random_digraph(rng, n, rng.choice([0.4, 0.8]))
        for pattern in (T3, P3):
            cs = enumerate_copies(g, pattern)
            exact = tau_exact(g, pattern, copies=cs)
            assert exact.exact
            oracle = perm_cover_minimum(g, pattern)
            assert exact.value == oracle, (g, pattern)
            lower = tau_lower_clique(g, pattern, seed=7, copies=cs)
            upper = tau_greedy(g, pattern, seed=7, copies=cs).size
            assert lower <= exact.value <= upper


def test_tau_sandwich_n_up_to_6():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.choice([5, 6])
        g = random_digraph(rng, n, rng.choice([0.3, 0.6]))
        for pattern in (T3, P3):
            cs = enumerate_copies(g, pattern)
            res = tau_exact(g, pattern, copies=cs)
            if not res.exact:
                continue
            lower = tau_lower_clique(g, pattern, seed=trial, copies=cs)
            upper = tau_greedy(g, pattern, seed=trial, copies=cs).size
            assert lower <= res.value <= upper


def test_consistent_sets_identity():
    fam = consistent_sets([Permutation(range(8))], 1)
    assert [sorted(s) for s in fam.sets] == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_consistent_sets_id_and_reverse():
    perms = [Permutation(range(8)), Permutation(range(7, -1, -1))]
    fam = consistent_sets(perms, 1)
    assert all(len(s) == 2 for s in fam.sets)
    assert verify_consistent(perms, fam.sets)


def test_consistent_sets_properties():
    rng = substream(123)
    for trial in range(30):
        n = 64
        x = 1 + trial % 2
        t = 1 + trial % 2
        perms = [
            Permutation([int(v) for v in rng.permutation(n)]) for _ in range(x)
        ]
        fam = consistent_sets(perms, t)
        r = 2**t
        assert fam.r == r
        assert verify_consistent(perms, fam.sets)
        assert all(len(s) >= n // r**x for s in fam.sets)
        flat = [v for s in fam.sets for v in s]
        assert len(flat) == len(set(flat))


def test_consistent_sets_infeasible():
    with pytest.raises(InfeasibleSizeError):
        consistent_sets([Permutation(range(4)), Permutation(range(4))], 2)
    with pytest.raises(InvalidInputError):
        consistent_sets([], 1)


def test_verify_consistent():
    idp = Permutation(range(4))
    assert not verify_consistent([idp], [{0, 2}, {1, 3}])
    assert verify_consistent([idp], [{0}, {2}, {3}])
    assert verify_consistent([idp], [{0, 1}, {2, 3}])


def test_find_consistent_copy():
    t6 = make_transitive_tournament(6)
    singletons = Partition([[0], [1], [2]])
    found = find_consistent_copy(t6, T3, singletons, [{0, 1}, {2, 3}, {4, 5}])
    assert found is not None
    image = sorted(found.vertices)
    assert image[0] in {0, 1} and image[1] in {2, 3} and image[2] in {4, 5}

    # no edges between the target sets: nothing to find
    sparse = Digraph(6, [(0, 1)])
    assert find_consistent_copy(sparse, P3, Partition([[0], [1], [2]]), [{2}, {3}, {4}]) is None

    with pytest.raises(InvalidInputError):
        find_consistent_copy(t6, T3, singletons, [{0, 1}, {1, 2}, {4, 5}])


def test_pipeline_on_complete_host():
    d20 = complete_digraph(20)
    rng = substream(44)
    x = [Permutation([int(v) for v in rng.permutation(20)])]
    result = skew_witness_pipeline(d20, T3, x)
    assert result is not None
    copy, profile = result
    assert profile[0] <= 2
    assert forward_count(copy.edges, x[0]) == profile[0]


def test_pipeline_empty_x():
    result = skew_witness_pipeline(make_transitive_tournament(4), T3, [])
    assert result is not None
    copy, profile = result
    assert profile == () and len(copy.edges) == 3


def test_pipeline_without_permutations_builds_one_copy(monkeypatch):
    host = complete_digraph(6)  # 120 T3 copies
    # the join's first embedding, which enumerates nothing else
    want = Copy(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2), (0, 2)}))
    built = []

    def counting(*args, **kwargs):
        built.append(Copy(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(covering, "Copy", counting)
    assert skew_witness_pipeline(host, T3, []) == (want, ())
    assert len(built) == 1


def test_pipeline_without_permutations_checks_the_pattern():
    # a caller's skew report is not a pattern check
    cyclic = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    report = skewness_exact(T3)
    with pytest.raises(InvalidInputError, match="pattern must be a dag"):
        skew_witness_pipeline(complete_digraph(4), cyclic, [], skew=report)


def test_pipeline_rejects_rooted_star():
    with pytest.raises(InvalidInputError):
        skew_witness_pipeline(complete_digraph(8), make_rooted_star(3), [])


def test_pipeline_infeasible_size():
    rng = substream(9)
    perms = [Permutation([int(v) for v in rng.permutation(4)]) for _ in range(3)]
    with pytest.raises(InfeasibleSizeError):
        skew_witness_pipeline(complete_digraph(4), T3, perms)


def test_pipeline_profile_bounded_random():
    rng = substream(77)
    hits = 0
    for i in range(30):
        g = Digraph(
            16,
            {
                (u, v)
                for u in range(16)
                for v in range(16)
                if u != v and rng.random() < 0.5
            },
        )
        perms = [Permutation([int(v) for v in rng.permutation(16)]) for _ in range(2)]
        result = skew_witness_pipeline(g, T3, perms)
        if result is None:
            continue
        hits += 1
        copy, profile = result
        assert all(c <= 2 for c in profile)
        assert profile == tuple(forward_count(copy.edges, p) for p in perms)
    assert hits > 0


def test_result_records_are_slotted_and_pickle():
    # frozen slotted dataclasses; pickling them had bugs on early Python 3.10
    res = tau_exact(family_draw("T3", 2), T3, budget=100_000)
    perm = res.solution.permutations[0]
    copy = enumerate_copies(family_draw("T3", 2), T3).copies[0]
    for obj in (perm, res.solution, res, copy):
        assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert isinstance(res, TauExactResult) and isinstance(res.solution, CoverSolution)
    p = Permutation([2, 0, 3, 1])
    assert p.position == (1, 3, 0, 2)
    assert pickle.loads(pickle.dumps(p)).position == p.position
