import random

import pytest

from dagcover.digraph import (
    Digraph,
    Permutation,
    forward_count,
    is_dag,
    is_rooted_star,
    make_directed_path,
    make_rooted_star,
    make_transitive_tournament,
    shortest_directed_cycle,
    topological_order,
)
from dagcover.errors import InvalidInputError

from oracles import all_digraphs, lex_min_topological_order, random_dag


def test_digraph_validation():
    with pytest.raises(InvalidInputError):
        Digraph(3, [(0, 0)])
    with pytest.raises(InvalidInputError):
        Digraph(2, [(0, 2)])
    g = Digraph(2, [(0, 1), (1, 0)])  # 2-cycles are allowed
    assert g.edge_count == 2


def test_permutation_validation():
    with pytest.raises(InvalidInputError):
        Permutation([0, 0, 1])
    with pytest.raises(InvalidInputError):
        Permutation([1, 2, 3])
    p = Permutation([2, 0, 1])
    assert p.position[2] == 0 and p.position[1] == 2


def test_topological_order_iff_dag_exhaustive():
    # every digraph on n <= 4 vertices, alone and with an isolated vertex labelled
    # first or last; the order must be the lexicographically smallest topological one
    for n in range(1, 5):
        for g in all_digraphs(n):
            shifted = Digraph(n + 1, [(u + 1, v + 1) for u, v in g.edges])
            for h in (g, shifted, Digraph(n + 1, g.edges)):
                expected = lex_min_topological_order(h)
                assert is_dag(h) == (expected is not None)
                order = topological_order(h)
                assert (None if order is None else order.order) == expected, h


def test_topological_order_t3():
    assert topological_order(make_transitive_tournament(3)).order == (0, 1, 2)
    assert topological_order(Digraph(3, [(0, 1), (1, 2), (2, 0)])) is None


def test_topological_order_random_dags():
    rng = random.Random(5)
    for _ in range(30):
        g = random_dag(rng, 7, 0.5)
        order = topological_order(g)
        assert order is not None
        assert forward_count(g.edges, order) == g.edge_count


def test_is_dag_examples():
    assert is_dag(make_transitive_tournament(5))
    assert not is_dag(Digraph(2, [(0, 1), (1, 0)]))
    assert is_dag(Digraph(10, []))


def _brute_girth(g: Digraph):
    import itertools

    best = None
    for length in range(2, g.n + 1):
        for cyc in itertools.permutations(range(g.n), length):
            if cyc[0] != min(cyc):
                continue
            if all(
                (cyc[i], cyc[(i + 1) % length]) in g.edges for i in range(length)
            ):
                return length
        if best:
            break
    return None


def test_shortest_cycle_exhaustive_n4():
    for g in all_digraphs(4):
        cyc = shortest_directed_cycle(g)
        if is_dag(g):
            assert cyc is None
        else:
            girth = _brute_girth(g)
            assert cyc is not None and len(cyc) == girth
            k = len(cyc)
            assert all((cyc[i], cyc[(i + 1) % k]) in g.edges for i in range(k))


def test_shortest_cycle_examples():
    assert shortest_directed_cycle(make_transitive_tournament(6)) is None
    cyc = shortest_directed_cycle(Digraph(2, [(0, 1), (1, 0)]))
    assert cyc is not None and len(cyc) == 2
    # 5-cycle with a chord creating a 3-cycle
    g = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 1)])
    cyc = shortest_directed_cycle(g)
    assert cyc is not None and len(cyc) == 3


def test_forward_count():
    t3 = make_transitive_tournament(3)
    assert forward_count(t3.edges, Permutation([0, 1, 2])) == 3
    assert forward_count(t3.edges, Permutation([2, 1, 0])) == 0
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 6)
        g = random_dag(rng, n, 0.6)
        order = list(range(n))
        rng.shuffle(order)
        p = Permutation(order)
        assert forward_count(g.edges, p) + forward_count(g.edges, Permutation(order[::-1])) == g.edge_count


def test_constructions():
    assert make_transitive_tournament(4).edge_count == 6
    star = make_rooted_star(5)
    assert star.edges == {(0, 1), (0, 2), (0, 3), (0, 4)}
    p3 = make_directed_path(2)
    assert p3.n == 3 and p3.edges == {(0, 1), (1, 2)}
    with pytest.raises(InvalidInputError):
        make_transitive_tournament(0)
    with pytest.raises(InvalidInputError):
        make_rooted_star(1)
    with pytest.raises(InvalidInputError):
        make_directed_path(0)


def test_is_rooted_star():
    assert is_rooted_star(make_rooted_star(5, source=False))
    assert is_rooted_star(make_rooted_star(5, source=True))
    assert not is_rooted_star(make_directed_path(2))
    # star with one flipped edge is no longer rooted
    flipped = Digraph(4, [(0, 1), (0, 2), (3, 0)])
    assert not is_rooted_star(flipped)
    assert is_rooted_star(Digraph(2, [(0, 1)]))
    with pytest.raises(InvalidInputError):
        is_rooted_star(Digraph(3, []))
