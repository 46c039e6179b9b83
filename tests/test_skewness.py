import random
from math import ceil

import pytest

from dagcover.digraph import (
    Digraph,
    forward_count,
    is_rooted_star,
    make_directed_path,
    make_rooted_star,
    make_transitive_tournament,
)
from dagcover.errors import InvalidInputError, SizeLimitError
from dagcover.skewness import (
    Partition,
    coloring_skew,
    skewness_exact,
    skewness_upper_random,
)

from oracles import all_partitions, brute_coloring_skew, dag_catalog, random_dag


def test_partition_validation():
    with pytest.raises(InvalidInputError):
        Partition([[0, 1], [1, 2]])
    with pytest.raises(InvalidInputError):
        Partition([[0], []])
    with pytest.raises(InvalidInputError):
        Partition([[0, 2]])  # does not cover vertex 1
    p = Partition([[2, 1], [0]])
    assert p.blocks == (frozenset({0}), frozenset({1, 2}))


def test_coloring_skew_examples():
    star = make_rooted_star(5)
    for blocks in ([[0], [1], [2], [3], [4]], [[0, 1], [2, 3, 4]], [range(5)]):
        value, _ = coloring_skew(star, Partition(blocks))
        assert value == star.edge_count

    # balanced bipartite dag with the bipartition coloring: exactly m/2
    p4 = make_directed_path(4)
    parts = Partition([[0, 2, 4], [1, 3]])
    value, _ = coloring_skew(p4, parts)
    assert value == 2

    # transitive tournament with the paired coloring: h*h/4
    for h in (4, 6):
        th = make_transitive_tournament(h)
        pairs = Partition([[i, h - 1 - i] for i in range(h // 2)])
        value, _ = coloring_skew(th, pairs)
        assert value == h * h // 4

    # all-singleton coloring: topological order makes every edge forward
    g = random_dag(random.Random(0), 6, 0.5)
    value, witness = coloring_skew(g, Partition([[v] for v in range(6)]))
    assert value == g.edge_count
    assert forward_count(g.edges, witness) == value


def test_coloring_skew_rejects_bad_input():
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    with pytest.raises(InvalidInputError):
        coloring_skew(two_cycle, Partition([[0], [1]]))
    with pytest.raises(InvalidInputError):
        coloring_skew(make_transitive_tournament(3), Partition([[0], [1]]))


def test_coloring_skew_matches_brute_force():
    rng = random.Random(13)
    cases = 0
    for _ in range(25):
        n = rng.randint(2, 6)
        g = random_dag(rng, n, 0.5)
        for blocks in all_partitions(n):
            part = Partition(blocks)
            value, witness = coloring_skew(g, part)
            assert forward_count(g.edges, witness) == value
            assert value == brute_coloring_skew(g, blocks)
            cases += 1
    assert cases > 500


def test_skewness_known_values():
    assert skewness_exact(make_transitive_tournament(3)).value == 2
    assert skewness_exact(make_transitive_tournament(4)).value == 4
    for k in range(2, 7):
        assert skewness_exact(make_rooted_star(k + 1)).value == k
        assert skewness_exact(make_rooted_star(k + 1, source=False)).value == k
    for d in range(1, 4):
        assert skewness_exact(make_directed_path(2 * d)).value == d


def test_skewness_witness_replays():
    rng = random.Random(23)
    for _ in range(20):
        g = random_dag(rng, rng.randint(2, 6), 0.6)
        rep = skewness_exact(g)
        assert forward_count(g.edges, rep.witness_order) == rep.value
        v2, _ = coloring_skew(g, rep.witness_coloring)
        assert v2 == rep.value


def test_skewness_bounds_catalog():
    for g in dag_catalog(4):
        m = g.edge_count
        s = skewness_exact(g).value
        assert ceil(m / 2) <= s <= m
        assert (s == m) == is_rooted_star(g)


def test_non_star_is_below_m():
    rng = random.Random(15)
    for _ in range(30):
        g = random_dag(rng, rng.randint(3, 6), 0.6)
        if g.edge_count == 0 or g.isolated_vertices():
            continue
        if not is_rooted_star(g):
            assert skewness_exact(g).value <= g.edge_count - 1


def test_lower_bound_every_coloring():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = random_dag(rng, n, 0.5)
        m = g.edge_count
        for _ in range(5):
            k = rng.randint(1, n)
            blocks: dict[int, list[int]] = {}
            for v in range(n):
                blocks.setdefault(rng.randrange(k), []).append(v)
            value, _ = coloring_skew(g, Partition(blocks.values()))
            assert value >= ceil(m / 2)


def test_size_limit():
    big = Digraph(11, [(i, i + 1) for i in range(10)])
    with pytest.raises(SizeLimitError):
        skewness_exact(big)
    value, _ = skewness_upper_random(big, 20, seed=1)
    assert value >= 5  # ceil(m/2) for the 10-edge path


def test_random_upper_bound():
    t3 = make_transitive_tournament(3)
    values = [skewness_upper_random(t3, 100, seed=s)[0] for s in range(10)]
    assert all(v <= 3 for v in values)
    assert values.count(2) >= 8

    star = make_rooted_star(6)
    value, _ = skewness_upper_random(star, 50, seed=3)
    assert value == star.edge_count

    t8 = make_transitive_tournament(8)
    value, coloring = skewness_upper_random(t8, 1000, seed=0)
    assert value <= 16  # the paired coloring is discoverable
    check, _ = coloring_skew(t8, coloring)
    assert check == value


def test_random_upper_never_beats_exact():
    rng = random.Random(77)
    for _ in range(15):
        g = random_dag(rng, rng.randint(2, 7), 0.5)
        exact = skewness_exact(g).value
        upper, _ = skewness_upper_random(g, 30, seed=rng.randrange(1000))
        assert upper >= exact


def test_determinism():
    t6 = make_transitive_tournament(6)
    a = skewness_upper_random(t6, 50, seed=12)
    b = skewness_upper_random(t6, 50, seed=12)
    assert a[0] == b[0] and a[1].blocks == b[1].blocks
