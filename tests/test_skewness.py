import hashlib
import itertools
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
    _best_block_order,
    coloring_skew,
    skewness_exact,
    skewness_upper_random,
)

from oracles import all_partitions, brute_coloring_skew, dag_catalog, random_dag

# skewness_exact on fixed inputs, recorded before the search gained its
# lower bounds: a bound may skip partitions but never change a witness.
# Entries are (value, coloring, witness order).
# The catalog entry is the sha256 of their reprs over dag_catalog(4), one a line.
CATALOG4_SHA256 = "2ea98c20b092d33134f30cd18be33b2f52ef35f76966d31f703f769e5b499bf0"
PINNED_RANDOM = [  # random.Random(i) draws n, p and the dag, for i in 0..39
    (9, [[0, 1, 2, 5], [3], [4, 6, 7]], [3, 4, 6, 7, 1, 2, 5, 0]),
    (1, [[0, 2], [1]], [0, 2, 1]),
    (4, [[0, 2, 4, 6, 7], [1, 3], [5]], [0, 2, 4, 6, 7, 1, 3, 5]),
    (2, [[0], [1, 2]], [0, 1, 2]),
    (2, [[0, 2], [1]], [2, 0, 1]),
    (5, [[0, 1, 3], [2, 4, 5]], [1, 3, 0, 2, 4, 5]),
    (12, [[0, 1, 4, 7], [2, 6], [3, 5]], [6, 2, 5, 3, 4, 0, 1, 7]),
    (2, [[0, 1, 3], [2]], [1, 0, 3, 2]),
    (2, [[0], [1, 2]], [0, 2, 1]),
    (5, [[0, 1, 2], [3, 4]], [3, 4, 0, 1, 2]),
    (3, [[0, 1, 2, 5], [3, 4]], [0, 1, 2, 5, 3, 4]),
    (5, [[0, 4], [1, 2, 3]], [0, 4, 1, 2, 3]),
    (4, [[0, 1, 2], [3, 4]], [1, 0, 2, 3, 4]),
    (2, [[0, 1, 2, 3]], [0, 2, 3, 1]),
    (1, [[0, 1]], [1, 0]),
    (2, [[0, 1, 2]], [1, 0, 2]),
    (2, [[0, 3], [1, 2]], [0, 3, 1, 2]),
    (5, [[0], [1, 2, 4], [3, 5]], [0, 3, 5, 1, 2, 4]),
    (1, [[0, 1, 2]], [0, 1, 2]),
    (6, [[0, 2, 6], [1, 3, 4, 5]], [2, 0, 6, 3, 1, 4, 5]),
    (11, [[0], [1, 3], [2, 5], [4, 6]], [0, 3, 1, 4, 6, 2, 5]),
    (2, [[0, 1, 2]], [0, 1, 2]),
    (2, [[0, 1, 2]], [1, 2, 0]),
    (9, [[0, 6], [1, 2, 5, 7], [3, 4]], [6, 0, 2, 5, 7, 1, 3, 4]),
    (5, [[0, 5], [1, 2], [3, 4, 6]], [0, 5, 1, 2, 3, 4, 6]),
    (2, [[0, 1, 2], [3, 4]], [0, 1, 2, 3, 4]),
    (3, [[0, 3, 4, 5, 6], [1, 2]], [0, 3, 5, 6, 4, 1, 2]),
    (7, [[0, 2], [1, 3, 4, 5], [6]], [0, 2, 1, 3, 4, 5, 6]),
    (1, [[0, 1]], [1, 0]),
    (3, [[0, 1, 4, 5], [2, 3]], [2, 3, 0, 1, 4, 5]),
    (3, [[0, 1, 2], [3, 4, 5]], [1, 0, 2, 3, 4, 5]),
    (0, [[0, 1]], [0, 1]),
    (0, [[0, 1]], [0, 1]),
    (1, [[0, 1, 2, 4], [3, 5]], [0, 1, 2, 4, 3, 5]),
    (6, [[0, 1, 2], [3, 4, 5]], [1, 0, 2, 3, 4, 5]),
    (3, [[0, 1, 4, 5], [2, 3]], [0, 1, 4, 5, 2, 3]),
    (2, [[0, 1, 2, 3]], [1, 2, 3, 0]),
    (7, [[0, 2, 6], [1, 5], [3, 4]], [1, 5, 3, 4, 0, 2, 6]),
    (6, [[0, 1], [2, 3, 6], [4, 5]], [1, 0, 4, 5, 2, 3, 6]),
    (1, [[0], [1, 2]], [0, 1, 2]),
]
PINNED_T9 = (20, [[0, 8], [1, 7], [2, 6], [3, 5], [4]], [0, 8, 1, 7, 2, 6, 3, 5, 4])
PINNED_T10 = (25, [[0, 9], [1, 8], [2, 7], [3, 6], [4, 5]], [0, 9, 1, 8, 2, 7, 3, 6, 4, 5])
PINNED_T9_RELABELLED = [  # vertex v of T9 becomes perm[v], perm shuffled by random.Random(i)
    (20, [[0, 1], [2, 3], [4], [5, 8], [6, 7]], [1, 0, 3, 2, 4, 5, 8, 7, 6]),
    (20, [[0, 4], [1, 6], [2, 5], [3], [7, 8]], [4, 0, 6, 1, 5, 2, 3, 7, 8]),
    (20, [[0, 3], [1, 6], [2, 5], [4, 8], [7]], [3, 0, 6, 1, 5, 2, 4, 8, 7]),
    (20, [[0, 4], [1, 3], [2, 5], [6, 7], [8]], [0, 4, 1, 3, 5, 2, 6, 7, 8]),
    (20, [[0, 6], [1, 3], [2, 4], [5, 7], [8]], [6, 0, 1, 3, 2, 4, 7, 5, 8]),
]


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
    big = make_directed_path(11)  # 12 vertices, one past the limit
    with pytest.raises(SizeLimitError):
        skewness_exact(big)
    value, _ = skewness_upper_random(big, 20, seed=1)
    assert value >= 6  # ceil(m/2) for the 11-edge path


def _report(g):
    r = skewness_exact(g)
    return (r.value, r.witness_coloring.to_lists(), list(r.witness_order.order))


def test_skewness_exact_pinned():
    lines = [repr(_report(g)) for g in dag_catalog(4)]
    assert len(lines) == 478
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CATALOG4_SHA256
    for seed, want in enumerate(PINNED_RANDOM):
        rng = random.Random(seed)
        g = random_dag(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.7]))
        assert _report(g) == want, seed
    t9 = make_transitive_tournament(9)
    assert _report(t9) == PINNED_T9
    assert _report(make_transitive_tournament(10)) == PINNED_T10
    for seed, want in enumerate(PINNED_T9_RELABELLED):
        perm = list(range(9))
        random.Random(seed).shuffle(perm)
        g = Digraph(9, [(perm[u], perm[v]) for u, v in t9.edges])
        assert _report(g) == want, seed


def test_skewness_exact_matches_partition_oracle():
    # the value is the minimum over every partition, and the witness the
    # first partition in restricted-growth order that reaches it
    rng = random.Random(31)
    graphs = []
    for _ in range(60):
        n = rng.randint(1, 6)
        graphs.append(random_dag(rng, n, rng.choice([0.3, 0.5, 0.8])))
    # rooted stars, which skip the search, relabelled and with an isolated vertex
    for n in range(2, 6):
        for source in (True, False):
            label = list(range(n + 1))
            rng.shuffle(label)
            star = make_rooted_star(n, source)
            graphs.append(Digraph(n + 1, [(label[u], label[v]) for u, v in star.edges]))
    for g in graphs:
        partitions = list(all_partitions(g.n))
        values = [brute_coloring_skew(g, blocks) for blocks in partitions]
        rep = skewness_exact(g)
        assert rep.value == min(values)
        assert rep.witness_coloring.to_lists() == partitions[values.index(rep.value)]


def test_best_block_order_matches_permutations():
    rng = random.Random(41)
    for _ in range(150):
        k = rng.randint(0, 6)
        top = rng.choice([1, 3, 9])
        w = [[0 if a == b else rng.randint(0, top) for b in range(k)] for a in range(k)]
        scores = [
            sum(w[order[i]][order[j]] for i in range(k) for j in range(i + 1, k))
            for order in itertools.permutations(range(k))
        ]
        best = max(scores)
        first = next(itertools.islice(itertools.permutations(range(k)), scores.index(best), None))
        assert _best_block_order(w, k) == (best, list(first))


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
