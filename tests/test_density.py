import random
from fractions import Fraction

import pytest

from dagcover.density import fractional_arboricity, is_totally_balanced, maximal_density
from dagcover import density
from dagcover.density import _active_vertices, _check_input, _cuts  # the min-cut layer itself
from dagcover.digraph import Digraph, make_transitive_tournament
from dagcover.errors import (
    InvalidInputError,
    SizeLimitError,
    UndefinedParameterError,
)
from dagcover.experiments import figure1_graph, sample_undirected

from oracles import cuts_from_scratch, densest_subset_enum, random_digraph, random_tree


def test_tournament_arboricity_is_half_h():
    for h in range(3, 9):
        rep = fractional_arboricity(make_transitive_tournament(h))
        assert rep.value == Fraction(h, 2)
        assert rep.totally_balanced


def test_forest_arboricity_is_one():
    rng = random.Random(99)
    for _ in range(20):
        tree = random_tree(rng, rng.randint(2, 12))
        rep = fractional_arboricity(tree)
        assert rep.value == 1
        assert rep.totally_balanced


def test_figure1_values():
    g = figure1_graph()
    rep = fractional_arboricity(g)
    assert rep.value == Fraction(3, 2)
    assert not rep.totally_balanced
    assert sorted(rep.witness) == [2, 3, 4]
    dens = maximal_density(g)
    assert dens.value == 1  # {c,d,e} has 3 edges on 3 vertices


def test_single_edge():
    g = Digraph(2, [(0, 1)])
    rep = fractional_arboricity(g)
    assert rep.value == 1 and rep.totally_balanced
    assert maximal_density(g).value == Fraction(1, 2)


def test_density_t3():
    assert maximal_density(make_transitive_tournament(3)).value == 1


def test_totally_balanced_families():
    # complete graphs, cycles, trees
    assert is_totally_balanced(make_transitive_tournament(6))
    cycle = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_totally_balanced(cycle)
    path = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_totally_balanced(path)
    assert not is_totally_balanced(figure1_graph())
    # K4 plus a pendant edge: a = 2 > 7/4
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    pendant = Digraph(5, k4 + [(3, 4)])
    assert not is_totally_balanced(pendant)


def test_error_cases():
    with pytest.raises(UndefinedParameterError):
        fractional_arboricity(Digraph(3, []))
    with pytest.raises(UndefinedParameterError):
        densest_subset_enum(Digraph(3, []))
    with pytest.raises(InvalidInputError):
        fractional_arboricity(Digraph(1, []))
    with pytest.raises(SizeLimitError):
        densest_subset_enum(Digraph(21, [(0, 1)]))
    with pytest.raises(InvalidInputError):
        is_totally_balanced(Digraph(3, [(0, 1)]))  # vertex 2 is isolated
    for measure in (fractional_arboricity, maximal_density, is_totally_balanced):
        with pytest.raises(InvalidInputError, match="expected a Digraph"):
            measure(make_transitive_tournament(3).edges)  # an edge set is not a graph


def test_enum_never_returns_edgeless_subset():
    g = Digraph(4, [(0, 1)])
    for kind in ("arboricity", "density"):
        rep = densest_subset_enum(g, kind)
        assert set(rep.witness) == {0, 1}


def test_flow_matches_enum_random():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 12)
        g = random_digraph(rng, n, rng.choice([0.15, 0.35, 0.6, 0.9]))
        if g.edge_count == 0:
            continue
        for kind, fast in (("arboricity", fractional_arboricity), ("density", maximal_density)):
            oracle = densest_subset_enum(g, kind)
            res = fast(g)
            assert res.value == oracle.value, (g, kind)


def test_witness_self_consistency_and_bounds():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_digraph(rng, n, 0.5)
        if g.edge_count == 0:
            continue
        arb = fractional_arboricity(g)
        dens = maximal_density(g)
        # re-evaluating the ratio on the witness reproduces the value
        ea = len(g.edges_within(arb.witness))
        assert Fraction(ea, len(arb.witness) - 1) == arb.value
        ed = len(g.edges_within(dens.witness))
        assert Fraction(ed, len(dens.witness)) == dens.value
        # a >= rho, and a >= m / (n* - 1)
        assert arb.value >= dens.value
        active = {w for e in g.edges for w in e}
        assert arb.value >= Fraction(g.edge_count, len(active) - 1)


def test_candidate_grid_completeness():
    rng = random.Random(4)
    for _ in range(15):
        g = random_digraph(rng, rng.randint(3, 8), 0.5)
        if g.edge_count == 0:
            continue
        tokens = _check_input(g)
        active = _active_vertices(tokens)
        m, k = len(tokens), len(active)
        value = fractional_arboricity(g).value
        assert value.numerator <= m and value.denominator <= k - 1
        # no gain is positive at the value itself, but some gain is just below it
        assert not any(gain > 0 for gain, _ in _cuts(tokens, active, value, active))
        probe = value - Fraction(1, 2 * (m + 1) * (k + 1))
        assert any(gain > 0 for gain, _ in _cuts(tokens, active, probe, active))


def test_balance_matches_enum_random():
    rng = random.Random(58)
    checked = 0
    for _ in range(120):
        g = random_digraph(rng, rng.randint(2, 10), rng.choice([0.2, 0.4, 0.7]))
        if g.edge_count == 0 or g.isolated_vertices():
            continue
        checked += 1
        whole = Fraction(g.edge_count, g.n - 1)
        assert is_totally_balanced(g) == (densest_subset_enum(g).value == whole), g
    assert checked >= 60


def _warm_matches_scratch(g, lam: Fraction, roots) -> None:
    tokens = _check_input(g)
    active = _active_vertices(tokens)
    expected = cuts_from_scratch(tokens, active, lam, roots)
    assert list(_cuts(tokens, active, lam, roots)) == expected, (g, lam, roots)
    gains_only = list(_cuts(tokens, active, lam, roots, sides=False))
    assert gains_only == [(gain, None) for gain, _ in expected], (g, lam, roots)


def test_warm_cuts_match_scratch_random():
    rng = random.Random(63)
    two_cycles = 0
    for _ in range(60):
        g = random_digraph(rng, rng.randint(2, 11), rng.choice([0.3, 0.6, 0.9]))
        if g.edge_count == 0:
            continue
        two_cycles += any((v, u) in g.edges for u, v in g.edges)
        active = _active_vertices(_check_input(g))
        value = densest_subset_enum(g).value
        roots = list(active)
        rng.shuffle(roots)
        roots.insert(rng.randrange(len(roots) + 1), rng.choice(roots))  # one root twice
        for lam in (value, value - Fraction(1, 97), Fraction(rng.randint(1, 30), rng.randint(1, 7))):
            _warm_matches_scratch(g, lam, roots)
            _warm_matches_scratch(g, lam, [None])
    assert two_cycles >= 20


def test_warm_cuts_match_scratch_gnp():
    rng = random.Random(5)
    for i in range(2):
        g = sample_undirected(32, 0.5, 7, i)
        active = _active_vertices(_check_input(g))
        roots = list(active)
        rng.shuffle(roots)
        roots.append(roots[0])
        value = Fraction(PINNED_REPORTS[i][0])
        for lam in (value, value - Fraction(1, 50)):
            _warm_matches_scratch(g, lam, roots)
        _warm_matches_scratch(g, Fraction(PINNED_REPORTS[i][3]), [None])


def test_warm_cuts_zero_a_saturated_sink_arc():
    # K5 at lam = 1/2: every max flow for root 0 saturates all other sink
    # arcs, so moving to root 3 must first send its flow back to the source
    g = Digraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    tokens = _check_input(g)
    active = _active_vertices(tokens)
    lam = Fraction(1, 2)
    [(gain, _)] = cuts_from_scratch(tokens, active, lam, [0])
    assert gain == 2 * len(tokens) - 1 * (len(active) - 1)  # flow = total sink capacity
    _warm_matches_scratch(g, lam, [0, 3, 3, 1, 0, None, 4])


def _random_roots(rng: random.Random, active: list[int]) -> list[int | None]:
    roots: list[int | None] = list(active)
    rng.shuffle(roots)
    roots.insert(rng.randrange(len(roots) + 1), rng.choice(active))  # one root twice
    roots.insert(rng.randrange(len(roots) + 1), None)
    return roots


def test_vertex_network_two_cycle_pairs():
    # pair arcs carry q * 2 where both directions are edges, and degrees count both tokens
    rng = random.Random(71)
    doubled = 0
    for _ in range(30):
        n = rng.randint(2, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
        edges += [(v, u) for u, v in pairs if rng.random() < 0.7]
        g = Digraph(n, edges)
        if g.edge_count == 0:
            continue
        doubled += sum(1 for u, v in g.edges if u < v and (v, u) in g.edges)
        active = _active_vertices(_check_input(g))
        value = densest_subset_enum(g).value
        for lam in (value, value - Fraction(1, 89), Fraction(rng.randint(1, 40), rng.randint(1, 9))):
            _warm_matches_scratch(g, lam, _random_roots(rng, active))
    assert doubled >= 60


def test_vertex_network_undirected():
    rng = random.Random(72)
    for i in range(12):
        g = sample_undirected(rng.randint(3, 14), rng.choice([0.3, 0.6, 0.9]), 72, i)
        if g.edge_count == 0:
            continue
        active = _active_vertices(_check_input(g))
        value = densest_subset_enum(g).value
        for lam in (value, value + Fraction(1, 53), Fraction(rng.randint(1, 20), rng.randint(1, 5))):
            _warm_matches_scratch(g, lam, _random_roots(rng, active))


def test_vertex_network_extreme_ratios():
    # capacities far apart: 2p dwarfs q * deg, or the other way round
    rng = random.Random(73)
    graphs = [random_digraph(rng, rng.randint(3, 12), rng.choice([0.3, 0.7])) for _ in range(12)]
    graphs.append(sample_undirected(32, 0.5, 7, 0))
    for g in graphs:
        if g.edge_count == 0:
            continue
        active = _active_vertices(_check_input(g))
        for lam in (Fraction(10**6 + 3, 7), Fraction(7, 10**6 + 3)):
            _warm_matches_scratch(g, lam, _random_roots(rng, active))


def test_vertex_network_returns_both_ways(monkeypatch):
    # moving to a root sends its sink arc's flow back only when there is some (f > 0)
    calls = {"returns": 0, "moves": 0}
    max_flow = density._Dinic.max_flow

    def counting_max_flow(net, s, t):
        calls["returns"] += s != 0
        return max_flow(net, s, t)

    monkeypatch.setattr(density._Dinic, "max_flow", counting_max_flow)
    rng = random.Random(74)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(3, 10), rng.choice([0.3, 0.6]))
        if g.edge_count == 0:
            continue
        active = _active_vertices(_check_input(g))
        value = densest_subset_enum(g).value
        for lam in (value, value - Fraction(1, 31)):
            roots = _random_roots(rng, active)
            calls["moves"] += sum(1 for r in roots[1:] if r is not None)
            _warm_matches_scratch(g, lam, roots)
    # _warm_matches_scratch runs _cuts twice (with and without sides)
    assert 0 < calls["returns"] < 2 * calls["moves"]


def test_binding_keeps_largest_gain_and_witness():
    # binding finished roots changes single cuts, but never a round's largest
    # gain, nor at the optimum the first side of two or more vertices
    rng = random.Random(75)
    graphs = [random_digraph(rng, rng.randint(2, 11), rng.choice([0.3, 0.6, 0.9])) for _ in range(40)]
    graphs += [sample_undirected(rng.randint(3, 11), rng.choice([0.3, 0.6, 0.9]), 75, i) for i in range(20)]
    two_cycles = changed = improving = 0
    for g in graphs:
        if g.edge_count == 0:
            continue
        two_cycles += any((v, u) in g.edges for u, v in g.edges)
        tokens = _check_input(g)
        active = _active_vertices(tokens)
        value = densest_subset_enum(g).value
        for lam in (value, value - Fraction(1, 97), Fraction(rng.randint(1, 30), rng.randint(1, 7))):
            bound = list(_cuts(tokens, active, lam, active))
            unbound = cuts_from_scratch(tokens, active, lam, active, bind=False)
            assert max(gain for gain, _ in bound) == max(gain for gain, _ in unbound), (g, lam)
            changed += bound != unbound
            improving += max(gain for gain, _ in bound) > 0
        first = [next(s for _, s in cuts if len(s) >= 2)
                 for cuts in (_cuts(tokens, active, value, active),
                              cuts_from_scratch(tokens, active, value, active, bind=False))]
        assert first[0] == first[1], g
    assert two_cycles >= 20 and changed >= 40 and improving >= 40


def test_one_network_per_dinkelbach_round(monkeypatch):
    # each _cuts call builds one vertex network: source, sink, spare and a node per active vertex
    networks: list[int] = []
    expected: list[int] = []
    dinic, cuts = density._Dinic, density._cuts

    class CountingDinic(dinic):
        def __init__(self, n):
            networks.append(n)
            super().__init__(n)

    def counting_cuts(tokens, active, *args, **kwargs):
        expected.append(len(active) + 3)
        return cuts(tokens, active, *args, **kwargs)

    # the peel starts this graph at 9/5, below a = 11/6, so it takes two rounds or more
    g = sample_undirected(16, 0.2, 7, 2)
    tokens = _check_input(g)
    assert density._peel(tokens, _active_vertices(tokens), 1)[0] == Fraction(9, 5)
    monkeypatch.setattr(density, "_Dinic", CountingDinic)
    monkeypatch.setattr(density, "_cuts", counting_cuts)
    assert fractional_arboricity(g).value == Fraction(11, 6)
    assert len(expected) >= 2
    assert networks == expected


def _peel_graphs(seed: int) -> list[Digraph]:
    rng = random.Random(seed)
    graphs = [random_digraph(rng, rng.randint(2, 12), rng.choice([0.15, 0.35, 0.6, 0.9])) for _ in range(80)]
    graphs += [sample_undirected(n, p, 7, i) for n in (14, 16) for p in (0.2, 0.3) for i in range(12)]
    return [g for g in graphs if g.edge_count]


def test_peel_start_is_attained_and_below_the_optimum():
    below = 0
    for g in _peel_graphs(81):
        tokens = _check_input(g)
        active = _active_vertices(tokens)
        for kind, shift in (("arboricity", 1), ("density", 0)):
            start, subset = density._peel(tokens, active, shift)
            assert len(subset) > shift and subset <= set(active)
            assert start == Fraction(len(g.edges_within(subset)), len(subset) - shift)
            assert Fraction(len(tokens), len(active) - shift) <= start  # the whole set comes first
            optimum = densest_subset_enum(g, kind).value
            assert start <= optimum, (g, kind)
            below += start < optimum
    assert below >= 5


@pytest.mark.parametrize("kind", ["arboricity", "density"])
def test_peel_at_the_optimum_runs_one_round(monkeypatch, kind):
    measure = fractional_arboricity if kind == "arboricity" else maximal_density
    shift = 1 if kind == "arboricity" else 0
    cuts = density._cuts
    calls: list[Fraction] = []

    def counting_cuts(tokens, active, lam, *args, **kwargs):
        calls.append(lam)
        return cuts(tokens, active, lam, *args, **kwargs)

    monkeypatch.setattr(density, "_cuts", counting_cuts)
    rounds = {1: 0, 2: 0}
    for g in _peel_graphs(82):
        tokens = _check_input(g)
        start = density._peel(tokens, _active_vertices(tokens), shift)[0]
        calls.clear()
        value = measure(g).value
        assert calls[0] == start
        if start == value:
            assert len(calls) == 1, g
        else:
            assert len(calls) >= 2, g
        rounds[min(len(calls), 2)] += 1
    assert rounds[1] >= 40 and rounds[2] >= 3


@pytest.mark.parametrize("kind", ["arboricity", "density"])
def test_round_takes_only_the_sides_it_reads(monkeypatch, kind):
    # a round's sides: the roots up to its first witness (or its first
    # positive gain), plus the roots whose gain beats every earlier gain
    measure = fractional_arboricity if kind == "arboricity" else maximal_density
    shift = 1 if kind == "arboricity" else 0
    cuts, side_search = density._cuts, density._Dinic.source_side_maximal
    taken = [0]
    rounds: list[tuple] = []

    def counting_side_search(net, t):
        taken[0] += 1
        return side_search(net, t)

    def recording_cuts(tokens, active, lam, roots, sides=True):
        before, yielded = taken[0], []
        for gain, side in cuts(tokens, active, lam, roots, sides):
            yielded.append((gain, side))
            yield gain, side
        rounds.append((tokens, active, lam, roots, yielded, taken[0] - before))

    monkeypatch.setattr(density._Dinic, "source_side_maximal", counting_side_search)
    monkeypatch.setattr(density, "_cuts", recording_cuts)
    total_roots = total_taken = 0
    for g in _peel_graphs(83):
        rounds.clear()
        measure(g)
        for tokens, active, lam, roots, yielded, count in rounds:
            full = list(cuts(tokens, active, lam, roots))
            assert [gain for gain, _ in yielded] == [gain for gain, _ in full]
            assert all(side is None or side == s for (_, side), (_, s) in zip(yielded, full))
            assert count == sum(side is not None for _, side in yielded)
            stop = next((i + 1 for i, (gain, s) in enumerate(full)
                         if gain > 0 or (len(s) > shift and
                                         Fraction(len(g.edges_within(s)), len(s) - shift) == lam)),
                        len(full))
            improving = sum(1 for i, (gain, _) in enumerate(full)
                            if gain > max([0] + [earlier for earlier, _ in full[:i]]))
            assert count <= stop + improving, (g, lam)
            total_roots += len(roots)
            total_taken += count
    assert total_taken < total_roots / 2 if kind == "arboricity" else total_taken == total_roots


@pytest.mark.parametrize("measure", [fractional_arboricity, maximal_density])
def test_dinkelbach_raises_when_a_gain_does_not_raise_the_ratio(monkeypatch, measure):
    # a broken cut routine that reports a positive gain for every vertex,
    # whose ratio is the starting value: the loop would never end
    calls = []

    def broken_cuts(tokens, active, lam, roots, sides=True):
        calls.append(lam)
        for _ in roots:
            yield 1, set(active)

    monkeypatch.setattr(density, "_cuts", broken_cuts)
    with pytest.raises(AssertionError, match="did not raise the ratio"):
        measure(sample_undirected(12, 0.5, 7, 0))
    assert len(calls) == 1


# (arboricity value, witness bitmask, balanced, density value, witness bitmask, balanced),
# recorded from the candidate-grid search that Dinkelbach iteration replaced
PINNED_REPORTS = [
    ('106/15', 0xffffff7f, False, '219/32', 0xffffffff, True),
    ('49/6', 0xfffffeff, False, '253/32', 0xffffffff, True),
    ('253/31', 0xffffffff, True, '253/32', 0xffffffff, True),
    ('240/31', 0xffffffff, True, '15/2', 0xffffffff, True),
    ('238/31', 0xffffffff, True, '119/16', 0xffffffff, True),
    ('267/31', 0xffffffff, True, '267/32', 0xffffffff, True),
    ('29/8', 0x1ff, True, '29/9', 0x1ff, True),
    ('11/3', 0xf, True, '11/4', 0xf, True),
    ('19/5', 0x3f, True, '19/6', 0x3f, True),
    ('2/1', 0xe, False, '4/3', 0xe, False),
    ('37/9', 0x7fe, False, '37/10', 0x7fe, False),
    ('49/11', 0x1dff, False, '49/12', 0x1dff, False),
    ('3/1', 0x7, True, '2/1', 0x7, True),
    ('7/3', 0x3c, False, '7/4', 0x3c, False),
    ('8/1', 0x1ff, True, '64/9', 0x1ff, True),
    ('19/5', 0x3f, True, '19/6', 0x3f, True),
    ('4/1', 0x7f, True, '24/7', 0x7f, True),
    ('1/1', 0x34, False, '2/3', 0x34, False),
    ('25/7', 0x6cf, False, '16/5', 0x7df, False),
    ('93/10', 0x7ff, True, '93/11', 0x7ff, True),
    ('5/3', 0xb2, False, '4/3', 0xfa, False),
    ('3/1', 0x7, True, '2/1', 0x7, True),
    ('3/1', 0x7f, True, '18/7', 0x7f, True),
    ('149/12', 0x1fff, True, '149/13', 0x1fff, True),
    ('16/5', 0x6f, False, '8/3', 0x6f, False),
    ('109/13', 0x3fff, True, '109/14', 0x3fff, True),
    ('5/3', 0xf, True, '5/4', 0xf, True),
    ('106/13', 0x3fff, True, '53/7', 0x3fff, True),
    ('9/5', 0xe7, False, '3/2', 0xe7, False),
    ('63/8', 0x1ff, True, '7/1', 0x1ff, True),
    ('2/1', 0x6, False, '6/5', 0x346, False),
    ('35/3', 0x1fff, True, '140/13', 0x1fff, True),
    ('53/11', 0xfff, True, '53/12', 0xfff, True),
    ('9/2', 0x3b, False, '11/3', 0x3f, True),
    ('2/1', 0xc, False, '11/7', 0xbf, False),
    ('29/7', 0xff, True, '29/8', 0xff, True),
    ('3/2', 0x7, True, '1/1', 0x7, True),
    ('3/2', 0x51, False, '1/1', 0x53, False),
    ('113/13', 0x3fff, True, '113/14', 0x3fff, True),
    ('1/1', 0x9, False, '1/2', 0x9, False),
    ('39/8', 0x1ff, True, '13/3', 0x1ff, True),
    ('78/11', 0xfff, True, '13/2', 0xfff, True),
    ('84/11', 0xfff, True, '7/1', 0xfff, True),
    ('79/9', 0x3ff, True, '79/10', 0x3ff, True),
    ('76/9', 0x3ff, True, '38/5', 0x3ff, True),
    ('43/8', 0x1ff, True, '43/9', 0x1ff, True),
    ('3/2', 0x7, False, '1/1', 0x7f, True),
]


def test_density_reports_pinned():
    graphs = [sample_undirected(32, 0.5, 7, i) for i in range(6)]
    rng = random.Random(2024)
    while len(graphs) < 46:
        g = random_digraph(rng, rng.randint(2, 14), rng.choice([0.15, 0.35, 0.6, 0.9]))
        if g.edge_count:
            graphs.append(g)
    # two disjoint optimal triangles: the witness is the first root's, {0, 1, 2}
    graphs.append(Digraph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (4, 6)]))

    def pin(rep):
        mask = sum(1 << v for v in rep.witness)
        return f"{rep.value.numerator}/{rep.value.denominator}", mask, rep.totally_balanced

    got = [pin(fractional_arboricity(g)) + pin(maximal_density(g)) for g in graphs]
    assert got == PINNED_REPORTS


def test_undirected_two_cycle_counting():
    # directed 2-cycle counts as two edges: a({u,v}) = 2
    g = Digraph(2, [(0, 1), (1, 0)])
    assert fractional_arboricity(g).value == 2
    # an undirected triangle, oriented low to high, counts each edge once
    triangle = Digraph(3, [(0, 1), (1, 2), (0, 2)])
    assert fractional_arboricity(triangle).value == Fraction(3, 2)
