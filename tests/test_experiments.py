import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from dagcover import experiments
from dagcover.covering import skew_witness_pipeline
from dagcover.digraph import Digraph, Permutation, make_transitive_tournament
from dagcover.errors import InfeasibleSizeError, InvalidInputError
from dagcover.experiments import (
    SweepConfig,
    _sweep_sample,
    balanced_census,
    figure1_graph,
    rows_to_csv,
    sample_digraph,
    sample_undirected,
    threshold_sweep,
)
from dagcover.rng import substream
from dagcover.skewness import skewness_exact

from oracles import densest_subset_enum


def test_sample_digraph_extremes():
    assert sample_digraph(5, 0.0, seed=1).edge_count == 0
    full = sample_digraph(5, 1.0, seed=1)
    assert full.edge_count == 20
    with pytest.raises(InvalidInputError):
        sample_digraph(5, 1.5, seed=1)


def test_sample_digraph_binomial_concentration():
    mu = 50 * 49 * 0.1
    sigma = (50 * 49 * 0.1 * 0.9) ** 0.5
    for i in range(100):
        m = sample_digraph(50, 0.1, seed=2024, sample_index=i).edge_count
        assert abs(m - mu) <= 4 * sigma


def test_sample_digraph_chunks_match_whole_grid(monkeypatch):
    # chunks of 8 and 44 end blocks mid-row, 10 is no multiple of 4, 4096 leaves a
    # partial last block at n = 1500; three threads run the pool on any machine
    for chunk in (8, 10, 44, 4096, experiments._DRAW_CHUNK):
        monkeypatch.setattr(experiments, "_DRAW_CHUNK", chunk)
        for threads in (1, 2, 3):
            monkeypatch.setattr(experiments, "_DRAW_THREADS", threads)
            for n in (0, 1, 2, 37) + ((1500,) if chunk >= 4096 else ()):
                p = 0.3 if n < 100 else 0.01
                hits = np.flatnonzero(substream(3, n, 4, 0).random(n * n) < p)
                us, vs = np.divmod(hits, n)
                keep = us != vs
                expected = frozenset(zip(us[keep].tolist(), vs[keep].tolist()))
                g = sample_digraph(n, p, seed=3, sample_index=4)
                assert g.edges == expected, (chunk, threads, n)
                assert list(g.edges) == list(expected), (chunk, threads, n)


def test_forked_sweep_draws_on_per_call_thread_pools(monkeypatch):
    # each forked worker draws its grids on threads of its own; a pool kept
    # across calls would reach the workers without its threads and hang them
    cfg = SweepConfig(
        pattern=make_transitive_tournament(3),
        a_star=Fraction(5, 4),
        n_values=(30, 60),
        samples=4,
        seed=41,
        mode="dagness",
    )
    rows = threshold_sweep(cfg)
    monkeypatch.setattr(experiments, "_DRAW_CHUNK", 256)
    monkeypatch.setattr(experiments, "_DRAW_THREADS", 2)
    assert threshold_sweep(cfg) == rows
    assert threshold_sweep(cfg, jobs=2) == rows


def test_sweep_pool_never_outnumbers_samples(monkeypatch):
    # a fork pool starts every worker at its first submit; the stand-in
    # records the count asked for and runs the samples in this process
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    cfg = SweepConfig(
        pattern=make_transitive_tournament(3),
        a_star=Fraction(5, 4),
        n_values=(30, 60),
        samples=3,
        seed=41,
        mode="dagness",
    )
    rows = threshold_sweep(cfg)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
    assert threshold_sweep(cfg, jobs=64) == rows
    assert asked == [3]  # one pool for both n values
    assert threshold_sweep(cfg, jobs=1) == rows
    threshold_sweep(dataclasses.replace(cfg, samples=1), jobs=64)  # one sample runs in process
    assert asked == [3]


def test_sample_undirected_binomial_concentration():
    pairs = 30 * 29 / 2
    mu = pairs * 0.5
    sigma = (pairs * 0.25) ** 0.5
    for i in range(100):
        m = sample_undirected(30, 0.5, seed=11, sample_index=i).edge_count
        assert abs(m - mu) <= 4 * sigma
    assert sample_undirected(6, 0.0, seed=0).edge_count == 0
    assert sample_undirected(6, 1.0, seed=0).edge_count == 15


@pytest.mark.parametrize("n, p, seed, i", [(12, 0.5, 3, 0), (30, 0.3, 11, 4), (2, 0.9, 1, 1)])
def test_sample_undirected_edges_run_low_to_high(n, p, seed, i):
    # the pairs u < v, in triu_indices order, whose uniform from one substream-1 draw is below p
    g = sample_undirected(n, p, seed, i)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    draws = substream(seed, n, i, 1).random(len(pairs))
    assert g.edges == {pair for pair, x in zip(pairs, draws) if x < p}
    assert all(u < v for u, v in g.edges)
    assert g == Digraph(n, g.edges)


def test_sampling_deterministic_and_streams_independent():
    a = sample_digraph(40, 0.2, seed=5, sample_index=7)
    b = sample_digraph(40, 0.2, seed=5, sample_index=7)
    assert a == b
    c = sample_digraph(40, 0.2, seed=5, sample_index=8)
    assert a != c


def test_substream_seed_range():
    substream(2**128 - 1)
    for seed in (-1, 2**128, 5 + 2**128):  # 5 + 2**128 would alias seed 5
        with pytest.raises(InvalidInputError):
            substream(seed)


def test_sweep_config_validation():
    t3 = make_transitive_tournament(3)
    with pytest.raises(InvalidInputError):
        SweepConfig(t3, Fraction(-1), (10,), 1, 0, "dagness")
    with pytest.raises(InvalidInputError):
        SweepConfig(t3, Fraction(2), (20, 10), 1, 0, "dagness")
    with pytest.raises(InvalidInputError):
        SweepConfig(t3, Fraction(2), (10,), 1, 0, "bogus")
    for factor in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            SweepConfig(t3, Fraction(2), (10,), 1, 0, "skew_pipeline", perm_factor=factor)
    with pytest.raises(InvalidInputError):
        SweepConfig(t3, Fraction(1, 10**400), (10,), 1, 0, "dagness")  # 0.0 as a float


def test_pipeline_sample_skips_only_infeasible_draws():
    # without the size screen: draw the permutations and run the pipeline
    t3 = make_transitive_tournament(3)
    skew = skewness_exact(t3)
    for n in (1, 2, 7, 8, 9, 16, 20, 33):
        for factor in (0.3, 1.0, 1.2, 2.0):
            cfg = SweepConfig(t3, Fraction(2), (n,), 1, 5, "skew_pipeline", perm_factor=factor)
            p = cfg.edge_probability(n)
            x_count = max(1, math.floor(factor * math.log2(n))) if n > 1 else 1
            rng = substream(5, n, 0, 3)
            perms = [Permutation(rng.permutation(n).tolist()) for _ in range(x_count)]
            try:
                host = sample_digraph(n, p, 5, 0)
                expected = skew_witness_pipeline(host, t3, perms, skew=skew) is not None
            except InfeasibleSizeError:
                expected = False
            assert _sweep_sample((cfg, n, p, 0, skew))["pipeline_ok"] == expected, (n, factor)


def test_sweep_deterministic_and_csv_shape():
    cfg = SweepConfig(
        pattern=make_transitive_tournament(3),
        a_star=Fraction(5, 4),
        n_values=(30, 60),
        samples=8,
        seed=99,
        mode="dagness",
    )
    rows = threshold_sweep(cfg)
    csv1 = rows_to_csv(rows)
    csv2 = rows_to_csv(threshold_sweep(cfg))
    assert csv1 == csv2
    csv3 = rows_to_csv(threshold_sweep(cfg, jobs=2))
    assert csv1 == csv3
    lines = csv1.strip().split("\n")
    assert (
        lines[0]
        == "n,p,samples,frac_gh_dag,mean_copies,tau_greedy_mean,tau_lower_mean,"
        "pipeline_success,censored"
    )
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 9


def test_sweep_censoring_flagged():
    cfg = SweepConfig(
        pattern=make_transitive_tournament(3),
        a_star=Fraction(3),
        n_values=(25,),
        samples=4,
        seed=1,
        mode="copy_count",
        cap=2,
    )
    rows = threshold_sweep(cfg)
    assert rows[0].censored == 4
    assert rows[0].mean_copies is None


def test_sweep_dagness_tau_consistency():
    # sparse regime: every G_H acyclic, so the greedy cover needs <= 1 permutation
    base = dict(
        pattern=make_transitive_tournament(3),
        a_star=Fraction(11, 10),
        n_values=(40,),
        samples=10,
        seed=3,
    )
    dag_rows = threshold_sweep(SweepConfig(mode="dagness", **base))
    if dag_rows[0].frac_gh_dag == 1.0:
        tau_rows = threshold_sweep(SweepConfig(mode="tau_stats", **base))
        assert tau_rows[0].tau_greedy_mean <= 1.0


def test_sweep_pipeline_mode_runs():
    cfg = SweepConfig(
        pattern=make_transitive_tournament(3),
        a_star=Fraction(2),
        n_values=(32,),
        samples=6,
        seed=17,
        mode="skew_pipeline",
        perm_factor=0.4,  # 2 permutations at n=32
    )
    rows = threshold_sweep(cfg)
    assert rows[0].pipeline_success is not None
    assert 0.0 <= rows[0].pipeline_success <= 1.0
    assert threshold_sweep(cfg, jobs=2) == rows


def _exact_balanced_probability(h: int) -> float:
    """Classify all 2^C(h,2) labeled graphs; isolated-vertex graphs are unbalanced."""
    pairs = [(u, v) for u in range(h) for v in range(u + 1, h)]
    good = 0
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Digraph(h, edges)
        if not edges or g.isolated_vertices():
            continue
        rep = densest_subset_enum(g, "arboricity")
        if rep.value == Fraction(len(edges), h - 1):
            good += 1
    return good / (1 << len(pairs))


def test_census_matches_exact_enumeration_h4():
    exact = _exact_balanced_probability(4)
    result = balanced_census(4, samples=600, seed=10)
    sigma = (exact * (1 - exact) / 600) ** 0.5
    assert abs(result.fraction - exact) <= 3 * sigma
    assert sum(result.histogram.values()) == 600 - result.edgeless


def test_census_h2_is_half():
    result = balanced_census(2, samples=600, seed=4)
    sigma = (0.25 / 600) ** 0.5
    assert abs(result.fraction - 0.5) <= 3 * sigma


def test_census_matches_exact_enumeration_h5():
    exact = _exact_balanced_probability(5)
    result = balanced_census(5, samples=500, seed=14)
    sigma = (exact * (1 - exact) / 500) ** 0.5
    assert abs(result.fraction - exact) <= 3 * sigma


def test_census_flow_path_beyond_enum_limit():
    # h > 20 exercises the parametric min-cut route end to end
    result = balanced_census(22, samples=4, seed=6)
    assert 0.0 <= result.fraction <= 1.0
    assert sum(result.histogram.values()) == 4 - result.edgeless
    assert all(v >= Fraction(1) for v in result.histogram)


def test_census_larger_h_runs():
    result = balanced_census(10, samples=20, seed=8)
    assert 0.0 <= result.fraction <= 1.0
    assert all(v >= 1 for v in result.histogram.values())
    with pytest.raises(InvalidInputError):
        balanced_census(1, samples=5, seed=0)


def test_figure1_graph():
    g = figure1_graph()
    assert g.n == 5
    assert g.edges == {(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)}
