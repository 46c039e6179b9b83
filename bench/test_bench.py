"""Tests of the benchmark's own checks and a tiny run of each workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import checks
import run
import workloads


def complete(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def random_edges(seed, n, p):
    rng = random.Random(seed)
    return [(u, v) for u, v in complete(n) if rng.random() < p]


@pytest.fixture(scope="module")
def dc():
    return run.load_program()


def test_copy_counts_on_complete_digraphs():
    # every ordered triple of distinct vertices is one copy of each pattern
    for n in range(3, 7):
        assert len(checks.t3_copies(complete(n))) == n * (n - 1) * (n - 2)
        assert len(checks.path2_copies(complete(n))) == n * (n - 1) * (n - 2)


def test_copy_counts_match_the_program(dc):
    patterns = {"T3": dc.make_transitive_tournament(3), "P2": dc.make_directed_path(2)}
    for seed in range(6):
        edges = random_edges(seed, 9, 0.4)
        for name, pattern in patterns.items():
            program = sorted(tuple(sorted(c.edges)) for c in dc.enumerate_copies(dc.Digraph(9, edges), pattern).copies)
            assert checks.COPY_COUNTERS[name](edges) == program


def test_union_acyclic():
    assert checks.union_acyclic([((0, 1), (0, 2), (1, 2)), ((2, 3), (3, 4))])
    assert not checks.union_acyclic([((0, 1), (1, 2)), ((1, 2), (2, 0))])
    assert not checks.union_acyclic([((0, 1),), ((1, 0),)])


def test_check_cover_rejects_backward_and_missing_copies():
    copies = checks.path2_copies([(0, 1), (1, 2), (2, 0)])
    orders = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assignment = [
        next(k for k, o in enumerate(orders) if all(o.index(u) < o.index(v) for u, v in copy))
        for copy in copies
    ]
    assert checks.check_cover(copies, copies, orders, assignment) == []
    assert checks.check_cover(copies, copies, orders, [0] * len(copies))
    assert checks.check_cover(copies, copies[:2], orders, assignment[:2])


def test_min_cover_small_cases():
    # on K3 each order covers exactly one of the six T3 copies
    assert checks.min_cover_by_permutations(3, checks.t3_copies(complete(3))) == 6
    # any two 2-paths of a 3-cycle together hold the whole cycle
    cycle = checks.path2_copies([(0, 1), (1, 2), (2, 0)])
    assert checks.min_cover_by_permutations(3, cycle) == 3
    dag = checks.t3_copies([(u, v) for u, v in complete(5) if u < v])
    assert checks.min_cover_by_permutations(5, dag) == 1


def test_min_cover_matches_exact_tau_on_small_hosts(dc):
    t3 = dc.make_transitive_tournament(3)
    for seed in range(4):
        edges = random_edges(seed, 6, 0.5)
        expected = dc.tau_exact(dc.Digraph(6, edges), t3).value
        assert checks.min_cover_by_permutations(6, checks.t3_copies(edges)) == expected


def test_reference_file_regenerates_for_small_instances():
    doc = json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))
    assert doc["instances"] and doc["command"] == "python3 bench/make_reference.py"
    for entry in sorted(doc["instances"], key=lambda e: e["copies"])[:2]:
        name, n = entry["pattern"], entry["n"]
        p = doc["family"][name]["p"]
        import make_reference

        edges = [tuple(e) for e in make_reference.draw_host(name, entry["draw"], n, p)]
        assert edges == [tuple(e) for e in entry["edges"]]
        copies = checks.COPY_COUNTERS[name](edges)
        assert len(copies) == entry["copies"]
        assert checks.min_cover_by_permutations(n, copies) == entry["tau"]


def test_density_checks():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    report = SimpleNamespace(value=Fraction(3, 2), witness=(0, 1, 2), totally_balanced=False)
    assert checks.check_density(edges, 4, report, "arboricity") == []
    assert checks.best_ratio(edges, 4, "arboricity") == Fraction(3, 2)
    wrong = SimpleNamespace(value=Fraction(2), witness=(0, 1, 2), totally_balanced=False)
    assert checks.check_density(edges, 4, wrong, "arboricity")
    flag = SimpleNamespace(value=Fraction(4, 3), witness=(0, 1, 2, 3), totally_balanced=False)
    assert any("balance flag" in p for p in checks.check_density(edges, 4, flag, "arboricity"))


def test_skewness_checks(dc):
    for h in (dc.make_transitive_tournament(4), dc.make_rooted_star(5), dc.make_directed_path(4)):
        report = dc.skewness_exact(h)
        assert checks.check_skewness(sorted(h.edges), h.n, report) == []
    t3 = sorted(dc.make_transitive_tournament(3).edges)
    assert checks.coloring_value(t3, [[0], [1], [2]]) == 3
    assert checks.coloring_value(t3, [[0, 2], [1]]) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace, tmp_path):
    result = run.run(name, seed=3, seconds=0, trace=trace, sizes=workloads.TINY, results=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]


def test_tiny_trace_counts_repeat(tmp_path):
    first = run.run("sweep_tau", seed=5, seconds=0, trace=True, sizes=workloads.TINY, results=tmp_path)
    again = run.run("sweep_tau", seed=5, seconds=0, trace=True, sizes=workloads.TINY, results=tmp_path)
    for key in ("enumerate.copies", "greedy.rejected", "sample.edges", "clique.size_sum"):
        assert first["metrics"][key]["value"] == again["metrics"][key]["value"]
    assert first["metrics"]["enumerate.copies"]["value"] > 0
