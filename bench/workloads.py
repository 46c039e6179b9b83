"""The benchmark's four workloads: seeded inputs, one op each, and checks.

A workload builds a list of cases from the seed; one round runs every
case once.  `Case.run` is the op being timed.  `Case.expect` computes,
outside the timed phase, what the checks need, and `Case.check` turns
one op's output into a list of problems.  `Case.partial` flags an
output that is visibly incomplete (censored or not exact).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks

REFERENCE = Path(__file__).resolve().parent / "exact_reference.json"


@dataclass(frozen=True)
class Sizes:
    tau_hosts: int = 4          # hosts per sweep_tau round
    tau_n: int = 500
    dag_hosts: int = 4          # hosts per sweep_dagness round
    dag_n: int = 3000
    exact_cases: int = 0        # 0: every listed instance
    pattern_n: int = 9          # T_h and a random dag on this many vertices
    star_n: int = 7
    census_h: int = 32
    census_draws: int = 6
    host_n: int = 80
    host_p: float = 0.1


FULL = Sizes()
TINY = Sizes(tau_hosts=1, tau_n=60, dag_hosts=1, dag_n=200, exact_cases=2, pattern_n=5,
             star_n=4, census_h=10, census_draws=1, host_n=16, host_p=0.4)


def _edges(g) -> list[tuple[int, int]]:
    return sorted(g.edges)


# --- sweeps -----------------------------------------------------------------

@dataclass
class SweepCase:
    mode: str
    n: int
    a_star: Fraction
    seed: int

    def config(self, dc):
        return dc.SweepConfig(pattern=dc.make_transitive_tournament(3), a_star=self.a_star,
                              n_values=(self.n,), samples=1, seed=self.seed, mode=self.mode)

    def run(self, dc):
        return dc.threshold_sweep(self.config(dc))[0]

    def partial(self, row) -> bool:
        return row.censored != 0

    def expect(self, dc) -> dict:
        cfg = self.config(dc)
        host = dc.sample_digraph(self.n, cfg.edge_probability(self.n), self.seed, 0)
        copies = checks.t3_copies(host.edges)
        expected = {"copies": copies, "acyclic": checks.union_acyclic(copies), "problems": []}
        if self.mode == "tau_stats":
            # the sweep draws its greedy and clique seeds from substream (seed, n, sample, 2)
            rng = dc.rng.substream(self.seed, self.n, 0, 2)
            seed_greedy, seed_lower = int(rng.integers(1 << 62)), int(rng.integers(1 << 62))
            cs = dc.enumerate_copies(host, cfg.pattern)
            sol = dc.tau_greedy(host, cfg.pattern, seed_greedy, copies=cs)
            expected["problems"] = checks.check_cover(
                copies, [c.edges for c in cs.copies], [p.order for p in sol.permutations],
                sol.assignment)
            expected["greedy"] = sol.size
            expected["lower"] = dc.tau_lower_clique(host, cfg.pattern, seed_lower, copies=cs)
        return expected

    def check(self, row, exp: dict) -> list[str]:
        problems = list(exp["problems"])
        if row.mean_copies != len(exp["copies"]):
            problems.append(f"sweep counted {row.mean_copies} copies, independent count {len(exp['copies'])}")
        if self.mode == "dagness" and row.frac_gh_dag != float(exp["acyclic"]):
            problems.append(f"G_H dag flag {row.frac_gh_dag}, graphlib says {exp['acyclic']}")
        if self.mode == "tau_stats":
            greedy, lower = row.tau_greedy_mean, row.tau_lower_mean
            if greedy != exp["greedy"] or lower != exp["lower"]:
                problems.append(f"sweep tau {lower}..{greedy}, replayed {exp['lower']}..{exp['greedy']}")
            if not 1 <= lower <= greedy:
                problems.append(f"clique bound {lower} above greedy {greedy}")
            if not exp["acyclic"] and greedy < 2:
                problems.append("G_H has a cycle but greedy used one order")
        return problems


def _sweep_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1 << 32) for _ in range(count)]


def build_sweep_tau(dc, seed: int, sizes: Sizes) -> list[SweepCase]:
    return [SweepCase("tau_stats", sizes.tau_n, Fraction(2), s)
            for s in _sweep_seeds("sweep_tau", seed, sizes.tau_hosts)]


def build_sweep_dagness(dc, seed: int, sizes: Sizes) -> list[SweepCase]:
    return [SweepCase("dagness", sizes.dag_n, Fraction(5, 4), s)
            for s in _sweep_seeds("sweep_dagness", seed, sizes.dag_hosts)]


# --- exact tau --------------------------------------------------------------

@dataclass
class ExactCase:
    name: str
    host: object
    pattern_name: str
    pattern: object
    tau: int
    budget: int

    def run(self, dc):
        return dc.tau_exact(self.host, self.pattern, budget=self.budget)

    def partial(self, res) -> bool:
        return not res.exact or res.solution is None

    def expect(self, dc) -> dict:
        return {
            "copies": checks.COPY_COUNTERS[self.pattern_name](self.host.edges),
            "program_copies": [c.edges for c in dc.enumerate_copies(self.host, self.pattern).copies],
            "lower": dc.tau_lower_clique(self.host, self.pattern, seed=1),
            "greedy": dc.tau_greedy(self.host, self.pattern, seed=1).size,
        }

    def check(self, res, exp: dict) -> list[str]:
        problems = []
        if (res.lower, res.upper) != (self.tau, self.tau):
            problems.append(f"{self.name}: tau_exact {res.lower}..{res.upper}, n! cover {self.tau}")
        if not exp["lower"] <= res.upper <= exp["greedy"]:
            problems.append(f"{self.name}: tau {res.upper} outside clique {exp['lower']} .. greedy {exp['greedy']}")
        sol = res.solution
        problems += checks.check_cover(exp["copies"], exp["program_copies"],
                                       [p.order for p in sol.permutations], sol.assignment)
        if sol.size != res.upper:
            problems.append(f"{self.name}: solution has {sol.size} orders, tau {res.upper}")
        return problems


def build_exact_tau(dc, seed: int, sizes: Sizes) -> list[ExactCase]:
    """The listed instances in a seeded order; the hosts themselves are fixed."""
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    patterns = {"T3": dc.make_transitive_tournament(3), "P2": dc.make_directed_path(2)}
    listed = doc["instances"][: sizes.exact_cases or None]
    cases = [
        ExactCase(f"{i['pattern']} draw {i['draw']}", dc.Digraph(i["n"], map(tuple, i["edges"])),
                  i["pattern"], patterns[i["pattern"]], i["tau"], doc["budget"])
        for i in listed
    ]
    random.Random(f"exact_tau:{seed}").shuffle(cases)
    return cases


# --- parameters -------------------------------------------------------------

@dataclass
class PatternCase:
    """One dag pattern's skewness and fractional arboricity."""

    name: str
    graph: object

    def run(self, dc):
        return dc.skewness_exact(self.graph), dc.fractional_arboricity(self.graph)

    def partial(self, out) -> bool:
        return False

    def expect(self, dc) -> dict:
        return {"a": checks.best_ratio(_edges(self.graph), self.graph.n, "arboricity")}

    def check(self, out, exp: dict) -> list[str]:
        skew, arb = out
        edges, n = _edges(self.graph), self.graph.n
        problems = checks.check_skewness(edges, n, skew) + checks.check_density(edges, n, arb, "arboricity")
        if arb.value != exp["a"]:
            problems.append(f"{self.name}: a = {arb.value}, subset maximum {exp['a']}")
        return [f"{self.name}: {p}" for p in problems]


@dataclass
class HostCase:
    """A host's fractional arboricity, maximal density and balance test."""

    name: str
    graph: object

    def run(self, dc):
        g = self.graph
        return dc.fractional_arboricity(g), dc.maximal_density(g), dc.is_totally_balanced(g)

    def partial(self, out) -> bool:
        return False

    def expect(self, dc) -> dict:
        return {}

    def check(self, out, exp: dict) -> list[str]:
        arb, rho, balanced = out
        edges, n = _edges(self.graph), self.graph.n
        problems = checks.check_density(edges, n, arb, "arboricity")
        problems += checks.check_density(edges, n, rho, "density")
        if balanced != (arb.value == Fraction(len(edges), n - 1)):
            problems.append(f"balance test {balanced} but a = {arb.value}, m/(n-1) = {Fraction(len(edges), n - 1)}")
        return [f"{self.name}: {p}" for p in problems]


def _random_dag(dc, rng: random.Random, n: int, p: float):
    """Random dag without isolated vertices: pairs kept with probability p,
    oriented along a random vertex order; redrawn until no vertex is isolated."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        rank = {v: i for i, v in enumerate(order)}
        edges = [(u, v) if rank[u] < rank[v] else (v, u)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = dc.Digraph(n, edges)
        if edges and not g.isolated_vertices():
            return g


def build_params(dc, seed: int, sizes: Sizes) -> list:
    """Fixed graphs in a seeded order.

    The graphs do not depend on the seed because the work does depend on
    vertex labels: skewness_exact on T9 takes from 0.65 to 1.33 s over
    five relabellings, and arboricity at h = 32 from 0.38 to 0.49 s.
    The n = 80 host is sample_digraph(80, 0.1, seed=1), the 646-edge
    graph whose arboricity takes 727 flows.
    """
    h = sizes.pattern_n
    cases: list = [
        PatternCase(f"T{h}", dc.make_transitive_tournament(h)),
        PatternCase(f"star{sizes.star_n}", dc.make_rooted_star(sizes.star_n)),
        PatternCase(f"dag{h}", _random_dag(dc, random.Random("params:dags"), h, 0.45)),
    ]
    cases += [HostCase(f"G({sizes.census_h},1/2)#{i}", dc.sample_undirected(sizes.census_h, 0.5, 7, i))
              for i in range(sizes.census_draws)]
    cases.append(HostCase(f"D{sizes.host_n}", dc.sample_digraph(sizes.host_n, sizes.host_p, 1)))
    random.Random(f"params:{seed}").shuffle(cases)
    return cases


WORKLOADS = {
    "sweep_tau": build_sweep_tau,
    "sweep_dagness": build_sweep_dagness,
    "exact_tau": build_exact_tau,
    "params": build_params,
}
