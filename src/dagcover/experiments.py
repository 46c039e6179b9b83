"""Seeded random-graph sampling and desk-scale threshold experiments.

The sampling model draws each ordered pair independently with
probability p; sweeps drive p = n**(-1/a*) through a list of n values
and report per-n statistics as CSV rows.  Every sample draws from its
own counter-based substream keyed by (seed, n, sample index), so runs
are byte-identical no matter how samples are scheduled.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .covering import (
    DEFAULT_COPY_CAP,
    MAX_HOST_VERTICES,
    MAX_PATTERN_VERTICES,
    enumerate_copies,
    skew_witness_pipeline,
    tau_greedy,
    tau_lower_clique,
    union_graph,
)
from .density import fractional_arboricity
from .digraph import Digraph, Permutation, is_dag, is_rooted_star
from .errors import InfeasibleSizeError, InvalidInputError, SizeLimitError
from .rng import substream
from .skewness import SkewReport, skewness_exact

SWEEP_MODES = ("dagness", "tau_stats", "skew_pipeline", "copy_count")
MAX_CENSUS_H = 256  # one G(256, 1/2) sample's arboricity took 1.8 s on a 2-vCPU machine (h = 128: 0.2 s)
_DRAW_CHUNK = 1 << 20  # uniforms in flight over all draw threads; the n*n grid is never held whole
# the CPUs this process may run on; they cap a sweep's worker processes
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_DRAW_THREADS = min(4, _CPUS)  # threads drawing one sample's grid


def sample_digraph(n: int, p: float, seed: int, sample_index: int = 0) -> Digraph:
    """One draw from the n-vertex, edge-probability-p digraph model.

    Ordered pairs are examined in lexicographic order (uniforms are
    drawn for the full n*n grid, diagonal entries discarded, to keep the
    indexing dense), so the stream layout is fixed.  The flat grid is
    cut into blocks whose length is a multiple of 4, the uniforms per
    Philox counter step; each block advances a generator of its own to
    its first step, so it reads exactly the uniforms one n*n draw would.
    `_DRAW_THREADS` threads share the blocks (a grid of one block draws
    on the calling thread) and the hits are joined in grid order, so
    the edges and their iteration order never depend on the threads.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"edge probability must lie in [0,1], got {p}")
    if n < 0:
        raise InvalidInputError(f"n must be >= 0, got {n}")
    threads, total = _DRAW_THREADS, n * n
    block = max(4, _DRAW_CHUNK // threads // 4 * 4)
    starts = range(0, total, block)

    def draw(first: int) -> list[np.ndarray]:
        buf = np.empty(min(block, total))
        hits = []
        for lo in starts[first::threads]:
            rng = substream(seed, n, sample_index, 0)
            rng.bit_generator.advance(lo // 4)
            draws = buf[: min(block, total - lo)]
            rng.random(out=draws)
            hits.append(np.flatnonzero(draws < p) + lo)
        return hits

    workers = min(threads, len(starts))
    if workers <= 1:
        parts = [draw(0)]
    else:
        # a pool per call: a module-level one would hang in forked sweep workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(draw, range(workers)))
    hits = [parts[k % threads][k // threads] for k in range(len(starts))]
    us, vs = np.divmod(np.concatenate([np.empty(0, dtype=np.intp), *hits]), n)
    keep = us != vs
    edges = frozenset(zip(us[keep].tolist(), vs[keep].tolist()))
    return Digraph._from_trusted(n, edges)


def sample_undirected(n: int, p: float, seed: int, sample_index: int = 0) -> Digraph:
    """One draw from the undirected model over unordered pairs u < v.

    Each kept pair is the edge (u, v), running low to high: the density
    parameters count edges on vertex subsets only, so this orientation
    stands for the undirected graph.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"edge probability must lie in [0,1], got {p}")
    if n < 0:
        raise InvalidInputError(f"n must be >= 0, got {n}")
    rng = substream(seed, n, sample_index, 1)
    us, vs = np.triu_indices(n, k=1)
    keep = rng.random(len(us)) < p
    return Digraph._from_trusted(n, frozenset(zip(us[keep].tolist(), vs[keep].tolist())))


@dataclass(frozen=True)
class SweepConfig:
    pattern: Digraph
    a_star: Fraction
    n_values: tuple[int, ...]
    samples: int
    seed: int
    mode: str
    cap: int = DEFAULT_COPY_CAP
    perm_factor: float = 1.0  # skew_pipeline draws floor(perm_factor * log2 n) permutations

    def __post_init__(self):
        if self.a_star <= 0 or float(self.a_star) == 0.0:
            raise InvalidInputError(f"a* must be positive and within float range, got {self.a_star}")
        if list(self.n_values) != sorted(self.n_values) or not self.n_values:
            raise InvalidInputError("n_values must be a non-empty ascending list")
        if self.n_values[0] < 1:
            raise InvalidInputError(f"n_values must be >= 1, got {self.n_values[0]}")
        if self.samples < 1:
            raise InvalidInputError(f"samples must be >= 1, got {self.samples}")
        if self.mode not in SWEEP_MODES:
            raise InvalidInputError(f"mode must be one of {SWEEP_MODES}, got {self.mode!r}")
        if self.cap < 0:
            raise InvalidInputError(f"cap must be >= 0, got {self.cap}")
        if not 0.0 < self.perm_factor < math.inf:
            raise InvalidInputError(f"perm_factor must be finite and > 0, got {self.perm_factor}")

    def edge_probability(self, n: int) -> float:
        return float(n) ** (-1.0 / float(self.a_star))


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: float
    samples: int
    frac_gh_dag: Optional[float] = None
    mean_copies: Optional[float] = None
    tau_greedy_mean: Optional[float] = None
    tau_lower_mean: Optional[float] = None
    pipeline_success: Optional[float] = None
    censored: int = 0

    def to_csv_line(self) -> str:
        # repr is str for ints and round-trips floats; None is an empty cell
        return ",".join("" if x is None else repr(x) for x in astuple(self))

    def to_json_dict(self) -> dict:
        return asdict(self)


CSV_COLUMNS = ",".join(f.name for f in fields(SweepRow))


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    return "\n".join([CSV_COLUMNS, *(r.to_csv_line() for r in rows)]) + "\n"


def rows_to_json(rows: Sequence[SweepRow]) -> str:
    import json

    return json.dumps([r.to_json_dict() for r in rows])


def _sweep_sample(args: tuple) -> dict:
    cfg, n, p, idx, skew = args
    g = sample_digraph(n, p, cfg.seed, idx)
    record: dict = {}
    if cfg.mode == "skew_pipeline":
        record["censored"] = False
        scaled = max(1.0, cfg.perm_factor * math.log2(n))
        if scaled >= n.bit_length():
            # then n < 2**x_count <= r**x_count and consistent_sets would raise
            # InfeasibleSizeError; perm_factor may ask for too many permutations to draw
            record["pipeline_ok"] = False
            return record
        rng = substream(cfg.seed, n, idx, 3)
        x_count = math.floor(scaled)
        perms = [
            Permutation._from_trusted(tuple(int(v) for v in rng.permutation(n)))
            for _ in range(x_count)
        ]
        try:
            record["pipeline_ok"] = skew_witness_pipeline(g, cfg.pattern, perms, skew=skew) is not None
        except InfeasibleSizeError:
            record["pipeline_ok"] = False
        return record
    cs = enumerate_copies(g, cfg.pattern, cfg.cap)
    record["censored"] = cs.truncated
    record["copies"] = len(cs)
    if cfg.mode == "dagness":
        record["gh_dag"] = is_dag(union_graph(cs))
    elif cfg.mode == "tau_stats":
        rng = substream(cfg.seed, n, idx, 2)
        seed_greedy = int(rng.integers(1 << 62))
        seed_lower = int(rng.integers(1 << 62))
        record["tau_greedy"] = tau_greedy(g, cfg.pattern, seed_greedy, copies=cs).size
        record["tau_lower"] = tau_lower_clique(g, cfg.pattern, seed_lower, copies=cs)
    return record


def threshold_sweep(cfg: SweepConfig, jobs: int = 1) -> list[SweepRow]:
    """Run the configured Monte Carlo sweep; one row per n.

    Per-sample statistics are aggregated over uncensored samples only;
    the censored column counts samples whose copy enumeration hit the
    cap.  Output is independent of `jobs`, and the pool never outnumbers
    the samples or the usable CPUs.  Hosts are limited to
    MAX_HOST_VERTICES vertices and patterns to MAX_PATTERN_VERTICES,
    checked before any draw.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    if cfg.n_values[-1] > MAX_HOST_VERTICES:
        raise SizeLimitError(f"sweep hosts are limited to {MAX_HOST_VERTICES} vertices, got n = {cfg.n_values[-1]}")
    if cfg.pattern.n > MAX_PATTERN_VERTICES:
        raise SizeLimitError(f"pattern enumeration is limited to {MAX_PATTERN_VERTICES} vertices, got {cfg.pattern.n}")
    skew: Optional[SkewReport] = None
    if cfg.mode == "skew_pipeline":
        if is_rooted_star(cfg.pattern):
            raise InvalidInputError("skew_pipeline mode needs a pattern that is not a rooted star")
        skew = skewness_exact(cfg.pattern)
    rows = []
    # a fork pool starts all its workers at the first submit; one pool serves every n
    workers = min(jobs, cfg.samples, _CPUS)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool is not None else map
        for n in cfg.n_values:
            p = cfg.edge_probability(n)
            tasks = [(cfg, n, p, idx, skew) for idx in range(cfg.samples)]
            records = list(run(_sweep_sample, tasks))
            ok = [r for r in records if not r["censored"]]

            def mean_of(key: str) -> Optional[float]:
                vals = [float(r[key]) for r in ok if key in r]
                return sum(vals) / len(vals) if vals else None

            rows.append(
                SweepRow(
                    n=n,
                    p=p,
                    samples=cfg.samples,
                    frac_gh_dag=mean_of("gh_dag"),
                    mean_copies=mean_of("copies"),
                    tau_greedy_mean=mean_of("tau_greedy"),
                    tau_lower_mean=mean_of("tau_lower"),
                    pipeline_success=mean_of("pipeline_ok"),
                    censored=cfg.samples - len(ok),
                )
            )
    return rows


@dataclass(frozen=True)
class CensusResult:
    """Balance statistics over G(h, 1/2) samples.

    `fraction` counts totally balanced draws over all draws; a draw with
    an isolated vertex (or no edges at all) is not totally balanced and
    is tallied in `isolated`/`edgeless` rather than resampled, matching
    the exact all-graphs enumeration used as the small-h oracle.  The
    histogram collects fractional arboricity over draws with >= 1 edge.
    """

    h: int
    samples: int
    fraction: float
    histogram: dict[Fraction, int] = field(compare=False)
    isolated: int = 0
    edgeless: int = 0

    def to_json_dict(self) -> dict:
        hist = {
            f"{v.numerator}/{v.denominator}": c
            for v, c in sorted(self.histogram.items())
        }
        return {
            "h": self.h,
            "samples": self.samples,
            "fraction": self.fraction,
            "histogram": hist,
            "isolated": self.isolated,
            "edgeless": self.edgeless,
        }


def balanced_census(h: int, samples: int, seed: int) -> CensusResult:
    """Fraction of G(h, 1/2) samples that are totally balanced, plus an a(H) histogram.

    h is limited to MAX_CENSUS_H, checked before any draw.
    """
    if h < 2:
        raise InvalidInputError(f"census needs h >= 2, got {h}")
    if samples < 1:
        raise InvalidInputError(f"samples must be >= 1, got {samples}")
    if h > MAX_CENSUS_H:
        raise SizeLimitError(f"census is limited to h <= {MAX_CENSUS_H}, got {h}")
    balanced = 0
    isolated = 0
    edgeless = 0
    histogram: dict[Fraction, int] = {}
    for idx in range(samples):
        g = sample_undirected(h, 0.5, seed, idx)
        if g.edge_count == 0:
            edgeless += 1
            isolated += 1
            continue
        report = fractional_arboricity(g)
        histogram[report.value] = histogram.get(report.value, 0) + 1
        if g.isolated_vertices():
            isolated += 1
            continue
        if report.totally_balanced:  # without isolated vertices, is_totally_balanced(g)
            balanced += 1
    return CensusResult(
        h=h,
        samples=samples,
        fraction=balanced / samples,
        histogram=histogram,
        isolated=isolated,
        edgeless=edgeless,
    )


def figure1_graph() -> Digraph:
    """The 5-vertex counterexample dag: a 2-edge path feeding a transitive
    triangle whose source is the path's endpoint."""
    return Digraph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
