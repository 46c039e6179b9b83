"""Command-line front end.

Subcommands mirror the library: params, skewness, tau, gh, consistent,
pipeline, sweep, census, catalog.  Graph arguments are file paths or
``-`` for stdin, in edge-list or JSON format.  Every randomized
subcommand requires an explicit --seed.  Exit codes: 0 success, 2
invalid input, 3 size/feasibility limit, 4 censored or bounds-only
result.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import graphio
from .covering import (
    DEFAULT_COPY_CAP,
    DEFAULT_NODE_BUDGET,
    MAX_PATTERN_VERTICES,
    consistent_sets,
    enumerate_copies,
    skew_witness_pipeline,
    tau_exact,
    tau_greedy,
    tau_le_one,
    tau_lower_clique,
)
from .density import fractional_arboricity, maximal_density
from .digraph import (
    Digraph,
    make_directed_path,
    make_rooted_star,
    make_transitive_tournament,
)
from .errors import (
    DagCoverError,
    InfeasibleSizeError,
    InvalidInputError,
    SizeLimitError,
)
from .experiments import (
    SweepConfig,
    balanced_census,
    figure1_graph,
    rows_to_csv,
    rows_to_json,
    threshold_sweep,
)
from .skewness import skewness_exact, skewness_upper_random

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_LIMIT = 3
EXIT_PARTIAL = 4

MAX_CATALOG_EDGES = 10**6  # catalog Th 1000 (499,500 edges) took 0.84 s and 106 MB on a 2-vCPU machine


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _load_graph(path: str) -> Digraph:
    return graphio.parse_graph(_read(path))


def _emit(obj: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"{what} must be an integer, got {text!r}") from None


def catalog_graph(name: str, args: Sequence[str], max_vertices: Optional[int] = None) -> Digraph:
    """The named graph; one of more than `max_vertices` vertices, or of more
    than MAX_CATALOG_EDGES edges, is refused before it is built."""

    def size(text: str, what: str, edges: Callable[[int], int], extra: int = 0) -> int:
        value = _int_arg(text, what)
        if max_vertices is not None and value + extra > max_vertices:
            raise SizeLimitError(f"pattern enumeration is limited to {max_vertices} vertices, got {value + extra}")
        if value > 0 and edges(value) > MAX_CATALOG_EDGES:
            raise SizeLimitError(f"catalog graphs are limited to {MAX_CATALOG_EDGES} edges, got {edges(value)} ({what} {value})")
        return value

    if name == "figure1":
        if args:
            raise InvalidInputError("catalog figure1 takes no arguments")
        return figure1_graph()
    if name == "Th":
        if len(args) != 1:
            raise InvalidInputError("catalog Th takes one argument: h")
        return make_transitive_tournament(size(args[0], "Th size h", lambda h: h * (h - 1) // 2))
    if name == "star":
        if len(args) not in (1, 2):
            raise InvalidInputError("catalog star takes h and optionally source|sink")
        source = True
        if len(args) == 2:
            if args[1] not in ("source", "sink"):
                raise InvalidInputError("star direction must be 'source' or 'sink'")
            source = args[1] == "source"
        return make_rooted_star(size(args[0], "star size h", lambda h: h - 1), source=source)
    if name == "path":
        if len(args) != 1:
            raise InvalidInputError("catalog path takes one argument: length")
        return make_directed_path(size(args[0], "path length", lambda length: length, extra=1))
    raise InvalidInputError(f"unknown catalog entry {name!r}")


def _cmd_params(ns: argparse.Namespace) -> int:
    g = _load_graph(ns.graph)
    arb = fractional_arboricity(g)
    dens = maximal_density(g)
    obj = {"arboricity": arb.to_json_dict(), "density": dens.to_json_dict()}
    balance = "yes" if arb.totally_balanced else "no"
    _emit(
        obj,
        ns.format,
        [
            f"a = {_frac(arb.value)} (witness: {' '.join(map(str, arb.witness))})",
            f"rho = {_frac(dens.value)} (witness: {' '.join(map(str, dens.witness))})",
            f"totally balanced: {balance}",
        ],
    )
    return EXIT_OK


def _cmd_skewness(ns: argparse.Namespace) -> int:
    g = _load_graph(ns.graph)
    if ns.random:
        if ns.seed is None or ns.trials is None:
            raise InvalidInputError("--random requires --trials and --seed")
        value, coloring = skewness_upper_random(g, ns.trials, ns.seed)
        obj = {"skewness_upper": value, "coloring": coloring.to_lists()}
        _emit(obj, ns.format, [f"s <= {value}", f"coloring: {coloring.to_lists()}"])
        return EXIT_OK
    if ns.seed is not None or ns.trials is not None:
        raise InvalidInputError("--trials and --seed apply only with --random")
    report = skewness_exact(g)
    _emit(
        report.to_json_dict(),
        ns.format,
        [
            f"s = {report.value}",
            f"coloring: {report.witness_coloring.to_lists()}",
            f"witness order: {' '.join(map(str, report.witness_order.order))}",
        ],
    )
    return EXIT_OK


def _cmd_tau(ns: argparse.Namespace) -> int:
    host = _load_graph(ns.host)
    pattern = _load_graph(ns.pattern)
    if ns.mode == "exact":
        if ns.seed is not None:
            raise InvalidInputError("--seed applies only with --greedy or --bounds")
    elif ns.seed is None:
        raise InvalidInputError(f"--{ns.mode} requires --seed")
    elif ns.budget is not None:
        raise InvalidInputError("--budget applies only with --exact")
    code = EXIT_OK
    if ns.mode == "greedy":
        sol = tau_greedy(host, pattern, ns.seed, cap=ns.cap)
        obj, lines, truncated = sol.to_json_dict(), [f"tau <= {sol.size}"], sol.truncated
    elif ns.mode == "bounds":
        copies = enumerate_copies(host, pattern, ns.cap)
        lower = tau_lower_clique(host, pattern, ns.seed, copies=copies)
        upper = tau_greedy(host, pattern, ns.seed, copies=copies).size
        obj, lines = {"lower": lower, "upper": upper}, [f"{lower} <= tau <= {upper}"]
        truncated = copies.truncated
    else:
        budget = DEFAULT_NODE_BUDGET if ns.budget is None else ns.budget
        res = tau_exact(host, pattern, budget=budget, cap=ns.cap)
        truncated = res.truncated
        if res.exact:
            obj = res.solution.to_json_dict()
            obj["exact"] = True
            lines = [f"tau = {res.value}"]
        else:
            obj = {"lower": res.lower, "upper": res.upper, "exact": False}
            stop = "budget exceeded: " if res.nodes > budget else ""
            lines = [f"{stop}{res.lower} <= tau <= {res.upper}"]
            code = EXIT_PARTIAL
    if truncated:
        obj["truncated"] = True
        lines.append("# truncated: copy cap hit; the values cover only the copies found")
        code = EXIT_PARTIAL
    _emit(obj, ns.format, lines)
    return code


def _cmd_gh(ns: argparse.Namespace) -> int:
    host = _load_graph(ns.host)
    pattern = _load_graph(ns.pattern)
    res = tau_le_one(host, pattern, cap=ns.cap)
    certificate = res.order.order if res.acyclic else res.cycle
    obj = {
        "gh": {"n": res.union.n, "edges": [list(e) for e in res.union.sorted_edges]},
        "dag": res.acyclic,
        "certificate": list(certificate),
        "truncated": res.truncated,
    }
    kind = "yes; covering order" if res.acyclic else "no; shortest cycle"
    lines = [
        graphio.format_edge_list(res.union).rstrip("\n"),
        f"# dag: {kind}: {' '.join(map(str, certificate))}",
    ]
    if res.truncated:
        lines.append("# truncated: copy cap hit")
    _emit(obj, ns.format, lines)
    return EXIT_PARTIAL if res.truncated else EXIT_OK


def _cmd_consistent(ns: argparse.Namespace) -> int:
    perms = graphio.parse_permutations(_read(ns.perms))
    fam = consistent_sets(perms, ns.t)
    _emit(
        fam.to_json_dict(),
        ns.format,
        [" ".join(map(str, sorted(s))) for s in fam.sets],
    )
    return EXIT_OK


def _cmd_pipeline(ns: argparse.Namespace) -> int:
    host = _load_graph(ns.host)
    pattern = _load_graph(ns.pattern)
    perms = graphio.parse_permutations(_read(ns.perms))
    result = skew_witness_pipeline(host, pattern, perms)
    if result is None:
        _emit({"found": False}, ns.format, ["no consistent copy found"])
        return EXIT_OK
    copy, profile = result
    obj = {
        "found": True,
        "copy_edges": [list(e) for e in sorted(copy.edges)],
        "profile": list(profile),
    }
    _emit(
        obj,
        ns.format,
        [
            f"copy: {' '.join(f'{u}->{v}' for u, v in sorted(copy.edges))}",
            f"profile: {' '.join(map(str, profile))}",
        ],
    )
    return EXIT_OK


def _config_int(value: object, key: str) -> int:
    if not graphio.is_json_int(value):
        raise TypeError(f'"{key}" must hold integers, got {json.dumps(value)}')
    return value


def _parse_sweep_config(text: str) -> SweepConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad sweep config JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError("sweep config must be a JSON object")
    pattern_spec = obj.get("pattern")
    if isinstance(pattern_spec, dict):
        pattern = graphio.parse_graph_json(json.dumps(pattern_spec))
    elif isinstance(pattern_spec, str):
        parts = pattern_spec.split()
        if not parts:
            raise InvalidInputError('sweep config "pattern" is empty')
        pattern = catalog_graph(parts[0], parts[1:], MAX_PATTERN_VERTICES)
    else:
        raise InvalidInputError('sweep config needs "pattern" (graph object or catalog string)')
    try:
        perm_factor = obj.get("perm_factor", 1.0)
        if isinstance(perm_factor, bool) or not isinstance(perm_factor, (int, float)):
            raise TypeError(f'"perm_factor" must be a number, got {json.dumps(perm_factor)}')
        return SweepConfig(
            pattern=pattern,
            a_star=Fraction(str(obj["a_star"])),
            n_values=tuple(_config_int(n, "n_values") for n in obj["n_values"]),
            samples=_config_int(obj["samples"], "samples"),
            seed=_config_int(obj["seed"], "seed"),
            mode=str(obj["mode"]),
            cap=_config_int(obj.get("cap", DEFAULT_COPY_CAP), "cap"),
            perm_factor=float(perm_factor),
        )
    except KeyError as exc:
        raise InvalidInputError(f"sweep config missing key: {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidInputError(f"bad sweep config value: {exc}") from exc


def _cmd_sweep(ns: argparse.Namespace) -> int:
    cfg = _parse_sweep_config(_read(ns.config))
    rows = threshold_sweep(cfg, jobs=ns.jobs)
    if ns.format == "json":
        print(rows_to_json(rows))
    else:
        sys.stdout.write(rows_to_csv(rows))
    if any(r.censored for r in rows):
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_census(ns: argparse.Namespace) -> int:
    result = balanced_census(ns.h, ns.samples, ns.seed)
    obj = result.to_json_dict()
    lines = [f"balanced fraction: {result.fraction}"]
    lines.extend(f"a = {k}: {v}" for k, v in obj["histogram"].items())
    _emit(obj, ns.format, lines)
    return EXIT_OK


def _cmd_catalog(ns: argparse.Namespace) -> int:
    g = catalog_graph(ns.name, ns.args)
    sys.stdout.write(graphio.format_edge_list(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagcover",
        description="Covering numbers, density parameters and skewness of dag patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("params", help="fractional arboricity, maximal density, balance")
    p.add_argument("graph")
    add_format(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("skewness", help="exact skewness or a randomized upper bound")
    p.add_argument("graph")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--random", action="store_true")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_skewness)

    p = sub.add_parser("tau", help="covering number of a pattern in a host")
    p.add_argument("host")
    p.add_argument("pattern")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="mode", action="store_const", const="exact")
    group.add_argument("--greedy", dest="mode", action="store_const", const="greedy")
    group.add_argument("--bounds", dest="mode", action="store_const", const="bounds")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_COPY_CAP)
    add_format(p)
    p.set_defaults(func=_cmd_tau, mode="exact")

    p = sub.add_parser("gh", help="union of all copy edge sets, with dagness certificate")
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--cap", type=int, default=DEFAULT_COPY_CAP)
    add_format(p)
    p.set_defaults(func=_cmd_gh)

    p = sub.add_parser("consistent", help="blocks consistent with a permutation family")
    p.add_argument("perms")
    p.add_argument("--t", type=int, required=True, help="produce 2**t sets")
    add_format(p)
    p.set_defaults(func=_cmd_consistent)

    p = sub.add_parser("pipeline", help="copy covered at most s(H) by every permutation")
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("perms")
    add_format(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("sweep", help="Monte Carlo threshold sweep (CSV to stdout)")
    p.add_argument("config")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("census", help="totally balanced fraction of random graphs")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("catalog", help="emit a named graph in edge-list format")
    p.add_argument("name", choices=("figure1", "Th", "star", "path"))
    p.add_argument("args", nargs="*")
    p.set_defaults(func=_cmd_catalog)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (SizeLimitError, InfeasibleSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (DagCoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
