#!/usr/bin/env python3
"""Seeded benchmark of dagcover, one workload per process, one thread.

    python3 bench/run.py --workload sweep_tau --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's ops, stopping at the round boundary
nearest to --seconds, checks every op's output against bench/checks.py,
and prints one JSON object as its last line: correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones in
BENCHMARK.json; with --trace 1 rounds alternate between untraced and
traced, and the metrics are the per-layer ones, read from spans around
each layer's public function (bench/tracing.py).  Results and spans are also written under
bench/results/.  The program is imported from src/ of this checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dagcover; print(time.perf_counter() - t)"
)


class ProgramMissing(Exception):
    pass


def load_program():
    """Import dagcover from this checkout's src/, never from elsewhere."""
    if not (SRC / "dagcover" / "__init__.py").is_file():
        raise ProgramMissing(f"no dagcover package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dagcover

    if Path(dagcover.__file__).resolve().parent != (SRC / "dagcover").resolve():
        raise ProgramMissing(f"dagcover was imported from {dagcover.__file__}")
    return dagcover


def import_seconds() -> float:
    """dagcover's import time in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup(dc, build, seed: int, sizes):
    """Median over SETUP_REPEATS of import time plus input-building time."""
    totals = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        cases = build(dc, seed, sizes)
        totals.append(imported + time.perf_counter() - t0)
    return statistics.median(totals), cases


class Failure:
    def __init__(self, error: BaseException):
        self.error = f"{type(error).__name__}: {error}"


def run_round(dc, cases, outputs, op_times, tracer=None) -> float:
    """Run every case once; returns the round's wall time."""
    t_round = time.perf_counter()
    for i, case in enumerate(cases):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = case.run(dc)
            else:
                with tracer.op():
                    out = case.run(dc)
        except Exception as exc:  # an op that raises is counted as failed, the run goes on
            out = Failure(exc)
        op_times.append((time.perf_counter() - t0, i, len(outputs[i])))
        outputs[i].append(out)
    return time.perf_counter() - t_round


def past_half_way(t0: float, seconds: float, last: float) -> bool:
    """Whether stopping now ends nearer to `seconds` than one more
    round of length `last` would."""
    return time.perf_counter() - t0 + last / 2 >= seconds


def verify(dc, cases, outputs) -> tuple[set, list[str]]:
    """The (case, repeat) keys of failed ops, and the problems checks found."""
    failed: set[tuple[int, int]] = set()
    problems: list[str] = []
    for i, (case, outs) in enumerate(zip(cases, outputs)):
        expected = case.expect(dc)
        for k, out in enumerate(outs):
            if isinstance(out, Failure):
                failed.add((i, k))
                print(f"op raised: {out.error}", file=sys.stderr)
            elif case.partial(out):
                failed.add((i, k))
                print(f"partial result: {case!r:.120}", file=sys.stderr)
            else:
                found = case.check(out, expected)
                if found:
                    failed.add((i, k))
                    problems += found
    return failed, problems


def layer_metrics(spans) -> dict:
    """Per-layer busy time (self time) and counts over one traced round."""
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.self_s
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
    c = lambda key: counts.get(key, 0)  # noqa: E731
    b = lambda key: busy.get(key, 0.0)  # noqa: E731
    greedy_seen = c("greedy.copies") + c("greedy.rejected")
    timed = {
        "sample.busy_s": b("sample"),
        "enumerate.busy_s": b("enumerate"),
        "union_dag.busy_s": b("union_dag"),
        "clique.busy_s": b("clique"),
        "greedy.busy_s": b("greedy"),
        "exact.busy_s": b("exact"),
        "mincut.arboricity_s": b("mincut.arboricity"),
        "mincut.density_s": b("mincut.density"),
        "mincut.balance_s": b("mincut.balance"),
        "skewness.busy_s": b("skewness"),
        # a layer the workload never calls reads 0
        "enumerate.copies_per_s": c("enumerate.copies") / b("enumerate") if b("enumerate") else 0.0,
        "exact.nodes_per_s": c("exact.nodes") / b("exact") if b("exact") else 0.0,
    }
    counted = {
        "sample.edges": c("sample.edges"),
        "enumerate.copies": c("enumerate.copies"),
        "union_dag.acyclic": c("union_dag.acyclic"),
        "clique.size_sum": c("clique.size_sum"),
        "greedy.groups_sum": c("greedy.groups"),
        "greedy.rejected": c("greedy.rejected"),
        "greedy.accept_ratio": c("greedy.copies") / greedy_seen if greedy_seen else 0.0,
        "exact.nodes": c("exact.nodes"),
        "exact.copies": c("exact.copies"),
    }
    return {"timed": timed, "counted": counted}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None, results=RESULTS) -> dict:
    """One benchmark run; returns the result object and writes it, with the
    spans of a traced run, under `results`."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    dc = load_program()
    setup_s, cases = setup(dc, workloads.WORKLOADS[workload], seed, sizes or workloads.FULL)
    outputs: list[list] = [[] for _ in cases]
    op_times: list[tuple[float, int, int]] = []  # (seconds, case, repeat)
    problems: list[str] = []

    if not trace:
        rounds: list[float] = []  # wall time of each round
        t0 = time.perf_counter()
        while True:
            rounds.append(run_round(dc, cases, outputs, op_times))
            if past_half_way(t0, seconds, rounds[-1]):
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = None
    else:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced, per_round = [], [], []
        t0 = time.perf_counter()
        while True:
            plain.append(run_round(dc, cases, outputs, op_times))
            first = len(tracer.spans)
            with tracer.installed():
                traced.append(run_round(dc, cases, outputs, op_times, tracer))
            per_round.append(layer_metrics(tracer.spans[first:]))
            if past_half_way(t0, seconds, plain[-1] + traced[-1]):
                break
        if any(r["counted"] != per_round[0]["counted"] for r in per_round):
            problems.append("layer counts differ between rounds of the same inputs")
        values = dict(per_round[0]["counted"])
        for key in per_round[0]["timed"]:
            values[key] = statistics.median(r["timed"][key] for r in per_round)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    failed, found = verify(dc, cases, outputs)
    problems += found
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if not trace:
        done = [t for t, i, k in op_times if (i, k) not in failed]
        # the median round, so that a burst of load on a shared host
        # moves one round's rate, not the run's
        rates = [sum((i, k) not in failed for i in range(len(cases))) / wall
                 for k, wall in enumerate(rounds)]
        values = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(rates),
            "op_s_p50": statistics.median(done) if done else float("nan"),
            "peak_rss_mb": peak_mb,
        }
    result = {
        "correct": not problems,
        "attempted": len(op_times),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.json")
    return result


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
