#!/usr/bin/env python3
"""Regenerate bench/exact_reference.json, the exact_tau workload's instances.

    python3 bench/make_reference.py

Each draw is a random digraph on N vertices, every ordered pair an edge
with probability P, from random.Random("<pattern>:<draw>").  Its tau is
the minimum number of vertex orders covering every copy, found by the
exhaustive cover over all N! orders in checks.py, which shares no code
with dagcover.  dagcover's tau_exact is run only to learn which draws
end at the node budget: those are written under "ended_at_budget" and
left out of the workload.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import load_program  # noqa: E402

OUT = HERE / "exact_reference.json"
BUDGET = 100_000
# pattern -> (vertices, edge probability, draws)
FAMILY = {"T3": (8, 0.55, 20), "P2": (8, 0.35, 12)}


def draw_host(pattern: str, draw: int, n: int, p: float) -> list[tuple[int, int]]:
    rng = random.Random(f"{pattern}:{draw}")
    return [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]


def main() -> int:
    dc = load_program()
    patterns = {"T3": dc.make_transitive_tournament(3), "P2": dc.make_directed_path(2)}
    instances, ended = [], []
    for name, (n, p, draws) in FAMILY.items():
        for draw in range(draws):
            edges = draw_host(name, draw, n, p)
            copies = checks.COPY_COUNTERS[name](edges)
            entry = {"pattern": name, "draw": draw, "n": n, "edges": edges,
                     "copies": len(copies), "tau": checks.min_cover_by_permutations(n, copies)}
            res = dc.tau_exact(dc.Digraph(n, edges), patterns[name], budget=BUDGET)
            print(f"{name} draw {draw}: {len(copies)} copies, tau {entry['tau']}, "
                  f"{res.nodes} nodes, exact {res.exact}", file=sys.stderr, flush=True)
            if res.exact:
                instances.append(entry)
            else:
                entry.update(lower=res.lower, upper=res.upper, nodes=res.nodes)
                ended.append(entry)
    doc = {
        "command": "python3 bench/make_reference.py",
        "family": {k: {"n": n, "p": p, "draws": d} for k, (n, p, d) in FAMILY.items()},
        "budget": BUDGET,
        "instances": instances,
        "ended_at_budget": ended,
    }
    # one instance per line keeps the file readable and its diffs small
    text = json.dumps(doc, indent=1)
    for entry in instances + ended:
        text = text.replace(json.dumps(entry, indent=1).replace("\n", "\n  "), json.dumps(entry), 1)
    if json.loads(text) != json.loads(json.dumps(doc)):
        raise RuntimeError("compact layout changed the reference data")
    OUT.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
