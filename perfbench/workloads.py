"""The benchmark's workloads: the fixture commands and a generated set.

Each workload is a list of symbetti CLI commands, one ideal each, run in
order as one pass.  Sizes are chosen so that a pass takes seconds, which
lets one run of the benchmark repeat it often enough for a steady median.
"""

from __future__ import annotations

import json
import os
import random

from checks import candidates, matrix_cells, member

# Fixture workloads: the commands of one pass, each under the label that
# keys its recorded output in golden.json.
FIXTURES = {
    "fixtures": {
        # Exact characteristic-0 elimination on complexes of up to 11
        # vertices; no pool, and membership tests are a small share.
        "tree4-rank": ["betti", "--ideal", "ideals/tree4.json", "--n", "11", "--parallel", "1"],
        # Many candidates, half of them acyclic, many membership tests and
        # many small matrices: enumeration and complex building weigh most.
        "rp2-build": ["betti", "--ideal", "ideals/rp2.json", "--n", "9", "--parallel", "1"],
        # The subset oracle, the stability checks and the per-call pool at
        # the CLI's default --parallel (the machine's core count).  Level 5
        # keeps the command near 3 s; level 6, which holds the one degree
        # where characteristics 0 and 2 differ, takes about 12 s.
        "rp2-verify": ["verify", "--ideal", "ideals/rp2.json", "--max-n", "5"],
    },
}

SEEDED = "seeded-modp-pool"
SEEDED_N = 11
SEEDED_PARALLEL = 2
# Generated sets are sized by the entries of the boundary matrices the
# complexes at their candidates have, which predicts their time to about 10%
# per ideal; a candidate count alone varies by a third.
CELL_BUDGET = 12_000_000
CELL_SLACK = 0.05
MAX_DRAWS = 5_000


def draw_ideal(rng: random.Random):
    """An antichain of 2-4 partitions, lengths at most 4 (one at least 3),
    parts at most 5, and a characteristic drawn from {2, 3}."""
    while True:
        parts = {
            tuple(sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 4))), reverse=True))
            for _ in range(rng.randint(2, 4))
        }
        gens = sorted(p for p in parts if not any(q != p and member([q], p) for q in parts))
        characteristic = rng.choice((2, 3))
        if len(gens) >= 2 and any(len(g) >= 3 for g in gens):
            return gens, characteristic


def seeded_ideals(seed: int, budget: int = CELL_BUDGET, n: int = SEEDED_N):
    """Distinct ideals drawn from the seed until their cells reach the budget.

    Each ideal holds between 1/20 and 1/3 of the budget, and the total ends
    within CELL_SLACK of it either way.  Cells are counted at the benchmark's
    own candidates (checks.candidates), never the program's, so a seed draws
    the same set whatever the program under test enumerates.  Returns
    (generators, characteristic, cells) per ideal.
    """
    rng = random.Random(seed)
    chosen, seen, total = [], set(), 0
    for _ in range(MAX_DRAWS):
        if total >= budget * (1 - CELL_SLACK):
            return chosen
        gens, characteristic = draw_ideal(rng)
        key = (tuple(gens), characteristic)
        if key in seen:
            continue
        seen.add(key)
        cells = matrix_cells(gens, candidates(gens, n), limit=budget / 3)
        if budget / 20 <= cells <= budget / 3 and total + cells <= budget * (1 + CELL_SLACK):
            chosen.append((gens, characteristic, cells))
            total += cells
    raise RuntimeError(f"seed {seed}: no ideal set within the cell budget after {MAX_DRAWS} draws")


def write_ideal(path: str, gens, characteristic: int, name: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": name, "generators": [list(g) for g in gens],
                   "characteristic": characteristic}, fh)
