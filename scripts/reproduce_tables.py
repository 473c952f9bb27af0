#!/usr/bin/env python3
"""Recompute the showcase Betti tables and their stable descriptions.

Three families are worked out end to end: the two-generator ideal from the
J.json fixture, the tree ideal, and the permutohedron ideal.  For each one
the script prints directly computed graded tables for the first few levels,
the segment decomposition, the composed table at a level twice the
stabilization point, and the closed-form invariants.

Usage: python scripts/reproduce_tables.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from symbetti import (
    asymptotics,
    betti_set,
    compose_betti,
    graded_table,
    pd_and_reg,
    parse_ideal_file,
    segments,
)
from symbetti.cli import _linear_form, render_graded_table

IDEAL_DIR = os.path.join(os.path.dirname(__file__), "..", "ideals")


def render_shape(cells):
    cols = range(0, max(i for i, _ in cells) + 1)
    rows = range(min(j for _, j in cells), max(j for _, j in cells) + 1)
    label = max(len(f"{j}:") for j in rows)
    lines = [" " * label + " " + " ".join(str(i)[-1] for i in cols)]
    for j in rows:
        lines.append(f"{j}:".rjust(label) + " "
                     + " ".join(cells.get((i, j), ".") for i in cols))
    return "\n".join(lines)


def show_family(path, levels, composed_level):
    ideal = parse_ideal_file(path)
    m = ideal.max_length
    print(f"=== {ideal.name} (generators {sorted(tuple(g.parts) for g in ideal.generators)}) ===")
    tables = {}
    for n in levels:
        bs = tables[n] = betti_set(ideal, n)
        print(f"\nlevel n = {n}:")
        print(render_graded_table(graded_table(bs)))
        if not bs.is_empty:
            pd, reg = pd_and_reg(bs)
            print(f"pd = {pd}, reg = {reg}")

    # the level-m table holds every lower level as its zero-padded degrees
    seg = segments(ideal, tables[m])
    print("\nsegment starts (i, j, slope):", sorted(seg.starts))
    print("base cells:", sorted(seg.base) or "none")

    composed = compose_betti(ideal, composed_level, tables[m])
    cells = {(r.i, r.degree.total() - r.i) for r in composed}
    print(f"\nnonzero table cells at n = {composed_level}, assembled from one "
          f"finite computation ({len(composed)} records):")
    print(render_shape({cell: "*" for cell in sorted(cells)}))

    prof = asymptotics(ideal, seg)
    print(f"\npd(I_n) = {_linear_form(1, -prof.pd_offset)} for n >= {prof.stabilization_level}")
    print(f"reg(I_n) = {_linear_form(prof.reg_slope, prof.reg_intercept)} "
          f"for n >= {prof.threshold}")
    print(f"Cohen-Macaulay: {prof.cohen_macaulay}")
    print()


def main():
    show_family(os.path.join(IDEAL_DIR, "J.json"), levels=(2, 3, 4, 5), composed_level=9)
    show_family(os.path.join(IDEAL_DIR, "tree4.json"), levels=(4, 5), composed_level=8)
    show_family(os.path.join(IDEAL_DIR, "permutohedron4.json"), levels=(4, 5), composed_level=8)


if __name__ == "__main__":
    main()
