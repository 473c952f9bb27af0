"""Command line surface: rendered tables, JSON output, verification.

The single structured format is JSON, both for ideal descriptions and for
outputs; the human-facing rendering is a plain grid whose row j, column i cell
holds the total Betti number of internal degree i + j.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .betti import BettiSet, betti_set, bitmask_betti_dims, graded_table, pd_and_reg
from .homology import ComplexTooLargeError
# not called here, but perfbench/tracer.py wraps these names in symbetti.cli
from .betti import betti_at_degree, upper_koszul_complex  # noqa: F401
from .homology import boundary_squares_to_zero, euler_characteristic_check  # noqa: F401
from .ideals import (
    IdealFileError,
    SymmetricIdeal,
    ZeroIdealError,
    candidate_degrees,
    parse_ideal_file,
    restrict_to_n,
)
from .stability import (
    AsymptoticProfile,
    ConsistencyError,
    SizeCapError,
    asymptotics,
    betti_set_payload,
    check_positive_lift,
    check_shift_equivalence,
    check_stable_composition,
    compose_betti,
    extrapolate_full_support,
    pad_record,
    rank_stability_report,
    record_count,
    record_payload,
    segment_set_payload,
    segments,
)
from .taylor import GeneratorCapError, dividing_generators, taylor_strand_tor
# not called here, but perfbench/tracer.py wraps symbetti.cli.expand_generators
from .taylor import expand_generators  # noqa: F401

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_CAP = 3


def table_payload(table: dict[tuple[int, int], int]) -> list[dict]:
    return [{"i": i, "j": j, "beta": table[(i, j)]} for (i, j) in sorted(table)]


def _linear_form(slope: int, intercept: int, var: str = "n") -> str:
    if slope == 0:
        return str(intercept)
    head = var if slope == 1 else f"{slope}{var}"
    if intercept == 0:
        return head
    return f"{head} + {intercept}" if intercept > 0 else f"{head} - {-intercept}"


def asymptotics_payload(profile: AsymptoticProfile) -> dict:
    return {
        "pd_offset": profile.pd_offset,
        "reg_slope": profile.reg_slope,
        "reg_intercept": profile.reg_intercept,
        "threshold": profile.threshold,
        "cohen_macaulay": profile.cohen_macaulay,
        "w": profile.min_first_part,
        "r": profile.min_length,
        "m": profile.stabilization_level,
        "pd_formula": _linear_form(1, -profile.pd_offset),
        "reg_formula": _linear_form(profile.reg_slope, profile.reg_intercept),
    }


def render_graded_table(table: dict[tuple[int, int], int]) -> str:
    """Grid with one row per internal degree j and one column per homological degree i."""
    if not table:
        return "(empty Betti table)"
    cols = range(0, max(i for i, _ in table) + 1)
    rows = range(min(j for _, j in table), max(j for _, j in table) + 1)
    cells = {}
    widths = {}
    for i in cols:
        entries = [str(table.get((i, j), ".")) for j in rows]
        widths[i] = max(len(e) for e in entries + [str(i)])
        for j, e in zip(rows, entries):
            cells[(i, j)] = e
    label = max(len(f"{j}:") for j in rows)
    lines = [" " * label + "  " + "  ".join(str(i).rjust(widths[i]) for i in cols)]
    for j in rows:
        lines.append(f"{j}:".rjust(label) + "  "
                     + "  ".join(cells[(i, j)].rjust(widths[i]) for i in cols))
    return "\n".join(lines)


def _print_json(payload, out):
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)


def _cmd_betti(ideal: SymmetricIdeal, args, out) -> int:
    bs = betti_set(ideal, args.n, processes=args.parallel)
    table = graded_table(bs)
    if args.multigraded or args.format == "json":
        payload = betti_set_payload(bs)
        payload["table"] = table_payload(table)
        payload["full_support"] = [record_payload(r, bs.n) for r in sorted(bs.F())]
        _print_json(payload, out)
        return EXIT_OK
    print(render_graded_table(table), file=out)
    if not bs.is_empty:
        pd, reg = pd_and_reg(bs)
        print(f"pd = {pd}, reg = {reg}", file=out)
    return EXIT_OK


def _cmd_extrapolate(ideal: SymmetricIdeal, args, out) -> int:
    m = ideal.max_length
    if args.n < m:
        raise ValueError(f"--n must be at least the stabilization level {m}")
    f_levels = {t: betti_set(ideal, t, processes=args.parallel) for t in range(1, m + 1)}
    report = rank_stability_report(ideal, extra_levels=1, f_levels=f_levels,
                                   processes=args.parallel)
    if not report.passed:
        raise ConsistencyError("composed positions disagree with direct computation",
                               report.counterexamples)
    f_top = sorted(f_levels[m].F())
    total = record_count(f_levels, args.n, m)
    payload = {
        "n": args.n,
        "m": m,
        "record_count": total,
        "f_records": [record_payload(r, args.n)
                      for r in extrapolate_full_support(f_top, args.n, m)],
        "families": [
            {
                "i_start": r.i,
                "prefix": list(r.degree[:-1]),
                "repeated_value": r.degree[-1],
                "repeat_min": 1,
                "repeat_max": 1 + args.n - m,
                "rank": r.rank,
            }
            for r in f_top
        ],
        "padded_records": [record_payload(pad_record(r, args.n), args.n)
                           for t in range(1, m) for r in sorted(f_levels[t].F())],
    }
    try:
        payload["records"] = [record_payload(r, args.n)
                              for r in compose_betti(ideal, args.n, f_levels=f_levels)]
    except SizeCapError:
        pass  # too many to list: the families describe them
    if report.notes:
        print("warning: carried ranks are not stable; emitting positions only",
              file=sys.stderr)
        for note in report.notes:
            print(f"warning: {note}", file=sys.stderr)
        for key in ("records", "f_records", "padded_records", "families"):
            for entry in payload.get(key, []):
                entry.pop("rank", None)
        payload["rank_warnings"] = list(report.notes)
    _print_json(payload, out)
    return EXIT_OK


def _cmd_segments(ideal: SymmetricIdeal, args, out) -> int:
    seg = segments(ideal, processes=args.parallel)
    if args.format == "json":
        _print_json({"segments": segment_set_payload(seg)}, out)
        return EXIT_OK
    print(f"m = {seg.m}", file=out)
    print("base positions (level m-1 table): "
          + (", ".join(str(p) for p in sorted(seg.base)) or "none"), file=out)
    print("D = {" + ", ".join(str(t) for t in sorted(seg.starts)) + "}", file=out)
    for (i, j, c) in sorted(seg.starts):
        print(f"  L(({i},{j}), {c}, n-{seg.m})", file=out)
    return EXIT_OK


def _cmd_asymptotics(ideal: SymmetricIdeal, args, out) -> int:
    profile = asymptotics(ideal, seg=segments(ideal, processes=args.parallel))
    if args.format == "json":
        _print_json({"asymptotics": asymptotics_payload(profile)}, out)
        return EXIT_OK
    pd_part = _linear_form(1, -profile.pd_offset)
    reg_part = _linear_form(profile.reg_slope, profile.reg_intercept)
    cm = "true" if profile.cohen_macaulay else "false"
    print(
        f"pd(I_n) = {pd_part} (n >= {profile.stabilization_level}); "
        f"reg(I_n) = {reg_part} (n >= {profile.threshold}); CM: {cm}",
        file=out,
    )
    return EXIT_OK


def _cmd_verify(ideal: SymmetricIdeal, args, out) -> int:
    if ideal.is_zero:
        print("zero ideal: nothing to verify", file=out)
        return EXIT_OK
    top = args.max_n
    m = ideal.max_length
    failures = []

    def report(name: str, passed: bool, details=()):
        print(("PASS " if passed else "FAIL ") + name, file=out)
        if not passed:
            failures.append(name)
            for line in details:
                print(f"  counterexample: {line}", file=out)

    cache: dict[tuple[int, int], BettiSet] = {}

    def bs(n: int, char: int | None = None) -> BettiSet:
        p = ideal.characteristic if char is None else char
        key = (n, p)
        if key not in cache:
            cache[key] = betti_set(replace(ideal, characteristic=p), n,
                                   processes=args.parallel)
        return cache[key]

    grouped: dict[int, dict[tuple[int, ...], dict[int, int]]] = {}

    def ranks(n: int) -> dict[tuple[int, ...], dict[int, int]]:
        # bs(n) grouped by degree: {degree: {i: rank}}
        if n not in grouped:
            grouped[n] = {}
            for r in bs(n).sorted_records():
                grouped[n].setdefault(r.degree, {})[r.i] = r.rank
        return grouped[n]

    # one candidate list per level, shared by the two loops below
    cands = {n: candidate_degrees(ideal, n) for n in range(1, min(top, m + 1) + 1)}
    level0 = min(top, m)
    gens_level0 = restrict_to_n(ideal, level0)
    bad_complexes = []
    for a in cands[level0]:
        profile = ranks(level0).get(a, {})
        reference = bitmask_betti_dims(gens_level0, ideal.characteristic, a)
        if profile != reference:
            bad_complexes.append(
                f"block-profile ranks {profile} vs complex ranks {reference} at degree {a}")
    report(f"homology consistency at level {level0}", not bad_complexes, bad_complexes)

    oracle_bad = []
    oracle_skipped = 0
    for n in range(1, min(top, m + 1) + 1):
        for a in cands[n]:
            try:
                strand = taylor_strand_tor(dividing_generators(ideal, a), a, ideal.characteristic)
            except GeneratorCapError:
                oracle_skipped += 1
                continue
            direct = ranks(n).get(a, {})
            if strand != direct:
                oracle_bad.append(f"level {n}, degree {a}: strands {strand} vs homology {direct}")
    name = "generator-subset oracle agreement"
    if oracle_skipped:
        name += f" ({oracle_skipped} degrees over the enumeration cap skipped)"
    report(name, not oracle_bad, oracle_bad)

    for n in range(m, min(top - 1, m + 2) + 1):
        shift = check_shift_equivalence(ideal, n, bs(n), bs(n + 1))
        report(f"one-step shift equivalence at level {n}", shift.passed, shift.counterexamples)
    for n in range(1, min(top - 1, m + 2) + 1):
        if bs(n).is_empty:
            continue
        lift = check_positive_lift(ideal, n, bs(n), bs(n + 1))
        report(f"positive-degree lift at level {n}", lift.passed, lift.counterexamples)

    for n in range(m, min(top, m + 2) + 1):
        comp = check_stable_composition(ideal, n, {t: bs(t) for t in range(1, m + 1)}, bs(n))
        report(f"stable composition agreement at level {n}", comp.passed, comp.counterexamples)

    n_cmp = min(top, m)
    recs0 = {(r.i, r.degree): r.rank for r in bs(n_cmp, 0).records}
    recs2 = {(r.i, r.degree): r.rank for r in bs(n_cmp, 2).records}
    if recs0 == recs2:
        print(f"note: characteristics 0 and 2 agree everywhere at level {n_cmp}", file=out)
    else:
        for key in sorted(set(recs0) | set(recs2)):
            r0, r2 = recs0.get(key, 0), recs2.get(key, 0)
            if r0 != r2:
                i, degree = key
                print(
                    f"note: beta_{{{i},{degree}}} = {r0} at characteristic 0 "
                    f"and {r2} at characteristic 2",
                    file=out,
                )

    if failures:
        print(f"{len(failures)} check(s) failed", file=out)
        return EXIT_VERIFY
    print("all checks passed", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbetti",
        description="Exact Betti tables of symmetric monomial ideals and their stable shape.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False):
        p.add_argument("--ideal", required=True, help="path to a JSON ideal description")
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="number of variables")
        p.add_argument("--parallel", type=int, default=os.cpu_count() or 1,
                       help="processes for per-degree fan-out (default: available cores)")
        p.add_argument("--characteristic", type=int, default=None,
                       help="override the characteristic from the ideal file")

    p_betti = sub.add_parser("betti", help="graded Betti table, or full record listing")
    common(p_betti, needs_n=True)
    p_betti.add_argument("--multigraded", action="store_true",
                         help="emit the full record listing as JSON")
    p_betti.add_argument("--format", choices=("text", "json"), default="text")

    p_ex = sub.add_parser("extrapolate", help="compact level-N positions from one finite computation")
    common(p_ex, needs_n=True)

    p_seg = sub.add_parser("segments", help="base positions and segment starts of the stable tables")
    common(p_seg)
    p_seg.add_argument("--format", choices=("text", "json"), default="text")

    p_asy = sub.add_parser("asymptotics", help="closed-form pd and regularity of the family")
    common(p_asy)
    p_asy.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="run the internal consistency suite")
    common(p_ver)
    p_ver.add_argument("--max-n", type=int, required=True, dest="max_n",
                       help="largest number of variables to verify")

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ideal = parse_ideal_file(args.ideal, warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
        if args.characteristic is not None:
            ideal = replace(ideal, characteristic=args.characteristic)
        if getattr(args, "n", None) is not None and args.n < 1:
            raise ValueError("--n must be positive")
        if getattr(args, "max_n", None) is not None and args.max_n < 1:
            raise ValueError("--max-n must be positive")
        if args.parallel < 1:
            raise ValueError("--parallel must be positive")
        if args.command == "betti":
            return _cmd_betti(ideal, args, out)
        if args.command == "extrapolate":
            return _cmd_extrapolate(ideal, args, out)
        if args.command == "segments":
            return _cmd_segments(ideal, args, out)
        if args.command == "asymptotics":
            return _cmd_asymptotics(ideal, args, out)
        if args.command == "verify":
            return _cmd_verify(ideal, args, out)
        raise AssertionError(f"unhandled command {args.command}")
    except IdealFileError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ComplexTooLargeError, GeneratorCapError, SizeCapError) as exc:
        print(f"error[size-cap]: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConsistencyError as exc:
        print(f"error[verification]: {exc}", file=sys.stderr)
        for line in exc.counterexamples:
            print(f"  counterexample: {line}", file=sys.stderr)
        return EXIT_VERIFY
    except (ZeroIdealError, ValueError) as exc:
        print(f"error[invalid-input]: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
