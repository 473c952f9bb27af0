#!/usr/bin/env python3
"""The symbetti benchmark: closed-loop CLI commands, checked, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fixtures or seeded-modp-pool, or ``all``
to run each in turn (the last line is then one object keyed by workload).

One operation is one symbetti CLI command on one ideal, in a fresh
interpreter, as users run it.  One client issues them back to back (closed
loop); a pass is one run through the workload's command list, and passes
repeat for about S seconds.  Every output is checked (see checks.py)
outside the timed interval; a wrong exit code, a timeout or a failed check
counts the operation as failed.

``--trace 0`` reports the end-to-end metrics: each time is the fastest the
run saw (per command, summed over a pass; set-up over every start), and
memory a median over passes.  ``--trace 1`` splits the time into an untraced
phase, a traced phase and, for workloads that fan out to a process pool, a
traced phase at ``--parallel 1`` whose spans see the work the pool's workers
would do; it reports the per-layer metrics.  The last line printed is one
JSON object: correct, attempted, failed, metrics.

The program under test is ``src/symbetti`` of this checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from checks import check_fixture, check_generated, digest, verify_skipped
from tracer import Tracer
from workloads import FIXTURES, SEEDED, SEEDED_N, SEEDED_PARALLEL, seeded_ideals, write_ideal

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Every run ends well inside the three minutes one run may take.
RUN_LIMIT_S = 165.0
WORKLOADS = (*FIXTURES, SEEDED)
# Set-up-only interpreter starts per run, spread over its passes, on top of
# every command's own set-up: start-up time is short and noisy, so it needs
# more samples than the passes give on the long workloads.
SETUP_PROBES = 8



def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Workload:
    """Commands of one pass, and the check each command's output must pass."""

    def __init__(self, name, commands, checks, oracle_candidates=None, labels=None):
        self.name = name
        self.commands = commands
        self.checks = checks
        self.oracle_candidates = oracle_candidates
        self.labels = labels or [f"{name}-{k}" for k in range(len(commands))]

    @property
    def pooled(self) -> bool:
        return any(_parallel(argv) != 1 for argv in self.commands)

    def at_parallel_one(self):
        return [_with_parallel(argv, 1) for argv in self.commands]


def _parallel(argv) -> int:
    if "--parallel" in argv:
        return int(argv[argv.index("--parallel") + 1])
    return os.cpu_count() or 1


def _with_parallel(argv, processes):
    argv = list(argv)
    if "--parallel" in argv:
        argv[argv.index("--parallel") + 1] = str(processes)
    else:
        argv += ["--parallel", str(processes)]
    return argv


def build_workload(name: str, seed: int) -> Workload:
    if name in FIXTURES:
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        labels = list(FIXTURES[name])
        commands = [FIXTURES[name][label] for label in labels]
        checks = [lambda out, g=golden[label]: check_fixture(out, g) for label in labels]
        verify = [argv for argv in commands if argv[0] == "verify"]
        oracle = _oracle_candidates(verify[0]) if verify else None
        return Workload(name, commands, checks, oracle, labels)
    commands, checks = [], []
    for k, (gens, characteristic, _) in enumerate(seeded_ideals(seed)):
        path = os.path.join(OUT, f"seed-{seed}", f"ideal-{k}.json")
        write_ideal(path, gens, characteristic, f"seed{seed}-{k}")
        commands.append(["betti", "--ideal", os.path.relpath(path, ROOT), "--n", str(SEEDED_N),
                         "--parallel", str(SEEDED_PARALLEL), "--format", "json"])
        checks.append(_checked_once(
            lambda out, g=gens, c=characteristic: check_generated(out, g, c, SEEDED_N)[0]))
    return Workload(name, commands, checks)


def _checked_once(check):
    # Outputs are deterministic: check the first one fully, then require
    # every later output of the same command to be identical to it.
    seen = {}

    def run(out):
        key = digest(out)
        if not seen:
            seen[key] = check(out)
        return seen.get(key, ["output differs from an earlier output of the same command"])
    return run


def _oracle_candidates(argv) -> int:
    """Degrees ``verify`` hands to the subset oracle: its candidates at levels 1..min(max-n, m+1)."""
    from symbetti import candidate_degrees, parse_ideal_file, restrict_to_n

    ideal = parse_ideal_file(os.path.join(ROOT, argv[argv.index("--ideal") + 1]))
    top = int(argv[argv.index("--max-n") + 1])
    return sum(len(candidate_degrees(ideal, n))
               for n in range(1, min(top, ideal.max_length + 1) + 1)
               if restrict_to_n(ideal, n))


class Runner:
    """Starts child interpreters and keeps the whole run inside its time limit."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def op(self, argv, spans=None, setup_only=False) -> dict:
        opts = (["--spans", spans] if spans else []) + (["--setup-only"] if setup_only else [])
        cmd = [sys.executable, os.path.join(HERE, "child.py"), *opts, "--", *argv]
        t_spawn = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            # The child's pool workers share its process group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"argv": argv, "problems": ["timed out"]}
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            report = {}
        if proc.returncode != 0 or "t_ready_ns" not in report:
            return {"argv": argv, "problems": [f"child exited {proc.returncode}: {err.strip()[-500:]}"]}
        result = {"argv": argv, "problems": [], "setup_s": (report["t_ready_ns"] - t_spawn) / 1e9}
        if setup_only:
            return result
        if report["code"] != 0:
            result["problems"].append(f"exit code {report['code']}: {err.strip()[-500:]}")
        result.update(
            wall_s=(report["t_done_ns"] - report["t_start_ns"]) / 1e9,
            cpu_s=report["cpu_s"],
            rss_mb=report["rss_kb"] / 1024,
            stdout=report["stdout"],
            trace=report.get("trace"),
        )
        return result

    def closed_loop(self, commands, seconds, spans_label=None, setups=None) -> list[list[dict]]:
        """Passes over the commands, back to back, for about ``seconds`` (at least one).

        The loop ends once less than half a pass is left, so a run lasts
        ``seconds`` give or take half a pass.  With a ``setups`` list,
        set-up-only starts precede each pass, outside its timed commands, as
        many as spread about SETUP_PROBES over the run; their results go to
        the list.
        """
        passes = []
        start = time.monotonic()
        last = 0.0
        if spans_label:
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        while True:
            if setups is not None:
                probes = max(1, round(SETUP_PROBES * last / seconds))
                setups += [self.op(commands[0], setup_only=True) for _ in range(probes)]
            t0 = time.monotonic()
            ops = []
            for k, argv in enumerate(commands):
                spans = os.path.join(OUT, "spans", f"{spans_label}-{k}.json") if spans_label else None
                ops.append(self.op(argv, spans=spans))
            passes.append(ops)
            now = time.monotonic()
            last = now - t0
            if (now - start + last / 2 >= seconds or any(op["problems"] == ["timed out"] for op in ops)
                    or now + 1.5 * last > self.deadline):
                return passes


def check_passes(workload: Workload, passes) -> None:
    """Apply each command's check to its outputs, outside the timed interval."""
    for ops in passes:
        for op, check in zip(ops, workload.checks):
            if "stdout" in op:
                op["problems"] += check(op["stdout"])
                if workload.oracle_candidates and op["argv"][0] == "verify":
                    skipped = verify_skipped(op["stdout"])[1]
                    op["checked_ratio"] = (workload.oracle_candidates - skipped) / workload.oracle_candidates


def _ok(passes):
    """Passes in which every operation succeeded."""
    return [ops for ops in passes if not any(op["problems"] for op in ops)]


def end_to_end(passes, setups) -> dict:
    """End-to-end metrics of one run; each time is the fastest the run saw.

    On a shared host the speed can drop by a third to a half for tens of
    seconds at a time while a pass's work stays the same; interference only
    ever adds time, so the fastest sample is the steadiest estimate of the
    program's own (README, "Why the fastest").  A pass time is the sum over its commands
    of each command's fastest.
    """
    good = _ok(passes)
    per_command = list(zip(*good))
    return {
        "wall_s": sum(_fastest([op["wall_s"] for op in ops]) for ops in per_command),
        "cpu_s": sum(_fastest([op["cpu_s"] for op in ops]) for ops in per_command),
        "setup_s": _fastest(setups + [op["setup_s"] for ops in good for op in ops]),
        "peak_rss_mb": _median([max(op["rss_mb"] for op in ops) for ops in good]),
    }


def _fastest(values):
    return min(values) if values else 0.0


def _merge(ops) -> dict:
    """One pass's trace summaries added up over its commands."""
    empty = Tracer().summary()
    spans, layers, counts, degree_ms = {}, empty["layers"], empty["counts"], []
    for op in ops:
        t = op["trace"]
        for name, s in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for layer, v in t["layers"].items():
            layers[layer] += v
        for key, v in t["counts"].items():
            counts[key] = max(counts[key], v) if key == "max_vertices" else counts[key] + v
        degree_ms += t["degree_ms"]
    return {"spans": spans, "layers": layers, "counts": counts, "degree_ms": degree_ms,
            "wall_s": sum(op["wall_s"] for op in ops),
            "checked_ratio": _median([op["checked_ratio"] for op in ops if "checked_ratio" in op])}


def _span(m, name, key="s"):
    return m["spans"].get(name, {}).get(key, 0)


def layer_metrics(m) -> dict:
    """Per-layer metrics of one merged traced pass (see README.md for each)."""
    c, layers = m["counts"], m["layers"]
    return {
        "ideals.self_s": layers["ideals"],
        "ideals.candidate_degrees.s": _span(m, "ideals.candidate_degrees"),
        "ideals.candidates": c["candidates"],
        "ideals.contains_monomial.calls": _span(m, "ideals.contains_monomial", "calls"),
        "ideals.contains_monomial.s": _span(m, "ideals.contains_monomial"),
        "betti.self_s": layers["betti"],
        "betti.upper_koszul_complex.s": _span(m, "betti.upper_koszul_complex", "self_s"),
        "betti.faces": c["faces"],
        "betti.nonzero_ratio": c["nonzero_degrees"] / c["degrees"] if c["degrees"] else 0.0,
        "betti.degree_ms.p50": _percentile(m["degree_ms"], 50),
        "betti.degree_ms.p90": _percentile(m["degree_ms"], 90),
        "homology.self_s": layers["homology"],
        "homology.boundary_matrices.s": _span(m, "homology.boundary_matrices"),
        "homology.rank_over_field.s": _span(m, "homology.rank_over_field"),
        "homology.rank_over_field.calls": _span(m, "homology.rank_over_field", "calls"),
        "homology.matrix_cells": c["matrix_cells"],
        "homology.max_vertices": c["max_vertices"],
        "taylor.self_s": layers["taylor"],
        "taylor.taylor_strand_tor.s": _span(m, "taylor.taylor_strand_tor", "self_s"),
        "taylor.rank_over_field.s": _span(m, "taylor.rank_over_field"),
        "taylor.strands": c["strands"],
        # verify catches only GeneratorCapError from the oracle; any other
        # exception fails the command, so calls that did not return are skips.
        "taylor.skipped": _span(m, "taylor.taylor_strand_tor", "calls") - c["strands"],
        "taylor.checked_ratio": m["checked_ratio"],
        "stability.self_s": layers["stability"],
        "cli.self_s": layers["cli"],
        "trace.self_sum_ratio": sum(layers.values()) / m["wall_s"] if m["wall_s"] else 0.0,
    }


def pool_metrics(m) -> dict:
    c = m["counts"]
    return {
        "betti.pool.starts": _span(m, "betti.pool.start", "calls"),
        "betti.pool.overhead_s": _span(m, "betti.pool.start") + _span(m, "betti.pool.exit"),
        "betti.pool.map_s": _span(m, "betti.pool.map"),
        "betti.pool.child_cpu_s": c["pool_child_cpu_ns"] / 1e9,
        "betti.pool.efficiency": (c["pool_child_cpu_ns"] / c["pool_capacity_ns"]
                                  if c["pool_capacity_ns"] else 0.0),
    }


def _median_dict(metric, passes) -> dict:
    """Median over passes of each metric; zeros when no pass succeeded."""
    dicts = [metric(m) for m in passes] or [metric(_merge([]))]
    return {k: _median([d[k] for d in dicts]) for k in dicts[0]}


def per_layer(workload, runner, seconds):
    """Untraced, traced and (for pooled workloads) traced --parallel 1 phases."""
    phases = 3 if workload.pooled else 2
    untraced = runner.closed_loop(workload.commands, seconds / phases)
    traced = runner.closed_loop(workload.commands, seconds / phases, f"{workload.name}-traced")
    layer_passes = traced
    if workload.pooled:
        layer_passes = runner.closed_loop(workload.at_parallel_one(), seconds / phases,
                                          f"{workload.name}-parallel1")
    all_passes = untraced + traced + (layer_passes if workload.pooled else [])
    check_passes(workload, all_passes)
    good_traced = [_merge(ops) for ops in _ok(traced)]
    good_layer = [_merge(ops) for ops in _ok(layer_passes)]
    untraced_wall = _median([sum(op["wall_s"] for op in ops) for ops in _ok(untraced)])
    traced_wall = _median([m["wall_s"] for m in good_traced])
    metrics = _median_dict(layer_metrics, good_layer)
    metrics.update(_median_dict(pool_metrics, good_traced))
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    source = "a traced pass at --parallel 1" if workload.pooled else "the traced pass"
    lines = [f"{workload.name}: layer numbers from {source}; pool numbers and trace.wall_s "
             f"from the traced pass at the workload's own --parallel"]
    lines += _share_lines(workload.name, good_layer)
    if len(workload.commands) > 1:
        for k, label in enumerate(workload.labels):
            name = f"{workload.name} / {label}"
            lines += _share_lines(name, [_merge([ops[k]]) for ops in _ok(layer_passes)])
            walls = [_median([ops[k]["wall_s"] for ops in _ok(p)]) for p in (traced, untraced)]
            lines.append(f"{name}: tracing overhead {walls[0] - walls[1]:.3f} s "
                         f"(traced {walls[0]:.3f} s, untraced {walls[1]:.3f} s)")
    return all_passes, metrics, lines


def _share_lines(label, merged) -> list[str]:
    """Layer self-time shares of the median traced wall of these merged passes."""
    wall = _median([m["wall_s"] for m in merged])
    if not wall:
        return []
    metrics = _median_dict(layer_metrics, merged)
    shares = ", ".join(f"{k} {metrics[k + '.self_s'] / wall:.1%}"
                       for k in ("ideals", "betti", "homology", "taylor", "stability", "cli"))
    build = metrics["ideals.contains_monomial.s"] + metrics["betti.upper_koszul_complex.s"]
    return [f"{label}: layer self-time shares of {wall:.3f} s traced wall: {shares}",
            f"{label}: rank share {metrics['homology.rank_over_field.s'] / wall:.1%}, "
            f"membership+build share {build / wall:.1%}"]


def measure(workload: Workload, seconds: float, trace: bool):
    """One run: the result object and the human-readable lines that precede it."""
    runner = Runner()
    # Compiles bytecode and warms the file cache; users pay neither on every run.
    runner.op(workload.commands[0], setup_only=True)
    if trace:
        passes, metrics, lines = per_layer(workload, runner, seconds)
    else:
        setups = []
        passes = runner.closed_loop(workload.commands, seconds, setups=setups)
        check_passes(workload, passes)
        metrics = end_to_end(passes, [s["setup_s"] for s in setups if not s["problems"]])
        lines = _describe(workload, passes)
    ops = [op for p in passes for op in p]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        lines.append(f"FAILED {' '.join(op['argv'])}: {'; '.join(op['problems'][:3])}")
    lines.append(f"{workload.name}: fail_ratio {len(failed)}/{len(ops)} = {len(failed) / len(ops):.3f}")
    units = _units()
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "symbetti", "cli.py")):
        print(f"no symbetti package under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    results = {}
    for name in names:
        results[name], lines = measure(build_workload(name, args.seed), args.seconds, args.trace)
        for line in lines:
            print(line)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


def _units() -> dict:
    """Metric units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _describe(workload, passes) -> list[str]:
    good = _ok(passes)
    walls = [sum(op["wall_s"] for op in ops) for ops in good]
    if not walls:
        return [f"{workload.name}: no successful pass"]
    q1, q3 = _quartiles(walls)
    lines = [f"{workload.name}: {len(walls)} passes of {len(passes[0])} command(s); pass wall_s "
             f"fastest {min(walls):.3f}, median {statistics.median(walls):.3f} "
             f"(quartiles {q1:.3f}, {q3:.3f})"]
    for label, ops in zip(workload.labels, zip(*good)):
        times = [op["wall_s"] for op in ops]
        lines.append(f"{workload.name} / {label}: wall_s fastest {min(times):.3f}, "
                     f"median {statistics.median(times):.3f}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
