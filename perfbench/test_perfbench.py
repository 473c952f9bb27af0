"""Self-tests of the benchmark, separate from the package's own suite.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

J_GENS = [(5, 1), (2, 2)]


def _smoke_workload():
    """J at n=4 through a two-process pool, checked like a generated ideal."""
    argv = ["betti", "--ideal", "ideals/J.json", "--n", "4", "--parallel", "2", "--format", "json"]
    return run.Workload("J-smoke", [argv], [lambda out: checks.check_generated(out, J_GENS, 0, 4)[0]])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_named_metric(trace, kind):
    result, lines = run.measure(_smoke_workload(), 0.3, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["betti.pool.starts"]["value"] >= 1
        assert abs(result["metrics"]["trace.self_sum_ratio"]["value"] - 1) < 0.01
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_generated_output_fails_the_gate():
    op = run.Runner().op(_smoke_workload().commands[0])
    problems, checked = checks.check_generated(op["stdout"], J_GENS, 0, 4)
    assert problems == [] and checked > 0
    payload = json.loads(op["stdout"])
    payload["records"][0]["rank"] += 1
    assert checks.check_generated(json.dumps(payload), J_GENS, 0, 4)[0]
    # A degree the program leaves out entirely is caught by its face count.
    dropped = tuple(payload["records"][0]["degree"])
    payload = json.loads(op["stdout"])
    payload["records"] = [r for r in payload["records"] if tuple(r["degree"]) != dropped]
    assert any(str(dropped) in p for p in checks.check_generated(json.dumps(payload), J_GENS, 0, 4)[0])


def test_corrupted_fixture_output_fails_the_gate():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["rp2-build"]
    op = run.Runner().op(workloads.FIXTURES["fixtures"]["rp2-build"])
    assert checks.check_fixture(op["stdout"], golden) == []
    assert "136080" in op["stdout"]
    assert checks.check_fixture(op["stdout"].replace("136080", "136081"), golden)


def test_verify_gate_allows_fewer_oracle_skips_only():
    line = "PASS generator-subset oracle agreement ({} degrees over the enumeration cap skipped)\n"
    golden = {"sha256": checks.digest(checks.verify_skipped(line.format(5))[0]), "oracle_skipped": 5}
    assert checks.check_fixture(line.format(4), golden) == []
    assert checks.check_fixture(line.format(6), golden)


def test_seeds_draw_different_inputs_inside_the_budget_band():
    sets = [workloads.seeded_ideals(seed) for seed in (1, 2)]
    assert sets[0] != sets[1]
    assert workloads.seeded_ideals(1) == sets[0]
    budget, slack = workloads.CELL_BUDGET, workloads.CELL_SLACK
    for chosen in sets:
        total = sum(cells for *_, cells in chosen)
        assert budget * (1 - slack) <= total <= budget * (1 + slack)
        for gens, characteristic, cells in chosen:
            assert 2 <= len(gens) <= 4 and any(len(g) >= 3 for g in gens)
            assert all(len(g) <= 4 and max(g) <= 5 for g in gens)
            assert characteristic in (2, 3)
            assert budget / 20 <= cells <= budget / 3


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert [run._percentile(values, q) for q in (10, 50, 90, 100)] == [1, 5, 9, 10]
    assert run._percentile([7.0], 90) == 7.0


def _square(x):
    return x * x


def _mark(path):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("x")


def test_traced_pool_passes_through_and_keeps_caller_initializer(tmp_path):
    from tracer import Tracer, _TracedMultiprocessing

    tracer = Tracer()
    marks = tmp_path / "marks"
    pool = _TracedMultiprocessing(tracer).Pool(2, initializer=_mark, initargs=(str(marks),))
    assert pool.map(_square, range(4)) == [0, 1, 4, 9]
    assert list(pool.imap(_square, range(3))) == [0, 1, 4]
    pool.close()
    pool.join()
    assert marks.read_text() == "xx"
    spans = tracer.summary()["spans"]
    assert {k: v["calls"] for k, v in spans.items()} == {
        "betti.pool.start": 1, "betti.pool.map": 1, "betti.pool.exit": 1}
    assert tracer.stack == [] and tracer.counts["pool_capacity_ns"] > 0


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fixtures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
