import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from symbetti import (
    BettiRecord,
    BettiSet,
    CheckReport,
    CompactDegree,
    SegmentSet,
    IdealFileError,
    betti_set,
    betti_set_from_payload,
    betti_set_payload,
    candidate_degrees,
    compose_betti,
    graded_table,
    parse_ideal_file,
    parse_ideal_text,
    segment_set_from_payload,
    segment_set_payload,
    segments,
)
from symbetti.cli import (
    EXIT_CAP,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    main,
    render_graded_table,
)
from symbetti.stability import degree_from_runs, record_payload


def write_ideal(tmp_path, payload, name="ideal.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParse:
    def test_basic(self):
        ideal = parse_ideal_text('{"generators": [[5,1],[2,2]], "characteristic": 0}')
        assert ideal.max_length == 2
        assert ideal.min_first_part == 2
        assert ideal.min_length == 2

    def test_redundant_generator_warns(self):
        warnings = []
        ideal = parse_ideal_text(
            '{"generators": [[2,2],[5,1],[5,2]]}', warn=warnings.append)
        assert len(ideal.generators) == 2
        assert any("[5, 2]" in w for w in warnings)

    def test_not_weakly_decreasing(self):
        with pytest.raises(IdealFileError) as err:
            parse_ideal_text('{"generators": [[1,2]]}')
        assert err.value.code == "bad-partition"

    def test_bad_characteristic(self):
        with pytest.raises(IdealFileError) as err:
            parse_ideal_text('{"generators": [[2,1]], "characteristic": 6}')
        assert err.value.code == "bad-characteristic"

    def test_malformed_document(self):
        with pytest.raises(IdealFileError) as err:
            parse_ideal_text("{nope")
        assert err.value.code == "malformed-document"
        with pytest.raises(IdealFileError) as err:
            parse_ideal_text('{"nothing": 1}')
        assert err.value.code == "malformed-document"


class TestRoundTrip:
    def test_betti_set_payload(self, ideal_j, bs):
        original = bs(ideal_j, 3)
        assert betti_set_from_payload(
            json.loads(json.dumps(betti_set_payload(original)))) == original

    def test_segment_set_payload(self, ideal_j, bs):
        seg = segments(ideal_j, f_top=bs(ideal_j, 2).F(), bs_below=bs(ideal_j, 1))
        assert segment_set_from_payload(
            json.loads(json.dumps(segment_set_payload(seg)))) == seg

    def test_degree_runs(self):
        degree = (5, 2, 2, 2, 0, 0)
        runs = CompactDegree.from_vector(degree).runs()
        assert runs == [[5, 1], [2, 3], [0, 2]]
        assert degree_from_runs(runs) == degree
        entry = record_payload(BettiRecord(1, degree, 1), len(degree))
        assert entry["degree_rle"] == runs and entry["degree"] == list(degree)


class TestRenderTable:
    def test_convention_row_j_column_i(self, ideal_j, bs):
        text = render_graded_table(graded_table(bs(ideal_j, 2)))
        lines = text.splitlines()
        assert lines[0].split() == ["0", "1"]
        rows = {line.split(":")[0].strip(): line.split(":")[1].split()
                for line in lines[1:]}
        assert rows["4"] == ["1", "."]
        assert rows["6"] == ["2", "2"]
        assert rows["5"] == [".", "."]


class TestCommands:
    def test_betti_text(self, tmp_path, ideal_j):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["betti", "--ideal", path, "--n", "2", "--parallel", "1"])
        assert code == EXIT_OK
        assert "pd = 1, reg = 6" in out

    def test_betti_multigraded_json(self, tmp_path, ideal_j, bs):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["betti", "--ideal", path, "--n", "3",
                         "--multigraded", "--parallel", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert betti_set_from_payload(payload) == bs(ideal_j, 3)
        assert {(e["i"], e["j"]): e["beta"] for e in payload["table"]} == \
            graded_table(bs(ideal_j, 3))

    def test_characteristic_override(self, tmp_path):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["betti", "--ideal", path, "--n", "2", "--parallel", "1",
                         "--characteristic", "3", "--format", "json"])
        assert code == EXIT_OK

    def test_segments_text(self, tmp_path):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["segments", "--ideal", path, "--parallel", "1"])
        assert code == EXIT_OK
        assert "(0, 4, 1)" in out and "(0, 6, 0)" in out and "(1, 6, 1)" in out
        assert "L((0,4), 1, n-2)" in out

    def test_asymptotics_text(self, tmp_path):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["asymptotics", "--ideal", path, "--parallel", "1"])
        assert code == EXIT_OK
        assert "pd(I_n) = n - 1 (n >= 2)" in out
        assert "reg(I_n) = n + 4 (n >= 2)" in out
        assert "CM: false" in out

    def test_segments_and_asymptotics_honour_parallel(self, tmp_path, monkeypatch):
        import symbetti.stability as stability

        real = stability.betti_set
        seen = []

        def spy(ideal, n, processes=1):
            seen.append((n, processes))
            return real(ideal, n, processes=processes)

        monkeypatch.setattr(stability, "betti_set", spy)
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        for command in ("segments", "asymptotics"):
            seen.clear()
            code, _ = run([command, "--ideal", path, "--parallel", "2"])
            assert code == EXIT_OK
            assert sorted(seen) == [(1, 2), (2, 2)]

    def test_python_dash_m(self):
        # symbetti.cli warns under -m if the package has imported it already
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        for module in ("symbetti", "symbetti.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "asymptotics", "--ideal", "ideals/J.json"],
                cwd=root, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_OK, module
            assert ("pd(I_n) = n - 1 (n >= 2); reg(I_n) = n + 4 (n >= 2); CM: false"
                    in proc.stdout), module
            assert "RuntimeWarning" not in proc.stderr, module

    def test_asymptotics_constant_regularity(self, tmp_path):
        path = write_ideal(
            tmp_path, {"generators": [[1, 1, 1, 1], [2, 2, 2], [3, 3], [4]]})
        code, out = run(["asymptotics", "--ideal", path, "--parallel", "1"])
        assert code == EXIT_OK
        assert "reg(I_n) = 7 (n >= 4)" in out and "CM: true" in out

    def test_extrapolate_materialized(self, tmp_path):
        path = write_ideal(
            tmp_path, {"generators": [[1, 1, 1, 1], [2, 2, 2], [3, 3], [4]]})
        code, out = run(["extrapolate", "--ideal", path, "--n", "8",
                         "--parallel", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["record_count"] == 47
        assert len(payload["records"]) == 47
        assert len(payload["families"]) == 8

    def test_extrapolate_huge_level_uses_families(self, tmp_path):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["extrapolate", "--ideal", path, "--n", "1000000",
                         "--parallel", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "records" not in payload
        assert payload["record_count"] == 3 * (10 ** 6 - 1)
        assert payload["f_records"][0]["degree_rle"][-1][1] >= 10 ** 6 - 2

    def test_extrapolate_rank_check_downgrades(self, tmp_path):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["extrapolate", "--ideal", path, "--n", "5", "--parallel", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "rank_warnings" in payload
        assert all("rank" not in e for e in payload["records"])

    def test_verify_passes(self, tmp_path):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["verify", "--ideal", path, "--max-n", "4", "--parallel", "1"])
        assert code == EXIT_OK
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_verify_reports_characteristic_dependence(self, tmp_path):
        path = write_ideal(tmp_path, {
            "generators": [
                [5, 4, 4, 2, 2, 1], [5, 4, 4, 3, 1, 1], [5, 5, 3, 3, 1, 1],
                [5, 5, 3, 3, 2], [5, 5, 4, 2, 2], [6, 4, 3, 2, 2, 1],
                [6, 4, 3, 3, 2], [6, 4, 4, 3, 1], [6, 5, 3, 2, 1, 1],
                [6, 5, 4, 2, 1]]})
        code, out = run(["verify", "--ideal", path, "--max-n", "6", "--parallel", "1"])
        assert code == EXIT_OK
        assert "beta_{2,(6, 5, 4, 3, 2, 1)} = 0 at characteristic 0 and 1 at characteristic 2" in out

    def test_exit_codes(self, tmp_path):
        bad = write_ideal(tmp_path, {"generators": [[1, 2]]}, name="bad.json")
        code, _ = run(["betti", "--ideal", bad, "--n", "2", "--parallel", "1"])
        assert code == EXIT_INPUT

        missing = str(tmp_path / "missing.json")
        code, _ = run(["betti", "--ideal", missing, "--n", "2", "--parallel", "1"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("max_n", ["0", "-2"])
    def test_verify_rejects_nonpositive_max_n(self, tmp_path, capsys, max_n):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["verify", "--ideal", path, "--max-n", max_n, "--parallel", "1"])
        assert code == EXIT_INPUT
        assert out == ""
        assert "error[invalid-input]" in capsys.readouterr().err

    @pytest.mark.parametrize("parallel", ["0", "-4"])
    def test_rejects_nonpositive_parallel(self, tmp_path, capsys, parallel):
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["betti", "--ideal", path, "--n", "3", "--parallel", parallel])
        assert code == EXIT_INPUT
        assert out == ""
        assert "error[invalid-input]" in capsys.readouterr().err

    def test_size_cap_exit(self, tmp_path, capsys):
        # verify's reference check builds K^a on all 15 support positions
        path = write_ideal(tmp_path, {"generators": [[1] * 15]})
        code, _ = run(["verify", "--ideal", path, "--max-n", "15", "--parallel", "1"])
        assert code == EXIT_CAP
        assert "error[size-cap]" in capsys.readouterr().err

    def test_betti_beyond_vertex_cap(self, tmp_path):
        # betti builds only D_h, here on one vertex for one block of 15
        path = write_ideal(tmp_path, {"generators": [[1] * 15]})
        code, out = run(["betti", "--ideal", path, "--n", "15", "--parallel", "1"])
        assert code == EXIT_OK
        assert "pd = 0, reg = 15" in out

    def test_zero_ideal_asymptotics_is_input_error(self, tmp_path):
        path = write_ideal(tmp_path, {"generators": []})
        code, _ = run(["asymptotics", "--ideal", path, "--parallel", "1"])
        assert code == EXIT_INPUT

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch):
        # simulate a broken reference route so the suite reports a failure
        import symbetti.cli as cli

        path = write_ideal(tmp_path, {"generators": [[2, 1]]})
        monkeypatch.setattr(cli, "bitmask_betti_dims",
                            lambda gens, characteristic, a: {0: 7})
        code, out = run(["verify", "--ideal", path, "--max-n", "3", "--parallel", "1"])
        assert code == EXIT_VERIFY
        assert "FAIL homology consistency at level 2" in out

    def test_verify_computes_each_table_once(self, tmp_path, monkeypatch):
        import symbetti.betti as betti
        import symbetti.cli as cli

        real_set, real_dims = cli.betti_set, betti._betti_dims
        real_complex = betti.upper_koszul_complex
        tables, dims_calls, complexes = [], Counter(), Counter()

        def spy_set(ideal, n, processes=1):
            tables.append((n, ideal.characteristic))
            return real_set(ideal, n, processes=processes)

        def spy_dims(gens, characteristic, a):
            dims_calls[(characteristic, tuple(a))] += 1
            return real_dims(gens, characteristic, a)

        def spy_complex(gens, a):
            complexes[tuple(a)] += 1
            return real_complex(gens, a)

        monkeypatch.setattr(cli, "betti_set", spy_set)
        monkeypatch.setattr(betti, "_betti_dims", spy_dims)
        monkeypatch.setattr(betti, "upper_koszul_complex", spy_complex)
        monkeypatch.setattr(cli, "upper_koszul_complex", spy_complex)
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["verify", "--ideal", path, "--max-n", "4", "--parallel", "1"])
        assert code == EXIT_OK
        assert sorted(tables) == [(1, 0), (2, 0), (2, 2), (3, 0), (4, 0)]
        ideal = parse_ideal_file(path)
        # one profile computation per candidate of each table, nothing else
        assert dims_calls == Counter(
            (p, a) for n, p in tables for a in candidate_degrees(ideal, n))
        # one K^a per candidate at level m = 2, for the reference side only
        assert complexes == Counter(candidate_degrees(ideal, 2))

    def test_verify_profile_mismatch_exit_code(self, tmp_path, monkeypatch):
        import symbetti.betti as betti

        real = betti._betti_dims

        def wrong_at_52(gens, characteristic, a):
            return {1: 2} if tuple(a) == (5, 2) else real(gens, characteristic, a)

        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        monkeypatch.setattr(betti, "_betti_dims", wrong_at_52)
        code, out = run(["verify", "--ideal", path, "--max-n", "2", "--parallel", "1"])
        assert code == EXIT_VERIFY
        lines = out.splitlines()
        at = lines.index("FAIL homology consistency at level 2")
        assert lines[at + 1] == ("  counterexample: block-profile ranks {1: 2}"
                                 " vs complex ranks {1: 1} at degree (5, 2)")

    def test_extrapolate_position_disagreement_exit_code(self, tmp_path, monkeypatch, capsys):
        import symbetti.cli as cli

        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        monkeypatch.setattr(cli, "rank_stability_report", lambda *a, **k: CheckReport(
            False, ("level 3: position (0, (5, 1, 0)) only on the composed side",)))
        code, out = run(["extrapolate", "--ideal", path, "--n", "5", "--parallel", "1"])
        assert code == EXIT_VERIFY
        assert out == ""
        err = capsys.readouterr().err
        assert "composed positions disagree" in err
        assert "counterexample: level 3: position (0, (5, 1, 0))" in err

    def test_verify_composition_failure(self, tmp_path, monkeypatch):
        import symbetti.stability as stability

        real = stability.compose_betti

        def drop_51(ideal, n, f_levels):
            return tuple(r for r in real(ideal, n, f_levels) if r.degree.expand() != (5, 1))

        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        monkeypatch.setattr(stability, "compose_betti", drop_51)
        code, out = run(["verify", "--ideal", path, "--max-n", "2", "--parallel", "1"])
        assert code == EXIT_VERIFY
        lines = out.splitlines()
        at = lines.index("FAIL stable composition agreement at level 2")
        assert lines[at + 1] == ("  counterexample: level 2: position (0, (5, 1))"
                                 " only on the direct side")

    def test_asymptotics_slope_mismatch_exit_code(self, tmp_path, monkeypatch, capsys):
        import symbetti.cli as cli

        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        monkeypatch.setattr(cli, "segments", lambda ideal, processes=1: SegmentSet(
            frozenset(), frozenset({(0, 4, 3)}), 2, {(0, 4, 3): 1}))
        code, out = run(["asymptotics", "--ideal", path, "--parallel", "1"])
        assert code == EXIT_VERIFY
        assert out == ""
        err = capsys.readouterr().err
        assert "segment slopes top out at 3, expected 1" in err
        assert "counterexample: segment start (0, 4, 3)" in err


def family_records(family, n):
    """The records a family stands for: the start shifted 0 .. repeat_max - 1 steps."""
    prefix, value = family["prefix"], family["repeated_value"]
    return {(family["i_start"] + count - 1,
             tuple(prefix + [value] * count + [0] * (n - len(prefix) - count)))
            for count in range(family["repeat_min"], family["repeat_max"] + 1)}


@pytest.mark.parametrize("fixture", ["J", "tree4", "permutohedron4"])
def test_extrapolate_views_agree(fixture, bs):
    path = str(pathlib.Path(__file__).resolve().parent.parent / "ideals" / f"{fixture}.json")
    ideal = parse_ideal_file(path)
    m = ideal.max_length
    levels = {t: bs(ideal, t) for t in range(1, m + 1)}
    for n in (m, m + 1, m + 2, m + 3, 20):
        code, out = run(["extrapolate", "--ideal", path, "--n", str(n), "--parallel", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        records = payload["records"]
        assert len(records) == payload["record_count"]
        composed = [record_payload(r, n) for r in compose_betti(ideal, n, f_levels=levels)]
        if "rank_warnings" in payload:
            for entry in composed:
                entry.pop("rank")
        assert records == composed
        for entry in payload["f_records"] + payload["padded_records"]:
            assert entry in records
        positions = {(e["i"], tuple(e["degree"])) for e in records}
        padded = {(e["i"], tuple(e["degree"])) for e in payload["padded_records"]}
        expanded = [family_records(f, n) for f in payload["families"]]
        assert sum(len(e) for e in expanded) + len(padded) == len(positions)
        assert set().union(padded, *expanded) == positions
        ends = {(e["i"], tuple(e["degree"])) for e in payload["f_records"]}
        assert ends == {max(e) for e in expanded}
