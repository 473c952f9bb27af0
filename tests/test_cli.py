import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from symbetti import (
    BettiRecord,
    BettiSet,
    CheckReport,
    CompactDegree,
    SegmentSet,
    IdealFileError,
    betti_set,
    betti_set_payload,
    candidate_degrees,
    compose_betti,
    graded_table,
    parse_ideal_file,
    parse_ideal_text,
    restrict_to_n,
    segment_set_payload,
    segments,
)
from symbetti.betti import profile_boxes
from symbetti.cli import (
    EXIT_CAP,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_VERIFY,
    COMMANDS,
    format_json,
    main,
    parse_args,
    render_graded_table,
)
from symbetti.stability import DEGREE_LIST_LIMIT, record_payload

from conftest import (
    betti_set_from_payload,
    degree_from_runs,
    reference_json_text,
    reference_parser,
    reference_record_payload,
    segment_set_from_payload,
)


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
        seg = segments(ideal_j, bs(ideal_j, 2))
        assert segment_set_from_payload(
            json.loads(json.dumps(segment_set_payload(seg)))) == seg

    def test_degree_runs(self):
        degree = (5, 2, 2, 2, 0, 0)
        runs = CompactDegree.from_vector(degree).runs()
        assert runs == [[5, 1], [2, 3], [0, 2]]
        assert degree_from_runs(runs) == degree
        entry = record_payload(BettiRecord(1, degree, 1), len(degree))
        assert entry["degree_rle"] == runs and entry["degree"] == list(degree)


# what the commands emit: str-keyed dicts, lists, tuples, str, int, bool, None
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70) | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40,
)


class TestJsonWriter:
    @given(JSON_VALUES)
    @example([1, True, 0, False, -1])
    @example({"": [], "a": {}, "b": (), "\u00e9": [[]], "\"q\"": "tab\there\n\x00\x1f"})
    @example(["caf\u00e9 \u6f22\u5b57 \U0001f600 \ud800", 10 ** 40, -(10 ** 40), None])
    def test_matches_json_dumps(self, value):
        assert format_json(value) == reference_json_text(value)

    @pytest.mark.parametrize("value", [
        {1, 2}, frozenset(), [1, {2}], {"a": {3}}, b"x", object(), (1, [complex(1, 2)])])
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            reference_json_text(value)
        with pytest.raises(TypeError):
            format_json(value)

    @pytest.mark.parametrize("value", [1.5, [0.0], {1: 2}, {None: 1}, {"a": 1, 2: 3}])
    def test_floats_and_non_str_keys_raise_type_error(self, value):
        # json accepts these; the commands never emit them
        with pytest.raises(TypeError):
            format_json(value)


# sorted degrees as runs of distinct descending values, with a zero tail
SORTED_DEGREES = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6000)), max_size=4).flatmap(
    lambda runs: st.integers(0, 6000).map(lambda zeros: tuple(
        v for value, count in sorted(dict(runs).items(), reverse=True)
        for v in [value] * count) + (0,) * zeros))


class TestRecordPayload:
    @given(SORTED_DEGREES, st.integers(0, 5), st.integers(1, 9))
    @example((), 0, 1)
    @example((0,) * 7, 0, 1)
    @example((3,) * DEGREE_LIST_LIMIT, 2, 1)
    @example((3,) * DEGREE_LIST_LIMIT + (0,), 2, 1)
    def test_matches_compact_degree_route(self, degree, i, rank):
        # a stand-in record: BettiRecord refuses the all-zero degrees
        record = SimpleNamespace(i=i, degree=degree, rank=rank)
        entry = record_payload(record, len(degree))
        assert entry == reference_record_payload(record, len(degree))
        assert ("degree" in entry) == (len(degree) <= DEGREE_LIST_LIMIT)


FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "ideals"
J_FILE = str(FIXTURE_DIR / "J.json")

# one command line per subcommand, on J (at least two work units per table)
SUBCOMMANDS = [
    ["betti", "--ideal", J_FILE, "--n", "4"],
    ["extrapolate", "--ideal", J_FILE, "--n", "4"],
    ["segments", "--ideal", J_FILE],
    ["asymptotics", "--ideal", J_FILE],
    ["verify", "--ideal", J_FILE, "--max-n", "4"],
]


class TestFanOut:
    def test_parallel_defaults_to_one(self):
        for argv in SUBCOMMANDS:
            assert parse_args(argv).parallel == 1, argv[0]

    def test_default_starts_no_pool(self, monkeypatch):
        import multiprocessing

        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(multiprocessing, "Process", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        for argv in SUBCOMMANDS:
            assert run(argv)[0] == EXIT_OK, argv[0]
            # --parallel is accepted and ignored
            assert run(argv + ["--parallel", "2"])[0] == EXIT_OK, argv[0]

    START_UP_UNWANTED = ("multiprocessing", "argparse", "gettext", "locale",
                         "dataclasses", "inspect", "ast")

    @staticmethod
    def loaded_at_start_up(unwanted, flags=()):
        """Which of `unwanted` a fresh interpreter holds after `import symbetti.cli`,
        then after one `betti` command: two printed lines."""
        # a fresh interpreter: this process has imported them for other tests
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        script = (
            "import io, sys, symbetti, symbetti.cli\n"
            f"print([m for m in {unwanted!r} if m in sys.modules])\n"
            "code = symbetti.cli.main(['betti', '--ideal', 'ideals/J.json', '--n', '4'],"
            " out=io.StringIO())\n"
            f"print(code, [m for m in {unwanted!r} if m in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_start_up_leaves_multiprocessing_unloaded(self):
        assert self.loaded_at_start_up(self.START_UP_UNWANTED) == ["[]", "0 []"]

    def test_start_up_without_site_leaves_typing_unloaded(self):
        # -S skips site, whose .pth files may import typing (and more) first
        unwanted = (*self.START_UP_UNWANTED, "typing")
        assert self.loaded_at_start_up(unwanted, ["-S"]) == ["[]", "0 []"]

    @pytest.mark.parametrize("fixture,command", [
        ("rp2", "verify --max-n 5"),
        ("J", "verify --max-n 4"),
        ("tree4", "verify --max-n 4"),
        ("permutohedron4", "verify --max-n 4"),
        ("rp2", "betti --n 9 --format json"),
    ])
    def test_pool_output_matches_default(self, fixture, command):
        name, *rest = command.split()
        argv = [name, "--ideal", str(FIXTURE_DIR / f"{fixture}.json"), *rest]
        serial = run(argv)
        assert serial[0] == EXIT_OK
        assert run(argv + ["--parallel", "2"]) == serial


# The option vocabulary: full names, prefixes, names no command has, and values
# of every kind.  "--=x" is left out: argparse reports it as ambiguous before it
# acts on an -h earlier on the line, and no other token is ambiguous.  A value
# "--" is never joined to its option: argparse stores [] for "--opt=--", past
# the type and choices checks (test_joined_double_dash_is_a_value).
OPTION_SPELLINGS = ["--ideal", "--id", "--i", "--n", "--parallel", "--par", "--p",
                    "--characteristic", "--char", "--c", "--max-n", "--max", "--m", "--format",
                    "--fo", "--f", "--multigraded", "--multi", "--help", "--nn", "--bogus"]
VALUES = st.one_of(st.integers(-12, 12).map(str),
                   st.sampled_from(["text", "json", "xml", "x", "1.5", "-1.5", "+7", " 3", "",
                                    "-x", "-", "--", "a b", "-a b", "ideals/J.json"]))
SINGLE_TOKENS = ["--multigraded", "--multi", "--mu", "-h", "--help", "--he", "-hx", "--",
                 "-", "-x", "-4", "stray", "betti", "--bogus"]


def _spelled(pairs):
    """An option and its value as two tokens, or as one joined by '=' unless the value is '--'."""
    return st.tuples(pairs, st.booleans()).map(
        lambda t: ["=".join(t[0])] if t[1] and t[0][1] != "--" else list(t[0]))


@st.composite
def command_lines(draw):
    argv = draw(st.sampled_from([[], ["bogus"], *([name] for name in COMMANDS)]))
    options = COMMANDS[argv[0]][1] if argv and argv[0] in COMMANDS else ()
    if draw(st.booleans()):  # the required options, given well formed
        for name, kind, _, required, _ in options:
            argv += [name, "f.json" if kind is str else "3"] if required else []
    # well formed for the command drawn: a full or shortened name with a value of its kind
    well_formed = []
    for name, kind, _, _, _ in options:
        spelling = st.integers(3, len(name)).map(lambda k, name=name: name[:k])
        if kind is bool:
            well_formed.append(spelling.map(lambda t: [t]))
        else:
            values = (st.sampled_from(kind) if isinstance(kind, tuple)
                      else st.integers(-12, 12).map(str) if kind is int else st.just("g.json"))
            well_formed.append(_spelled(st.tuples(spelling, values)))
    anything = st.one_of(_spelled(st.tuples(st.sampled_from(OPTION_SPELLINGS), VALUES)),
                         st.sampled_from(SINGLE_TOKENS).map(lambda t: [t]))
    pieces = st.one_of(*well_formed, anything) if well_formed else anything
    for piece in draw(st.lists(pieces, max_size=5)):
        argv += piece
    return draw(st.permutations(argv)) if draw(st.integers(0, 4)) == 0 else argv


REFERENCE_PARSER = reference_parser()


class TestParseArgs:
    """parse_args against the argparse parser it replaced."""

    @settings(max_examples=600)
    @given(command_lines())
    @example(["betti", "--ideal", "f.json", "--n", "3", "--char", "2"])
    @example(["verify", "--ideal", "f.json", "--max", "5"])
    @example(["betti", "--ideal", "f.json", "--n", "3", "--multi"])
    @example(["betti", "--ideal", "f.json", "--n=3"])
    @example(["betti", "--ideal", "f.json", "--n", "3", "--parallel", "-4"])
    @example(["betti", "--ideal", "f.json", "--n", "3", "--n", "5", "--format=json"])
    def test_matches_argparse(self, argv):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                expected = vars(REFERENCE_PARSER.parse_args(argv))
        except SystemExit as exc:
            expected = exc.code
        if isinstance(expected, dict):
            assert vars(parse_args(argv)) == expected
            return
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(argv)
        if expected == 0:  # -h or --help
            assert code == EXIT_OK and out.startswith("usage: symbetti") and err.getvalue() == ""
        else:
            assert expected == 2
            assert code == EXIT_INPUT and out == ""
            assert err.getvalue().startswith("error[invalid-input]: ")

    def test_joined_double_dash_is_a_value(self):
        assert parse_args(["segments", "--ideal=--"]).ideal == "--"
        with pytest.raises(ValueError, match="argument --n: invalid int value: '--'"):
            parse_args(["betti", "--ideal", "f.json", "--n=--"])
        with pytest.raises(ValueError, match="argument --format: invalid choice: '--'"):
            parse_args(["betti", "--ideal", "f.json", "--n", "3", "--format=--"])


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

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus", "--ideal", J_FILE],
        ["betti", "--n", "4"],
        ["betti", "--ideal", J_FILE],
        ["verify", "--ideal", J_FILE],
        ["betti", "--ideal", J_FILE, "--n", "x"],
        ["betti", "--ideal", J_FILE, "--n", "4", "--format", "xml"],
        ["betti", "--ideal", J_FILE, "--n", "4", "--bogus"],
        ["betti", "--ideal", J_FILE, "--n", "4", "--max"],
        ["betti", "--ideal", J_FILE, "--n", "4", "stray"],
        ["betti", "--ideal", J_FILE, "--n"],
    ], ids=["no-command", "unknown-command", "missing-ideal", "missing-n", "missing-max-n",
            "int-malformed", "choice-outside", "unknown-option", "prefix-matches-nothing",
            "stray-positional", "value-missing-at-end"])
    def test_usage_errors_are_invalid_input(self, capsys, argv):
        code, out = run(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert out == "" and captured.out == ""
        assert captured.err.startswith("error[invalid-input]: ")

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_names_every_command_and_option(self, command):
        argv = ["--help"] if command is None else [command, "--help"]
        code, out = run(argv)
        assert code == EXIT_OK
        if command is None:
            for name, (summary, _) in COMMANDS.items():
                assert f"  {name}  " in out and summary in out, name
        else:
            summary, options = COMMANDS[command]
            assert summary in out
            for name, _, _, _, text in options:
                assert f"  {name}" in out and text in out, name
        assert "-h, --help" in out
        assert run([*argv[:-1], "-h"]) == (code, out)

    def test_help_goes_to_stdout(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for argv in (["--help"], ["verify", "--he"]):
            proc = subprocess.run([sys.executable, "-m", "symbetti", *argv],
                                  cwd=root, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_OK, argv
            assert proc.stdout.startswith("usage: symbetti") and proc.stderr == "", argv
        assert "largest number of variables to verify" in proc.stdout

    def test_closed_stdout_exits_quietly(self):
        # a reader that stops after one line (`| head -1`); the output is
        # megabytes, far more than the pipe holds
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        argv = ["betti", "--ideal", str(root / "ideals" / "rp2.json"), "--n", "40",
                "--format", "json"]
        proc = subprocess.Popen([sys.executable, "-m", "symbetti", *argv], cwd=root, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            # a traceback would fit in the stderr pipe, so waiting cannot block the child
            assert proc.wait(timeout=120) == EXIT_PIPE
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == b""

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

        real_set, real_terms = cli.betti_set, betti.family_terms
        real_complex = betti.upper_koszul_complex
        tables, terms_calls, complexes, ideals = [], Counter(), Counter(), set()

        def spy_set(ideal, n):
            tables.append((n, ideal.characteristic))
            ideals.add(id(ideal))
            return real_set(ideal, n)

        def spy_terms(sizes, boxes, characteristic):
            terms_calls[(characteristic, tuple(sizes), tuple(boxes))] += 1
            return real_terms(sizes, boxes, characteristic)

        def spy_complex(gens, a):
            complexes[tuple(a)] += 1
            return real_complex(gens, a)

        monkeypatch.setattr(cli, "betti_set", spy_set)
        monkeypatch.setattr(betti, "family_terms", spy_terms)
        monkeypatch.setattr(betti, "upper_koszul_complex", spy_complex)
        monkeypatch.setattr(cli, "upper_koszul_complex", spy_complex)
        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        code, out = run(["verify", "--ideal", path, "--max-n", "4", "--parallel", "1"])
        assert code == EXIT_OK
        assert sorted(tables) == [(1, 0), (2, 0), (2, 2), (3, 0), (4, 0)]
        # one ideal for the file's characteristic, one for characteristic 2
        assert len(ideals) == 2
        ideal = parse_ideal_file(path)
        m = ideal.max_length

        def head(n, p, a):
            # a head, identified by its block sizes and boxes at level n
            sizes, boxes = profile_boxes(restrict_to_n(ideal, n), a[:m])
            return p, tuple(sizes), tuple(boxes)

        cands = [(n, p, a, sum(1 for e in a if e)) for n, p in tables
                 for a in candidate_degrees(ideal, n)]
        # in each table, one ranking per candidate of support below m (its
        # own head, zero padded to m) and one per head of support m; nothing else
        assert terms_calls == Counter(head(n, p, a) for n, p, a, t in cands if t <= m)
        # every longer candidate lies in the family of one of those heads
        assert all(head(n, p, a) in terms_calls for n, p, a, t in cands if t > m)
        # one K^a per candidate at level m = 2, for the reference side only
        assert complexes == Counter(candidate_degrees(ideal, 2))

    @pytest.mark.parametrize("command", [["extrapolate", "--n", "7"], ["segments"],
                                         ["asymptotics"]])
    def test_stable_views_read_one_level_m_table(self, tmp_path, monkeypatch, command):
        import symbetti.cli as cli
        import symbetti.stability as stability

        real, levels = cli.betti_set, []

        def spy_set(ideal, n):
            levels.append(n)
            return real(ideal, n)

        monkeypatch.setattr(cli, "betti_set", spy_set)
        monkeypatch.setattr(stability, "betti_set", spy_set)
        path = write_ideal(tmp_path, {"generators": [[3, 1, 1], [2, 2]]})
        code, _ = run([command[0], "--ideal", path, *command[1:]])
        assert code == EXIT_OK
        # m = 3; extrapolate adds its one direct check at level m + 1
        assert levels == ([3, 4] if command[0] == "extrapolate" else [3])

    def test_verify_profile_mismatch_exit_code(self, tmp_path, monkeypatch):
        import symbetti.betti as betti

        real = betti.family_terms

        def wrong_at_52(sizes, boxes, characteristic):
            # (5, 2) heads its family, with blocks of sizes 1, 1 and the boxes
            # of (5, 1) and (2, 2); one term (i0, e, coef) = (0, 0, 2) gives
            # rank 2 in degree 1 at the head, whose last block is 1
            if (sizes, boxes) == ([1, 1], [(0, 1), (1, 0)]):
                return [(0, 0, 2)]
            return real(sizes, boxes, characteristic)

        path = write_ideal(tmp_path, {"generators": [[5, 1], [2, 2]]})
        monkeypatch.setattr(betti, "family_terms", wrong_at_52)
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

        def drop_51(ideal, n, bs_m):
            return tuple(r for r in real(ideal, n, bs_m) if r.degree.expand() != (5, 1))

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
        monkeypatch.setattr(cli, "segments", lambda ideal: SegmentSet(
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
    for n in (m, m + 1, m + 2, m + 3, 20):
        code, out = run(["extrapolate", "--ideal", path, "--n", str(n), "--parallel", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        records = payload["records"]
        assert len(records) == payload["record_count"]
        composed = [record_payload(r, n) for r in compose_betti(ideal, n, bs(ideal, m))]
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


def test_compare_outputs_covers_every_command(tmp_path):
    # scripts/compare_outputs.py diffs two source trees on its command lines;
    # a command it never runs could change its output unseen
    import importlib.util

    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    lines = module.command_lines(str(tmp_path))
    assert set(COMMANDS) <= {line[0] for line in lines}
