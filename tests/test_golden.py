"""CLI output on the four fixture ideals, pinned by SHA-256 digest.

Each command runs in-process through `main(..., out=StringIO())`; its exit
code and the digest of everything it printed to `out` must match
`golden_cli.json`.  Re-record after an intended output change with
`PYTHONPATH=src python tests/test_golden.py --record`.
"""

import hashlib
import io
import json
import pathlib
import sys

import pytest

from symbetti.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
FIXTURES = ("J", "tree4", "permutohedron4", "rp2")
COMMANDS = (
    ("betti", "--format", "json", "--n", "6", "--characteristic", "0"),
    ("betti", "--format", "json", "--n", "6", "--characteristic", "2"),
    ("betti", "--format", "json", "--n", "6", "--characteristic", "3"),
    ("betti", "--format", "json", "--n", "12", "--characteristic", "0"),
    ("betti", "--format", "json", "--n", "40"),
    ("segments", "--format", "json"),
    ("asymptotics",),
    ("asymptotics", "--format", "json"),
    ("extrapolate", "--n", "20"),
    ("verify", "--max-n", "4"),
)


def case_key(fixture: str, command) -> str:
    return " ".join((fixture, *command))


def run_case(fixture: str, command) -> dict:
    argv = [command[0], "--ideal", str(ROOT / "ideals" / f"{fixture}.json"),
            *command[1:], "--parallel", "1"]
    out = io.StringIO()
    code = main(argv, out=out)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


CASES = [(f, c) for f in FIXTURES for c in COMMANDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fixture,command", CASES, ids=[case_key(f, c) for f, c in CASES])
def test_cli_output_matches_golden(golden, fixture, command):
    assert run_case(fixture, command) == golden[case_key(fixture, command)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    GOLDEN.write_text(json.dumps(
        {case_key(f, c): run_case(f, c) for f, c in CASES}, indent=1, sort_keys=True) + "\n")
