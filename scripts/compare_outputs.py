#!/usr/bin/env python3
"""Run the same symbetti command lines from two source trees and diff them.

Each command line runs as `python -m symbetti ...` from the repository root,
once with PYTHONPATH set to each tree; its standard output, standard error
and exit code must match byte for byte.  The lines cover the four fixtures:

- `betti --format json` at n = 1..12, 40 and 100, characteristics 0, 2 and 3;
- `betti` as a text table and with `--multigraded`, at n = 5 and 9;
- `verify --max-n 1..6`;
- `segments` and `asymptotics`, as text and as JSON;
- `extrapolate --n` at m - 1 (an error), m, m + 1, m + 3, 20 and 1000000,
  where m is the largest generator length;

five antichains written to a temporary directory: [[3]] (m = 1), [[2, 1]],
[[1, 1, 1]], [[3, 1, 1], [2, 2]] in characteristic 2 and
[[4, 2], [3, 3, 1]] in characteristic 3, each with `betti --format json
--n 6`, `segments --format json`, `asymptotics`, `extrapolate --n m + 2` and
`verify --max-n m + 2`;

the benchmark's own command lines, verbatim: the three `fixtures` lines
(`betti --n 11 --parallel 1` on tree4, `betti --n 9 --parallel 1` on rp2,
`verify --max-n 5` on rp2) and `betti --n 11 --parallel 2 --format json` on
the two antichains in characteristics 2 and 3;

the zero ideal through `betti`, `segments`, `asymptotics`, `extrapolate` and
`verify`;

plus error cases (unknown command, missing file, bad partition, --n 0,
a choice outside the list, the size cap).

Usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC

Prints one line per command line that differs and a summary; exits 1 on
any difference, 2 on a usage error.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
FIXTURES = ("J", "tree4", "permutohedron4", "rp2")
# (generators, characteristic) of the antichains beyond the fixtures
ANTICHAINS = (
    ([[3]], 0),
    ([[2, 1]], 0),
    ([[1, 1, 1]], 0),
    ([[3, 1, 1], [2, 2]], 2),
    ([[4, 2], [3, 3, 1]], 3),
)


def command_lines(scratch: str) -> list[list[str]]:
    lines = []
    for name in FIXTURES:
        ideal = ["--ideal", f"ideals/{name}.json"]
        for n in [*range(1, 13), 40, 100]:
            for p in ("0", "2", "3"):
                lines.append(["betti", *ideal, "--n", str(n), "--format", "json",
                              "--characteristic", p])
        for n in ("5", "9"):
            lines.append(["betti", *ideal, "--n", n])
            lines.append(["betti", *ideal, "--n", n, "--multigraded"])
        for top in range(1, 7):
            lines.append(["verify", *ideal, "--max-n", str(top)])
        for command in ("segments", "asymptotics"):
            lines.append([command, *ideal])
            lines.append([command, *ideal, "--format", "json"])
        with open(os.path.join(ROOT, "ideals", f"{name}.json"), encoding="utf-8") as fh:
            m = max(map(len, json.load(fh)["generators"]))
        for n in (m - 1, m, m + 1, m + 3, 20, 1000000):
            lines.append(["extrapolate", *ideal, "--n", str(n)])
    for k, (generators, characteristic) in enumerate(ANTICHAINS):
        path = os.path.join(scratch, f"antichain{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"generators": generators, "characteristic": characteristic}, fh)
        ideal = ["--ideal", path]
        top = str(max(map(len, generators)) + 2)
        lines += [
            ["betti", *ideal, "--n", "6", "--format", "json"],
            ["segments", *ideal, "--format", "json"],
            ["asymptotics", *ideal],
            ["extrapolate", *ideal, "--n", top],
            ["verify", *ideal, "--max-n", top],
        ]
        if characteristic:  # as the benchmark runs its seed-drawn ideals over F_2 and F_3
            lines.append(["betti", *ideal, "--n", "11", "--parallel", "2", "--format", "json"])
    lines += [
        ["betti", "--ideal", "ideals/tree4.json", "--n", "11", "--parallel", "1"],
        ["betti", "--ideal", "ideals/rp2.json", "--n", "9", "--parallel", "1"],
        ["verify", "--ideal", "ideals/rp2.json", "--max-n", "5"],
    ]
    zero = os.path.join(scratch, "zero.json")
    with open(zero, "w", encoding="utf-8") as fh:
        fh.write('{"generators": []}')
    lines += [
        ["betti", "--ideal", zero, "--n", "3"],
        ["segments", "--ideal", zero],
        ["asymptotics", "--ideal", zero],
        ["extrapolate", "--ideal", zero, "--n", "3"],
        ["verify", "--ideal", zero, "--max-n", "3"],
    ]
    bad = os.path.join(scratch, "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write('{"generators": [[1, 2]]}')
    ones = os.path.join(scratch, "ones.json")
    with open(ones, "w", encoding="utf-8") as fh:
        fh.write('{"generators": [[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]]}')
    lines += [
        ["bogus", "--ideal", "ideals/J.json"],
        ["betti", "--ideal", os.path.join(scratch, "missing.json"), "--n", "2"],
        ["betti", "--ideal", bad, "--n", "2"],
        ["betti", "--ideal", "ideals/J.json", "--n", "0"],
        ["betti", "--ideal", "ideals/J.json", "--n", "4", "--format", "xml"],
        ["verify", "--ideal", ones, "--max-n", "15"],
    ]
    return lines


def run(src: str, argv: list[str]) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "symbetti", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=600)
    return proc.stdout, proc.stderr, proc.returncode


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = (os.path.abspath(src) for src in argv)
    for src in (old, new):
        if not os.path.isfile(os.path.join(src, "symbetti", "cli.py")):
            print(f"{src}: no symbetti package here", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        lines = command_lines(scratch)
        differ = 0
        for line in lines:
            before, after = run(old, line), run(new, line)
            if before != after:
                differ += 1
                parts = [name for name, a, b in zip(("stdout", "stderr", "exit code"),
                                                     before, after) if a != b]
                print(f"DIFFERS ({', '.join(parts)}): {' '.join(line)}")
    print(f"{len(lines) - differ} of {len(lines)} command lines identical "
          "(stdout, stderr, exit code)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
