"""Command line surface: rendered tables, JSON output, verification.

The single structured format is JSON, both for ideal descriptions and for
outputs; the human-facing rendering is a plain grid whose row j, column i cell
holds the total Betti number of internal degree i + j.

``COMMANDS`` is the one place the command line is declared: each command's
options, their types, defaults and help.  ``parse_args`` reads a command line
against it and ``-h``/``--help`` is generated from it.
"""

from __future__ import annotations

import os
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
    lower_records,
    pad_record,
    rank_stability_report,
    record_count,
    record_payload,
    segment_set_payload,
    segments,
)
from .taylor import (
    GENERATOR_CAP,
    GeneratorCapError,
    count_dividing_generators,
    dividing_generators,
    taylor_strand_tor,
)
# not called here, but perfbench/tracer.py wraps symbetti.cli.expand_generators
from .taylor import expand_generators  # noqa: F401

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_CAP = 3
EXIT_PIPE = 141  # what a shell reports for a program stopped by SIGPIPE (128 + 13)


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


_PLAIN_INTS = {int}


def format_json(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    ``json.dumps`` leaves its C encoder whenever ``indent`` is set, so every
    value of a large record listing went through the pure-Python one.  Here
    strings come from the C ``encode_basestring_ascii``, and a list of plain
    ints is one join (bool is excluded by the exact type test: its JSON is
    ``true``/``false``).  Takes what the commands emit: dict with str keys,
    list, tuple, str, int, bool and None, by exact type; any other value,
    float and subclasses included, raises TypeError.  ``indent`` is the
    newline and indentation that precede the value's closing bracket.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == _PLAIN_INTS:
            body = ("," + inner).join(map(int.__repr__, value))
        else:
            body = ("," + inner).join([format_json(v, inner) for v in value])
        return "[" + inner + body + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        # sorted before the keys are encoded, as json does: a non-str key
        # raises TypeError in the sort or in encode_basestring_ascii
        body = ("," + inner).join([
            encode_basestring_ascii(k) + ": "
            + (int.__repr__(v) if type(v) is int else format_json(v, inner))
            for k, v in sorted(value.items())])
        return "{" + inner + body + indent + "}"
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _print_json(payload, out):
    print(format_json(payload), file=out)


def _cmd_betti(ideal: SymmetricIdeal, args, out) -> int:
    bs = betti_set(ideal, args.n)
    table = graded_table(bs)
    if args.multigraded or args.format == "json":
        payload = betti_set_payload(bs)
        payload["table"] = table_payload(table)
        # the records positive in every coordinate, already built and sorted
        payload["full_support"] = [entry for entry in payload["records"]
                                   if entry["degree_rle"] and entry["degree_rle"][-1][0] >= 1]
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
    bs_m = betti_set(ideal, m)
    report = rank_stability_report(ideal, bs_m)
    if not report.passed:
        raise ConsistencyError("composed positions disagree with direct computation",
                               report.counterexamples)
    top_records = sorted(bs_m.F())
    total = record_count(bs_m, args.n)
    payload = {
        "n": args.n,
        "m": m,
        "record_count": total,
        "f_records": [record_payload(r, args.n)
                      for r in extrapolate_full_support(top_records, args.n, m)],
        "families": [
            {
                "i_start": r.i,
                "prefix": list(r.degree[:-1]),
                "repeated_value": r.degree[-1],
                "repeat_min": 1,
                "repeat_max": 1 + args.n - m,
                "rank": r.rank,
            }
            for r in top_records
        ],
        "padded_records": [record_payload(pad_record(r, args.n), args.n)
                           for r in lower_records(bs_m)],
    }
    try:
        payload["records"] = [record_payload(r, args.n)
                              for r in compose_betti(ideal, args.n, bs_m)]
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
    seg = segments(ideal)
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
    profile = asymptotics(ideal, seg=segments(ideal))
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
            # a new ideal re-runs the antichain check: build one per other characteristic
            ideal_p = ideal if p == ideal.characteristic else SymmetricIdeal(ideal.generators, p, ideal.name)
            cache[key] = betti_set(ideal_p, n)
        return cache[key]

    # one walk over the levels: every candidate against the oracle, and at
    # level min(max-n, m) against the reduced homology of K^a too
    level0 = min(top, m)
    gens_level0 = restrict_to_n(ideal, level0)
    bad_complexes, oracle_bad = [], []
    oracle_skipped = 0
    for n in range(1, min(top, m + 1) + 1):
        ranks: dict[tuple[int, ...], dict[int, int]] = {}
        for r in bs(n).sorted_records():
            ranks.setdefault(r.degree, {})[r.i] = r.rank
        for a in candidate_degrees(ideal, n):
            direct = ranks.get(a, {})
            if n == level0:
                reference = bitmask_betti_dims(gens_level0, ideal.characteristic, a)
                if direct != reference:
                    bad_complexes.append(
                        f"block-profile ranks {direct} vs complex ranks {reference} at degree {a}")
            if count_dividing_generators(ideal, a) > GENERATOR_CAP:
                oracle_skipped += 1  # refused before its divisors are listed
                continue
            try:
                strand = taylor_strand_tor(dividing_generators(ideal, a), a, ideal.characteristic)
            except GeneratorCapError:
                oracle_skipped += 1
                continue
            if strand != direct:
                oracle_bad.append(f"level {n}, degree {a}: strands {strand} vs homology {direct}")
    report(f"homology consistency at level {level0}", not bad_complexes, bad_complexes)
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
        comp = check_stable_composition(ideal, n, bs(m), bs(n))
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


# Each command maps to its help line and its options.  An option is
# (name, kind, default, required, help), where kind is int, str, a tuple of
# choices, or bool for a flag that stores True.  Its dest is the name without
# the leading dashes, "-" read as "_".
_IDEAL = ("--ideal", str, None, True, "path to a JSON ideal description")
_N = ("--n", int, None, True, "number of variables")
_PARALLEL = ("--parallel", int, 1, False,
             "accepted for compatibility and ignored: every command "
             "runs in one process (K < 1 is still invalid input)")
_CHARACTERISTIC = ("--characteristic", int, None, False,
                   "override the characteristic from the ideal file")
_FORMAT = ("--format", ("text", "json"), "text", False, "output format")
COMMANDS = {
    "betti": ("graded Betti table, or full record listing", (
        _IDEAL, _N, _PARALLEL, _CHARACTERISTIC,
        ("--multigraded", bool, False, False, "emit the full record listing as JSON"),
        _FORMAT)),
    "extrapolate": ("compact level-N positions from one finite computation", (
        _IDEAL, _N, _PARALLEL, _CHARACTERISTIC)),
    "segments": ("base positions and segment starts of the stable tables", (
        _IDEAL, _PARALLEL, _CHARACTERISTIC, _FORMAT)),
    "asymptotics": ("closed-form pd and regularity of the family", (
        _IDEAL, _PARALLEL, _CHARACTERISTIC, _FORMAT)),
    "verify": ("run the internal consistency suite", (
        _IDEAL, _PARALLEL, _CHARACTERISTIC,
        ("--max-n", int, None, True, "largest number of variables to verify"))),
}
_HELP_NAMES = ("-h", "--help")


class HelpRequested(Exception):
    """Raised by ``parse_args`` for -h/--help; the message is the help text."""


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _metavar(name: str, kind) -> str:
    if kind is bool:
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {_dest(name).upper()}"


def _help_text(command: str | None) -> str:
    if command is None:
        usage = f"symbetti [-h] {{{','.join(COMMANDS)}}} ..."
        summary = "Exact Betti tables of symmetric monomial ideals and their stable shape."
        sections = {
            "commands (symbetti COMMAND --help for its options)":
                [(name, line) for name, (line, _) in COMMANDS.items()],
            "options": [],
        }
    else:
        summary, options = COMMANDS[command]
        usage = f"symbetti {command} [-h] " + " ".join(
            _metavar(name, kind) if required else f"[{_metavar(name, kind)}]"
            for name, kind, _, required, _ in options)
        sections = {"options": [(_metavar(name, kind), text)
                                for name, kind, _, _, text in options]}
    sections["options"].append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for entries in sections.values() for left, _ in entries) + 2
    lines = [f"usage: {usage}", "", summary]
    for heading, entries in sections.items():
        lines += ["", f"{heading}:"] + [f"  {left.ljust(width)}{text}" for left, text in entries]
    return "\n".join(lines)


def _option(token: str, names) -> tuple[str | None, str | None]:
    """The option a token names, exactly or by a unique prefix, and its attached value.

    ``--name=value`` and ``-hvalue`` attach a value; a long prefix such as
    ``--char`` names the one option it starts.  (None, None) when the token
    names no option of ``names``.
    """
    name, eq, attached = token.partition("=")
    value = attached if eq else None
    if name in names:
        return name, value
    if name.startswith("--"):
        hits = [option for option in names if option.startswith(name)]
        if len(hits) > 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(hits)}")
        if hits:
            return hits[0], value
    elif token[:2] in names:
        return token[:2], token[2:]
    return None, None


def _is_value(token: str, names) -> bool:
    """Whether a token is a value rather than an option of ``names`` or an unknown one.

    As in argparse, a negative number, a lone "-" and a token with a space
    in it are values unless they name an option.
    """
    if token == "--" or _option(token, names)[0] is not None:
        return False
    return (not token.startswith("-") or token == "-" or " " in token
            or re.match(r"^-\d+$|^-\d*\.\d+$", token) is not None)


def parse_args(argv) -> SimpleNamespace:
    """Read a command line against ``COMMANDS``.

    Accepts ``--opt value``, ``--opt=value`` and any unique prefix of an
    option's name; a repeated option keeps its last value, and a negative
    number is a value.  Raises ``HelpRequested`` for -h/--help, and
    ``ValueError`` for a malformed command line: no or an unknown command, a
    missing required option or value, a value of the wrong type or outside
    the choices, a value given to a flag, an unknown option or a stray token.
    """
    argv = list(argv)
    unknown = []  # reported last, so that a later -h still prints help, as in argparse
    command = None
    while argv:
        token = argv.pop(0)
        if token == "--" or _is_value(token, _HELP_NAMES):
            if token not in COMMANDS:
                raise ValueError(f"invalid command {token!r} (choose from {', '.join(COMMANDS)})")
            command = token
            break
        name, value = _option(token, _HELP_NAMES)
        if name is None:
            unknown.append(token)
        elif value is not None:
            raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
        else:
            raise HelpRequested(_help_text(None))
    if command is None:
        raise ValueError("a command is required (choose from " + ", ".join(COMMANDS) + ")")
    spec = COMMANDS[command][1]
    options = {name: kind for name, kind, _, _, _ in spec}
    options.update(dict.fromkeys(_HELP_NAMES, bool))
    args = SimpleNamespace(command=command)
    for name, _, default, _, _ in spec:
        setattr(args, _dest(name), default)
    while argv:
        token = argv.pop(0)
        if token == "--":  # what follows is positional, and no command takes any
            unknown += [token, *argv]
            break
        name, value = _option(token, options) if token.startswith("-") else (None, None)
        if name is None:
            unknown.append(token)
            continue
        kind = options[name]
        if kind is bool:
            if value is not None:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            if name in _HELP_NAMES:
                raise HelpRequested(_help_text(command))
            setattr(args, _dest(name), True)
            continue
        if value is None:
            if not argv or not _is_value(argv[0], options):
                raise ValueError(f"argument {name}: expected one argument")
            value = argv.pop(0)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"argument {name}: invalid int value: {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"argument {name}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        setattr(args, _dest(name), value)
    # a required option has no default, and every value read is not None
    missing = [name for name, _, _, required, _ in spec
               if required and getattr(args, _dest(name)) is None]
    if missing:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    if unknown:
        raise ValueError("unrecognized arguments: " + " ".join(unknown))
    return args


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        ideal = parse_ideal_file(args.ideal, warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
        if args.characteristic is not None:
            ideal = SymmetricIdeal(ideal.generators, args.characteristic, ideal.name)
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
    except HelpRequested as exc:
        print(exc, file=out)
        return EXIT_OK
    except (ZeroIdealError, ValueError) as exc:
        print(f"error[invalid-input]: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output (`| head`): stop quietly.  Point
        # stdout at devnull so that the flush at interpreter exit does not
        # raise again (the note on SIGPIPE in Python's signal module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
