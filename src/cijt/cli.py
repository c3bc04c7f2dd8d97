"""Command-line interface.

Subcommands: iterate, betti, resonance, cijt, verify.  parse_args reads argv
from one table (_COMMANDS) as argparse would, without importing it: each
command's function, positional and options with their types, defaults and
choices.  Datasets are JSON documents (schema version 1):

    {"version": 1,
     "shape": {"d": 2, "n": 1},
     "records": [{"name": "c1", "initial_index": 1, "blocks": [...]}]}

Exit codes: 0 success/verdict pass, 1 verdict fail, 2 hypothesis or input
rejection, 3 search exhaustion, 4 internal error (any other exception).
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .normal_forms import SymplecticClass, block_from_json
from .record import dumps
from .iteration import PathClass, index_iterate, path_nullity
from .engine import (
    NotFoundWithinBound,
    SelectionProblem,
    VertexSpec,
    find_tuple,
    opposite_tuple,
)
from .loop_homology import CohomologyShape, betti, betti_partial_sum, resonance_constant
from .morse import (
    GeodesicDataset,
    GeodesicRecord,
    HypothesisRejected,
    _shown,
    resonance_check,
    verify_theorem_1_1,
    verify_theorem_1_5,
    verify_theorem_1_8,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_REJECT = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_REJECT):
        # one line: a long message loses its middle, where an offending value
        # is shown, and keeps the head that names the place of the fault
        if len(message) > 240:
            message = "%s ... %s" % (message[:170], message[-65:])
        super().__init__(message)
        self.code = code


_STRING_FIELDS = ("name", "type", "kind", "b_sign")
_PAIR_FIELDS = ("a", "b", "rational", "coeff")


def _check_fields(node, where=None, key=None):
    """Every JSON number of a dataset is an integer, true/false appear only in
    options, strings only in string fields and every pair is two integers.

    Python reads 2.5, true, "1" and [1] as values that int(), Fraction() and
    the comparisons downstream would silently round or accept.  where is the
    (parent, key or index) chain down to node, spelled out only on an error.
    """
    if key in _PAIR_FIELDS and not (
        isinstance(node, list) and len(node) == 2 and all(isinstance(v, int) for v in node)
    ):
        raise CliError(
            "invalid dataset: %s is %s, not a pair of integers" % (_place(where), json.dumps(node))
        )
    if isinstance(node, dict):
        for k, value in node.items():
            if k != "options" and (type(value) is not int or k in _PAIR_FIELDS):
                _check_fields(value, (where, k), k)
    elif isinstance(node, list):
        for k, value in enumerate(node):
            if type(value) is not int:  # a plain int passes every check
                _check_fields(value, (where, k))
    elif isinstance(node, (bool, float)):
        raise CliError(
            "invalid dataset: %s is %s, not an integer" % (_place(where), json.dumps(node))
        )
    elif isinstance(node, str) and key not in _STRING_FIELDS:
        raise CliError(
            "invalid dataset: %s is %s; strings belong in %s only"
            % (_place(where), json.dumps(node), ", ".join(_STRING_FIELDS))
        )


def _place(where):
    """dataset.records[0].name of a chain; a key that is no identifier is
    escaped, so no line break splits the error."""
    steps = []
    while where:
        where, step = where
        steps.append("[%d]" % step if type(step) is int else "." + _shown(step))
    return "dataset" + "".join(reversed(steps))


def _objects(node, where):
    """The items of a JSON list that must hold objects only."""
    if not isinstance(node, list):
        raise CliError("invalid dataset: %s is %s, not a list" % (_place(where), json.dumps(node)))
    for k, item in enumerate(node):
        if not isinstance(item, dict):
            raise CliError(
                "invalid dataset: %s is %s, not an object" % (_place((where, k)), json.dumps(item))
            )
    return node


def _string(node, where):
    if not isinstance(node, str):
        raise CliError("invalid dataset: %s is %s, not a string" % (_place(where), json.dumps(node)))
    return node


def _morse_index(node, where):
    index = int(node)
    if index < 0:
        raise CliError("invalid dataset: %s is %d, not a Morse index >= 0" % (_place(where), index))
    return index


def load_dataset(path: str) -> GeodesicDataset:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise CliError("dataset must be a JSON object")
        _check_fields(doc)
    except (OSError, ValueError) as exc:  # bad JSON or UTF-8, a too long integer
        # without the interpreter's advice on its digit limit: none to a dataset's author
        raise CliError("cannot read dataset %s: %s" % (path, str(exc).partition("; use sys.")[0]))
    except RecursionError:
        raise CliError("invalid dataset: %s nests lists or objects too deeply" % path)
    if doc.get("version") != 1:
        raise CliError("unsupported dataset version: %r" % doc.get("version"))
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise CliError(
            "invalid dataset: dataset.options is %s, not an object" % json.dumps(options)
        )
    for key, value in options.items():
        if key != "bumpy":
            raise CliError(
                "invalid dataset: dataset.options has the key %s; bumpy is the only option"
                % json.dumps(key)
            )
        if not isinstance(value, bool):
            raise CliError(
                "invalid dataset: dataset.options.bumpy is %s, not true or false" % json.dumps(value)
            )
    try:
        shape = CohomologyShape(doc["shape"]["d"], doc["shape"]["n"])
        at = (None, "records")
        records = tuple(
            GeodesicRecord(
                _string(r["name"], ((at, i), "name")),
                PathClass(
                    _morse_index(r["initial_index"], ((at, i), "initial_index")),
                    SymplecticClass(tuple(
                        map(block_from_json, _objects(r["blocks"], ((at, i), "blocks")))
                    )),
                ),
            )
            for i, r in enumerate(_objects(doc["records"], at))
        )
        return GeodesicDataset(shape, records, options.get("bumpy", True))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError("invalid dataset: %s" % exc)


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise CliError("not a rational number: %r" % s)


def _parse_vertex(spec: str, dataset: GeodesicDataset):
    """'auto', 'opposite', or 'bits:<chi bits><angle bits>' in record order."""
    if spec in ("auto", "opposite"):
        return spec
    if not spec.startswith("bits:"):
        raise CliError("--vertex must be auto, opposite, or bits:<01...>")
    bits = spec[5:]
    if not set(bits) <= {"0", "1"}:
        raise CliError("vertex bits must be 0/1")
    q = len(dataset.records)
    counts = [len(r.path.bit_angles) for r in dataset.records]
    if len(bits) != q + sum(counts):
        raise CliError(
            "vertex needs %d bits (%d chi + %d angle)" % (q + sum(counts), q, sum(counts))
        )
    chi = tuple(int(b) for b in bits[:q])
    rest = bits[q:]
    angle_bits = []
    pos = 0
    for c in counts:
        angle_bits.append(tuple(int(b) for b in rest[pos : pos + c]))
        pos += c
    return VertexSpec(chi, tuple(angle_bits))


def _emit(doc, fmt: str = "json", tsv_rows=(), tsv_header=()):
    """Print doc as JSON, or, with fmt "tsv", the header and rows of its table."""
    try:
        if fmt == "tsv":
            print("\t".join(tsv_header))
            for row in tsv_rows:
                print("\t".join(str(x) for x in row))
        else:
            print(dumps(doc))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): what is still buffered, and
        # the flush at shutdown, go to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_iterate(args) -> int:
    ds = load_dataset(args.dataset)
    match = [r for r in ds.records if r.name == args.record]
    if not match:
        raise CliError("unknown record: %r" % args.record)
    if args.m_max < 0:
        raise CliError("--m-max must be >= 0, got %d" % args.m_max)
    path = match[0].path
    rows = [
        (m, index_iterate(path, m), path_nullity(path, m))
        for m in range(1, args.m_max + 1)
    ]
    _emit(
        {"record": args.record, "rows": [list(r) for r in rows]},
        args.format,
        tsv_rows=rows,
        tsv_header=("m", "index", "nullity"),
    )
    return EXIT_PASS


def cmd_betti(args) -> int:
    if args.l_max < 0:
        raise CliError("--l-max must be >= 0, got %d" % args.l_max)
    shape = CohomologyShape(args.d, args.n)
    lo = (shape.d - 1) if shape.d % 2 else (shape.dim - 1)
    rows = []
    running = 0
    for p in range(args.l_max + 1):
        b = betti(shape, p)
        running += b
        closed = ""
        if p >= lo:
            closed, direct = betti_partial_sum(shape, p)
            if direct != running:
                raise AssertionError("partial-sum drift at p=%d" % p)
        rows.append((p, b, running, closed))
    _emit(
        {
            "shape": {"d": shape.d, "n": shape.n},
            "resonance_constant": str(resonance_constant(shape)),
            "rows": [list(r) for r in rows],
        },
        args.format,
        tsv_rows=rows,
        tsv_header=("p", "b_p", "partial_direct", "partial_closed"),
    )
    return EXIT_PASS


def cmd_resonance(args) -> int:
    ds = load_dataset(args.dataset)
    report = resonance_check(ds)
    _emit(report.to_json())
    return EXIT_PASS if report.passes else EXIT_FAIL


def cmd_cijt(args) -> int:
    ds = load_dataset(args.dataset)
    problem = SelectionProblem(
        ds.paths,
        delta=_parse_fraction(args.delta),
        m_bar=args.m_bar,
        N_bound=args.n_bound,
        N_multiple_of=args.n_multiple,
    )
    vertex = _parse_vertex(args.vertex, ds)
    if vertex == "auto":
        t = find_tuple(problem)
    elif vertex == "opposite":
        t = opposite_tuple(find_tuple(problem), problem)
    else:
        t = find_tuple(problem, vertex=vertex)
    doc = t.to_json()
    doc["delta_shrunk"] = problem.delta_shrunk
    doc["records"] = [r.name for r in ds.records]
    _emit(doc)
    return EXIT_PASS if t.report is not None and t.report.ok else EXIT_FAIL


def cmd_verify(args) -> int:
    ds = load_dataset(args.dataset)
    pipeline = {
        "1.1": verify_theorem_1_1,
        "1.5": verify_theorem_1_5,
        "1.8": verify_theorem_1_8,
    }[args.theorem]
    delta = _parse_fraction(args.delta) if args.delta else None
    verdict = pipeline(ds, delta=delta, n_bound=args.n_bound)
    _emit(verdict.to_json())
    return EXIT_PASS if verdict.passed else EXIT_FAIL


_REQUIRED = object()  # the default of an option that must be given
_HELP = ("help", None, None, None, "show this help message and exit")
_HELP_FLAGS = {"-h": _HELP, "--help": _HELP}
_FORMAT = ("format", str, "json", ("json", "tsv"), None)
_N_BOUND = ("n_bound", int, 10**8, None, None)

# The command line: each command's function, help line, positional (or None)
# and options, flag -> (dest, type, default, choices, help), in usage order.
_COMMANDS = {
    "iterate": (cmd_iterate, "index/nullity table of one record", "dataset", {
        "--format": _FORMAT,
        "--record": ("record", str, _REQUIRED, None, None),
        "--m-max": ("m_max", int, 10, None, None),
    }),
    "betti": (cmd_betti, "free-loop-space Betti numbers", None, {
        "--format": _FORMAT,
        "--d": ("d", int, _REQUIRED, None, None),
        "--n": ("n", int, _REQUIRED, None, None),
        "--l-max": ("l_max", int, 50, None, None),
    }),
    "resonance": (cmd_resonance, "check the resonance identity", "dataset", {}),
    "cijt": (cmd_cijt, "search and certify an index-jump tuple", "dataset", {
        "--delta": ("delta", str, "1/200", None, None),
        "--n-bound": _N_BOUND,
        "--n-multiple": ("n_multiple", int, 1, None, None),
        "--m-bar": ("m_bar", int, 1, None, None),
        "--vertex": ("vertex", str, "auto", None, "auto, opposite, or bits:<chi bits><angle bits>"),
    }),
    "verify": (cmd_verify, "run a theorem pipeline", "dataset", {
        "--theorem": ("theorem", str, _REQUIRED, ("1.1", "1.5", "1.8"), None),
        "--delta": ("delta", str, None, None, None),
        "--n-bound": _N_BOUND,
    }),
}
_FLAGS = {name: {**_HELP_FLAGS, **row[3]} for name, row in _COMMANDS.items()}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match  # a value, not a flag


def _fail(prog, message):
    """Exit 2 with one line, as every other rejection does."""
    message = "\\n".join(message.splitlines())  # a raw argument may hold a line break
    sys.stderr.write("error: %s: %s\n" % (prog, message))
    sys.exit(EXIT_REJECT)


def _choose(prog, argument, value, choices):
    if value not in choices:
        _fail(prog, "argument %s: invalid choice: %r (choose from %s)"
              % (argument, value, ", ".join(map(repr, choices))))


def _option(token, flags, prog):
    """One token as argparse read it: None for a value, else (row, flag,
    text), row None for an unknown flag and text the value glued to the flag
    (after "=" or a one-letter flag) or None.  A unique prefix of a long flag
    names it."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return flags[token], token, None
    flag, eq, text = token.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, text
    if token[1] == "-":
        hits = [(f, text if eq else None) for f in flags if f.startswith(flag)]
    else:
        hits = [(f, token[2:]) for f in flags if f == token[:2]]
    if len(hits) > 1:
        _fail(prog, "ambiguous option: %s could match %s" % (token, ", ".join(f for f, _ in hits)))
    if hits:
        flag, text = hits[0]
        return flags[flag], flag, text
    return None if _NEGATIVE_NUMBER(token) or " " in token else (None, token, None)


def _help(prog, flag, glued, name):
    """Print the help of cijt (name None) or of one command and exit 0; -hh
    is -h twice, and other text glued to the flag is refused."""
    if glued is not None:
        rest = glued.lstrip("h") if flag == "-h" else glued
        if rest or not glued:
            _fail(prog, "argument -h/--help: ignored explicit argument %r" % rest)
    if name is None:
        usage = "[-h] {%s} ..." % ",".join(_COMMANDS)
        rows = [(c, row[1]) for c, row in _COMMANDS.items()]
    else:
        _, _, positional, options = _COMMANDS[name]
        usage, rows = "[-h]", [(positional, "dataset JSON file")] if positional else []
        for f, (dest, _, default, choices, about) in options.items():
            shown = "%s %s" % (f, "{%s}" % ",".join(choices) if choices else dest.upper())
            usage += " " + (shown if default is _REQUIRED else "[%s]" % shown)
            rows.append((shown, about or ""))
        usage += " " + positional if positional else ""
    rows.append(("-h, --help", _HELP[4]))
    sys.stdout.write("usage: %s %s\n\n" % (prog, usage)
                     + "".join(("  %-20s  %s" % row).rstrip() + "\n" for row in rows))
    sys.exit(EXIT_PASS)


def parse_args(argv):
    """The fields of argv, read as argparse read them: flags, unique prefixes
    and --flag=value in any order, values only after "--", the last of a
    repeated flag kept; a bad argv exits 2 with one line."""
    argv, extras, i = list(argv), [], 0
    while i < len(argv) and argv[i] != "--":  # flags before the command
        got = _option(argv[i], _HELP_FLAGS, "cijt")
        if got is None:
            break
        if got[0]:
            _help("cijt", got[1], got[2], None)
        extras.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        _fail("cijt", "the following arguments are required: command")
    _choose("cijt", "command", argv[i], _COMMANDS)
    name, tokens = argv[i], argv[i + 1:]
    func, _, pending, options = _COMMANDS[name]
    prog, n = "cijt " + name, len(tokens)
    # every token is read before any value, so an ambiguous flag anywhere
    # fails first; after the first "--", every token is a value.  kinds[n],
    # one past the last token, is "--" or None: no value for a flag there
    cut = tokens.index("--") if "--" in tokens else n
    kinds = [_option(t, _FLAGS[name], prog) for t in tokens[:cut]]
    kinds += ["--"] + [None] * (n - cut)
    fields, i = {row[0]: row[2] for row in options.values()}, 0
    while i < n:
        kind = kinds[i]
        if kind is None and pending:  # the positional, with a "--" right after it
            fields[pending], pending = tokens[i], None
            i += kinds[i + 1] == "--"
        elif kind == "--" and pending and i + 1 < n:
            pass  # a "--" right before the positional goes with it
        elif kind is None or kind == "--" or kind[0] is None:  # unrecognized
            extras.append(tokens[i])
        else:
            row, flag, text = kind
            if row is _HELP:
                _help(prog, flag, text, name)
            if text is None:
                i += 1
                if kinds[i] is not None:
                    _fail(prog, "argument %s: expected one argument" % flag)
                text = tokens[i]
            dest, typ, _, choices, _ = row
            try:
                fields[dest] = value = typ(text)
            except ValueError:
                _fail(prog, "argument %s: invalid %s value: %r" % (flag, typ.__name__, text))
            if choices:
                _choose(prog, flag, value, choices)
        i += 1
    missing = [pending] if pending else []
    missing += [f for f, row in options.items() if fields[row[0]] is _REQUIRED]
    if missing:
        _fail(prog, "the following arguments are required: %s" % ", ".join(missing))
    if extras:
        _fail("cijt", "unrecognized arguments: %s" % " ".join(extras))
    return SimpleNamespace(command=name, func=func, **fields)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except HypothesisRejected as exc:
        print("hypothesis rejected: %s" % exc, file=sys.stderr)
        return EXIT_REJECT
    except NotFoundWithinBound as exc:
        print("search exhausted: %s" % exc, file=sys.stderr)
        return EXIT_EXHAUSTED
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_REJECT
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a fault of cijt's own: one line, not exit 1 (fail)
        message = "\\n".join(str(exc).splitlines())
        print("internal error: %s: %s" % (type(exc).__name__, message), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
