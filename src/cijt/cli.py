"""Command-line interface.

Subcommands: iterate, betti, resonance, cijt, verify, the rows of _COMMANDS.
A command imports morse or loop_homology in its body, so that a process with
no bytecode cache compiles a theorem pipeline only when it runs one.
Datasets are JSON documents (schema version 1):

    {"version": 1,
     "shape": {"d": 2, "n": 1},
     "records": [{"name": "c1", "initial_index": 1, "blocks": [...]}]}

A command returns its document; main alone prints it, or one line of stderr.
Exit codes: 0 success/verdict pass, 1 verdict fail ("pass": false), 2 hypothesis
or input rejection, 3 search exhaustion, 4 internal error (any other exception).
"""

from __future__ import annotations

import _json
import os
import sys
from types import SimpleNamespace

from .normal_forms import SymplecticClass, block_from_json, nullity
from .scalars import Exact
from .record import dumps, fields, integer, item, listed, refuse
from .iteration import (
    CohomologyShape,
    GeodesicDataset,
    GeodesicRecord,
    HypothesisRejected,
    PathClass,
    index_iterate,
)
from .engine import (
    NotFoundWithinBound,
    SelectionProblem,
    VertexSpec,
    find_tuple,
    opposite_tuple,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_REJECT = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4


def _one_line(message: str) -> str:
    """message as one line: a line break is escaped (a path may hold one), and
    past 240 characters it loses its middle, where an offending value is
    shown, and keeps the head that names the place of the fault."""
    message = "\\n".join(message.splitlines())
    return message if len(message) <= 240 else "%s ... %s" % (message[:170], message[-65:])


def _fail(head: str, error, code: int = EXIT_REJECT) -> int:
    """Write head, then error under the one-line rule, as one stderr line (cijt
    writes none elsewhere); return code."""
    sys.stderr.write("%s%s\n" % (head, _one_line(str(error))))
    return code


class CliError(Exception):
    """A rejected input: exit 2, its message already one line."""

    def __init__(self, message):
        super().__init__(_one_line(message))


def _record(node, where: str) -> GeodesicRecord:
    name, index, blocks = fields(node, where, ("name", "initial_index", "blocks"))
    if type(name) is not str:
        raise refuse(where + ".name", name, "not a string")
    if integer(index, where + ".initial_index") < 0:
        raise refuse(where + ".initial_index", index, "not a Morse index >= 0")
    blocks = SymplecticClass(tuple(listed(blocks, where + ".blocks", block_from_json)))
    return GeodesicRecord(name, PathClass(index, blocks))


# the C scanner that json.loads runs, with its default hooks: a document cijt
# accepts is read without importing json, which compiles regular expressions
_scan = _json.make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None, parse_float=float, parse_int=int,
    parse_constant={c: float(c) for c in ("NaN", "Infinity", "-Infinity")}.__getitem__,
))


def _loads(text: str):
    """json.loads(text): the same value, or the same exception, which json.loads
    raises for any text the scanner does not read whole or raises on (on 3.10
    and 3.11 a SystemError on a syntax error until json.decoder is imported)."""
    try:
        doc, end = _scan(text, len(text) - len(text.lstrip(" \t\n\r")))
        if end == len(text.rstrip(" \t\n\r")):
            return doc
    except Exception:
        pass
    import json

    return json.loads(text)


def load_dataset(path: str) -> GeodesicDataset:
    """The dataset of a JSON file, each node checked where it is read."""
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = _loads(fh.read())
        except (OSError, ValueError) as exc:  # bad JSON or UTF-8, a too long integer
            # without the interpreter's advice on its digit limit: none to a dataset's author
            raise CliError("cannot read dataset %s: %s" % (path, str(exc).partition("; use sys.")[0]))
        if type(doc) is not dict:
            raise CliError("dataset must be a JSON object")
        if item(doc, "dataset", "version") != 1 or type(doc["version"]) is not int:
            raise refuse("dataset.version", doc["version"], "not 1, the only supported version")
        _, shape, records, options = fields(
            {"options": {}, **doc}, "dataset", ("version", "shape", "records", "options")
        )
        d, n = fields(shape, "dataset.shape", ("d", "n"))
        d, n = integer(d, "dataset.shape.d"), integer(n, "dataset.shape.n")
        try:
            shape = CohomologyShape(d, n)
        except ValueError as exc:
            raise ValueError("dataset.shape: %s" % exc)
        (bumpy,) = fields(options, "dataset.options", ("bumpy",)) if options != {} else (True,)
        if type(bumpy) is not bool:
            raise refuse("dataset.options.bumpy", bumpy, "not true or false")
        records = listed(records, "dataset.records", _record)
        return GeodesicDataset(shape, tuple(records), bumpy)
    except ValueError as exc:
        raise CliError("invalid dataset: %s" % exc)
    except RecursionError:  # in the file, or in a refused node shown as JSON
        raise CliError("invalid dataset: %s nests lists or objects too deeply" % path)


def _digits(t: str, signed: bool = False) -> int:
    """int(t) of digits that single underscores may group, signed if asked."""
    body = t[1:] if signed and t[:1] in ("+", "-") else t
    if not (body[:1].isdecimal() and body[-1:].isdecimal()):
        raise ValueError(t)  # int() would take spaces, a sign or "_1" here
    return int(t)


def _parse_fraction(s: str) -> Exact:
    """s as a rational whose integers print, refused as it is read and not
    after a search: the 7 characters 1e-5000 pass the interpreter's digit
    limit.  README gives its grammar, the same on every Python."""
    try:
        t = s.strip()
        num, slash, den = (t[1:] if t[:1] in ("+", "-") else t).partition("/")
        k = 0
        if not slash:  # digits[.digits] or .digits, then an optional e or E exponent
            num, e, exp = num.lower().partition("e")
            k = _digits(exp, signed=True) if e else 0
            if abs(k) > 10**5:  # 10**k: seconds past 10**6
                raise ValueError(s)
            whole, _, frac = num.partition(".")
            k -= len(frac) - frac.count("_")
            num, den = "_".join(filter(None, (whole, frac))), "1"  # 1.5, 1. and .5: 1_5, 1, 5
        x = Exact(_digits(num) * 10**max(k, 0), _digits(den) * 10**max(-k, 0))
        x = -x if t[:1] == "-" else x
        str(x)  # past the digit limit a ValueError
        return x
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
    counts = [sum(1 for e in r.path.spectral[2] if e[1]) for r in dataset.records]
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


# the header of the table that each command with --format prints
_TSV_HEADER = {"iterate": "m\tindex\tnullity", "betti": "p\tb_p\tpartial_direct\tpartial_closed"}


def _emit(doc, args):
    """Print doc as JSON, or, with --format tsv, its table: a header and doc["rows"]."""
    try:
        if getattr(args, "format", "json") == "tsv":
            print(_TSV_HEADER[args.command])
            for row in doc["rows"]:
                print("\t".join(map(str, row)))
        else:
            print(dumps(doc))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): what is still buffered, and
        # the flush at shutdown, go to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_iterate(args) -> dict:
    ds = load_dataset(args.dataset)
    match = [r for r in ds.records if r.name == args.record]
    if not match:
        raise CliError("unknown record: %r" % args.record)
    if args.m_max < 0:
        raise CliError("--m-max must be >= 0, got %d" % args.m_max)
    path = match[0].path
    rows = [[m, index_iterate(path, m), nullity(path.monodromy, m)]
            for m in range(1, args.m_max + 1)]
    return {"record": args.record, "rows": rows}


def cmd_betti(args) -> dict:
    from .loop_homology import betti, betti_partial_sum, resonance_constant

    if args.l_max < 0:
        raise CliError("--l-max must be >= 0, got %d" % args.l_max)
    shape = CohomologyShape(args.d, args.n)
    # partial_direct is the running sum and partial_closed, from lo on,
    # betti_partial_sum's periodic sum: the column names and blanks are the
    # table's format, pinned in the tests
    lo = (shape.d - 1) if shape.d % 2 else (shape.dim - 1)
    rows = []
    running = 0
    for p in range(args.l_max + 1):
        b = betti(shape, p)
        running += b
        partial = ""
        if p >= lo:
            partial = betti_partial_sum(shape, p)
            if partial != running:
                raise AssertionError("partial-sum drift at p=%d" % p)
        rows.append([p, b, running, partial])
    return {
        "shape": {"d": shape.d, "n": shape.n},
        "resonance_constant": str(resonance_constant(shape)),
        "rows": rows,
    }


def cmd_resonance(args) -> dict:
    from .morse import resonance_check

    return resonance_check(load_dataset(args.dataset)).to_json()


def cmd_cijt(args) -> dict:
    ds = load_dataset(args.dataset)
    vertex = _parse_vertex(args.vertex, ds)  # before the problem's delta_0 floors
    problem = SelectionProblem(
        ds.paths,
        delta=_parse_fraction(args.delta),
        m_bar=args.m_bar,
        N_bound=args.n_bound,
        N_multiple_of=args.n_multiple,
    )
    t = find_tuple(problem, vertex=None if isinstance(vertex, str) else vertex)
    if vertex == "opposite":
        t = opposite_tuple(t, problem)
    doc = t.to_json()
    doc["delta_shrunk"] = problem.delta_shrunk
    doc["records"] = [r.name for r in ds.records]
    return doc


def cmd_verify(args) -> dict:
    from .morse import verify

    ds = load_dataset(args.dataset)
    delta = None if args.delta is None else _parse_fraction(args.delta)
    return verify(args.theorem, ds, delta=delta, n_bound=args.n_bound).to_json()


_REQUIRED = object()  # the default of an option that must be given
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


def _value(prog, flag, row, text):
    """text read as the value of flag, or exit 2 with argparse's message."""
    _, typ, _, choices, _ = row
    try:
        value = typ(text)
    except ValueError:
        why = "invalid %s value: %r" % (typ.__name__, text)
    else:
        if not choices or value in choices:
            return value
        why = "invalid choice: %r (choose from %s)" % (value, ", ".join(map(repr, choices)))
    sys.exit(_fail("error: %s: " % prog, "argument %s: %s" % (flag, why)))


def _argparse(argv):
    """argv as argparse reads it, in a tree built from _COMMANDS."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            sys.exit(_fail("error: %s: " % self.prog, message))

    parser = Parser(prog="cijt")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, about, positional, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        if positional:
            p.add_argument(positional, help="dataset JSON file")
        for flag, (dest, typ, default, choices, about) in options.items():
            p.add_argument(flag, dest=dest, type=typ, default=default, choices=choices,
                           required=default is _REQUIRED, help=about)
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    # argparse reads --flag=-- as []; the value is "--", as in the table form
    for flag, row in _COMMANDS[args.command][3].items():
        if getattr(args, row[0]) == []:
            setattr(args, row[0], _value("cijt " + args.command, flag, row, "--"))
    return args


def parse_args(argv):
    """The fields of argv; a bad argv exits 2 with one line.  The table form,
    <command> [<dataset>] and then whole flags as --flag value or --flag=value
    with all required ones given, is read here; argparse reads any other."""
    argv = list(argv)
    if not argv or argv[0] not in _COMMANDS:
        return _argparse(argv)
    name, i = argv[0], 1
    func, _, positional, options = _COMMANDS[name]
    fields, pairs = {row[0]: row[2] for row in options.values()}, []
    if positional:
        if len(argv) < 2 or argv[1][:1] == "-":
            return _argparse(argv)
        fields[positional], i = argv[1], 2
    while i < len(argv):
        flag, eq, text = argv[i].partition("=")
        if not eq:
            i += 1
            if flag not in options or i == len(argv) or argv[i][:1] == "-":
                return _argparse(argv)
            text = argv[i]
        elif flag not in options:
            return _argparse(argv)
        pairs.append((flag, text))
        i += 1
    # every token is a whole flag or its value: argparse reads the values
    # left to right, so the first bad one is the one it names
    for flag, text in pairs:
        fields[options[flag][0]] = _value("cijt " + name, flag, options[flag], text)
    if _REQUIRED in fields.values():
        return _argparse(argv)
    return SimpleNamespace(command=name, func=func, **fields)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        doc = args.func(args)
        _emit(doc, args)
    except HypothesisRejected as exc:  # a ValueError, named apart
        return _fail("hypothesis rejected: ", exc)
    except NotFoundWithinBound as exc:
        return _fail("search exhausted: ", exc, EXIT_EXHAUSTED)
    except (CliError, ValueError) as exc:
        return _fail("error: ", exc)
    except AssertionError as exc:
        return _fail("internal error: ", exc, EXIT_INTERNAL)
    except Exception as exc:  # a fault of cijt's own: one line, not exit 1 (fail)
        return _fail("internal error: %s: " % type(exc).__name__, exc, EXIT_INTERNAL)
    return EXIT_FAIL if doc.get("pass") is False else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
