"""Command-line interface.

Subcommands: iterate, betti, resonance, cijt, verify.  Datasets are JSON
documents (schema version 1):

    {"version": 1,
     "shape": {"d": 2, "n": 1},
     "records": [{"name": "c1", "initial_index": 1, "blocks": [...]}]}

Exit codes: 0 success/verdict pass, 1 verdict fail, 2 hypothesis or input
rejection, 3 search exhaustion, 4 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .normal_forms import SymplecticClass, block_from_json
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


_encode_str = json.encoder.encode_basestring_ascii  # the C function json.dumps uses

_STRING_FIELDS = ("name", "type", "kind", "b_sign")
_PAIR_FIELDS = ("a", "b", "rational", "coeff")


def _check_fields(node, where="dataset", key=None):
    """Every JSON number of a dataset is an integer, true/false appear only in
    options, strings only in string fields and every pair is two integers.

    Python reads 2.5, true, "1" and [1] as values that int(), Fraction() and
    the comparisons downstream would silently round or accept.
    """
    if key in _PAIR_FIELDS and not (
        isinstance(node, list) and len(node) == 2 and all(isinstance(v, int) for v in node)
    ):
        raise CliError(
            "invalid dataset: %s is %s, not a pair of integers" % (where, json.dumps(node))
        )
    if isinstance(node, dict):
        for k, value in node.items():
            if k != "options":  # a non-identifier key is escaped: no line break splits the error
                place = "%s.%s" % (where, _shown(k))
                _check_fields(value, place, k)
    elif isinstance(node, list):
        for k, value in enumerate(node):
            _check_fields(value, "%s[%d]" % (where, k))
    elif isinstance(node, (bool, float)):
        raise CliError("invalid dataset: %s is %s, not an integer" % (where, json.dumps(node)))
    elif isinstance(node, str) and key not in _STRING_FIELDS:
        raise CliError(
            "invalid dataset: %s is %s; strings belong in %s only"
            % (where, json.dumps(node), ", ".join(_STRING_FIELDS))
        )


def _objects(node, where):
    """The items of a JSON list that must hold objects only."""
    if not isinstance(node, list):
        raise CliError("invalid dataset: %s is %s, not a list" % (where, json.dumps(node)))
    for k, item in enumerate(node):
        if not isinstance(item, dict):
            raise CliError(
                "invalid dataset: %s[%d] is %s, not an object" % (where, k, json.dumps(item))
            )
    return node


def _string(node, where):
    if not isinstance(node, str):
        raise CliError("invalid dataset: %s is %s, not a string" % (where, json.dumps(node)))
    return node


def _morse_index(node, where):
    index = int(node)
    if index < 0:
        raise CliError("invalid dataset: %s is %d, not a Morse index >= 0" % (where, index))
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
        records = tuple(
            GeodesicRecord(
                _string(r["name"], "dataset.records[%d].name" % i),
                PathClass(
                    _morse_index(r["initial_index"], "dataset.records[%d].initial_index" % i),
                    SymplecticClass(tuple(
                        block_from_json(b)
                        for b in _objects(r["blocks"], "dataset.records[%d].blocks" % i)
                    )),
                ),
            )
            for i, r in enumerate(_objects(doc["records"], "dataset.records"))
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


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte, without its
    pure-Python indenting encoder; a float or a non-str key raises TypeError."""
    out = []
    _write(doc, "\n", out.append, {})
    return "".join(out)


# the JSON of a str, int, bool or None, by exact type, so bool never takes the
# int branch; a subclass of str or int goes through _write's isinstance tests
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda x: "null",
}


def _write(x, pad, append, shapes):
    """Append the JSON of x; pad is the newline and indent of the line x starts
    on, and shapes maps each dict shape (keys in insertion order, pad) met in
    this call to its sorted keys and their lead texts.  (A closure would hold
    itself in a cycle and outlive the call.)"""
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            append("{}")
            return
        shape = (tuple(x), pad)
        leads = shapes.get(shape)
        if leads is None:  # _encode_str refuses a key that is not a str
            leads = shapes[shape] = [
                (key, ("," if i else "{") + inner + _encode_str(key) + ": ")
                for i, key in enumerate(sorted(x))
            ]
        for key, lead in leads:
            value = x[key]
            write = _LEAVES.get(type(value))
            if write is not None:
                append(lead + write(value))
            else:
                append(lead)
                _write(value, inner, append, shapes)
        append(pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            append("[]")
            return
        lead = "[" + inner
        for value in x:
            write = _LEAVES.get(type(value))
            if write is not None:
                append(lead + write(value))
            else:
                append(lead)
                _write(value, inner, append, shapes)
            lead = "," + inner
        append(pad + "]")
    elif isinstance(x, str):
        append(_encode_str(x))
    elif x is None or isinstance(x, bool):
        append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        append(int.__repr__(x))
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


def _emit(doc, fmt: str = "json", tsv_rows=(), tsv_header=()):
    """Print doc as JSON, or, with fmt "tsv", the header and rows of its table."""
    try:
        if fmt == "tsv":
            print("\t".join(tsv_header))
            for row in tsv_rows:
                print("\t".join(str(x) for x in row))
        else:
            print(_dumps(doc))
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


class _Parser(argparse.ArgumentParser):
    """One-line errors, as every other rejection; add_subparsers' parser_class
    builds the subparsers from this class too."""

    def error(self, message):
        message = "\\n".join(message.splitlines())  # a raw argument may hold a line break
        self.exit(EXIT_REJECT, "error: %s: %s\n" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call, then reused: parse_args leaves it unchanged."""
    ap = _Parser(prog="cijt")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", help="index/nullity table of one record")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--record", required=True)
    p.add_argument("--m-max", type=int, default=10)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("betti", help="free-loop-space Betti numbers")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l-max", type=int, default=50)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("resonance", help="check the resonance identity")
    p.add_argument("dataset", help="dataset JSON file")
    p.set_defaults(func=cmd_resonance)

    p = sub.add_parser("cijt", help="search and certify an index-jump tuple")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--delta", default="1/200")
    p.add_argument("--n-bound", type=int, default=10**8)
    p.add_argument("--n-multiple", type=int, default=1)
    p.add_argument("--m-bar", type=int, default=1)
    p.add_argument("--vertex", default="auto",
                   help="auto, opposite, or bits:<chi bits><angle bits>")
    p.set_defaults(func=cmd_cijt)

    p = sub.add_parser("verify", help="run a theorem pipeline")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--theorem", choices=("1.1", "1.5", "1.8"), required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--n-bound", type=int, default=10**8)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
