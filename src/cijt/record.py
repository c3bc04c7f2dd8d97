"""Value records: equality, hash, repr and frozen fields, read from one
per-class ``_fields`` tuple.

Each record class names its compared fields in ``_fields``; one positional
``__init__`` fills them in order (a class's ``_defaults`` fill the last ones
left out), so no code is generated at import and building an instance costs
one dict update.  Two records are equal when they are of the very same class
with equal fields; a verification check is a plain row instead.  ``dumps``
writes the JSON text of their documents, and the getters at the end read the
nodes of a JSON document, each checked where it is read.
"""

from collections import namedtuple
from functools import partial
# encode_basestring_ascii is the C function json.dumps uses
from _json import encode_basestring_ascii as _encode_str


class Record:
    """A mutable record: assignable fields, no hash."""

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # the values of the last fields, when left out

    def __init__(self, *values):
        n, k = len(self._fields), len(self._defaults)
        if not n - k <= len(values) <= n:
            raise TypeError("%s takes %s values, not %d" % (
                type(self).__qualname__, "%d to %d" % (n - k, n) if k else n, len(values)))
        self.__dict__.update(zip(self._fields, values + self._defaults[len(values) - n:]))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ("%s=%r" % (f, self.__dict__[f]) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, ", ".join(shown))


class FrozenRecord(Record):
    """A record whose fields are fixed once ``__init__`` has filled them;
    it hashes the tuple of its fields."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


# one identity of a verification: its two sides at path k and iterate m
CheckRecord = namedtuple("CheckRecord", "k m equation lhs rhs")


# CheckRecord._make with no Python-level call per row
_check = partial(tuple.__new__, CheckRecord)


class VerificationReport(FrozenRecord):
    """One tuple's check rows; ``dumps`` writes them as ``to_json`` lists them."""

    _fields = ("checks",)

    def __init__(self, checks: tuple[CheckRecord, ...]):
        # mismatches and ok are decided once and stay out of _fields: ==,
        # hash and repr skip them
        mismatches = tuple([c for c in checks if c.lhs != c.rhs])
        self.__dict__.update(checks=checks, mismatches=mismatches, ok=not mismatches)

    def to_json(self):
        """The check objects that ``dumps`` writes for this report."""
        return [{"path": k, "m": m, "equation": eq, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs}
                for k, m, eq, lhs, rhs in self.checks]


def dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True, default=lambda o: o.to_json()),
    byte for byte, without its pure-Python indenting encoder; a float, a non-str
    key or an object other than a VerificationReport raises TypeError."""
    out = []
    _write(doc, "\n", out.append)
    return "".join(out)


# the JSON of a str, int, bool or None, by exact type, so bool never takes the
# int branch; a subclass of str or int goes through _write's isinstance tests
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda x: "null",
}
# a check object's keys in sorted order, each with the % code of its value
_ROW = ('"equation": %s', '"lhs": %d', '"m": %d', '"ok": %s', '"path": %d', '"rhs": %d')


def _write(x, pad, append):
    """Append the JSON of x; pad is the newline and indent of the line x
    starts on."""
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            append("{}")
            return
        lead = "{" + inner
        for key in sorted(x):
            value = x[key]
            lead += _encode_str(key) + ": "  # refuses a key that is not a str
            write = _LEAVES.get(type(value))
            if write is not None:
                append(lead + write(value))
            else:
                append(lead)
                _write(value, inner, append)
            lead = "," + inner
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
                _write(value, inner, append)
            lead = "," + inner
        append(pad + "]")
    elif isinstance(x, str):
        append(_encode_str(x))
    elif x is None or isinstance(x, bool):
        append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        append(int.__repr__(x))
    elif type(x) is VerificationReport:  # rows through one template for this indent
        if not x.checks:
            append("[]")
            return
        row = "{" + ",".join(inner + "  " + field for field in _ROW) + inner + "}"
        codes = {eq: _encode_str(eq) for eq in {c[2] for c in x.checks}}
        ok = ("false", "true")
        append("[" + inner)  # the rows alone: adding the brackets to them would copy them
        append(("," + inner).join([
            row % (codes[eq], lhs, m, ok[lhs == rhs], k, rhs) for k, m, eq, lhs, rhs in x.checks
        ]))
        append(pad + "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


# -- reading JSON documents ---------------------------------------------------
# Each getter takes a node and its place, such as dataset.records[0].name, and
# refuses a node of the wrong shape with a ValueError in one of three forms:
# "<place> is <json>, <why>", "<place> has the key <json>, not one of <keys>"
# and "<place> has no key <key>".


def _shown(name: str) -> str:
    """A record name as a one-line message shows it: as is when it is an
    identifier, else escaped and quoted, so no line break splits it."""
    return name if name.isidentifier() else _encode_str(name)


def refuse(where: str, node, why: str) -> ValueError:
    """The error for a bad node, written by the pure-Python JSON encoder: on
    every Python version it meets the recursion limit on a very deep node.
    Only a refusal imports json."""
    from json.encoder import JSONEncoder

    return ValueError("%s is %s, %s" % (where, "".join(JSONEncoder().iterencode(node)), why))


def item(node, where: str, key: str):
    """node[key] of a JSON object node that has key."""
    if type(node) is not dict:
        raise refuse(where, node, "not an object")
    if key not in node:
        raise ValueError("%s has no key %s" % (where, key))
    return node[key]


def fields(node, where: str, keys: tuple) -> list:
    """The values of keys of a JSON object node with these keys and no other."""
    if type(node) is not dict:
        raise refuse(where, node, "not an object")
    if len(node) != len(keys) or not all(map(node.__contains__, keys)):
        for key in node:
            if key not in keys:
                raise ValueError("%s has the key %s, not one of %s"
                                 % (where, _encode_str(key), ", ".join(keys)))
        raise ValueError("%s has no key %s" % (where, next(k for k in keys if k not in node)))
    return [node[key] for key in keys]


def listed(node, where: str, read) -> list:
    """read(item, place) of each item of a JSON list node."""
    if type(node) is not list:
        raise refuse(where, node, "not a list")
    return [read(x, "%s[%d]" % (where, k)) for k, x in enumerate(node)]


def named(node, where: str, names):
    """node, a string that is one of names."""
    if type(node) is str and node in names:
        return node
    raise refuse(where, node, "not one of %s" % ", ".join(names))


def integer(node, where: str) -> int:
    """A JSON integer node: true, 1.0 and "1" are refused."""
    if type(node) is not int:
        raise refuse(where, node, "not an integer")
    return node


def pair(node, where: str) -> tuple[int, int]:
    """(n, d) of a JSON list [n, d] of integers with d nonzero."""
    if type(node) is not list or len(node) != 2:
        raise refuse(where, node, "not a pair of integers")
    n, d = integer(node[0], where + "[0]"), integer(node[1], where + "[1]")
    if not d:
        raise refuse(where, node, "a zero denominator")
    return n, d
