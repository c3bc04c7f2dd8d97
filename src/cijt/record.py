"""Value records: equality, hash, repr and frozen fields, read from one
per-class ``_fields`` tuple.

Each record class names its compared fields in ``_fields`` and fills
``self.__dict__`` in its own ``__init__``, so no code is generated at import
and building an instance costs one dict update.  Two records are equal when
they are of the very same class with equal fields; a verification check is
a plain row instead.  ``dumps`` writes the JSON text of their documents.
"""

from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str  # the C function json.dumps uses
from typing import NamedTuple


class Record:
    """A mutable record: assignable fields, no hash."""

    _fields: tuple[str, ...] = ()

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


class CheckRecord(NamedTuple):
    """One identity of a verification: its two sides at path k and iterate m."""

    k: int
    m: int
    equation: str
    lhs: int
    rhs: int


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
