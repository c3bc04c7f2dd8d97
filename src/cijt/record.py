"""Value records: equality, hash, repr and frozen fields, read from one
per-class ``_fields`` tuple.

Each record class names its compared fields in ``_fields`` and fills
``self.__dict__`` in its own ``__init__``, so no code is generated at import
and building an instance costs one dict update.  Two records are equal when
they are of the very same class with equal fields.  ``dumps`` writes the JSON
text of their documents, as the command line prints them.
"""

from json.encoder import encode_basestring_ascii as _encode_str  # the C function json.dumps uses


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


def dumps(doc) -> str:
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
