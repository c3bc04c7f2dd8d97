"""Value records: equality, hash, repr and frozen fields, read from one
per-class ``_fields`` tuple.

Each record class names its compared fields in ``_fields`` and fills
``self.__dict__`` in its own ``__init__``, so no code is generated at import
and building an instance costs one dict update.  Two records are equal when
they are of the very same class with equal fields.
"""


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
