"""The base of the package's value classes."""

from operator import attrgetter


class Value:
    """An immutable record compared by value.  A subclass names its
    fields in _fields and sets them once, in __init__; nothing guards
    them against later assignment.  Equality and hashing read the
    fields through one attrgetter (_key), and objects of different
    classes are never equal."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
