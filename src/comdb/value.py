"""The base of comdb's immutable value types.

A value type lists its constructor fields, in order, in __slots__ (or in
_fields, when __slots__ also holds derived state), and its __init__ sets
each field once with object.__setattr__ after any coercion and
validation. A derived slot may be filled in later, lazily, with a value
that depends only on the fields. The base gives what a frozen dataclass
would, without generating code at import: equality by value within one
class, a hash over the compared fields, the dataclass repr text,
AttributeError on assignment and deletion, and a __reduce__ that calls
the constructor again, so copy and pickle work. Fields in _uncompared take
no part in == and hash; fields in _hidden are left out of repr.
"""


class Value:
    __slots__ = ()
    _uncompared = ()
    _hidden = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)

    def _key(self):
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
