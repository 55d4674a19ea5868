"""Immutable values: a slots-only base whose attributes can be neither set
nor deleted, and records on it with the constructor, equality, hash and repr
of a frozen dataclass, without importing dataclasses (which pulls in
inspect, ast and typing at every interpreter start)."""

from operator import attrgetter

_set = object.__setattr__


class Immutable:
    """Base of the library's value classes.  A subclass declares __slots__
    and sets its fields once, in its constructor, with object.__setattr__;
    setting or deleting an attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Record(Immutable):
    """Fields are the names in a subclass's __slots__, set once by the
    constructor from positional or keyword arguments.  Equality, hash and
    repr use every field except those named in _hidden; equality holds only
    between records of the same class."""

    __slots__ = ()
    _hidden = ()

    def __init_subclass__(cls):
        cls._shown = tuple(name for name in cls.__slots__ if name not in cls._hidden)
        cls._compared = attrgetter(*cls._shown)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if args:
            if len(args) > len(names) or any(name in kwargs for name in names[:len(args)]):
                raise TypeError("%s: too many or repeated fields" % type(self).__name__)
            kwargs.update(zip(names, args))
        if len(kwargs) != len(names) or not all(name in kwargs for name in names):
            raise TypeError("%s takes exactly the fields %s, got %s"
                            % (type(self).__name__, names, tuple(kwargs)))
        for name in names:
            _set(self, name, kwargs[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == other._compared(other)

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._shown))
