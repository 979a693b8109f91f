"""``Record``, the one base of the package's value classes.

A ``Record`` subclass names its fields in ``__slots__`` and gets what
``@dataclass(frozen=True)`` would give it: ``==``, ``hash`` and ``repr``
over its fields, an ``__init__`` that takes them in order or by name,
``AttributeError`` on assignment and deletion, and ``copy`` and ``pickle``
support.  Its fields are the ``__slots__`` of the class and of its bases,
in that order, so a subclass that adds no field declares
``__slots__ = ()`` and stays slotted.

Dataclasses are avoided because every command pays for them at start-up:
``import dataclasses`` loads ``inspect`` (about 13 ms on a 2-core VM
without bytecode caches, where a whole ``logic`` command takes about
150 ms), and each decorated class runs ``exec`` to build its methods
(about 1 ms each).  A ``Record`` subclass is a plain class statement.
This module imports nothing, so the parse-only, ``logic`` and ``ssa``
commands load neither ``dataclasses`` nor ``inspect``.

A class that validates its arguments writes its own ``__init__`` and
stores them with ``_set`` (``object.__setattr__``).  A mutable class
(``report.CheckResult``) restores ``object.__setattr__`` and
``object.__delattr__`` and sets ``__hash__`` to None, as a dataclass that
is not frozen does.
"""

_set = object.__setattr__


class Record:
    """Immutable slotted record: ``==``, ``hash`` and ``repr`` over the
    fields in ``_names``, which ``__init_subclass__`` collects from the
    ``__slots__`` along the class's bases, as a frozen dataclass defines
    them."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = tuple(name for klass in reversed(cls.__mro__)
                           for name in vars(klass).get("__slots__", ()))

    def __init__(self, *values, **named):
        names = self._names
        if len(values) > len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} "
                            f"fields, not {len(values)}")
        for name, value in zip(names, values):
            _set(self, name, value)
        for name in names[len(values):]:
            if name not in named:
                raise TypeError(f"{type(self).__qualname__} is missing "
                                f"field {name!r}")
            _set(self, name, named.pop(name))
        if named:
            raise TypeError(f"{type(self).__qualname__} got an unexpected "
                            f"field {next(iter(named))!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through its __init__, because
        # the state they would set afterwards meets __setattr__
        return type(self), self._fields()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    __delattr__ = __setattr__
