"""Frozen value records, without ``dataclasses``.

``@record`` makes a class with annotated fields an immutable value type,
as ``dataclasses.dataclass(frozen=True)`` would for what gk3 asks of one.
Every command starts a fresh interpreter, so it matters that this costs
one ``exec`` per class and imports nothing (``dataclasses`` pulls in
``inspect``, and runs one ``exec`` per generated method).

The fields are the class's own annotations, in order.  A field may have
a default; a field whose default is ``derived`` is no argument of
``__init__`` and is set by ``__post_init__``.  Unless the class defines
them, the record gets: ``__init__``, which stores its arguments and then
calls ``__post_init__`` if there is one; ``==`` between instances of the
same class with equal fields, and a ``hash`` over the same fields; and the
``Name(field=value, ...)`` repr.  Assigning or deleting an attribute
raises ``AttributeError``; ``__post_init__`` sets a field with
``object.__setattr__``, and ``cached_property`` keeps its value in the
instance dict as usual.  ``_fields`` names a record's fields, in order.
"""

derived = object()  # the default of a field that __post_init__ sets
_MISSING = object()


def _frozen(self, name, *_):
    raise AttributeError(f"cannot assign or delete {name!r}: a {type(self).__name__} is frozen")


def record(cls):
    """Make ``cls`` a frozen value record (module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    # object.__setattr__, not a write to self.__dict__: that would build the
    # instance dict, and every later attribute read would be 2.5x slower
    params, stores, defaults = [], [], {"_set": object.__setattr__}
    for n in names:
        value = cls.__dict__.get(n, _MISSING)
        if value is derived:
            delattr(cls, n)
            continue
        if value is not _MISSING:
            defaults[f"_default_{n}"] = value
        params.append(n if value is _MISSING else f"{n}=_default_{n}")
        stores.append(f"  _set(self, {n!r}, {n})\n")
    if hasattr(cls, "__post_init__"):
        stores.append("  self.__post_init__()\n")

    def values(obj: str) -> str:
        return "(" + "".join(f"{obj}.{n}," for n in names) + ")"

    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    src = (
        f"def __init__(self, {', '.join(params)}):\n{''.join(stores) or '  pass'}\n"
        "def __eq__(self, other):\n"
        "  if other.__class__ is self.__class__:\n"
        f"    return {values('self')} == {values('other')}\n"
        "  return NotImplemented\n"
        f"def __hash__(self):\n  return hash({values('self')})\n"
        f"def __repr__(self):\n  return self.__class__.__qualname__ + f'({shown})'\n"
    )
    methods = {}
    exec(src, defaults, methods)
    for name, fn in methods.items():
        if name not in cls.__dict__:
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls._fields = names
    return cls
