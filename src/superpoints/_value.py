"""The immutable-value core of the library's exact value types.

Validation policy: data is checked once, where it enters.  A public
constructor checks its arguments and stores them with ``_fill``.  Results that
are valid by construction (arithmetic, base change, composition, matrix
products, evaluation) are built by ``_make``, which checks nothing.  The fields
are the public ``__slots__`` of the class and then of its bases, in
declaration order; a slot named ``_...`` is a cache and starts as ``None``.
A value is immutable; ``==`` and ``hash`` compare ``_key``, derived from the fields.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # ``_fill`` and ``_make`` are generated per class, with one setter call
        # per slot: a generic loop over the setters costs half as much again
        # per object, and internal arithmetic makes many small values.
        super().__init_subclass__(**kwargs)
        slots = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())]
        fields = ", ".join(name for name in slots if not name.startswith("_"))
        body = "".join(f"    set_{name}(obj, {'None' if name.startswith('_') else name})\n" for name in slots)
        env = {f"set_{name}": getattr(cls, name).__set__ for name in slots}
        env.update(new=object.__new__, cls=cls)
        exec(f"def _fill(obj, {fields}):\n{body}\n"
             f"def _make({fields}):\n    obj = new(cls)\n{body}    return obj\n", env)
        cls._fill = env["_fill"]
        cls._make = staticmethod(env["_make"])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _cache(self, name: str, value) -> None:
        """Store ``value``, derived from the fields, in the cache slot ``name``."""
        object.__setattr__(self, name, value)

    def __eq__(self, other):
        return type(other) is type(self) and self._key == other._key

    def __hash__(self):
        return hash(self._key)
