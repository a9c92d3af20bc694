"""Base class for field-based agent states.

The paper describes agent states as a collection of *fields* (``rank``,
``role``, ``resetcount`` ...), where some fields exist only under particular
*roles*.  :class:`AgentState` mirrors that style: concrete protocols subclass
it, declare fields as instance attributes, and get copying, equality,
signatures (hashable canonical encodings used for state counting), and a
readable ``repr`` for free.

``clone`` copies the field dict and deep-copies only the values that are not
immutable scalars, sharing one ``deepcopy`` memo across them, so the result
matches ``copy.deepcopy(state)`` field for field (aliasing between fields
included) at a fraction of its cost.  Classes that customize copying
(``__slots__``, ``__getstate__``, ``__setstate__``, ``__deepcopy__``,
``__reduce__``, ``__reduce_ex__``) keep ``copy.deepcopy``.  Override
``clone`` only for speed, e.g. a constructor call for a few scalar fields.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Hashable, Tuple

#: Field value types ``clone`` shares instead of deep-copying (exact types:
#: subclasses may carry mutable attributes).
_ATOMIC_TYPES = frozenset({int, float, bool, str, bytes, type(None)})

#: Hooks that make ``copy.deepcopy`` do something other than copy ``__dict__``.
_COPY_HOOKS = (
    "__slots__", "__getstate__", "__setstate__", "__deepcopy__", "__reduce__", "__reduce_ex__"
)


class AgentState:
    """Mutable field-based agent state.

    Subclasses simply assign instance attributes in ``__init__``.  Attributes
    whose names start with an underscore are treated as bookkeeping and are
    excluded from equality, signatures, and ``repr``.
    """

    #: Whether :meth:`clone` must defer to ``copy.deepcopy`` (set per class).
    _clone_by_deepcopy = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._clone_by_deepcopy = any(
            hook in vars(klass)
            for klass in cls.__mro__
            if klass is not object
            for hook in _COPY_HOOKS
        )

    def fields(self) -> Dict[str, Any]:
        """Return the public fields of this state as a dictionary."""
        return {
            name: value
            for name, value in vars(self).items()
            if not name.startswith("_")
        }

    def signature(self) -> Hashable:
        """Return a hashable canonical encoding of this state.

        Two states with equal signatures are the same protocol state.  The
        default encoding sorts fields by name and freezes common containers;
        protocols with richer fields (e.g. history trees) override this.
        """
        return tuple(sorted((name, _freeze(value)) for name, value in self.fields().items()))

    def clone(self) -> "AgentState":
        """Return a deep copy of this state (equal to ``copy.deepcopy(self)``)."""
        cls = type(self)
        if cls._clone_by_deepcopy:
            return copy.deepcopy(self)
        twin = cls.__new__(cls)
        fields = vars(self).copy()
        memo = None
        for name, value in fields.items():
            if type(value) not in _ATOMIC_TYPES:
                if memo is None:
                    memo = {id(self): twin}
                fields[name] = copy.deepcopy(value, memo)
        twin.__dict__ = fields
        return twin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AgentState):
            return NotImplemented
        return type(self) is type(other) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.signature()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in sorted(self.fields().items()))
        return f"{type(self).__name__}({inner})"


def _freeze(value: Any) -> Hashable:
    """Recursively convert ``value`` into a hashable representation."""
    if isinstance(value, AgentState):
        return value.signature()
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(item) for item in value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


Signature = Tuple[Hashable, ...]

__all__ = ["AgentState", "Signature"]
