"""One pickle rule for slotted components.

Links, ports, switches and NIs keep their attributes in ``__slots__``
(no per-instance ``__dict__``) and derive from :class:`Slotted`.  Their
pickle state is a tuple of slot values in slot order, with the host
hooks each class names in ``_unpickled`` (callbacks into a scheduler,
recorder, controller or memory model) as None: the host reinstalls
them after a restore.  Components refer to each other one way only (a
link holds the port it delivers into, a port only its buffers and its
hook), so pickle never walks the network's wiring back and forth, and
nothing is rewired on restore.
"""

from __future__ import annotations

from typing import Tuple


class Slotted:
    """Base of the slotted components: pickles as a tuple of slots.

    A subclass without ``__slots__`` (a test double, say) adds its
    ``__dict__`` after the slot values.
    """

    __slots__ = ()
    #: Slots holding host hooks, pickled as None.
    _unpickled: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Every slot of the class and its bases, base classes first.
        cls._slot_names = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
        )

    def __getstate__(self):
        hooks = self._unpickled
        state = [
            None if name in hooks else getattr(self, name)
            for name in self._slot_names
        ]
        if hasattr(self, "__dict__"):
            state.append(self.__dict__)
        return tuple(state)

    def __setstate__(self, state) -> None:
        names = self._slot_names
        for name, value in zip(names, state):
            setattr(self, name, value)
        if len(state) > len(names):
            self.__dict__.update(state[-1])
