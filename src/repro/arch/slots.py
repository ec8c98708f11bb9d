"""Pickle state for slotted components.

Links, switches and NIs keep their attributes in ``__slots__`` (no
per-instance ``__dict__``), and each drops its host-wired hooks from
the pickle.  :func:`slot_state` builds that state from every slot of
the instance's class and its bases, with the named hooks cleared.
The unpickler restores it slot by slot, so no ``__setstate__`` is
needed.
"""

from __future__ import annotations

from typing import Tuple


def slot_state(obj, cleared: Tuple[str, ...]):
    """``(dict or None, slots)`` state of ``obj`` with ``cleared`` set to None.

    A subclass without ``__slots__`` (a test double, say) keeps its
    ``__dict__`` in the first item.
    """
    slots = {
        name: getattr(obj, name)
        for klass in type(obj).__mro__
        for name in klass.__dict__.get("__slots__", ())
    }
    for name in cleared:
        slots[name] = None
    return getattr(obj, "__dict__", None), slots
