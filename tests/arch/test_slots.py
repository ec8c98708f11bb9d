"""The one pickle rule for components (``repro.arch.slots.Slotted``)."""

import pickle

from repro.arch.link import CreditLink
from repro.arch.parameters import NocParameters
from repro.arch.switch import SwitchModel


class _LinkDouble(CreditLink):
    """A test double without ``__slots__``: it has an instance dict."""


def test_state_is_slot_values_with_hooks_as_none():
    link = CreditLink("a->b", 2, 1, 4)
    link.wakeup = lambda: None
    link.wheel = {}
    names = CreditLink._slot_names
    state = link.__getstate__()
    assert isinstance(state, tuple) and len(state) == len(names)
    assert names[0] == "name" and state[0] == "a->b"  # base slots first
    assert state[names.index("wakeup")] is None
    assert state[names.index("wheel")] is None
    copy = pickle.loads(pickle.dumps(link))
    assert (copy.wakeup, copy.wheel) == (None, None)
    assert (copy.credits, copy.pool, copy.delay_cycles) == ([4], 4, 2)


def test_a_test_doubles_dict_travels_last():
    double = _LinkDouble("x", 1, 1, 2)
    double.note = "kept"
    assert double.__getstate__()[-1] == {"note": "kept"}
    copy = pickle.loads(pickle.dumps(double))
    assert (copy.note, copy.credits) == ("kept", [2])


def test_a_pickled_switch_needs_no_rewiring():
    """A link holds the port it delivers into and the switch holds
    both, so a copy of the switch comes back wired to its own ports,
    and the port's hook is left for the host to reinstall."""
    params = NocParameters()
    in_link = CreditLink("a->s0", 1, params.num_vcs, params.buffer_depth)
    out = CreditLink("s0->c", 1, params.num_vcs, params.buffer_depth)
    switch = SwitchModel("s0", params, {"a": in_link}, {"c": out})
    switch.inputs["a"].wakeup = lambda: None
    copy = pickle.loads(pickle.dumps(switch))
    port = copy.inputs["a"]
    assert copy.in_links["a"].receiver is port
    assert copy._scan[0][2] is port.buffers[0]
    assert copy._scan[0][3] is copy.in_links["a"]
    assert port.wakeup is None
