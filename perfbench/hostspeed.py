"""How fast the host runs ordinary Python, sampled while a workload runs.

On a shared host the speed of the same Python code drifts by a quarter
and more over minutes, as other work on the machine comes and goes.
No statistic of one run's own durations can take out a drift that
covers the whole run.  :class:`HostSampler` measures it alongside: a
timer signal runs :func:`reference`, a fixed computation that does not
touch ``repro``, every ``interval`` seconds while the operations run,
and records how long each call took.  A statistic of the operation
times scaled by ``REFERENCE_S`` over the same statistic of the
reference times is then the operation's time on a host where the
reference takes ``REFERENCE_S``.

The reference runs with the garbage collector off, so that how much
memory the program under test holds does not change its duration.
"""

from __future__ import annotations

import gc
import json
import signal
import time
from typing import List

#: Nominal duration of one :func:`reference` call, in seconds.
REFERENCE_S = 0.001

_DOC = {
    "points": [
        {"name": f"p{i}", "xy": [i, i * 2.5], "tags": ["a", "b", str(i)],
         "ok": i % 3 == 0}
        for i in range(60)
    ]
}
_SOURCE = "def f(x):\n    return [y * 2 for y in range(x) if y % 3]\n"


class _Item:
    def __init__(self, i: int):
        self.i = i
        self.d = {"k": i}


def reference() -> int:
    """A fixed mix of ordinary Python: JSON, objects, dicts, compile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(json.dumps(_DOC))
        table: dict = {}
        for item in [_Item(i) for i in range(300)]:
            table.setdefault(item.i % 17, []).append(item.d["k"])
        namespace: dict = {}
        exec(compile(_SOURCE, "<reference>", "exec"), namespace)
        namespace["f"](200)
        text = " ".join(f"{k}:{len(v)}" for k, v in sorted(table.items()))
        return len(doc["points"]) + len(text)
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Run :func:`reference` every ``interval`` seconds on ``SIGALRM``.

    ``samples`` holds each call's duration; ``spent`` their sum, which a
    caller subtracts from the operation it timed around them.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
