"""Open-loop load generation against a ``repro.serving.ModelServer``.

One generator (the calling thread) submits requests on a fixed
schedule, never waiting for a reply; one collector thread observes each
future in submission order, timestamps its completion and checks its
value against the reference.  Latency runs from the request's
*scheduled* send time to the moment the collector sees it done, so a
stalled generator or server charges every request queued behind it.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

from repro.framework.errors import ReproError

#: Outcome labels of one request.
OK, REJECTED, RAISED, WRONG = "ok", "rejected", "raised", "wrong"


def _matches(value, reference) -> bool:
    """Output equals the per-request reference up to float32 reordering.

    A coalesced batch runs larger GEMMs/convolutions whose float32 sums
    accumulate in another order, so an element may differ in its last
    bits; the tolerance scales with the output's magnitude (a near-zero
    element of a large-valued output gets the output's absolute slack).
    A row of another request, or a wrong split, misses by far more.
    """
    outputs = value if isinstance(value, (tuple, list)) else (value,)
    if len(outputs) != len(reference):
        return False
    for out, ref in zip(outputs, reference):
        got = np.asarray(out.numpy())
        scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
        if got.shape != ref.shape or not np.allclose(
            got, ref, rtol=1e-4, atol=1e-5 * scale
        ):
            return False
    return True


class Window:
    """The requests of one fixed-rate interval and their outcomes."""

    def __init__(self, rate: float, count: int) -> None:
        self.rate = rate
        self.scheduled = np.zeros(count)
        self.sent = np.zeros(count)
        self.done = np.full(count, np.nan)
        self.outcome = [None] * count
        self.backlog_at_end = 0
        self.scale = 1.0  # reference-speed scale of its times (speed.py)

    @property
    def count(self) -> int:
        return len(self.outcome)

    def latencies_ms(self) -> np.ndarray:
        ok = np.array([o == OK for o in self.outcome])
        return (self.done[ok] - self.scheduled[ok]) * 1e3

    def failures(self) -> int:
        return sum(o != OK for o in self.outcome)

    def outcomes(self) -> dict:
        counts: dict = {}
        for o in self.outcome:
            counts[o] = counts.get(o, 0) + 1
        return counts

    def late_ms(self) -> np.ndarray:
        return (self.sent - self.scheduled) * 1e3

    def achieved_rps(self) -> float:
        """Completed requests per second over the window's span."""
        ok = [i for i, o in enumerate(self.outcome) if o == OK]
        if not ok:
            return 0.0
        span = np.nanmax(self.done) - self.scheduled[0]
        return len(ok) / span if span > 0 else 0.0


def run_window(
    model, pool, refs, order, rate: float, seconds: float, on_send=None
) -> Window:
    """Send ``rate * seconds`` requests open loop; wait for every reply.

    ``order`` is the seeded sequence of pool indices to send (cycled);
    ``on_send(i)``, if given, runs just before request ``i`` is submitted.
    """
    count = max(1, int(round(rate * seconds)))
    window = Window(rate, count)
    inbox: queue.SimpleQueue = queue.SimpleQueue()

    def collect() -> None:
        while True:
            item = inbox.get()
            if item is None:
                return
            i, future, ref = item
            try:
                value = future.result(timeout=30.0)
            except ReproError:
                window.outcome[i] = RAISED
            else:
                window.done[i] = time.perf_counter()
                window.outcome[i] = OK if _matches(value, ref) else WRONG

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    try:
        start = time.perf_counter() + 0.002
        for i in range(count):
            due = start + i / rate
            window.scheduled[i] = due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            index = order[i % len(order)]
            if on_send is not None:
                on_send(i)
            window.sent[i] = time.perf_counter()
            try:
                future = model.submit(*pool[index])
            except ReproError:
                window.outcome[i] = REJECTED
                continue
            inbox.put((i, future, refs[index]))
        # Requests sent but not yet observed done: a queue that keeps
        # growing shows up here at the end of the schedule.
        window.backlog_at_end = sum(o is None for o in window.outcome)
    finally:
        inbox.put(None)
        collector.join()
    return window

