"""Wall-clock spans recorded from outside the program, and their breakdown.

Nothing here touches ``src/``. Each layer is timed at its boundary:

* around a call the benchmark makes (``with tracer.span(...)``);
* through a proxy handed to the program where it takes the layer as an
  argument (:class:`SessionProxy`, :class:`SchedulerProxy`,
  :class:`OracleProxy`);
* through a method wrapper installed on a class for the traced pass only
  (:meth:`Tracer.patch`), where the program builds the layer itself;
* per step of an asyncio task (:class:`TimedCoroutine`), and per
  iteration, callback and blocking ``select`` of the event loop
  (:class:`TracedEventLoop`), so the serving workloads' interleaved
  requests still nest strictly.

A span is ``[id, parent_id, name, start_ns, end_ns, request_id]`` with
times from :func:`time.perf_counter_ns`. Spans stay in memory and are
written as JSONL only when asked. A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import asyncio
import collections.abc
import json
import selectors
from time import perf_counter_ns
from typing import Dict, Iterable, List, Optional


class Tracer:
    """In-memory span recorder; records only while :attr:`recording`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.recording = False
        self._stack: List[list] = []
        self._request: Optional[int] = None

    def span(self, name: str, request: Optional[int] = None) -> "_Span":
        return _Span(self, name, request)

    def _open(self, name: str, request: Optional[int]) -> Optional[list]:
        if not self.recording:
            return None
        stack = self._stack
        parent = stack[-1] if stack else None
        if request is None:
            request = self._request if parent is None else parent[5]
        record = [
            len(self.spans),
            parent[0] if parent is not None else None,
            name,
            perf_counter_ns(),
            None,
            request,
        ]
        self.spans.append(record)
        stack.append(record)
        return record

    def _close(self, record: Optional[list]) -> None:
        if record is None:
            return
        record[4] = perf_counter_ns()
        popped = self._stack.pop()
        if popped is not record:
            raise RuntimeError(
                f"span {record[2]!r} closed out of order (open: {popped[2]!r})"
            )

    def timed(self, name: str, function):
        """``function`` wrapped so that every call opens span ``name``."""

        def wrapper(*args, **kwargs):
            record = self._open(name, None)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(record)

        return wrapper

    def patch(self, owner: type, attribute: str, name: str) -> "_Patch":
        """Wrap ``owner.attribute`` (a method) for the ``with`` block only."""
        return _Patch(self, owner, attribute, name)

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "request")
        with open(path, "w") as handle:
            for record in self.spans:
                if record[4] is not None:
                    handle.write(json.dumps(dict(zip(keys, record))) + "\n")


class _Span:
    __slots__ = ("_tracer", "_name", "_request", "_record")

    def __init__(self, tracer: Tracer, name: str, request: Optional[int]):
        self._tracer = tracer
        self._name = name
        self._request = request

    def __enter__(self) -> "_Span":
        self._record = self._tracer._open(self._name, self._request)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._record)


class _Patch:
    def __init__(self, tracer: Tracer, owner: type, attribute: str, name: str):
        self._owner = owner
        self._attribute = attribute
        self._original = owner.__dict__[attribute]
        self._wrapped = tracer.timed(name, self._original)

    def __enter__(self) -> "_Patch":
        setattr(self._owner, self._attribute, self._wrapped)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self._owner, self._attribute, self._original)


class TimedCoroutine(collections.abc.Coroutine):
    """A coroutine whose every step (``send``/``throw``) is one span.

    An asyncio task advances its coroutine one step per event-loop
    callback, and no other task runs inside a step, so step spans never
    overlap. ``request`` tags the step and every span opened inside it.
    """

    __slots__ = ("_coro", "_tracer", "_name", "_request")

    def __init__(self, coro, tracer: Tracer, name: str, request=None):
        self._coro = coro
        self._tracer = tracer
        self._name = name
        self._request = request

    def send(self, value):
        tracer = self._tracer
        tracer._request = self._request
        record = tracer._open(self._name, self._request)
        try:
            return self._coro.send(value)
        finally:
            tracer._close(record)
            tracer._request = None

    def throw(self, *exc_info):
        tracer = self._tracer
        tracer._request = self._request
        record = tracer._open(self._name, self._request)
        try:
            return self._coro.throw(*exc_info)
        finally:
            tracer._close(record)
            tracer._request = None

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self


class _TimedSelector(selectors.DefaultSelector):
    """The event loop's selector, with each blocking ``select`` a span."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        record = self._tracer._open("asyncio.select", None)
        try:
            return super().select(timeout)
        finally:
            self._tracer._close(record)


class TracedEventLoop(asyncio.SelectorEventLoop):
    """An event loop whose iterations, waits in ``select`` and callbacks
    scheduled while recording are spans. An iteration's self time is the
    loop's own bookkeeping: timers, the ready queue, future callbacks and
    task wake-ups on the request path."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(_TimedSelector(tracer))
        self._tracer = tracer

    def _run_once(self):
        record = self._tracer._open("asyncio.loop", None)
        try:
            super()._run_once()
        finally:
            self._tracer._close(record)

    def call_soon(self, callback, *args, context=None):
        if self._tracer.recording:
            callback = self._tracer.timed("asyncio.callback", callback)
        return super().call_soon(callback, *args, context=context)

    def call_at(self, when, callback, *args, context=None):
        if self._tracer.recording:
            callback = self._tracer.timed("asyncio.callback", callback)
        return super().call_at(when, callback, *args, context=context)


class SessionProxy:
    """A :class:`~repro.driver.session.ProfilingSession` whose measurement
    calls are spans; every other attribute is the session's own."""

    def __init__(self, session, tracer: Tracer) -> None:
        self._session = session
        self.collect_events = tracer.timed(
            "driver.session.collect_events", session.collect_events
        )
        self.measure_grid = tracer.timed(
            "driver.session.measure_grid", session.measure_grid
        )
        self.measure_power = tracer.timed(
            "driver.session.measure_power", session.measure_power
        )

    def __getattr__(self, name):
        return getattr(self._session, name)


class SchedulerProxy:
    """A cluster scheduler whose ``dispatch`` calls are spans."""

    def __init__(self, scheduler, tracer: Tracer) -> None:
        self.name = scheduler.name
        self.dispatch = tracer.timed(
            "cluster.schedulers.dispatch", scheduler.dispatch
        )


class OracleProxy:
    """A :class:`~repro.cluster.node.DeviceOracle` whose frontier and
    ground-truth queries are spans. ``spec`` and ``device_name`` are copied
    so the nodes' per-event property reads cost what they cost untraced."""

    def __init__(self, oracle, tracer: Tracer) -> None:
        self._oracle = oracle
        self.spec = oracle.spec
        self.device_name = oracle.device_name
        self.frontier = tracer.timed("cluster.node.frontier", oracle.frontier)
        self.measured = tracer.timed("cluster.node.measured", oracle.measured)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def breakdown(
    spans: Iterable[list], start_ns: int, end_ns: int
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds inside ``[start, end]``.

    Spans that straddle the window edges are left out, so whatever they
    covered shows up as unattributed time.
    """
    inside = [s for s in spans if s[3] >= start_ns and s[4] is not None and s[4] <= end_ns]
    child_ns: Dict[int, int] = {}
    for record in inside:
        if record[1] is not None:
            child_ns[record[1]] = child_ns.get(record[1], 0) + record[4] - record[3]
    layers: Dict[str, Dict[str, float]] = {}
    for record in inside:
        duration = record[4] - record[3]
        entry = layers.setdefault(
            record[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += duration / 1e9
        entry["self_s"] += (duration - child_ns.get(record[0], 0)) / 1e9
    return layers
