"""Spans and aggregating wrappers, recorded from the benchmark's side.

Nothing under ``src/`` knows about this module: layers are measured from
outside, by timing calls into their public functions.

* **Cold boundaries** (phases, schedule iterations, monitor rounds, RPC
  calls, shards, jobs) become :class:`Span` records ``{name, start, end,
  parent, workload}`` via :meth:`Tracer.span` / :meth:`Tracer.wrap_span`.
* **Hot calls** (``Mempool.add``, ``Network.send_batch``,
  ``Simulator.run`` ...) are far too frequent for one record each;
  :meth:`Tracer.wrap_hot` installs a wrapper that folds every call into
  ``[count, units, busy seconds, child seconds]`` on the *enclosing* span,
  keyed by the call's name and the hot call it was made from (if any).

Both kinds push a frame on a per-thread stack, so a frame's **self time**
is its duration minus the interval its direct children cover, and the self
times of one thread's tree add up to its root span exactly.

Spans stay in memory; :meth:`Tracer.write_chrome` dumps them at exit in the
Chrome trace-event format (load in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Index of the fields folded per hot call name on the enclosing span.
COUNT, UNITS, BUSY, CHILD = range(4)


class Span:
    """One cold-boundary record; also the stack frame while it is open."""

    hot_name = None  # a span is not a hot call (see _HotFrame.hot_name)

    __slots__ = (
        "index", "name", "start", "end", "parent", "tid", "child_s", "hot", "args",
    )

    def __init__(
        self, index: int, name: str, start: float, parent: Optional[int], tid: int
    ) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.child_s = 0.0
        # (hot call name, calling hot call or None) -> [count, units, busy_s, child_s]
        self.hot: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.args: Dict[str, object] = {}

    # A span is its own nearest cold ancestor.
    @property
    def span(self) -> "Span":
        return self

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _HotFrame:
    """Stack frame of one in-flight hot call."""

    __slots__ = ("child_s", "span", "hot_name")

    def __init__(self, span: Span, hot_name: str) -> None:
        self.child_s = 0.0
        self.span = span
        self.hot_name = hot_name


class Tracer:
    """Records spans for one traced unit of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tids: Dict[int, int] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            # First traced call on this thread (service executor threads):
            # give it a root span so hot calls always have an enclosing one.
            stack = self._local.stack = []
            thread = threading.current_thread()
            if thread is not threading.main_thread():
                stack.append(self._open(f"thread.{thread.name}", stack))
            return stack

    def _open(self, name: str, stack: list) -> Span:
        parent = stack[-1].span.index if stack else None
        with self._lock:
            tid = self._tids.setdefault(threading.get_ident(), len(self._tids))
            span = Span(len(self.spans), name, perf_counter(), parent, tid)
            self.spans.append(span)
        return span

    def begin(self, name: str, **args: object) -> Span:
        """Open a cold-boundary span; pair with :meth:`end` (callback-driven
        boundaries such as schedule iterations cannot use ``with``)."""
        stack = self._stack()
        span = self._open(name, stack)
        span.args.update(args)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        """Record a cold-boundary span around the ``with`` body."""
        span = self.begin(name, **args)
        try:
            yield span
        finally:
            self.end(span)

    # ------------------------------------------------------------------
    # Wrappers (installed and removed by the benchmark)
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records one span per
        call (cold boundaries only)."""
        fn = vars(owner)[attr]
        tracer = self

        def spanned(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        self._patch(owner, attr, spanned)

    def wrap_hot(
        self,
        owner: object,
        attr: str,
        name: str,
        units: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with an aggregating wrapper: count, busy
        seconds (and ``units(args)`` work items) folded onto the enclosing
        span under ``name``."""
        fn = vars(owner)[attr]
        get_stack = self._stack

        def hot(*args, **kwargs):
            stack = get_stack()
            if not stack:  # called outside any span: nothing to fold onto
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = _HotFrame(parent.span, name)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent.child_s += elapsed
                key = (name, parent.hot_name)
                record = frame.span.hot.get(key)
                if record is None:
                    record = frame.span.hot[key] = [0, 0, 0.0, 0.0]
                record[COUNT] += 1
                if units is not None:
                    record[UNITS] += units(args)
                record[BUSY] += elapsed
                record[CHILD] += frame.child_s

        self._patch(owner, attr, hot)

    def uninstall(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def finish(self) -> None:
        """Remove the wrappers and close the per-thread root spans."""
        self.uninstall()
        now = perf_counter()
        for span in self.spans:
            if span.name.startswith("thread.") and span.end == span.start:
                span.end = now

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def totals(self, tid: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per name: ``{count, units, busy_s, self_s}`` over all spans and
        hot records (of one thread if ``tid`` is given)."""
        out: Dict[str, Dict[str, float]] = {}

        def fold(name: str, count: float, units: float, busy: float, self_s: float):
            row = out.setdefault(
                name, {"count": 0, "units": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            row["count"] += count
            row["units"] += units
            row["busy_s"] += busy
            row["self_s"] += self_s

        for span in self.spans:
            if tid is not None and span.tid != tid:
                continue
            fold(span.name, 1, 0, span.duration, span.self_s)
            for (name, _caller), record in span.hot.items():
                fold(
                    name,
                    record[COUNT],
                    record[UNITS],
                    record[BUSY],
                    record[BUSY] - record[CHILD],
                )
        return out

    def busy_inside(self, name: str, caller: str, tid: Optional[int] = None) -> float:
        """Busy seconds of hot call ``name`` made directly from hot call
        ``caller`` (e.g. ``Mempool.add`` straight from an engine callback)."""
        return sum(
            span.hot[(name, caller)][BUSY]
            for span in self.spans
            if (tid is None or span.tid == tid) and (name, caller) in span.hot
        )

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def write_chrome(self, path: Path) -> None:
        """Dump spans as Chrome trace events (``ph: "X"``, microseconds).

        ``args`` carries the issue's span fields (``id``, ``parent``,
        ``workload``) plus the span's self time and its folded hot calls.
        """
        origin = min((span.start for span in self.spans), default=0.0)
        events = []
        for span in self.spans:
            args = {
                "id": span.index,
                "parent": span.parent,
                "workload": self.workload,
                "self_us": round(span.self_s * 1e6, 1),
            }
            args.update(span.args)
            if span.hot:
                args["hot"] = {
                    name if caller is None else f"{name} < {caller}": {
                        "count": record[COUNT],
                        "units": record[UNITS],
                        "busy_us": round(record[BUSY] * 1e6, 1),
                        "self_us": round((record[BUSY] - record[CHILD]) * 1e6, 1),
                    }
                    for (name, caller), record in sorted(
                        span.hot.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                    )
                }
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 1),
                    "dur": round(span.duration * 1e6, 1),
                    "pid": 0,
                    "tid": span.tid,
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n",
            encoding="utf-8",
        )


class _NullTracer:
    """The untraced run: every boundary is a no-op."""

    def begin(self, name: str, **args: object) -> None:
        return None

    def end(self, span: None) -> None:
        pass

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[None]:
        yield None


NULL_TRACER = _NullTracer()
