"""Structured trace events: append-only JSONL spans with monotonic time.

One campaign writes one ``events.jsonl`` next to its ``progress.json``.
Every line is a self-contained JSON record:

.. code-block:: json

    {"run": "8f3a…", "seq": 12, "pid": 4711, "ts": 1754630000.12,
     "mono": 3.41, "ev": "begin", "type": "wave", "span": "4711-3",
     "parent": "4711-1", "data": {"wave": 1, "month": 2}}

- ``run``    — a random id minted per :class:`Tracer`, so the records
  of a killed-and-resumed campaign (two processes appending to one
  file) never get their ``seq``/``span`` namespaces confused;
- ``seq``    — strictly increasing per run (the validator's ordering
  check);
- ``ts`` / ``mono`` — wall-clock and monotonic seconds; durations are
  always differences of ``mono``, never of ``ts``;
- ``ev``     — ``begin`` / ``end`` (span edges) or ``point``;
- ``span`` / ``parent`` — ids forming the campaign → wave → shard /
  worker tree;
- ``data``   — the event-type-specific payload
  (:mod:`repro.obs.schema` documents each type).

Writes are atomic at line granularity: the file is opened with
``O_APPEND`` and each record is a single ``os.write`` of one
``\\n``-terminated line, so concurrent writers (a coordinator and a
runner, or a resumed process racing a stale one) can interleave lines
but never tear one.  Nothing here is fsync'd — the event log is
telemetry, and losing its tail with the process is fine; the
checkpoint store owns durability.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = ["Tracer", "NullTracer"]

#: Default-parameter sentinel: parent to the tracer's current span.
_CURRENT = object()


class Tracer:
    """Append trace events to one JSONL file; thread-safe; cheap.

    :attr:`current` is the implicit parent: the component that owns
    the scope (the campaign runner) points it at the open campaign or
    wave span, and everything reporting through :func:`~repro.obs.
    get_tracer` — the coordinator, deep inside an executor generator —
    nests under it without threading span ids through every layer.
    Pass ``parent=None`` explicitly to emit a root record.
    """

    def __init__(self, path, clock=time.monotonic, wall=time.time):
        self.path = os.fspath(path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._clock = clock
        self._wall = wall
        self._lock = threading.Lock()
        self._seq = 0
        self._pid = os.getpid()
        self.run_id = os.urandom(8).hex()
        self.emitted = 0
        self.current: str | None = None

    # -- record plumbing -----------------------------------------------

    def _emit(self, ev: str, type_: str, span: str,
              parent: str | None, data: dict) -> None:
        with self._lock:
            if self._fd is None:
                return
            self._seq += 1
            record = {
                "run": self.run_id,
                "seq": self._seq,
                "pid": self._pid,
                "ts": self._wall(),
                "mono": self._clock(),
                "ev": ev,
                "type": type_,
                "span": span,
                "parent": parent,
                "data": data,
            }
            line = json.dumps(record, separators=(",", ":")) + "\n"
            os.write(self._fd, line.encode())
            self.emitted += 1

    def _new_span_id(self) -> str:
        # Under the lock of the caller?  No: ids only need uniqueness
        # within the run, and the seq bump in _emit is the only shared
        # counter — mint span ids from their own counter-free source.
        return f"{self._pid:x}-{os.urandom(4).hex()}"

    # -- public API ----------------------------------------------------

    def begin(self, type_: str, parent=_CURRENT, **data) -> str:
        """Open a span; returns its id (pass to :meth:`end`)."""
        if parent is _CURRENT:
            parent = self.current
        span = self._new_span_id()
        self._emit("begin", type_, span, parent, data)
        return span

    def end(self, type_: str, span: str, **data) -> None:
        """Close a span opened by :meth:`begin`."""
        self._emit("end", type_, span, None, data)

    def point(self, type_: str, parent=_CURRENT, **data) -> str:
        """A point event (its own span id, no end record)."""
        if parent is _CURRENT:
            parent = self.current
        span = self._new_span_id()
        self._emit("point", type_, span, parent, data)
        return span

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTracer:
    """The no-op tracer installed outside any observability scope."""

    run_id = None
    emitted = 0
    current = None

    def begin(self, type_, parent=_CURRENT, **data):
        return None

    def end(self, type_, span, **data):
        return None

    def point(self, type_, parent=_CURRENT, **data):
        return None

    def close(self) -> None:
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None
