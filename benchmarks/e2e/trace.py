"""The harness's span recorder.

cods-e2e measures every layer from outside: around each call into a
layer's public function the harness records
``(name, start, end, parent, request_id)``.  Spans stay in memory and
are written as ``trace-<workload>.json`` when the workload ends.  A
span's name starts with the module under ``src/repro/`` it enters
(``db.session``, ``exec.scan_main``, ``wal.checkpoint`` …), which is
what the bypass predictions are checked on.

Spans nest (``parent`` is the index of the enclosing span) and those
of one statement share a request id; the ladder in ``layers.py`` sums a
request's spans by name.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        #: ``[name, start, end, parent index or None, request id]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = 0

    def new_request(self) -> int:
        """Start a new request: spans opened until the next call share
        its identifier."""
        self._request += 1
        return self._request

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self._request]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (a child of the open span)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self._request])

    def extend(self, other: "Recorder") -> None:
        """Take over another recorder's spans (one per client thread)."""
        offset = len(self.spans)
        for name, start, end, parent, request in other.spans:
            self.spans.append([
                name, start, end,
                None if parent is None else parent + offset,
                self._request + request,
            ])
        self._request += other._request

    # -- reading ---------------------------------------------------------

    def names(self) -> set[str]:
        return {span[0] for span in self.spans}

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent",
                                "request_id"],
                    "spans": [
                        [name, start - origin, end - origin, parent, request]
                        for name, start, end, parent, request in self.spans
                    ],
                },
                handle,
            )
