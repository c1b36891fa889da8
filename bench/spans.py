"""In-memory spans around the package's public calls, for the traced run.

``Tracer.patch`` replaces a module or class attribute with a wrapper that
records one span per call: name, start, end, parent span, request id and,
if the call raised, the exception type.  Callers inside the package look
these attributes up at call time (``train`` calls ``model.forward_loss``,
``retrieval_first`` calls ``inference.score_continuation``), so the
wrappers see the inner calls too.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index or -1, request id, error]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.request: object = None

    def begin_request(self, request_id) -> None:
        """Start a new request; spans recorded until the next one share its id."""
        self.request = request_id
        self._stack.clear()  # a deadline signal may have cut a span short

    def patch(self, owner, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr``; ``observe(args, kwargs, result)`` sees each return."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                spans[index][5] = type(exc).__name__
                raise
            finally:
                spans[index][1] = start
                spans[index][2] = time.perf_counter()
                if stack and stack[-1] == index:
                    stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self, keep: Callable[[object], bool] = lambda request: True) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans, over
        the spans whose request id passes ``keep``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, request, _) in enumerate(self.spans):
            if keep(request):
                totals[name] += (end - start) - child[i]
        return dict(totals)

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def write(self, path) -> None:
        """One JSON object per line: name, start, end, parent, request, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, error in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "request": request, "error": error}
                    )
                    + "\n"
                )
