"""In-memory spans around calls into the library's public functions.

A span records a name, start and end (perf_counter seconds), the index of
the span that was open when it started (its parent, -1 for none), the
instance it belongs to, how it ended ("ok" or the exception's class name)
and a few counts read from its arguments or result.  Spans are kept in a
list and written as JSON lines when the run ends.

`Tracer.interpose` replaces a function in the namespace of the module that
calls it (for example `hkbinomial.engines.hk_direct_count`, which `hk`
looks up there), so spans nest the way the library calls its layers.  The
library's code is not changed; `Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    instance: int
    outcome: str = "ok"
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list = []

    def call(self, name, fn, *args, info=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; info(args, kwargs, result)
        returns the counts to attach; result is None when the call raised."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.outcome = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
        return result

    def interpose(self, module, attr, name, info=None, instance_of=None):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if instance_of is not None:
                self.instance = instance_of(*args, **kwargs)
            return self.call(name, original, *args, info=info, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")
