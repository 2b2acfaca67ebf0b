"""In-memory span tracer used by the traced benchmark pass.

Spans are recorded around calls into the package's public functions, from
outside the package: :meth:`Tracer.install` replaces a name in the module
where the caller looks it up (``from .paths import simulate_terminals``
binds the name in the importing module, so patching ``skewdiff.paths``
alone would miss those calls).  Spans stay in memory; the caller writes them
out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on the calling thread.

    Wrapped functions must be called from one thread; work they hand to
    their own worker threads is inside the caller's span, and ``cpu``
    (process CPU time over the span) shows how busy those threads were.
    """

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(id=len(self.spans), name=name, parent=parent,
                  start=self._clock(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        cpu0 = self._cpu_clock()
        try:
            yield sp
        finally:
            sp.cpu = self._cpu_clock() - cpu0
            sp.end = self._clock()
            self._stack.pop()

    def wrap(self, fn, name: str, shape=None):
        """``fn`` timed per call; ``shape(bound_args)`` gives span attrs."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _shape(sig, shape, args, kwargs)
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    def wrap_generator(self, fn, name: str, shape=None, per_item=None):
        """``fn`` returns a generator: time each ``next()``, not the call.

        Calling a generator function runs none of its body, so a span
        around the call would read ~0 s and the work would land in whatever
        span is open when the consumer pulls the next item.
        ``per_item(item)`` adds attrs from each yielded item.
        """
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _shape(sig, shape, args, kwargs)
            gen = fn(*args, **kwargs)
            try:
                while True:
                    with self.span(name, **attrs) as sp:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        if per_item is not None:
                            sp.attrs.update(per_item(item))
                    yield item
            finally:
                gen.close()
        return traced

    def install(self, module, attr: str, wrapped) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _shape(sig, shape, args, kwargs) -> dict:
    if shape is None:
        return {}
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return shape(bound.arguments)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run on one thread, so they do not overlap and
    their durations add up to the part of the parent they cover.
    """
    out = {sp.id: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.duration
    return out

