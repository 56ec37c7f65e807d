"""In-memory spans recorded by rebinding public names of the library.

The benchmark instruments the program from the outside: a :class:`Tracer`
wraps a function (a module attribute or a class method) so each call opens
a span with a name, a start, an end and the span that was open when it
started (its parent).  Spans stay in a list until :meth:`Tracer.dump`
writes them once, at the end of the run.  Nothing under ``src/`` changes.

Rebinding rules:

* a module-level function is replaced in *every* loaded ``repro`` module
  that holds the same object, because ``from x import f`` copies the name
  into the importing module (rebinding only ``x.f`` would miss those call
  sites);
* a method is replaced on the class that defines it, so subclasses that
  inherit it are covered and subclasses that override it are not.

:meth:`Tracer.instrument` restores every original on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: A rebinding target: (owner, attribute, span name, info hook).  The hook,
#: when given, is called as ``hook(args, kwargs, result)`` and returns a dict
#: stored on the span (counts measured where the work happens).
Target = Tuple[Any, str, str, Optional[Callable[..., Dict[str, Any]]]]


class Tracer:
    """Records spans around calls into rebound functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._children_cache: Tuple[int, Dict[int, List[int]]] = (-1, {})

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **info: Any) -> Iterator[Span]:
        stack = self._stack()
        record = Span(name=name, start=time.perf_counter(),
                      parent=stack[-1] if stack else None, info=info)
        index = len(self.spans)
        self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()

    def wrap(self, function: Callable, name: str,
             hook: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = function(*args, **kwargs)
                if hook is not None:
                    record.info.update(hook(args, kwargs, result))
                return result

        return traced

    @contextlib.contextmanager
    def instrument(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        """Rebind every target for the duration of the block."""
        restore: List[Tuple[Any, str, Any]] = []
        try:
            for owner, attribute, name, hook in targets:
                original = owner.__dict__[attribute]
                traced = self.wrap(original, name, hook)
                if isinstance(owner, type):
                    restore.append((owner, attribute, original))
                    setattr(owner, attribute, traced)
                    continue
                for module in _repro_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, traced)
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, info)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": record.name,
                    "start": record.start - origin, "end": record.end - origin,
                    "parent": record.parent, "info": record.info}) + "\n")

    # ------------------------------------------------------------------ #
    # queries over the recorded spans
    # ------------------------------------------------------------------ #
    def named(self, *names: str) -> List[int]:
        wanted = set(names)
        return [i for i, record in enumerate(self.spans) if record.name in wanted]

    def within(self, root: int, names: Iterable[str]) -> List[int]:
        """Outermost spans named in ``names`` below ``root``.

        A span nested inside another span of the same set is skipped, so the
        durations of the returned spans never overlap.
        """
        wanted = set(names)
        children = self._children()
        found = []
        pending = list(reversed(children.get(root, [])))
        while pending:
            index = pending.pop()
            if self.spans[index].name in wanted:
                found.append(index)
            else:
                pending.extend(reversed(children.get(index, [])))
        return found

    def _children(self) -> Dict[int, List[int]]:
        if self._children_cache[0] == len(self.spans):
            return self._children_cache[1]
        children: Dict[int, List[int]] = {}
        for index, record in enumerate(self.spans):
            if record.parent is not None:
                children.setdefault(record.parent, []).append(index)
        self._children_cache = (len(self.spans), children)
        return children

    def covered(self, root: int, names: Iterable[str]) -> float:
        """Seconds of ``root`` spent inside spans named in ``names``."""
        return sum(self.spans[i].seconds for i in self.within(root, names))


class NullTracer:
    """The untraced runs' stand-in: the driver's own spans cost a no-op."""

    def span(self, name: str, **info: Any) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]
