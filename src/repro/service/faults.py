"""Deterministic fault injection for resilience testing.

A :class:`FaultPlan` is a declarative list of :class:`FaultRule`\\ s — "raise
on the 2nd and 3rd call of SLING's native route", "add 50 ms latency to every
derived route", "die with ``os._exit`` at the 1st WAL append" — that the
planner consults at the top of every route execution and the update plane
consults at its crash points (``("update", "wal_append"/"apply"/"repair"/
"swap")``).  The ``exit`` action is the crash-consistency hammer: it kills
the process as abruptly as SIGKILL at an exact, replayable instant.  Because
rules trigger on exact call ordinals of exact (method, route) pairs, a fault
scenario replays identically run after run: the route-failure and
circuit-breaker tests assert on precise trip counts rather than racy timing.
A rule naming a route no hook fires, or a kind that is not a query kind, is
refused when it is built, so a typo cannot leave a scenario without its
fault.

Plans load from JSON (the CLI's ``--fault-plan`` flag) or build in code::

    plan = FaultPlan([FaultRule(method="sling", route="native", calls=(1, 2))])
    planner = QueryPlanner(graph, fault_plan=plan)

The module also hosts the *file*-level corruption helpers
(:func:`truncate_file`, :func:`flip_byte`) used to simulate torn writes and
bit rot against persisted indexes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.base import QUERY_KINDS

#: The routes a rule can name, one per hook that consults the plan: the
#: planner's native and coalesced derived query routes, and the update
#: plane's crash points (fired with method ``"update"`` and no kind) in the
#: order one edge batch passes them.  The hooks take their names from here.
ROUTE_NATIVE = "native"
ROUTE_DERIVED = "derived"
UPDATE_WAL_APPEND = "wal_append"
UPDATE_APPLY = "apply"
UPDATE_REPAIR = "repair"
UPDATE_SWAP = "swap"
_HOOK_ROUTES = (ROUTE_NATIVE, ROUTE_DERIVED, UPDATE_WAL_APPEND, UPDATE_APPLY,
                UPDATE_REPAIR, UPDATE_SWAP)


class InjectedFault(RuntimeError):
    """The error raised by a ``raise``-action fault rule.

    Deliberately a plain ``RuntimeError`` subclass: the planner must treat
    it exactly like any organic route failure (a native route retries
    derived; a failed derived pass answers ``route_failed``).
    """

    def __init__(self, rule: "FaultRule", call_index: int):
        super().__init__(
            f"injected fault: method={rule.method or '*'} "
            f"route={rule.route or '*'} call={call_index}"
        )
        self.rule = rule
        self.call_index = call_index


@dataclass(frozen=True)
class FaultRule:
    """One deterministic trigger.

    ``method`` / ``route`` / ``kind`` of ``None`` match anything.  ``route``
    must name a hook (:data:`ROUTE_NATIVE`, :data:`ROUTE_DERIVED` or an
    update crash point) and ``kind`` a query kind; ``method`` is free-form,
    since a planner answers any name registered on it.  ``calls`` lists the
    1-based ordinals of *matching* calls on which the rule fires; empty means
    every matching call.
    """

    action: str = "raise"            # "raise" | "delay" | "exit"
    method: Optional[str] = None
    route: Optional[str] = None
    kind: Optional[str] = None       # query kind: single_source/single_pair/top_k
    calls: Tuple[int, ...] = ()
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("raise", "delay", "exit"):
            raise ValueError(f"unknown fault action: {self.action!r}")
        if self.route is not None and self.route not in _HOOK_ROUTES:
            raise ValueError(f"unknown fault route: {self.route!r} "
                             f"(hooks: {', '.join(_HOOK_ROUTES)})")
        if self.kind is not None and self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r} "
                             f"(query kinds: {', '.join(QUERY_KINDS)})")
        if self.action == "delay" and self.delay_seconds <= 0.0:
            raise ValueError("delay action requires positive delay_seconds")
        if any(int(c) < 1 for c in self.calls):
            raise ValueError("call ordinals are 1-based")
        object.__setattr__(self, "calls", tuple(int(c) for c in self.calls))

    def matches(self, method: str, route: str, kind: str) -> bool:
        return ((self.method is None or self.method == method)
                and (self.route is None or self.route == route)
                and (self.kind is None or self.kind == kind))


@dataclass
class FaultPlan:
    """An ordered set of rules plus per-rule call counters."""

    rules: List[FaultRule] = field(default_factory=list)
    _counts: List[int] = field(default_factory=list, repr=False)
    #: Total faults actually fired (both actions), for planner stats.
    injected: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._counts = [0] * len(self.rules)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON: a list of rule objects, or ``{"rules": [...]}``."""
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = payload.get("rules", [])
        if not isinstance(payload, list):
            raise ValueError("fault plan must be a JSON list of rules")
        rules = []
        for entry in payload:
            if not isinstance(entry, dict):
                raise ValueError("each fault rule must be a JSON object")
            known = {"action", "method", "route", "kind", "calls", "delay_seconds"}
            unknown = set(entry) - known
            if unknown:
                raise ValueError(f"unknown fault rule fields: {sorted(unknown)}")
            rules.append(FaultRule(
                action=entry.get("action", "raise"),
                method=entry.get("method"),
                route=entry.get("route"),
                kind=entry.get("kind"),
                calls=tuple(entry.get("calls", ())),
                delay_seconds=float(entry.get("delay_seconds", 0.0)),
            ))
        return cls(rules=rules)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def on_route_call(self, method: str, route: str, kind: str) -> None:
        """Planner hook: called before every route execution.

        Raises :class:`InjectedFault` or sleeps, per the first matching rule
        whose ordinal fires.  Counters advance on every *match*, fired or not.
        """
        for index, rule in enumerate(self.rules):
            if not rule.matches(method, route, kind):
                continue
            self._counts[index] += 1
            ordinal = self._counts[index]
            if rule.calls and ordinal not in rule.calls:
                continue
            self.injected += 1
            if rule.action == "delay":
                import time
                time.sleep(rule.delay_seconds)
            elif rule.action == "exit":
                # A SIGKILL-equivalent crash: no cleanup, no atexit, no
                # flushed buffers — exactly what the crash-consistency tests
                # need at the WAL/repair/swap crash points.
                import os
                os._exit(137)
            else:
                raise InjectedFault(rule, ordinal)

    def snapshot(self) -> Dict[str, object]:
        return {
            "rules": len(self.rules),
            "matched_calls": list(self._counts),
            "injected": self.injected,
        }


def truncate_file(path: Union[str, Path], keep_bytes: int) -> None:
    """Simulate a torn write: keep only the first ``keep_bytes`` of ``path``."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[:max(0, int(keep_bytes))])


def flip_byte(path: Union[str, Path], offset: int, mask: int = 0xFF) -> None:
    """Simulate bit rot: XOR the byte at ``offset`` with ``mask``."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path}: empty file")
    data[offset % len(data)] ^= (mask & 0xFF)
    path.write_bytes(bytes(data))


def adversarial_jsonl(num_nodes: int, count: int,
                      valid_fraction: float = 0.5) -> List[str]:
    """A deterministic mixed stream of valid and malformed JSONL query lines.

    Used by the fault-injection smoke test and the CI job: ``count`` lines
    cycling through valid queries and every malformation category (parse
    errors, unknown types, out-of-range or non-finite ids, bad ``k``,
    non-finite epsilon).
    No randomness — line ``i`` is always the same string.
    """
    malformed: Sequence[str] = (
        "not json at all {",
        "[1, 2, 3]",
        '{"type": "unknown_kind", "source": 0}',
        '{"source": 0}',
        f'{{"type": "single_source", "source": {num_nodes + 7}}}',
        '{"type": "single_source", "source": -1}',
        '{"type": "single_pair", "source": 0}',
        f'{{"type": "single_pair", "source": 0, "target": {num_nodes}}}',
        '{"type": "top_k", "source": 0, "k": 0}',
        f'{{"type": "top_k", "source": 0, "k": {num_nodes + 1}}}',
        '{"type": "top_k", "source": 0, "k": "many"}',
        '{"type": "single_source", "source": 0, "epsilon": "NaN"}',
        '{"type": "single_source", "source": 0, "epsilon": -0.5}',
        '{"type": "single_source", "source": "zero"}',
        '{"type": "top_k", "source": 1, "k": 1e400}',
        '{"type": "single_source", "source": 1e400}',
        '{"type": "single_pair", "source": 0, "target": 1e400}',
    )
    valid_every = max(1, round(1.0 / max(valid_fraction, 1e-9)))
    lines: List[str] = []
    for i in range(count):
        if i % valid_every == 0:
            source = i % num_nodes
            variant = (i // valid_every) % 3
            if variant == 0:
                lines.append(f'{{"type": "single_source", "source": {source}}}')
            elif variant == 1:
                target = (source + 1) % num_nodes
                lines.append(f'{{"type": "single_pair", "source": {source}, '
                             f'"target": {target}}}')
            else:
                k = 1 + (i % min(8, num_nodes))
                lines.append(f'{{"type": "top_k", "source": {source}, "k": {k}}}')
        else:
            lines.append(malformed[i % len(malformed)])
    return lines


__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "ROUTE_DERIVED",
    "ROUTE_NATIVE",
    "UPDATE_APPLY",
    "UPDATE_REPAIR",
    "UPDATE_SWAP",
    "UPDATE_WAL_APPEND",
    "adversarial_jsonl",
    "flip_byte",
    "truncate_file",
]
