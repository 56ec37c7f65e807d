"""Cooperative query deadlines for the compute substrate.

A :class:`Deadline` is a wall-clock compute budget that the level-synchronous
loops check *cooperatively* at their natural boundaries — one check per
propagation level (:mod:`repro.kernels.multiprop`), per aggregated walk step
(:mod:`repro.randomwalk`).  Nothing is preempted: a loop that never
reaches a checkpoint never notices the deadline, and a checkpoint costs one
context-variable read plus a clock read, which is negligible next to the
numpy work each level performs (the serving bench records the overhead).

The deadline travels *implicitly*: the serving layer activates it with
:func:`deadline_scope` around a route execution, and any loop below — however
many call frames down — picks it up through :func:`active_deadline` /
:func:`checkpoint`.  This keeps the whole algorithm API unchanged (no
``deadline=`` parameter threaded through nine methods) while still being
explicit about *where* expiry can surface: exactly the declared checkpoint
kinds.

Two ways a loop can react to expiry:

* **raise** — :func:`checkpoint` raises :class:`DeadlineExceeded`; the
  serving layer catches it and turns it into a structured timeout.  This is
  the default for loops whose partial state is not a usable answer (walk
  ensembles, push propagations).
* **degrade** — loops whose partial state *is* a certified partial answer
  (the suffix-tail accumulations of SLING/PRSim/Linearization) instead poll
  :meth:`Deadline.expired` and return a degraded result carrying the
  remaining-tail error bound; see SLING's ``top_k`` and the
  ``single_source``/``single_source_batch`` implementations of the three
  methods.

This module lives in :mod:`repro.utils` (not :mod:`repro.service`) so the
kernels and the walk engine can import it without creating an import cycle
through the service package.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Callable, Optional

#: Checkpoint kinds — the loop boundaries at which expiry can surface.
CHECKPOINT_LEVEL = "level"              # one propagation level (multiprop, hop loops)
CHECKPOINT_WALK_BATCH = "walk-batch"    # one aggregated/compacted walk step
CHECKPOINT_BATCH = "batch"              # one serving-layer batch boundary

CHECKPOINT_KINDS = (CHECKPOINT_LEVEL, CHECKPOINT_WALK_BATCH, CHECKPOINT_BATCH)


class DeadlineExceeded(RuntimeError):
    """A cooperative checkpoint found its deadline expired.

    Carries the checkpoint kind that noticed the expiry, the configured
    budget and the elapsed seconds at the moment of the check — the fields
    the serving layer serializes into its structured timeout records.
    """

    def __init__(self, checkpoint: str, *, budget_seconds: float,
                 elapsed_seconds: float):
        super().__init__(
            f"deadline of {budget_seconds * 1e3:.1f} ms exceeded at "
            f"{checkpoint!r} checkpoint after {elapsed_seconds * 1e3:.1f} ms")
        self.checkpoint = checkpoint
        self.budget_seconds = float(budget_seconds)
        self.elapsed_seconds = float(elapsed_seconds)


class Deadline:
    """A wall-clock compute budget checked cooperatively at loop boundaries.

    Parameters
    ----------
    seconds:
        The budget.  Non-positive values mean "already expired" (useful in
        tests that exercise every degraded path deterministically).
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    __slots__ = ("budget_seconds", "_clock", "_started_at", "checkpoints_passed")

    def __init__(self, seconds: float, *,
                 clock: Callable[[], float] = time.monotonic):
        self.budget_seconds = float(seconds)
        self._clock = clock
        self._started_at = clock()
        self.checkpoints_passed = 0

    @classmethod
    def after_ms(cls, milliseconds: float, *,
                 clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(milliseconds / 1e3, clock=clock)

    def elapsed(self) -> float:
        return self._clock() - self._started_at

    def remaining(self) -> float:
        return self.budget_seconds - self.elapsed()

    def expired(self) -> bool:
        return self.elapsed() >= self.budget_seconds

    def check(self, checkpoint: str = CHECKPOINT_LEVEL) -> None:
        """Count one checkpoint; raise :class:`DeadlineExceeded` if expired."""
        self.checkpoints_passed += 1
        elapsed = self.elapsed()
        if elapsed >= self.budget_seconds:
            raise DeadlineExceeded(checkpoint,
                                   budget_seconds=self.budget_seconds,
                                   elapsed_seconds=elapsed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Deadline(budget={self.budget_seconds:.3f}s, "
                f"elapsed={self.elapsed():.3f}s)")


#: The deadline active for the current (logical) execution context, if any.
_ACTIVE: ContextVar[Optional[Deadline]] = ContextVar("repro_active_deadline",
                                                     default=None)


def active_deadline() -> Optional[Deadline]:
    """The deadline installed by the nearest enclosing :func:`deadline_scope`."""
    return _ACTIVE.get()


class deadline_scope:
    """Install ``deadline`` as the active one for the duration of the block.

    ``None`` is accepted and installs nothing (callers can pass an optional
    deadline through unconditionally); scopes nest, the innermost wins.

    A plain context-manager class rather than ``@contextmanager``: the scope
    wraps *every* deadlined query, and skipping the generator machinery
    keeps the per-query overhead to two context-variable operations.
    """

    __slots__ = ("_deadline", "_token")

    def __init__(self, deadline: Optional[Deadline]):
        self._deadline = deadline
        self._token = None

    def __enter__(self) -> Optional[Deadline]:
        if self._deadline is not None:
            self._token = _ACTIVE.set(self._deadline)
        return self._deadline

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None


def checkpoint(kind: str = CHECKPOINT_LEVEL) -> None:
    """Hot-path checkpoint: no-op without an active deadline, else check it.

    Loops call this once per level/step; with no deadline installed the cost
    is a single context-variable read.
    """
    deadline = _ACTIVE.get()
    if deadline is not None:
        deadline.check(kind)


__all__ = [
    "CHECKPOINT_BATCH",
    "CHECKPOINT_KINDS",
    "CHECKPOINT_LEVEL",
    "CHECKPOINT_WALK_BATCH",
    "Deadline",
    "DeadlineExceeded",
    "active_deadline",
    "checkpoint",
    "deadline_scope",
]
