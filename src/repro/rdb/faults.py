"""Deterministic fault injection for the storage and apply layers.

The engine's crash-consistency story (:mod:`repro.rdb.wal`) is only as
good as the crash points it survives, so every mutation path is
threaded with **named injection sites**: tuple storage
(``table.insert`` / ``table.restore`` / ``table.delete`` /
``table.update``), index maintenance (``index.add`` / ``index.remove``
per row, ``index.add_rows`` / ``index.remove_rows`` per batch),
undo replay (``undo.rollback`` for full rollbacks, ``undo.savepoint``
for partial ones), the journal itself (``wal.record`` / ``wal.intent``
/ ``wal.commit``), the data-check apply helpers (``datacheck.delete`` /
``datacheck.insert`` / ``datacheck.replace``) and the session's
deferred apply (``session.apply``).

A :class:`FaultInjector` hangs off every :class:`~repro.rdb.database.
Database` (and is shared with its tables and indexes).  Disarmed it is
a no-op on the hot path; armed with a :class:`FaultPlan` it fires a
simulated failure at exactly the *N*-th matched site hit, which makes
crash enumeration exhaustive: record a run's site trace once, then
replay it *N* times crashing at point 1, 2, ..., *N*
(:mod:`repro.core.faultsweep`).

Two failure shapes:

* ``crash`` — raise :class:`SimulatedCrash`, a ``BaseException`` that
  sails past every ``except ReproError`` / ``except Exception`` handler
  the way a killed process sails past them, leaving whatever torn state
  the mutation had reached for :meth:`Database.recover` to repair;
* ``error`` / ``conflict`` — raise a *transient* exception
  (:class:`FaultInjectedError` / :class:`~repro.errors.ConflictError`)
  that the session retry policy is expected to absorb.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator, Optional

from ..errors import ConflictError, TransientError

__all__ = [
    "FaultInjectedError",
    "FaultInjector",
    "FaultPlan",
    "SimulatedCrash",
]

#: actions a plan may take when its trigger point is reached
ACTIONS = ("crash", "error", "conflict")


class SimulatedCrash(BaseException):
    """The process 'died' at an injection site.

    Deliberately a ``BaseException``: rollback handlers, the hybrid
    strategy's ``except ConstraintViolation`` and the scenario
    generator's ``except Exception`` must all be blind to it, exactly
    as they would be to a SIGKILL.  Only the fault-sweep harness (and
    tests) catch it, then drive recovery.
    """

    def __init__(self, site: str, hit: int) -> None:
        self.site = site
        self.hit = hit
        super().__init__(f"simulated crash at site {site!r} (hit #{hit})")


class FaultInjectedError(TransientError):
    """A transient engine fault injected at a named site.

    Models the recoverable failures a real deployment sees (lock
    timeouts, snapshot-too-old, transient I/O errors): the session
    retry loop should absorb it within its budget.
    """

    def __init__(self, site: str, hit: int) -> None:
        self.site = site
        self.hit = hit
        super().__init__(f"injected transient fault at site {site!r} (hit #{hit})")


class FaultPlan:
    """Fire one simulated failure at the *N*-th matched site hit.

    Parameters
    ----------
    at:
        1-based index among the hits this plan matches.
    action:
        ``crash`` (raise :class:`SimulatedCrash`), ``error``
        (:class:`FaultInjectedError`) or ``conflict``
        (:class:`~repro.errors.ConflictError`).
    site:
        Optional site-name prefix filter (``"index."`` matches
        ``index.add`` and ``index.remove``); ``None`` matches every
        site.
    times:
        How many times the plan fires before disarming itself.  The
        default of 1 makes transient-fault plans naturally retryable:
        the retry re-runs the same sites and the plan stays quiet.
    """

    def __init__(
        self,
        at: int,
        action: str = "crash",
        site: Optional[str] = None,
        times: int = 1,
    ) -> None:
        if at < 1:
            raise ValueError(f"trigger point must be >= 1, got {at}")
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r}; pick one of {ACTIONS}")
        self.at = at
        self.action = action
        self.site = site
        self.times = times
        #: matched hits seen so far
        self.seen = 0
        #: times the plan has fired
        self.fired = 0

    @classmethod
    def seeded(
        cls, seed: int, total_sites: int, actions: tuple[str, ...] = ACTIONS
    ) -> "FaultPlan":
        """Draw a deterministic plan from *seed*: a random trigger point
        in ``1..total_sites`` and a random action."""
        rng = random.Random(seed)
        return cls(
            at=rng.randrange(1, max(total_sites, 1) + 1),
            action=rng.choice(list(actions)),
        )

    def matches(self, site: str) -> bool:
        return self.site is None or site.startswith(self.site)

    def on_hit(self, site: str) -> None:
        if self.fired >= self.times or not self.matches(site):
            return
        self.seen += 1
        if self.seen != self.at:
            return
        self.fired += 1
        self.seen = 0  # re-arm counting for times > 1
        if self.action == "crash":
            raise SimulatedCrash(site, self.at)
        if self.action == "conflict":
            raise ConflictError(
                f"injected conflict at site {site!r} (hit #{self.at}): "
                f"a concurrent committer won"
            )
        raise FaultInjectedError(site, self.at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = f", site={self.site!r}" if self.site else ""
        return f"FaultPlan(at={self.at}, action={self.action!r}{scope})"


class FaultInjector:
    """Per-database registry of injection sites.

    Disarmed (no plan, not recording) the per-site cost is one
    attribute check.  Armed, every :meth:`hit` consults the plan —
    which may raise — and/or appends to the recording trace.
    """

    def __init__(self) -> None:
        self.plan: Optional[FaultPlan] = None
        self._trace: Optional[list[str]] = None
        self._suspended = 0
        #: total site hits observed while armed (plan or recording)
        self.hits = 0

    @property
    def armed(self) -> bool:
        return self.plan is not None or self._trace is not None

    def hit(self, site: str, relation: Optional[str] = None) -> None:
        """Announce one pass through a named injection site."""
        if (self.plan is None and self._trace is None) or self._suspended:
            return
        self.hits += 1
        if self._trace is not None:
            self._trace.append(
                f"{site}({relation})" if relation is not None else site
            )
        if self.plan is not None:
            self.plan.on_hit(site)

    # -- arming --------------------------------------------------------------

    def arm(self, plan: FaultPlan) -> FaultPlan:
        self.plan = plan
        return plan

    def disarm(self) -> None:
        self.plan = None

    # -- site enumeration ----------------------------------------------------

    def start_recording(self) -> None:
        """Begin collecting the site trace (for crash-point enumeration)."""
        self._trace = []

    def stop_recording(self) -> list[str]:
        trace, self._trace = self._trace, None
        return trace or []

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """No sites fire inside this block (recovery runs under it —
        crash-during-recovery is repaired by simply recovering again)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "recording" if self._trace is not None else (
            repr(self.plan) if self.plan else "disarmed"
        )
        return f"<FaultInjector {state}, {self.hits} hit(s)>"


#: shared disarmed injector for tables/indexes constructed outside a
#: Database (unit tests); Database replaces it with its own instance
NULL_INJECTOR = FaultInjector()


def _noop_hit(site: str, relation: Optional[str] = None) -> None:
    return None
