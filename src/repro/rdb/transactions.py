"""Undo-log transactions for the relational engine.

The paper's Fig. 14 experiment hinges on rollback cost: without STAR
checking, a blind translation executes, the side effect is discovered,
and *"the transaction has to rollback to undo all the changes"*, which
grows with the number of cascaded modifications.  This module provides
exactly that mechanism: every DML statement appends compensating
actions to the undo log; :meth:`TransactionManager.rollback` replays
them in reverse.

The log is also how the *hybrid* strategy of Step 3 recovers when the
engine raises a constraint violation mid-sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..errors import TransactionError

__all__ = ["UndoAction", "UndoKind", "TransactionManager"]


class UndoKind(enum.Enum):
    """What the *forward* operation was (the undo inverts it)."""

    INSERT = "insert"   # undo by deleting the inserted row
    DELETE = "delete"   # undo by restoring the deleted row image
    UPDATE = "update"   # undo by restoring the old column values


@dataclass
class UndoAction:
    kind: UndoKind
    relation_name: str
    rowid: int
    #: full old row image for DELETE, changed-columns old image for UPDATE
    old_values: dict[str, Any] = field(default_factory=dict)


class TransactionManager:
    """Single-level transaction scope over a database.

    The database calls :meth:`record` on every physical mutation; when
    no transaction is active the record goes to the enclosing auto-commit
    statement's scope (:meth:`open_statement`), or is discarded.
    """

    def __init__(self) -> None:
        self._log: list[UndoAction] = []
        self._active = False
        #: undo actions handed out for replay but not yet confirmed
        #: undone — an exception mid-replay leaves its tail here, and a
        #: later rollback resumes from it instead of abandoning it.
        #: Kept as a stack (the next action to undo is last), so that
        #: confirming a replayed group is one slice delete off the end
        self._pending: list[UndoAction] = []
        #: undo log of the running auto-commit statement, if any
        self._statement: Optional[list[UndoAction]] = None
        #: statistics for benchmarks: undo records written / replayed
        self.records_written = 0
        self.records_replayed = 0

    @property
    def active(self) -> bool:
        return self._active

    @property
    def log_length(self) -> int:
        return len(self._log)

    @property
    def pending(self) -> int:
        """Undo actions staged for replay but not yet confirmed undone."""
        return len(self._pending)

    def begin(self) -> None:
        if self._active:
            raise TransactionError("transaction already active")
        if self._pending:
            raise TransactionError(
                f"{len(self._pending)} undo action(s) from an interrupted "
                f"rollback are still pending; finish the rollback first"
            )
        self._active = True
        self._log.clear()

    def record(self, action: UndoAction) -> None:
        if self._active:
            self._log.append(action)
            self.records_written += 1
        elif self._statement is not None:
            self._statement.append(action)

    def record_all(self, actions: Sequence[UndoAction]) -> None:
        """:meth:`record` for a batch of actions, in order."""
        if self._active:
            self._log.extend(actions)
            self.records_written += len(actions)
        elif self._statement is not None:
            self._statement.extend(actions)

    def open_statement(self) -> bool:
        """Start recording an auto-commit statement's undo actions.

        Returns False, and records nothing, inside a transaction (its
        own log covers the statement) or inside an enclosing statement.
        """
        if self._active or self._statement is not None:
            return False
        self._statement = []
        return True

    def close_statement(self, failed: bool) -> list[UndoAction]:
        """End the statement scope (a no-op once ended).  A successful
        statement's log is dropped; a failed one's is staged on the
        pending tail, exactly like a rollback's
        (:meth:`take_rollback_log`), and handed back newest first for
        replay."""
        log, self._statement = self._statement or [], None
        if not failed:
            return []
        self._pending.extend(log)
        return log[::-1]

    def commit(self) -> None:
        if not self._active:
            raise TransactionError("no active transaction to commit")
        if self._pending:
            raise TransactionError(
                f"cannot commit: {len(self._pending)} undo action(s) from an "
                f"interrupted savepoint rollback are still pending"
            )
        self._active = False
        self._log.clear()

    def take_rollback_log(self) -> list[UndoAction]:
        """Close the transaction and hand the undo log (newest first).

        The handed-out actions are *also* staged on the pending list:
        the replayer confirms each replayed group via
        :meth:`confirm_undone`, so an exception mid-replay leaves exactly
        the unconsumed tail staged for :meth:`take_pending` to resume.
        """
        if not self._active:
            if self._pending:
                # resuming an interrupted rollback: hand the leftover
                # tail again without re-counting it as replayed
                return self.take_pending()
            raise TransactionError("no active transaction to roll back")
        self._active = False
        # newest-first replay order is the stack read from its top: the
        # older pending tail first, then this transaction's log on top
        self._pending.extend(self._log)
        self._log.clear()
        self.records_replayed += len(self._pending)
        return self.take_pending()

    def take_pending(self) -> list[UndoAction]:
        """The staged-but-unconfirmed undo tail of an interrupted replay,
        in replay order (newest first)."""
        return self._pending[::-1]

    def confirm_undone(self, actions: Sequence[UndoAction]) -> None:
        """Mark the next *actions* of the staged replay order (a prefix
        of what :meth:`take_pending` handed out) as replayed."""
        count = len(actions)
        if count and len(self._pending) >= count \
                and self._pending[-1] is actions[0]:
            del self._pending[-count:]

    def hard_reset(self) -> None:
        """Forget all volatile transaction state (simulated crash).

        The in-memory undo log and pending tail die with the process;
        after a crash only the write-ahead journal knows what to undo.
        :meth:`repro.rdb.database.Database.recover` calls this before
        replaying the journal.
        """
        self._active = False
        self._log.clear()
        self._pending.clear()
        self._statement = None

    # -- savepoints ----------------------------------------------------------

    def savepoint(self) -> int:
        """Mark the current undo-log position inside an active transaction.

        Batch sessions place one savepoint per queued update so a
        mid-batch failure can undo just that update (non-atomic mode)
        while the surrounding transaction stays open.
        """
        if not self._active:
            raise TransactionError("savepoints require an active transaction")
        return len(self._log)

    def take_rollback_to(self, mark: int) -> list[UndoAction]:
        """Hand the undo records after *mark* (newest first), keep the
        transaction active."""
        if not self._active:
            raise TransactionError("no active transaction to roll back")
        if mark < 0 or mark > len(self._log):
            raise TransactionError(f"invalid savepoint {mark!r}")
        tail = self._log[mark:]
        del self._log[mark:]
        self._pending.extend(tail)
        self.records_replayed += len(tail)
        return tail[::-1]
