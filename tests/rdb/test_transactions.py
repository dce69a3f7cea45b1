"""TransactionManager unit behaviour (the undo-log machinery itself)."""

import pytest

from repro.errors import TransactionError
from repro.rdb.transactions import TransactionManager, UndoAction, UndoKind


def test_inactive_by_default():
    txn = TransactionManager()
    assert not txn.active


def test_begin_activates():
    txn = TransactionManager()
    txn.begin()
    assert txn.active


def test_records_only_when_active():
    txn = TransactionManager()
    txn.record(UndoAction(UndoKind.INSERT, "t", 1))
    assert txn.log_length == 0
    txn.begin()
    txn.record(UndoAction(UndoKind.INSERT, "t", 1))
    assert txn.log_length == 1


def test_commit_clears_and_deactivates():
    txn = TransactionManager()
    txn.begin()
    txn.record(UndoAction(UndoKind.INSERT, "t", 1))
    txn.commit()
    assert not txn.active and txn.log_length == 0


def test_rollback_log_reversed():
    txn = TransactionManager()
    txn.begin()
    txn.record(UndoAction(UndoKind.INSERT, "t", 1))
    txn.record(UndoAction(UndoKind.DELETE, "t", 2, {"a": 1}))
    log = txn.take_rollback_log()
    assert [a.rowid for a in log] == [2, 1]
    assert not txn.active


def test_double_begin_rejected():
    txn = TransactionManager()
    txn.begin()
    with pytest.raises(TransactionError):
        txn.begin()


def test_commit_without_begin_rejected():
    with pytest.raises(TransactionError):
        TransactionManager().commit()


def test_rollback_without_begin_rejected():
    with pytest.raises(TransactionError):
        TransactionManager().take_rollback_log()


def test_statistics_counters():
    txn = TransactionManager()
    txn.begin()
    txn.record(UndoAction(UndoKind.UPDATE, "t", 1, {"a": 0}))
    txn.record(UndoAction(UndoKind.UPDATE, "t", 2, {"a": 0}))
    assert txn.records_written == 2
    txn.take_rollback_log()
    assert txn.records_replayed == 2


def test_new_transaction_starts_clean():
    txn = TransactionManager()
    txn.begin()
    txn.record(UndoAction(UndoKind.INSERT, "t", 1))
    txn.commit()
    txn.begin()
    assert txn.log_length == 0


def test_statement_scope_records_outside_transactions():
    txn = TransactionManager()
    assert txn.open_statement()
    assert not txn.open_statement()  # nested statements share the scope
    first = UndoAction(UndoKind.INSERT, "t", 1)
    second = UndoAction(UndoKind.DELETE, "t", 2)
    txn.record(first)
    txn.record(second)
    assert txn.log_length == 0 and txn.records_written == 0
    # a failed statement's log is staged like a rollback's, newest first
    assert txn.close_statement(failed=True) == [second, first]
    assert txn.pending == 2
    assert txn.close_statement(failed=True) == []  # already closed
    txn.confirm_undone([second, first])
    assert txn.pending == 0
    assert txn.open_statement()
    txn.record(first)
    assert txn.close_statement(failed=False) == []
    assert txn.pending == 0


def test_no_statement_scope_inside_a_transaction():
    txn = TransactionManager()
    txn.begin()
    assert not txn.open_statement()
    txn.record(UndoAction(UndoKind.INSERT, "t", 1))
    assert txn.log_length == 1
