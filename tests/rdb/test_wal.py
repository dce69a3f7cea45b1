"""Write-ahead journal and crash recovery.

Covers the journal record stream (framing, torn tails, the value
codec), :meth:`Database.recover`'s roll-back and intent-redo paths, and
the recovery edge cases: empty journal, torn final record, recovering
twice, file-backed reopen.
"""

import datetime
import json
import zlib

import pytest

from repro.errors import DatabaseError
from repro.rdb import FaultPlan, SimulatedCrash, WriteAheadLog
from repro.rdb.wal import _frame, _unframe, decode_row, encode_row
from repro.workloads import books


def _db():
    db = books.build_book_database()
    db.attach_wal()
    return db


def _state(db):
    return {
        relation: sorted(
            tuple(sorted(row.items())) for _, row in db.table(relation).scan()
        )
        for relation in db.tables
    }


# ---------------------------------------------------------------------------
# the journal itself
# ---------------------------------------------------------------------------


class TestJournal:
    def test_commit_checkpoints_the_journal(self):
        db = _db()
        db.begin()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        assert any(r["t"] == "undo" for r in db.wal.records())
        db.commit()
        assert len(db.wal) == 0
        assert db.wal.barriers >= 1

    def test_autocommit_statement_gets_its_own_txn(self):
        db = _db()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        # the statement's journal txn committed and checkpointed away
        assert len(db.wal) == 0
        assert db.wal.appends >= 2  # begin + undo at least

    def test_undo_image_written_before_commit(self):
        db = _db()
        db.begin()
        rowid = db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        records = db.wal.records()
        assert records[0]["t"] == "begin"
        undo = [r for r in records if r["t"] == "undo"]
        assert {"k": "insert", "rel": "publisher", "rid": rowid}.items() <= (
            undo[0].items()
        )
        db.rollback()

    def test_end_txn_rejects_unknown_status(self):
        wal = WriteAheadLog()
        txn = wal.begin_txn()
        with pytest.raises(DatabaseError):
            wal.end_txn(txn, "maybe")

    def test_date_values_round_trip(self):
        row = {"d": datetime.date(1999, 1, 2), "s": "x", "n": None, "i": 3}
        encoded = encode_row(row)
        assert encoded["d"] == {"__date__": "1999-01-02"}
        assert decode_row(encoded) == row

    def test_torn_tail_hides_the_last_record(self):
        wal = WriteAheadLog()
        txn = wal.begin_txn()
        wal.log_undo(txn, "insert", "book", 1)
        wal.log_undo(txn, "insert", "book", 2)
        wal.tear_tail()
        kinds = [(r["t"], r.get("rid")) for r in wal.records()]
        assert kinds == [("begin", None), ("undo", 1)]

    def test_incomplete_txns_and_pending_intents(self):
        wal = WriteAheadLog()
        done = wal.begin_txn()
        wal.log_undo(done, "insert", "book", 1)
        wal.end_txn(done, "commit")
        crashed = wal.begin_txn()
        wal.log_intent(crashed, "u1", [{"op": "delete", "rel": "book"}])
        wal.log_undo(crashed, "delete", "book", 2, {"title": "T"})
        incomplete = wal.incomplete_txns()
        assert list(incomplete) == [crashed]
        assert [r["t"] for r in incomplete[crashed]] == ["intent", "undo"]
        assert [i["name"] for i in wal.pending_intents()] == ["u1"]

    def test_file_backed_journal_reopens(self, tmp_path):
        path = tmp_path / "apply.wal"
        wal = WriteAheadLog(path)
        txn = wal.begin_txn()
        wal.log_undo(txn, "insert", "book", 7)
        wal.end_txn(txn, "commit")
        reopened = WriteAheadLog(path)
        assert [r["t"] for r in reopened.records()] == ["begin", "undo", "end"]
        assert reopened.begin_txn() > txn  # ids keep advancing

    def test_file_backed_truncate_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "apply.wal"
        wal = WriteAheadLog(path)
        txn = wal.begin_txn()
        wal.log_undo(txn, "insert", "book", 7)
        content = path.read_text()
        path.write_text(content[:-8])  # the crash tore the final write
        reopened = WriteAheadLog(path)
        assert [r["t"] for r in reopened.records()] == ["begin"]
        assert list(reopened.incomplete_txns()) == [txn]


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_recover_without_wal_is_a_noop(self):
        db = books.build_book_database()
        report = db.recover()
        assert not report.recovered

    def test_empty_journal_recovers_to_nothing(self):
        db = _db()
        before = _state(db)
        report = db.recover()
        assert not report.recovered
        assert report.undo_applied == 0
        assert db.recovery_epoch == 0
        assert _state(db) == before

    def test_abandoned_txn_rolls_back(self):
        db = _db()
        before = _state(db)
        db.begin()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        db.update("book", 1, {"price": 1.23})
        # the process dies here: nobody commits, nobody rolls back
        report = db.recover()
        assert report.recovered
        assert report.undo_applied == 2
        assert _state(db) == before
        assert db.verify_integrity() == []
        assert db.recovery_epoch == 1

    def test_crash_mid_cascade_recovers_atomically(self):
        db = _db()
        before = _state(db)
        db.faults.arm(FaultPlan(at=4, action="crash"))
        with pytest.raises(SimulatedCrash):
            # the paper's cascading delete: publisher -> books -> reviews
            db.delete("publisher", [1])
        db.faults.disarm()
        report = db.recover()
        assert report.recovered
        assert _state(db) == before
        assert db.verify_integrity() == []

    def test_double_recover_finds_nothing(self):
        db = _db()
        before = _state(db)
        db.begin()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        first = db.recover()
        assert first.recovered
        second = db.recover()
        assert not second.recovered
        assert second.undo_applied == 0
        assert _state(db) == before
        assert db.recovery_epoch == 1  # only the real recovery bumped it

    def test_torn_final_undo_record_is_ignored(self):
        db = _db()
        before = _state(db)
        db.begin()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        # the crash tears the journal's final line mid-write: that undo
        # image never made it to disk, so its mutation never ran either
        db.wal.log_undo(db._wal_txn, "insert", "publisher", 999)
        db.wal.tear_tail()
        report = db.recover()
        assert report.recovered
        assert report.undo_applied == 1
        assert _state(db) == before
        assert db.verify_integrity() == []

    def test_crash_during_rollback_recovers(self):
        db = _db()
        before = _state(db)
        db.begin()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        db.insert("publisher", {"pubid": "Z02", "pubname": "Zed 2"})
        db.faults.arm(FaultPlan(at=1, site="undo.", action="crash"))
        with pytest.raises(SimulatedCrash):
            db.rollback()
        db.faults.disarm()
        report = db.recover()  # recovery re-applies the journal's images
        assert report.recovered
        assert _state(db) == before
        assert db.verify_integrity() == []

    def test_file_backed_reopen_then_recover(self, tmp_path):
        path = tmp_path / "apply.wal"
        db = books.build_book_database()
        db.attach_wal(WriteAheadLog(path))
        before = _state(db)
        db.begin()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        # "reopen after restart": a fresh journal object over the file
        db.attach_wal(WriteAheadLog(path))
        report = db.recover()
        assert report.recovered
        assert _state(db) == before
        assert db.verify_integrity() == []


# ---------------------------------------------------------------------------
# intent redo
# ---------------------------------------------------------------------------


class TestIntentRedo:
    def test_pending_intent_replays(self):
        db = _db()
        db.begin()
        db.log_intent(
            "u1",
            [{"op": "insert", "rel": "publisher",
              "values": {"pubid": "Z01", "pubname": "Zed"}}],
        )
        # crash before the op ran
        report = db.recover(redo=True)
        assert report.redone == ["u1"]
        assert not report.redo_failed
        rows = [row for _, row in db.table("publisher").scan()]
        assert {"pubid": "Z01", "pubname": "Zed"} in rows
        assert db.verify_integrity() == []

    def test_partially_applied_intent_rolls_back_then_replays(self):
        db = _db()
        db.begin()
        db.log_intent(
            "u1",
            [{"op": "update", "rel": "book", "rowids": [1],
              "changes": {"price": 1.5}}],
        )
        db.update("book", 1, {"price": 1.5})
        # crash after the mutation but before the commit marker
        report = db.recover(redo=True)
        assert report.redone == ["u1"]
        assert db.row("book", 1)["price"] == 1.5
        assert db.verify_integrity() == []

    def test_failed_redo_rolls_back_its_own_txn(self):
        db = _db()
        before = _state(db)
        db.begin()
        db.log_intent(
            "bad",
            [{"op": "insert", "rel": "publisher",
              "values": {"pubid": "A01", "pubname": "Dup"}}],  # PK collision
        )
        report = db.recover(redo=True)
        assert report.redo_failed == ["bad"]
        assert report.redone == []
        assert _state(db) == before
        assert db.verify_integrity() == []

    def test_without_redo_intents_are_only_reported(self):
        db = _db()
        before = _state(db)
        db.begin()
        db.log_intent(
            "u1",
            [{"op": "insert", "rel": "publisher",
              "values": {"pubid": "Z01", "pubname": "Zed"}}],
        )
        report = db.recover()
        assert [i["name"] for i in report.pending_intents] == ["u1"]
        assert report.redone == []
        assert _state(db) == before


# ---------------------------------------------------------------------------
# line framing: "<crc32> <payload>", the record encoded once
# ---------------------------------------------------------------------------


class TestFraming:
    RECORD = {"t": "undo", "x": 3, "k": "delete", "rel": "review", "rid": 9,
              "old": encode_row({"comment": "it's \"fine\"", "d": datetime.date(2001, 2, 3)})}

    def test_line_is_crc_space_payload(self):
        line = _frame(self.RECORD)
        crc, payload = line.split(" ", 1)
        assert int(crc) == zlib.crc32(payload.encode("utf-8"))
        assert json.loads(payload) == self.RECORD
        assert _unframe(line) == self.RECORD

    def test_every_torn_prefix_reads_as_none(self):
        line = _frame(self.RECORD)
        for cut in range(len(line)):
            assert _unframe(line[:cut]) is None, line[:cut]

    @pytest.mark.parametrize(
        "line",
        [
            "",
            " {}",
            "x1 {}",
            "² {}",
            f"{zlib.crc32(b'[1]')} [1]",          # valid CRC, not a record
            f"{zlib.crc32(b'{}') + 1} {{}}",       # CRC mismatch
            f"{zlib.crc32(b'{')} {{",              # valid CRC, bad JSON
        ],
    )
    def test_corrupt_lines_read_as_none(self, line):
        assert _unframe(line) is None

    def test_corrupt_middle_line_ends_the_valid_prefix(self):
        wal = WriteAheadLog()
        txn = wal.begin_txn()
        wal.log_undo(txn, "insert", "book", 1)
        wal.log_undo(txn, "insert", "book", 2)
        wal._lines[1] = wal._lines[1].replace('"rid":1', '"rid":7')
        assert [r["t"] for r in wal.records()] == ["begin"]
