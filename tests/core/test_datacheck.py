"""Step 3 strategy behaviour in detail."""

import pytest

from repro.core import Outcome, UFilter
from repro.rdb.sql.ast import InsertStatement
from repro.rdb.sql.parser import parse_statement
from repro.workloads import books, tpch
from repro.xquery import parse_view_update


@pytest.fixture()
def checker(book_db, book_view):
    return UFilter(book_db, book_view)


class TestContextCheck:
    def test_context_probe_rows_counted(self, checker):
        report = checker.check(books.update("u13"))
        assert report.data.context_rows == 1
        assert "SELECT" in report.data.context_sql

    def test_context_plan_renders_lazily(self, checker):
        report = checker.check(books.update("u13"))
        # the EXPLAIN tree is a thunk until read, then a cached string
        assert callable(report.data._context_plan)
        text = report.data.context_plan
        assert "Project" in text and "est." in text
        assert report.data.context_plan is text

    def test_empty_context_rejects(self, checker):
        report = checker.check(books.update("u3"))
        assert report.outcome is Outcome.DATA_CONFLICT
        assert report.data.context_rows == 0

    def test_root_target_skips_context_probe(self, checker):
        update = parse_view_update(
            """
            FOR $root IN document("v"), $b IN $root/book
            WHERE $b/bookid/text() = "98001"
            UPDATE $root { DELETE $b }
            """
        )
        report = checker.check(update)
        assert report.data.context_sql == ""


class TestOutsideStrategy:
    def test_key_probe_issued_for_inserts(self, checker):
        report = checker.check(books.update("u13"), strategy="outside")
        assert any("FROM review" in p for p in report.probe_queries)

    def test_driving_key_conflict_rejected(self, book_db, book_view):
        checker = UFilter(book_db, book_view)
        # make the review key already exist
        book_db.insert(
            "review",
            {"bookid": "98003", "reviewid": "001", "comment": "x",
             "reviewer": "y"},
        )
        report = checker.check(books.update("u13"), strategy="outside")
        assert report.outcome is Outcome.DATA_CONFLICT
        assert "same key" in report.reason

    def test_supporting_consistent_duplicate_skipped(self, book_db, book_view):
        checker = UFilter(book_db, book_view)
        update = parse_view_update(
            """
            FOR $root IN document("v")
            UPDATE $root {
            INSERT <book>
                <bookid>b9</bookid><title>T</title><price>5.00</price>
                <publisher><pubid>A01</pubid><pubname>McGraw-Hill Inc.</pubname></publisher>
            </book> }
            """
        )
        # BookView's book node is unsafe-insert; force through to Step 3
        report = checker.check(
            update, strategy="outside", execute=True, force_data_check=True
        )
        assert report.outcome is Outcome.TRANSLATED
        assert any("consistent duplicate" in n for n in report.data.notes)
        assert book_db.count("publisher") == 3  # nothing re-inserted
        assert book_db.count("book") == 4

    def test_supporting_inconsistent_duplicate_rejected(self, book_db, book_view):
        checker = UFilter(book_db, book_view)
        update = parse_view_update(
            """
            FOR $root IN document("v")
            UPDATE $root {
            INSERT <book>
                <bookid>b9</bookid><title>T</title><price>5.00</price>
                <publisher><pubid>A01</pubid><pubname>Wrong Name</pubname></publisher>
            </book> }
            """
        )
        report = checker.check(
            update, strategy="outside", execute=True, force_data_check=True
        )
        assert report.outcome is Outcome.DATA_CONFLICT
        assert "consistency" in report.reason
        assert book_db.count("book") == 3  # nothing applied

    def test_temp_table_cleaned_up(self, checker, book_db):
        before = set(book_db.tables)
        checker.check(books.update("u12"), strategy="outside")
        assert set(book_db.tables) == before


class TestHybridStrategy:
    def test_rollback_on_conflict(self, book_db, book_view):
        checker = UFilter(book_db, book_view)
        book_db.insert(
            "review",
            {"bookid": "98003", "reviewid": "001", "comment": "x",
             "reviewer": "y"},
        )
        counts = {name: book_db.count(name) for name in book_db.tables}
        report = checker.check(books.update("u13"), strategy="hybrid", execute=True)
        assert report.outcome is Outcome.DATA_CONFLICT
        assert "engine error" in report.reason
        assert any("rolled back" in n for n in report.data.notes)
        assert {name: book_db.count(name) for name in book_db.tables} == counts

    def test_zero_effect_warning(self, checker):
        report = checker.check(books.update("u12"), strategy="hybrid")
        assert report.data.zero_effect
        assert any("zero tuples" in n for n in report.data.notes)

    def test_respects_enclosing_transaction(self, book_db, book_view):
        checker = UFilter(book_db, book_view)
        book_db.begin()
        report = checker.check(books.update("u8"), strategy="hybrid", execute=True)
        assert report.outcome is Outcome.TRANSLATED
        # our transaction is still open; rollback undoes the update too
        book_db.rollback()
        assert book_db.count("review") == 2


class TestInternalStrategy:
    def test_mapping_view_sql_reported(self, checker):
        report = checker.check(books.update("u13"), strategy="internal")
        assert any("CREATE VIEW" in n for n in report.data.notes)

    def test_insert_goes_through_view(self, book_db, book_view):
        checker = UFilter(book_db, book_view)
        report = checker.check(books.update("u13"), strategy="internal", execute=True)
        assert report.outcome is Outcome.TRANSLATED
        assert book_db.count("review") == 3

    def test_planned_statements_are_sql(self, book_db, book_view):
        """Without execution the internal strategy reports the base-table
        statements it would issue — the same text execution issues, and
        text the SQL parser reads — and changes nothing."""
        planned = UFilter(book_db, book_view).check(
            books.update("u13"), strategy="internal"
        )
        assert book_db.count("review") == 2
        assert planned.outcome is Outcome.TRANSLATED
        statements = planned.data.statements
        assert statements and all(
            isinstance(parse_statement(sql), InsertStatement) for sql in statements
        )
        executed = UFilter(book_db, book_view).check(
            books.update("u13"), strategy="internal", execute=True
        )
        assert executed.data.statements == statements
        assert book_db.count("review") == 3

    def test_key_conflict_detected(self, book_db, book_view):
        checker = UFilter(book_db, book_view)
        book_db.insert(
            "review",
            {"bookid": "98003", "reviewid": "001", "comment": "different",
             "reviewer": "y"},
        )
        report = checker.check(books.update("u13"), strategy="internal", execute=True)
        assert report.outcome is Outcome.DATA_CONFLICT


class TestExpandedCascades:
    def test_expanded_equals_engine_cascade(self):
        db_a = tpch.build_tpch_database(tpch.scale_rows(0.5))
        db_b = tpch.build_tpch_database(tpch.scale_rows(0.5))
        update = tpch.delete_update("nation", 1)
        UFilter(db_a, tpch.v_success()).check(update, execute=True)
        UFilter(db_b, tpch.v_success()).check(
            update, execute=True, expand_cascades=True, strategy="hybrid"
        )
        for name in tpch.RELATIONS:
            assert db_a.count(name) == db_b.count(name), name

    def test_outside_expanded_early_exit(self):
        db = tpch.build_tpch_database(tpch.scale_rows(0.5))
        checker = UFilter(db, tpch.v_linear())
        update = parse_view_update(
            """
            FOR $root IN document("v"),
                $c IN $root/region/nation/customer
            WHERE $c/c_name/text() = "Nobody"
            UPDATE $root { DELETE $c }
            """
        )
        report = checker.check(
            update, strategy="outside", execute=True, expand_cascades=True
        )
        assert report.data.zero_effect
        assert report.data.rows_affected == 0
        assert any("deeper statements skipped" in n for n in report.data.notes)

    def test_hybrid_expanded_pays_all_statements(self):
        db = tpch.build_tpch_database(tpch.scale_rows(0.5))
        checker = UFilter(db, tpch.v_linear())
        update = parse_view_update(
            """
            FOR $root IN document("v"),
                $c IN $root/region/nation/customer
            WHERE $c/c_name/text() = "Nobody"
            UPDATE $root { DELETE $c }
            """
        )
        report = checker.check(
            update, strategy="hybrid", execute=True, expand_cascades=True
        )
        assert report.data.zero_effect
        # all three statements were issued despite deleting nothing
        assert len(report.sql_updates) == 3
