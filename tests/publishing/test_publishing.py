"""Default XML view (Fig. 2) and the mapping relational view (Fig. 11)."""

import pytest

from repro.core import build_base_asg, build_view_asg, mark_view_asg
from repro.errors import UniqueViolation
from repro.publishing import MappingRelationalView, default_xml_view
from repro.xml import evaluate_path


class TestDefaultView:
    def test_structure_matches_fig2(self, book_db):
        doc = default_xml_view(book_db)
        assert doc.tag == "DB"
        assert [child.tag for child in doc.child_elements()] == [
            "publisher", "book", "review",
        ]
        rows = evaluate_path(doc, "book/row")
        assert len(rows) == 3
        assert rows[0].value_of("bookid") == "98001"

    def test_values_rendered(self, book_db):
        doc = default_xml_view(book_db)
        prices = evaluate_path(doc, "book/row/price/text()")
        assert prices == ["37.00", "45.00", "48.00"]
        years = evaluate_path(doc, "book/row/year/text()")
        assert years == ["1997", "1985", "2004"]

    def test_subset_of_relations(self, book_db):
        doc = default_xml_view(book_db, relations=["publisher"])
        assert [child.tag for child in doc.child_elements()] == ["publisher"]

    def test_null_becomes_empty_element(self, book_db):
        book_db.insert(
            "review",
            {"bookid": "98003", "reviewid": "009", "comment": None,
             "reviewer": "x"},
        )
        doc = default_xml_view(book_db)
        comment = evaluate_path(doc, "review/row[reviewid='009']/comment")
        assert comment[0].text_content() == ""


class TestMappingRelationalView:
    @pytest.fixture()
    def view(self, book_db, book_view):
        asg = build_view_asg(book_view, book_db.schema)
        base = build_base_asg(asg, book_db.schema)
        mark_view_asg(asg, base)
        return MappingRelationalView(book_db, asg)

    def test_chain_parent_first(self, view):
        assert view.chain == ["publisher", "book", "review"]

    def test_create_view_sql_shape(self, view):
        sql = view.create_view_sql()
        assert sql.startswith("CREATE VIEW MappingView AS SELECT")
        assert "LEFT JOIN" in sql
        assert "book.bookid = review.bookid" in sql

    def test_rows_match_fig11(self, view):
        rows = view.rows()
        # Fig. 11: book 98001 twice (two reviews), 98003 once with NULLs,
        # 98002 once, plus publisher B01 with no books
        with_books = [r for r in rows if r["book.bookid"] is not None]
        assert len(with_books) == 4
        b01 = [r for r in rows if r["publisher.pubid"] == "B01"]
        assert len(b01) == 1 and b01[0]["book.bookid"] is None
        nulls = [r for r in rows if r["book.bookid"] == "98003"]
        assert nulls[0]["review.reviewid"] is None

    def test_insert_skips_existing_parents(self, view, book_db):
        issued = view.insert(
            {
                "publisher.pubid": "A01",
                "publisher.pubname": "McGraw-Hill Inc.",
                "book.bookid": "98003",
                "book.title": "Data on the Web",
                "book.pubid": "A01",
                "book.price": 48.0,
                "review.bookid": "98003",
                "review.reviewid": "001",
                "review.comment": "easy read",
            }
        )
        assert len(issued) == 1 and issued[0].startswith("INSERT INTO review")
        assert book_db.count("review") == 3

    def test_insert_conflicting_parent_rejected(self, view):
        with pytest.raises(UniqueViolation):
            view.insert(
                {
                    "publisher.pubid": "A01",
                    "publisher.pubname": "Wrong Name",
                    "book.bookid": "b9",
                    "book.title": "T",
                    "book.pubid": "A01",
                }
            )

    def test_delete_through_view(self, view, book_db):
        issued = view.delete("review", {"bookid": "98001"})
        assert issued and book_db.count("review") == 0

    def test_insert_and_delete_sql_rendering(self, view, book_db):
        """The internal strategy's statements name their columns,
        parenthesize the values, and render values as SQL literals
        (quotes doubled, NULL spelled out) — text an SQL engine takes."""
        import sqlite3

        insert = view.insert(
            {
                "book.bookid": "98003",
                "review.bookid": "98003",
                "review.reviewid": "007",
                "review.comment": "it's fine",
            }
        )
        delete = view.delete("review", {"bookid": "98003", "comment": "it's fine"})
        assert insert == [
            "INSERT INTO review (bookid, reviewid, comment, reviewer) "
            "VALUES ('98003', '007', 'it''s fine', NULL)"
        ]
        assert delete == [
            "DELETE FROM review WHERE bookid = '98003' AND comment = 'it''s fine'"
        ]
        assert book_db.count("review") == 2
        # stdlib sqlite3 accepts both statements and reads the quote back
        connection = sqlite3.connect(":memory:")
        connection.execute(
            "CREATE TABLE review (bookid, reviewid, comment, reviewer)"
        )
        connection.execute(insert[0])
        assert connection.execute("SELECT comment FROM review").fetchall() == [
            ("it's fine",)
        ]
        connection.execute(delete[0])
        assert connection.execute("SELECT COUNT(*) FROM review").fetchone() == (0,)
        connection.close()

    def test_delete_renders_dates_and_numbers_as_sql_literals(self, view):
        import datetime

        issued = view.delete(
            "book", {"year": datetime.date(1999, 5, 1), "price": 48.0}
        )
        assert issued == [
            "DELETE FROM book WHERE year = DATE '1999-05-01' AND price = 48.0"
        ]

    def test_delete_unknown_relation_rejected(self, view):
        from repro.errors import UFilterError

        with pytest.raises(UFilterError):
            view.delete("ghost", {})

    def test_columns_listing(self, view):
        assert ("book", "title") in view.columns
        assert ("review", "reviewer") in view.columns
