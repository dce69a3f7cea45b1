"""Update-language parsing and application to materialized views."""

import pytest

from repro.errors import ReproError, UpdateSyntaxError, XQueryError
from repro.workloads import books
from repro.xml import evaluate_path
from repro.xquery import (
    DeleteOp,
    ReplaceOp,
    apply_view_update,
    evaluate_view,
    parse_view_update,
)


class TestParsing:
    def test_u2_structure(self):
        update = books.update("u2")
        assert [binding.var for binding in update.bindings] == ["root", "book"]
        assert update.target_var == "root"
        assert isinstance(update.ops[0], DeleteOp)
        assert update.ops[0].path.segments == ("publisher",)

    def test_u6_text_delete(self):
        update = books.update("u6")
        assert update.ops[0].path.text_fn

    def test_u1_fragment_normalized(self):
        fragment = books.update("u1").ops[0].fragment
        assert fragment.value_of("bookid") == "98004"   # quotes stripped
        assert fragment.value_of("title") == ""          # whitespace-only
        assert fragment.value_of("price") == "0.00"

    def test_equals_binding_form(self):
        update = books.update("u9")  # $book = $root/book
        assert update.bindings[1].var == "book"

    def test_predicates_parsed(self):
        update = books.update("u8")
        assert update.where[0].op == "<"
        assert update.where[0].right == 40.0

    def test_replace_parses(self):
        update = parse_view_update(
            """
            FOR $b IN document("v.xml")/book
            UPDATE $b { REPLACE $b/price WITH <price>10.00</price> }
            """
        )
        assert isinstance(update.ops[0], ReplaceOp)
        assert update.ops[0].fragment.text_content() == "10.00"

    def test_multiple_ops(self):
        update = parse_view_update(
            """
            FOR $b IN document("v.xml")/book
            UPDATE $b {
                DELETE $b/review,
                INSERT <review><reviewid>9</reviewid></review> }
            """
        )
        assert update.kind == "mixed"
        assert len(update.ops) == 2

    def test_missing_update_keyword_rejected(self):
        with pytest.raises(UpdateSyntaxError):
            parse_view_update('FOR $b IN document("v")/book { DELETE $b }')

    def test_unbalanced_fragment_rejected(self):
        with pytest.raises(Exception):
            parse_view_update(
                'FOR $b IN document("v")/book UPDATE $b { INSERT <x><y></x> }'
            )

    def test_kind_property(self):
        assert books.update("u1").kind == "insert"
        assert books.update("u2").kind == "delete"

    def test_str_rendering(self):
        text = str(books.update("u2"))
        assert "DELETE $book/publisher" in text

    @pytest.mark.parametrize(
        "text, message",
        [
            # a path segment led by a non-ASCII letter
            (
                'FOR $r IN document("V.xml"), $x IN $r/\u00e9 '
                "UPDATE $r { DELETE $x }",
                "unexpected character '\u00e9' at offset 38",
            ),
            # an operand led by one
            (
                'FOR $r IN document("V.xml") WHERE $r/a < \u00e9 '
                "UPDATE $r { DELETE $r }",
                "unexpected character '\u00e9' at offset 41",
            ),
            # '<' before one reads as a tag open, which then has no name
            (
                'FOR $r IN document("V.xml") WHERE $r/a <\u00e9 '
                "UPDATE $r { DELETE $r }",
                "malformed tag at offset 39",
            ),
        ],
    )
    def test_non_ascii_letter_is_a_syntax_error(self, text, message):
        with pytest.raises(XQueryError) as caught:
            parse_view_update(text)
        assert isinstance(caught.value, ReproError)
        assert str(caught.value).startswith(message)


class TestApplication:
    @pytest.fixture()
    def doc(self, book_db, book_view):
        return evaluate_view(book_db, book_view)

    def test_insert_appends_clone(self, doc):
        result = apply_view_update(doc, books.update("u13"))
        assert result.matched_bindings == 1
        inserted = evaluate_path(doc, "book[bookid='98003']/review")
        assert len(inserted) == 1

    def test_insert_does_not_share_fragment(self, doc):
        update = books.update("u13")
        apply_view_update(doc, update)
        evaluate_path(doc, "book[bookid='98003']/review")[0].detach()
        # original fragment untouched
        assert update.ops[0].fragment.value_of("reviewid") == "001"

    def test_delete_removes_matched(self, doc):
        result = apply_view_update(doc, books.update("u8"))
        assert len(result.deleted) == 2
        assert evaluate_path(doc, "//review") == []

    def test_delete_with_no_match_changes_nothing(self, doc):
        result = apply_view_update(doc, books.update("u3"))
        assert not result.changed and result.matched_bindings == 0

    def test_predicate_filters_bindings(self, doc):
        result = apply_view_update(doc, books.update("u9"))
        assert [d.value_of("bookid") for d in result.deleted] == ["98003"]

    def test_numeric_comparison_on_text(self, doc):
        # price stored as "48.00" text; predicate is > 40.00
        result = apply_view_update(doc, books.update("u9"))
        assert result.matched_bindings == 1

    def test_text_delete_strips_value(self, doc):
        result = apply_view_update(doc, books.update("u6"))
        assert result.changed
        assert evaluate_path(doc, "book[1]/bookid")[0].text_content() == ""

    def test_replace_swaps_elements(self, doc):
        update = parse_view_update(
            """
            FOR $b IN document("v.xml")/book
            WHERE $b/bookid/text() = "98001"
            UPDATE $b { REPLACE $b/price WITH <price>9.99</price> }
            """
        )
        result = apply_view_update(doc, update)
        assert len(result.replaced) == 1
        assert evaluate_path(doc, "book[bookid='98001']/price/text()") == ["9.99"]

    def test_multi_binding_cross_product(self, doc):
        update = parse_view_update(
            """
            FOR $root IN document("v.xml"),
                $b IN $root/book,
                $r IN $b/review
            UPDATE $b { DELETE $r }
            """
        )
        result = apply_view_update(doc, update)
        assert len(result.deleted) == 2
