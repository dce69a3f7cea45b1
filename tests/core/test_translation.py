"""Probe composition and SQL translation (Section 6's PQ/U listings)."""

import pytest

from repro.core import Translator, build_base_asg, build_view_asg, mark_view_asg, resolve_update
from repro.core.asg import NodeKind
from repro.core.update_binding import OpResolution
from repro.workloads import books, tpch


@pytest.fixture()
def setup(book_db, book_view):
    asg = build_view_asg(book_view, book_db.schema)
    base = build_base_asg(asg, book_db.schema)
    mark_view_asg(asg, base)
    return book_db, asg, Translator(book_db, asg)


class TestProbes:
    def test_context_probe_composes_view_and_update(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u13"))
        probe = translator.run_probe(resolved.target, resolved)
        # matches PQ2: one qualifying book
        assert len(probe.rows) == 1
        assert probe.rows[0]["book.bookid"] == "98003"
        sql = probe.sql
        assert "book.pubid = publisher.pubid" in sql
        assert "book.price < 50.0" in sql
        assert "book.title = 'Data on the Web'" in sql

    def test_probe_includes_view_year_filter(self, setup):
        # u11's book fails year > 1990 — the probe must encode it
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u11"))
        probe = translator.run_probe(resolved.target, resolved)
        assert probe.empty
        assert "book.year >" in probe.sql

    def test_probe_returns_rowids(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u8"))
        probe = translator.run_probe(resolved.ops[0].node, resolved)
        assert all("review.ROWID" in row for row in probe.rows)

    def test_probe_relation_order_parents_first(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u8"))
        plan = translator.probe_plan(resolved.ops[0].node, resolved)
        names = [item.relation_name for item in plan.from_items]
        assert names.index("book") < names.index("review")

    def test_key_probe(self, setup):
        from repro.core import TupleInsert

        db, asg, translator = setup
        existing = TupleInsert("book", {"bookid": "98001"})
        probe = translator.key_probe(existing)
        assert probe is not None and not probe.empty
        fresh = TupleInsert("book", {"bookid": "zzz"})
        assert translator.key_probe(fresh).empty

    def test_key_probe_none_without_key_values(self, setup):
        from repro.core import TupleInsert

        db, asg, translator = setup
        assert translator.key_probe(TupleInsert("book", {"bookid": None})) is None


class TestDeleteTranslation:
    def test_u8_targets_review_rowids(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u8"))
        probe = translator.run_probe(resolved.ops[0].node, resolved)
        deletes, _ = translator.build_deletes(resolved.ops[0], probe, minimize=False)
        assert len(deletes) == 1
        assert deletes[0].relation == "review"
        assert deletes[0].rowids == {1, 2}

    def test_u9_minimization_keeps_publisher(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u9"))
        probe = translator.run_probe(resolved.ops[0].node, resolved)
        deletes, notes = translator.build_deletes(resolved.ops[0], probe, minimize=True)
        relations = {d.relation for d in deletes}
        assert relations == {"book"}
        assert any("republished" in note for note in notes)

    def test_delete_sql_rendering(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u9"))
        probe = translator.run_probe(resolved.ops[0].node, resolved)
        deletes, _ = translator.build_deletes(resolved.ops[0], probe, minimize=True)
        assert deletes[0].sql() == "DELETE FROM book WHERE ROWID IN (3)"


class TestInsertTranslation:
    def test_u13_links_to_context(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u13"))
        context = translator.run_probe(resolved.target, resolved).rows[0]
        inserts = translator.build_inserts(resolved.ops[0], context)
        assert len(inserts) == 1
        insert = inserts[0]
        assert insert.relation == "review" and insert.role == "driving"
        assert insert.values["bookid"] == "98003"  # from the probe
        assert insert.values["reviewid"] == "001"

    def test_u4_builds_book_and_publisher(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u4"))
        inserts = translator.build_inserts(resolved.ops[0], None)
        by_relation = {insert.relation: insert for insert in inserts}
        assert set(by_relation) == {"book", "publisher"}
        # publisher first (FK parent), book second
        assert [insert.relation for insert in inserts] == ["publisher", "book"]
        assert by_relation["book"].role == "driving"
        assert by_relation["publisher"].role == "supporting"
        # book.pubid propagated from the publisher fragment via con1
        assert by_relation["book"].values["pubid"] == "A01"

    def test_values_coerced_by_leaf_type(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u4"))
        inserts = translator.build_inserts(resolved.ops[0], None)
        book = next(i for i in inserts if i.relation == "book")
        assert book.values["price"] == 20.0

    def test_nested_fragment_regions(self, setup, book_db):
        from repro.xquery import parse_view_update

        db, asg, translator = setup
        update = parse_view_update(
            """
            FOR $root IN document("v")
            UPDATE $root {
            INSERT <book>
                <bookid>b9</bookid><title>T</title><price>5.00</price>
                <publisher><pubid>A01</pubid><pubname>McGraw-Hill Inc.</pubname></publisher>
                <review><reviewid>001</reviewid><comment>c</comment></review>
            </book> }
            """
        )
        resolved = resolve_update(asg, update)
        inserts = translator.build_inserts(resolved.ops[0], None)
        relations = [insert.relation for insert in inserts]
        assert relations == ["publisher", "book", "review"]
        review = inserts[-1]
        assert review.values["bookid"] == "b9"  # propagated into the region

    def test_insert_sql_rendering(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u13"))
        context = translator.run_probe(resolved.target, resolved).rows[0]
        inserts = translator.build_inserts(resolved.ops[0], context)
        sql = inserts[0].sql()
        assert sql.startswith("INSERT INTO review")
        assert "'98003'" in sql


class TestSubtreeDeletes:
    def test_levels_top_first(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u9"))
        subject, members = translator.subtree_internal_nodes(resolved.ops[0])
        assert subject.name == "book"
        assert [m.name for m in members] == ["book", "publisher", "review"]

    def test_member_deletes_respect_minimization(self, setup):
        db, asg, translator = setup
        resolved = resolve_update(asg, books.update("u9"))
        subject, members = translator.subtree_internal_nodes(resolved.ops[0])
        probe = translator.run_probe(subject, resolved)
        deletes, notes = translator.member_deletes(subject, subject, probe, True)
        assert {d.relation for d in deletes} == {"book"}


class TestSchemaLevelMemo:
    """The Translator memoizes two schema-level results per view node;
    each must equal a fresh computation from the ASG, for every internal
    node of the books view and of the TPC-H views."""

    @staticmethod
    def _views(book_db, tpch_tiny_db):
        yield book_db, books.book_view_query()
        for view in (tpch.v_linear(), tpch.v_bush(), tpch.v_fail("region"),
                     tpch.v_fail("nation")):
            yield tpch_tiny_db, view

    def test_memo_matches_a_fresh_computation(self, book_db, tpch_tiny_db):
        checked = 0
        for db, view in self._views(book_db, tpch_tiny_db):
            asg = build_view_asg(view, db.schema)
            translator = Translator(db, asg)
            for node in asg.internal_nodes():
                subtree = list(node.iter_subtree())
                republished = set()
                for other in asg.internal_nodes():
                    if not any(other is member for member in subtree):
                        republished |= other.uc_binding
                members = sorted(
                    (m for m in subtree if m.kind is NodeKind.INTERNAL),
                    key=lambda m: len(list(m.ancestors())),
                )
                op = OpResolution(op=None, kind="delete", node=node)
                for _ in range(2):  # the first call fills the memo
                    assert translator._republished_relations(node) == republished
                    subject, cached = translator.subtree_internal_nodes(op)
                    assert subject is node
                    assert list(cached) == members
                checked += 1
        assert checked >= 8
