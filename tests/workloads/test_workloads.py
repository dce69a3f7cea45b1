"""Workload sanity: books, TPC-H, W3C audit, PSD."""

import hashlib

import pytest

from repro.core import Outcome, UFilter, check_rectangle
from repro.workloads import books, chains, psd, tpch
from repro.workloads.w3c_usecases import PAPER_FIG12, all_queries, run_audit
from repro.xml import evaluate_path
from repro.xquery import evaluate_view


class TestBooks:
    def test_sample_data_counts(self, book_db):
        assert book_db.count("publisher") == 3
        assert book_db.count("book") == 3
        assert book_db.count("review") == 2

    def test_all_updates_parse(self):
        updates = books.book_updates()
        assert set(updates) == {f"u{i}" for i in range(1, 14)}

    def test_schema_matches_fig1(self):
        schema = books.build_book_schema()
        assert schema.relation("book").primary_key.columns == ("bookid",)
        assert schema.relation("review").primary_key.columns == (
            "bookid", "reviewid",
        )


class TestTpch:
    def test_scale_rows_monotone(self):
        small, large = tpch.scale_rows(1), tpch.scale_rows(4)
        assert large.customers > small.customers
        assert large.total_rows > small.total_rows

    def test_generator_deterministic(self):
        a = tpch.build_tpch_database(tpch.scale_rows(0.2), seed=3)
        b = tpch.build_tpch_database(tpch.scale_rows(0.2), seed=3)
        assert a.rows("customer") == b.rows("customer")

    def test_fk_topology(self, tpch_tiny_db):
        schema = tpch_tiny_db.schema
        assert schema.referencing_relations("region") == {"nation"}
        assert schema.referencing_relations("orders") == {"lineitem"}

    def test_vsuccess_materializes(self, tpch_tiny_db):
        doc = evaluate_view(tpch_tiny_db, tpch.v_success())
        regions = evaluate_path(doc, "region")
        assert len(regions) == tpch_tiny_db.count("region")
        lineitems = evaluate_path(doc, "//lineitem")
        assert len(lineitems) == tpch_tiny_db.count("lineitem")

    def test_vfail_republishes(self, tpch_tiny_db):
        doc = evaluate_view(tpch_tiny_db, tpch.v_fail("region"))
        assert len(evaluate_path(doc, "regionAgain")) == tpch_tiny_db.count("region")

    def test_vbush_materializes(self, tpch_tiny_db):
        doc = evaluate_view(tpch_tiny_db, tpch.v_bush())
        assert len(evaluate_path(doc, "customer")) == tpch_tiny_db.count("customer")

    @pytest.mark.parametrize("relation", tpch.RELATIONS)
    def test_vsuccess_deletes_unconditional(self, tpch_tiny_db, relation):
        checker = UFilter(tpch_tiny_db, tpch.v_success())
        outcome = checker.classify(tpch.delete_update(relation, 0))
        assert outcome is Outcome.UNCONDITIONALLY_TRANSLATABLE

    def test_vfail_delete_republished_untranslatable(self, tpch_tiny_db):
        checker = UFilter(tpch_tiny_db, tpch.v_fail("region"))
        outcome = checker.classify(tpch.delete_update("region", 0))
        assert outcome is Outcome.UNTRANSLATABLE

    def test_insert_lineitem_rectangle(self, tpch_db):
        report = check_rectangle(
            tpch_db, tpch.v_linear(), tpch.insert_lineitem_update(0, 99)
        )
        assert report.accepted and report.holds

    def test_delete_order_rectangle(self, tpch_db):
        report = check_rectangle(
            tpch_db, tpch.v_success(), tpch.delete_update("orders", 5)
        )
        assert report.accepted and report.holds

    def test_unknown_republication_rejected(self):
        with pytest.raises(ValueError):
            tpch.v_fail("ghost")


def _digest(db):
    """Every relation's rows under their rowids, and its next rowid."""
    digest = hashlib.sha256()
    for name in sorted(db.tables):
        table = db.tables[name]
        for rowid, row in table.scan():
            digest.update(repr((name, rowid, sorted(row.items()))).encode())
        digest.update(repr((name, table.next_rowid())).encode())
    return digest.hexdigest()[:16]


#: the builders' output when they inserted one row at a time
BUILT_ROW_BY_ROW = {
    ("tpch", 10, 1): "62d30ed017ef7d79",
    ("tpch", 10, 2): "b5b6d9639f113ed4",
    ("tpch", 10, 3): "31c3ab5dd90b3cdb",
    ("tpch", 50, 1): "67032d09e40df232",
    ("tpch", 50, 2): "36de948a70632de5",
    ("tpch", 50, 3): "8577b5e78f710359",
    ("chain", 40, None): "844f4ae829e31158",
    ("psd", 20, 11): "e3a26ca3a4a2c5c0",
}


@pytest.mark.parametrize("kind, size, seed", sorted(BUILT_ROW_BY_ROW, key=str))
def test_batch_builders_store_the_row_by_row_rows_and_rowids(kind, size, seed):
    if kind == "tpch":
        db = tpch.build_tpch_database(tpch.scale_rows(size), seed=seed)
    elif kind == "chain":
        db = chains.build_chain_db(size)
    else:
        db = psd.build_psd_database(size, seed=seed)
    assert _digest(db) == BUILT_ROW_BY_ROW[kind, size, seed]
    assert db.verify_integrity() == []


class TestW3CAudit:
    def test_matches_paper_fig12(self):
        for name, included, _ in run_audit():
            assert included == PAPER_FIG12[name], name

    def test_exclusion_reasons_name_features(self):
        reasons = {name: reason for name, _, reason in run_audit()}
        assert reasons["XMP-Q4"] == "distinct()"
        assert reasons["XMP-Q6"] == "count()"
        assert reasons["R-Q2"] == "max()"
        assert reasons["R-Q5"] == "avg()"

    def test_inclusion_counts(self):
        rows = run_audit()
        included = sum(1 for _, inc, _ in rows if inc)
        assert len(rows) == 36 and included == 16

    def test_every_query_parses(self):
        # even excluded queries must PARSE — rejection happens in the ASG
        from repro.xquery import parse_view_query

        for case in all_queries():
            parse_view_query(case.query)


class TestPsd:
    def test_database_builds(self, psd_db):
        assert psd_db.count("entry") == 10
        assert psd_db.count("reference") > 0

    def test_view_non_well_nested(self, psd_db):
        doc = evaluate_view(psd_db, psd.psd_view())
        # citations embed their entry — reverse of the FK direction
        abouts = evaluate_path(doc, "citation/about")
        assert len(abouts) == psd_db.count("reference")

    def test_set_null_delete_keeps_references(self, psd_db):
        before = psd_db.count("reference")
        psd_db.delete("entry", psd_db.find_rowids("entry", {"eid": "P00000"}))
        assert psd_db.count("reference") == before
        orphans = [
            row for row in psd_db.rows("reference") if row["eid"] is None
        ]
        assert orphans

    def test_delete_embedded_entry_untranslatable(self, psd_db):
        checker = UFilter(psd_db, psd.psd_view())
        outcome = checker.classify(psd.delete_entry_of_reference("R00000"))
        assert outcome is Outcome.UNTRANSLATABLE

    def test_feature_updates_translatable(self, psd_db):
        checker = UFilter(psd_db, psd.psd_view())
        assert checker.classify(psd.delete_feature_update()) is (
            Outcome.UNCONDITIONALLY_TRANSLATABLE
        )

    def test_insert_feature_rectangle(self, psd_db):
        report = check_rectangle(
            psd_db, psd.psd_view(), psd.insert_feature_update("P00002")
        )
        assert report.accepted and report.holds
