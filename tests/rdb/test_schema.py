"""Schema model: relations, constraints, extend(), uniqueness."""

import pytest

from repro.errors import SchemaError
from repro.rdb import (
    Attribute,
    Check,
    DeletePolicy,
    ForeignKey,
    NotNull,
    Relation,
    Schema,
    Unique,
    parse_expression,
)
from repro.workloads import books


@pytest.fixture()
def book_schema():
    return books.build_book_schema()


def test_duplicate_attribute_rejected():
    with pytest.raises(SchemaError):
        Relation("r", [Attribute("a", "INTEGER"), Attribute("a", "INTEGER")])


def test_duplicate_relation_rejected(book_schema):
    with pytest.raises(SchemaError):
        book_schema.add_relation(
            Relation("book", [Attribute("x", "INTEGER")])
        )


def test_constraint_on_unknown_column_rejected():
    relation = Relation("r", [Attribute("a", "INTEGER")])
    with pytest.raises(SchemaError):
        relation.add_constraint(NotNull("b"))


def test_primary_key_found(book_schema):
    key = book_schema.relation("book").primary_key
    assert key is not None and key.columns == ("bookid",)


def test_not_null_includes_pk_columns(book_schema):
    columns = book_schema.relation("book").not_null_columns()
    assert {"bookid", "title"} <= set(columns)
    assert "price" not in columns


def test_is_unique_column(book_schema):
    publisher = book_schema.relation("publisher")
    assert publisher.is_unique_column("pubid")       # PK
    assert publisher.is_unique_column("pubname")     # UNIQUE
    book = book_schema.relation("book")
    assert not book.is_unique_column("pubid")


def test_composite_key_columns_not_individually_unique(book_schema):
    review = book_schema.relation("review")
    assert not review.is_unique_column("bookid")
    assert not review.is_unique_column("reviewid")


def test_checks_for_column(book_schema):
    checks = book_schema.relation("book").checks_for_column("price")
    assert len(checks) == 1
    assert "price" in checks[0].to_sql()


def test_foreign_keys_into(book_schema):
    fks = book_schema.foreign_keys_into("publisher")
    assert len(fks) == 1 and fks[0].relation_name == "book"


def test_foreign_keys_into_memo_follows_add_and_drop(book_schema):
    assert book_schema.foreign_keys_into("publisher") is (
        book_schema.foreign_keys_into("publisher")
    )
    book_schema.add_relation(
        Relation(
            "award",
            [Attribute("pubid", "VARCHAR2(10)")],
            [ForeignKey(("pubid",), "publisher", ("pubid",))],
        )
    )
    assert {fk.relation_name for fk in book_schema.foreign_keys_into("publisher")} \
        == {"book", "award"}
    book_schema.drop_relation("award")
    assert [fk.relation_name for fk in book_schema.foreign_keys_into("publisher")] \
        == ["book"]
    book_schema.drop_relation("award")  # unknown: a no-op
    with pytest.raises(SchemaError):
        book_schema.foreign_keys_into("award")


def test_referencing_relations(book_schema):
    assert book_schema.referencing_relations("book") == {"review"}


def test_extend_is_transitive(book_schema):
    assert book_schema.extend("publisher") == {"publisher", "book", "review"}
    assert book_schema.extend("book") == {"book", "review"}
    assert book_schema.extend("review") == {"review"}


def test_extend_within_restricts_output(book_schema):
    result = book_schema.extend("publisher", within={"publisher", "book"})
    assert result == {"publisher", "book"}


def test_delete_policy_lookup(book_schema):
    assert book_schema.delete_policy("book", "publisher") is DeletePolicy.CASCADE
    assert book_schema.delete_policy("review", "publisher") is None


def test_fk_referencing_unknown_relation_rejected():
    bad = Relation(
        "child",
        [Attribute("pid", "INTEGER")],
        [ForeignKey(("pid",), "ghost", ("id",))],
    )
    with pytest.raises(SchemaError):
        Schema([bad])


def test_fk_referencing_unknown_column_rejected():
    parent = Relation("parent", [Attribute("id", "INTEGER")])
    child = Relation(
        "child",
        [Attribute("pid", "INTEGER")],
        [ForeignKey(("pid",), "parent", ("nope",))],
    )
    with pytest.raises(SchemaError):
        Schema([parent, child])


def test_fk_column_count_mismatch_rejected():
    with pytest.raises(ValueError):
        ForeignKey(("a", "b"), "parent", ("x",))


def test_unique_requires_columns():
    with pytest.raises(ValueError):
        Unique(())


def test_check_constraint_columns_validated():
    relation = Relation("r", [Attribute("a", "INTEGER")])
    with pytest.raises(SchemaError):
        relation.add_constraint(Check(parse_expression("b > 0")))


def test_ddl_round_trips_names(book_schema):
    ddl = book_schema.ddl()
    for name in ("publisher", "book", "review"):
        assert f"CREATE TABLE {name}" in ddl
    assert "FOREIGN KEY (pubid) REFERENCES publisher" in ddl


def test_schema_iteration_and_contains(book_schema):
    names = {relation.name for relation in book_schema}
    assert names == {"publisher", "book", "review"}
    assert "book" in book_schema and "ghost" not in book_schema
