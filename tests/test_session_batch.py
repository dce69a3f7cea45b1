"""The UpdateSession batch subsystem: caching, conflicts, transactions.

Covers the tentpole guarantees:

* probe-cache hit accounting (same context → one probe execution);
* intra-batch conflict rejection before any SQL is applied;
* transactional rollback when a mid-batch update fails the data check;
* staged batches match the sequential per-update final state;
* shared ASG build/marking through the ASGStore.
"""

import pytest

from repro.core import (
    ASGStore,
    Outcome,
    UpdateSession,
    run_per_update,
)
from repro.errors import UFilterError
from repro.workloads import books

INSERT_REVIEW = """
    FOR $book IN document("BookView.xml")/book
    WHERE $book/title/text() = "{title}"
    UPDATE $book {{
    INSERT
        <review>
            <reviewid>{rid}</reviewid>
            <comment>{comment}</comment>
        </review>}}
"""

DELETE_EXPENSIVE_BOOKS = books.UPDATE_TEXTS["u9"]  # deletes book 98003


def insert_review(rid, title="Data on the Web", comment="batch note"):
    return INSERT_REVIEW.format(rid=rid, title=title, comment=comment)


def table_state(db):
    return {
        relation: sorted(
            tuple(sorted(row.items())) for row in db.rows(relation)
        )
        for relation in ("publisher", "book", "review")
    }


# ---------------------------------------------------------------------------
# probe-cache accounting
# ---------------------------------------------------------------------------


def test_probe_cache_hits_for_shared_context(book_db):
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [insert_review(101), insert_review(102), insert_review(103)]
    )
    assert result.committed
    assert [entry.status for entry in result.entries] == ["applied"] * 3
    # one context probe (shared) + one key probe per distinct review
    assert result.cache_misses == 4
    assert result.cache_hits == 2
    assert result.probe_executions == result.cache_misses
    assert book_db.count("review") == 5


def test_probe_executions_strictly_fewer_than_per_update(book_db):
    workload = [insert_review(110 + i) for i in range(5)] + [
        insert_review(120 + i, title="DB2 Universal Database")
        for i in range(5)
    ]
    baseline_db = books.build_book_database()
    run_per_update(baseline_db, books.BOOK_VIEW_QUERY, workload)

    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(workload, atomic=False)

    assert result.probe_executions < baseline_db.stats["selects"]
    assert table_state(book_db) == table_state(baseline_db)


def test_cache_survives_between_batches_and_invalidates_on_write(book_db):
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY, ivm=False)
    first = session.execute([insert_review(131)])
    assert first.committed and first.cache_invalidations > 0
    # the apply wrote review → the context probe (reads review) was
    # invalidated, so the next batch re-probes and sees the new row
    second = session.execute([insert_review(132)])
    assert second.committed
    assert book_db.count("review") == 4


def test_interleaved_batch_sees_earlier_effects(book_db):
    """u8 after an insert on the same book must delete the new review
    too — the cache invalidation keeps later probes truthful."""
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [insert_review(141, title="TCP/IP Illustrated"), books.UPDATE_TEXTS["u8"]],
        mode="interleaved",
    )
    assert result.committed
    assert [entry.status for entry in result.entries] == ["applied", "applied"]
    assert book_db.count("review") == 0  # two original + one inserted


# ---------------------------------------------------------------------------
# intra-batch conflict detection
# ---------------------------------------------------------------------------


def test_duplicate_driving_insert_rejected(book_db):
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [insert_review(201), insert_review(201)], atomic=False
    )
    statuses = [entry.status for entry in result.entries]
    assert statuses == ["applied", "conflict"]
    assert "duplicate insert" in result.entries[1].reason
    assert book_db.count("review") == 3


#: books and their publishers flattened into one element: a new book
#: under a new publisher carries a supporting publisher insert
FLAT_BOOK_VIEW = """<BookView>
FOR $book IN document("default.xml")/book/row,
    $publisher IN document("default.xml")/publisher/row
WHERE ($book/pubid = $publisher/pubid)
RETURN {
    <book>
        $book/bookid, $book/title, $book/price,
        <publisher>
            $publisher/pubid, $publisher/pubname
        </publisher>
    </book>}
</BookView>"""

INSERT_FLAT_BOOK = """
    FOR $root IN document("BookView.xml")
    UPDATE $root {{
    INSERT
        <book>
            <bookid>"{bookid}"</bookid>
            <title>"{bookid}"</title>
            <price> 20.00 </price>
            <publisher>
                <pubid>Z01</pubid>
                <pubname>{pubname}</pubname>
            </publisher>
        </book> }}
"""


def test_agreeing_duplicate_supporting_insert_is_skipped(book_db):
    """Two staged books under the same new publisher, with the same
    publisher values: the second publisher insert becomes ``skip`` and
    both books land under the one new publisher."""
    session = UpdateSession(book_db, FLAT_BOOK_VIEW)
    result = session.execute(
        [INSERT_FLAT_BOOK.format(bookid="98101", pubname="Zed Press"),
         INSERT_FLAT_BOOK.format(bookid="98102", pubname="Zed Press")],
        mode="staged", atomic=False,
    )
    assert [entry.status for entry in result.entries] == ["applied", "applied"]
    roles = {
        op.relation: op.role
        for op in result.entries[1].report.data.planned_ops
    }
    assert roles == {"book": "driving", "publisher": "skip"}
    assert book_db.find_rowids("publisher", {"pubid": "Z01"})
    assert book_db.count("publisher") == 4 and book_db.count("book") == 5


def test_disagreeing_duplicate_supporting_insert_conflicts(book_db):
    """The same publisher key queued twice with different names breaks
    duplication consistency inside the batch: the second update
    conflicts before any SQL and the first alone lands."""
    session = UpdateSession(book_db, FLAT_BOOK_VIEW)
    result = session.execute(
        [INSERT_FLAT_BOOK.format(bookid="98101", pubname="Zed Press"),
         INSERT_FLAT_BOOK.format(bookid="98102", pubname="Other Press")],
        mode="staged", atomic=False,
    )
    assert [entry.status for entry in result.entries] == ["applied", "conflict"]
    assert "duplication consistency violated" in result.entries[1].reason
    assert book_db.count("publisher") == 4 and book_db.count("book") == 4


def test_insert_under_deleted_parent_rejected(book_db):
    """One update deletes book 98003, a later one inserts a review into
    it: the insert's parent is gone, so it conflicts — before any SQL."""
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [DELETE_EXPENSIVE_BOOKS, insert_review(211)], atomic=False
    )
    statuses = [entry.status for entry in result.entries]
    assert statuses == ["applied", "conflict"]
    assert "deleted earlier in the batch" in result.entries[1].reason
    assert book_db.count("book") == 2


def test_conflict_aborts_atomic_batch_entirely(book_db):
    before = table_state(book_db)
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute([insert_review(221), insert_review(221)])
    assert not result.committed
    assert table_state(book_db) == before
    assert {entry.status for entry in result.entries} == {"skipped", "conflict"}


def test_duplicate_deletes_are_idempotent_not_conflicting(book_db):
    """Two updates deleting the same reviews mirror sequential
    semantics: the second is a zero-effect delete, not a conflict."""
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [books.UPDATE_TEXTS["u8"], books.UPDATE_TEXTS["u8"]], atomic=False
    )
    assert [entry.status for entry in result.entries] == ["applied", "applied"]
    assert book_db.count("review") == 0


# ---------------------------------------------------------------------------
# transactional apply
# ---------------------------------------------------------------------------


def test_interleaved_atomic_rolls_back_on_mid_batch_data_conflict(book_db):
    """u3's data check fails mid-batch: the already-applied u8 must be
    rolled back and the trailing update skipped."""
    before = table_state(book_db)
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [
            books.UPDATE_TEXTS["u8"],   # applies (deletes two reviews)
            books.UPDATE_TEXTS["u3"],   # DATA_CONFLICT: book not in view
            insert_review(231),
        ],
        mode="interleaved",
    )
    assert not result.committed
    assert [entry.status for entry in result.entries] == [
        "rolled-back",
        "rejected",
        "skipped",
    ]
    assert result.entries[1].outcome is Outcome.DATA_CONFLICT
    assert table_state(book_db) == before


def test_interleaved_non_atomic_skips_only_the_failure(book_db):
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [
            books.UPDATE_TEXTS["u8"],
            books.UPDATE_TEXTS["u3"],
            insert_review(241),
        ],
        mode="interleaved",
        atomic=False,
    )
    assert result.committed
    assert [entry.status for entry in result.entries] == [
        "applied",
        "rejected",
        "applied",
    ]
    assert book_db.count("review") == 1  # 2 seeded - 2 deleted + 1 inserted


def test_staged_non_atomic_apply_failure_loses_only_that_update(book_db):
    """Hybrid defers data conflicts to apply time; the per-entry
    savepoint confines the engine error to the failing update."""
    good = insert_review(245)
    dup_of_existing = insert_review("001", title="TCP/IP Illustrated")
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY, strategy="hybrid")
    result = session.execute([good, dup_of_existing], atomic=False)
    assert result.committed
    assert [entry.status for entry in result.entries] == ["applied", "failed"]
    assert "engine error at apply time" in result.entries[1].reason
    assert book_db.count("review") == 3  # the good insert survived


def test_staged_atomic_apply_failure_rolls_back_everything(book_db):
    before = table_state(book_db)
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY, strategy="hybrid")
    result = session.execute(
        [insert_review(246), insert_review("001", title="TCP/IP Illustrated")]
    )
    assert not result.committed
    assert [entry.status for entry in result.entries] == [
        "rolled-back",
        "failed",
    ]
    assert table_state(book_db) == before


def test_staged_atomic_aborts_before_any_apply(book_db):
    before = table_state(book_db)
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [books.UPDATE_TEXTS["u8"], books.UPDATE_TEXTS["u3"]]
    )
    assert not result.committed
    assert result.rows_affected == 0
    assert table_state(book_db) == before


def test_staged_matches_sequential_per_update_state(book_db):
    workload = [
        insert_review(251),
        books.UPDATE_TEXTS["u8"],
        DELETE_EXPENSIVE_BOOKS,
        insert_review(252, title="TCP/IP Illustrated"),
    ]
    baseline_db = books.build_book_database()
    run_per_update(baseline_db, books.BOOK_VIEW_QUERY, workload)

    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    session.execute(workload, atomic=False)
    assert table_state(book_db) == table_state(baseline_db)


# ---------------------------------------------------------------------------
# shared ASG compilation + API guards
# ---------------------------------------------------------------------------


def test_sessions_share_one_asg_marking(book_db):
    store = ASGStore()
    UpdateSession(book_db, books.BOOK_VIEW_QUERY, asg_store=store)
    UpdateSession(book_db, books.BOOK_VIEW_QUERY, asg_store=store)
    assert store.builds == 1
    assert store.hits == 1


def test_session_outcomes_match_standalone_checker(book_db):
    """The session pipeline must not change any verdict."""
    from repro.core import UFilter

    names = ["u1", "u2", "u3", "u8", "u12", "u13"]
    standalone = UFilter(books.build_book_database(), books.BOOK_VIEW_QUERY)
    expected = [
        standalone.check(books.update(name)).outcome for name in names
    ]
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    result = session.execute(
        [books.update(name) for name in names], atomic=False
    )
    assert [entry.outcome for entry in result.entries] == expected


def test_empty_batch_commits_vacuously(book_db):
    result = UpdateSession(book_db, books.BOOK_VIEW_QUERY).execute([])
    assert result.committed
    assert result.entries == []


def test_staged_mode_rejects_internal_strategy(book_db):
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY, strategy="internal")
    with pytest.raises(UFilterError):
        session.execute([insert_review(261)])


def test_unknown_mode_rejected(book_db):
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    with pytest.raises(UFilterError):
        session.execute([insert_review(262)], mode="psychic")


# ---------------------------------------------------------------------------
# CLI batch files
# ---------------------------------------------------------------------------


def test_split_batch_file_sections_and_names():
    from repro.cli import split_batch_file

    text = "\n".join(
        [
            "# first",
            "FOR $x IN y UPDATE $x { DELETE $x }",
            "---",
            "",
            "# second",
            "FOR $z IN y UPDATE $z { DELETE $z }",
            "----",
            "FOR $q IN y UPDATE $q { DELETE $q }",
        ]
    )
    sections = split_batch_file(text)
    assert [name for name, _ in sections] == ["first", "second", "#3"]
    assert all(body.startswith("FOR") for _, body in sections)


def test_cli_batch_update_end_to_end(tmp_path, capsys):
    from repro.cli import main

    inserts = []
    for relation, rows in books.BOOK_ROWS.items():
        for row in rows:
            columns = ", ".join(row)
            values = ", ".join(
                f"'{value}'" if isinstance(value, str) else str(value)
                for value in row.values()
            )
            inserts.append(
                f"INSERT INTO {relation} ({columns}) VALUES ({values});"
            )
    (tmp_path / "book.sql").write_text(
        books.BOOK_DDL + "\n" + "\n".join(inserts) + "\n"
    )
    (tmp_path / "view.xq").write_text(books.BOOK_VIEW_QUERY)
    (tmp_path / "batch.xq").write_text(
        "# good\n" + insert_review(271) + "\n---\n# bad\n" + books.UPDATE_TEXTS["u3"]
    )

    code = main(
        [
            "batch-update",
            str(tmp_path / "batch.xq"),
            "--db", str(tmp_path / "book.sql"),
            "--view", str(tmp_path / "view.xq"),
            "--no-atomic",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "good     applied" in out
    assert "bad      rejected" in out
