"""The update-shape table in front of the update parser: its counters,
its bound, and the callers that go through it."""

import pytest

import repro.core.ufilter as ufilter_module
from repro.core import UpdateSession
from repro.errors import UpdateSyntaxError
from repro.xquery import parse_view_update
from repro.xquery.update_parser import UpdateTemplates

DELETE = """
FOR $root IN document("BookView.xml"),
    $book IN $root/book
WHERE $book/bookid/text() = "{key}"
UPDATE $root {{ DELETE $book/review }}
"""

INSERT = """
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "{title}"
UPDATE $book {{
INSERT <review><reviewid>{rid}</reviewid><comment>{comment}</comment></review> }}
"""

#: the literal after '>' sits where the lexer reads syntax
UNCACHEABLE = """
FOR $book IN document("BookView.xml")/book
WHERE $book/price>{low} AND $book/price<{high}
UPDATE $book {{ DELETE $book/review }}
"""


class CountingParser:
    def __init__(self):
        self.calls = 0

    def __call__(self, text, name=""):
        self.calls += 1
        return parse_view_update(text, name=name)


def test_first_text_of_a_shape_misses_and_later_ones_hit():
    templates, parser = UpdateTemplates(), CountingParser()
    first = templates.parse(DELETE.format(key="98001"), "a", parser=parser)
    second = templates.parse(DELETE.format(key="98002"), "b", parser=parser)
    assert (templates.misses, templates.hits, templates.uncacheable) == (1, 1, 0)
    assert parser.calls == 1
    assert second.where[0].right == "98002" and second.name == "b"
    assert second.source_text == DELETE.format(key="98002")
    assert first.where[0].right == "98001"


def test_fragment_literals_are_bound_into_fresh_trees():
    templates = UpdateTemplates()
    texts = [
        INSERT.format(title="Data on the Web", rid="001", comment="Good."),
        INSERT.format(title="TCP/IP Illustrated", rid="002", comment="Dense, but fair."),
    ]
    parsed = [templates.parse(text) for text in texts]
    assert templates.hits == 1
    fragment = parsed[1].ops[0].fragment
    assert fragment.value_of("reviewid") == "002"
    assert fragment.value_of("comment") == "Dense, but fair."
    assert parsed[0].ops[0].fragment is not fragment
    assert parsed[0].ops[0].fragment.value_of("reviewid") == "001"


def test_a_shape_that_cannot_be_templated_is_remembered_and_always_parsed():
    templates, parser = UpdateTemplates(), CountingParser()
    for low in ("10", "30", "50"):
        update = templates.parse(UNCACHEABLE.format(low=low, high=90), parser=parser)
        assert update.where[0].right == int(low)
    assert templates.uncacheable == 1
    assert (templates.misses, templates.hits) == (3, 0)
    assert parser.calls == 3
    assert len(templates) == 1


def test_errors_are_raised_by_the_parser_and_never_cached():
    templates = UpdateTemplates()
    broken = 'FOR $b IN document("{doc}")/book {{ DELETE $b }}'
    for doc in ("v", "w"):
        with pytest.raises(UpdateSyntaxError) as caught:
            templates.parse(broken.format(doc=doc))
        with pytest.raises(UpdateSyntaxError) as direct:
            parse_view_update(broken.format(doc=doc))
        assert str(caught.value) == str(direct.value)
    assert (templates.misses, templates.hits, len(templates)) == (2, 0, 0)


def test_texts_holding_a_sentinel_character_bypass_the_table():
    templates = UpdateTemplates()
    text = DELETE.format(key="\ue0000\ue001")
    for _ in range(2):
        assert templates.parse(text).where[0].right == "\ue0000\ue001"
    assert (templates.misses, templates.hits, len(templates)) == (2, 0, 0)


def test_table_keeps_256_shapes_and_evicts_the_oldest():
    templates = UpdateTemplates()
    shape = 'FOR $r IN document("V.xml") UPDATE $r {{ DELETE $r/a{i} }}'
    for i in range(300):
        templates.parse(shape.format(i=i))
    assert len(templates) == templates.capacity == 256
    templates.parse(shape.format(i=299).replace("V.xml", "W.xml"))
    assert templates.hits == 1  # the newest shape is still there
    templates.parse(shape.format(i=0))
    assert templates.misses == 301  # the oldest was evicted


def test_ufilter_hits_do_not_call_the_module_parser(book_ufilter, monkeypatch):
    counting = CountingParser()
    monkeypatch.setattr(ufilter_module, "parse_view_update", counting)
    for key in ("98001", "98002", "98003"):
        report = book_ufilter.check(DELETE.format(key=key), run_data_checks=False)
        assert report.update.where[0].right == key
    assert counting.calls == 1
    assert book_ufilter.templates.hits == 2


def test_session_parses_through_its_ufilter_table(book_db, book_view):
    session = UpdateSession(book_db, book_view)
    session.add(DELETE.format(key="98001"), name="a")
    queued = session.add(DELETE.format(key="98003"), name="b")
    templates = session.ufilter.templates
    assert (templates.misses, templates.hits) == (1, 1)
    assert queued.name == "b" and queued.where[0].right == "98003"
