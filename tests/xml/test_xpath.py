"""XPath-lite evaluation."""

import pytest

from repro.errors import XPathError
from repro.xml import evaluate_path, parse_path, parse_xml

DOC = parse_xml(
    """
<BookView>
  <book>
    <bookid>98001</bookid><title>TCP/IP</title>
    <review><reviewid>001</reviewid></review>
    <review><reviewid>002</reviewid></review>
  </book>
  <book>
    <bookid>98003</bookid><title>Data on the Web</title>
  </book>
  <publisher><pubid>A01</pubid></publisher>
</BookView>
"""
)


def test_child_step():
    assert len(evaluate_path(DOC, "book")) == 2


def test_multi_step():
    assert evaluate_path(DOC, "book/bookid/text()") == ["98001", "98003"]


def test_descendant_step():
    assert len(evaluate_path(DOC, "//review")) == 2


def test_descendant_finds_deep_nodes():
    assert evaluate_path(DOC, "//reviewid/text()") == ["001", "002"]


def test_wildcard():
    assert len(evaluate_path(DOC, "*")) == 3


def test_position_predicate():
    nodes = evaluate_path(DOC, "book[2]/title/text()")
    assert nodes == ["Data on the Web"]


def test_position_out_of_range():
    assert evaluate_path(DOC, "book[9]") == []


def test_child_equality_predicate():
    nodes = evaluate_path(DOC, "book[bookid='98003']/title/text()")
    assert nodes == ["Data on the Web"]


def test_text_equality_predicate():
    nodes = evaluate_path(DOC, "book/bookid[text()='98001']")
    assert len(nodes) == 1


def test_absolute_path_from_inner_node():
    inner = evaluate_path(DOC, "book[1]/review[1]")[0]
    assert evaluate_path(inner, "/BookView/book/bookid/text()") == [
        "98001", "98003",
    ]


def test_absolute_path_wrong_root():
    inner = evaluate_path(DOC, "book[1]")[0]
    assert evaluate_path(inner, "/OtherRoot/book") == []


def test_text_must_be_final():
    with pytest.raises(XPathError):
        evaluate_path(DOC, "book/text()/bookid")


def test_parse_rejects_garbage():
    with pytest.raises(XPathError):
        parse_path("book//")
    with pytest.raises(XPathError):
        parse_path("")
    with pytest.raises(XPathError):
        parse_path("book[~]")


def test_parse_round_trip_str():
    parsed = parse_path("book[bookid='1']/title")
    assert str(parsed) == "book[bookid='1']/title"
    parsed = parse_path("/BookView/book[2]")
    assert str(parsed) == "/BookView/book[2]"


def test_zero_position_rejected():
    with pytest.raises(XPathError):
        parse_path("book[0]")


@pytest.mark.parametrize("digit", ["²", "٣", "３"])
def test_non_ascii_digit_position_rejected(digit):
    # str.isdigit() accepts these; int() rejects "²" with a bare
    # ValueError and silently reads "٣" and "３" as 3
    with pytest.raises(XPathError):
        parse_path(f"a/b[{digit}]")


def test_no_match_returns_empty():
    assert evaluate_path(DOC, "magazine") == []
