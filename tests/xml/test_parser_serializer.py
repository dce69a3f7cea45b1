"""XML parsing and serialization."""

import pytest

from repro.errors import XMLError
from repro.xml import element, parse_xml, serialize
from repro.xml.nodes import XMLText


def test_simple_document():
    root = parse_xml("<a><b>text</b></a>")
    assert root.tag == "a"
    assert root.value_of("b") == "text"


def test_xml_declaration_skipped():
    root = parse_xml('<?xml version="1.0"?><a/>')
    assert root.tag == "a"


def test_self_closing():
    root = parse_xml("<a><b/><c/></a>")
    assert [child.tag for child in root.child_elements()] == ["b", "c"]


def test_attributes_both_quote_styles():
    root = parse_xml("""<a x="1" y='2'/>""")
    assert root.attributes == {"x": "1", "y": "2"}


def test_entities_decoded():
    root = parse_xml("<a>&lt;tag&gt; &amp; &quot;q&quot; &#65;</a>")
    assert root.text_content() == '<tag> & "q" A'


def test_unknown_entity_lenient():
    root = parse_xml("<a>Simon &amp; Schuster &unknown; B&W</a>")
    assert "&unknown;" in root.text_content()


def test_comments_ignored():
    root = parse_xml("<a><!-- note --><b>x</b><!-- tail --></a>")
    assert root.value_of("b") == "x"


def test_mixed_content_preserved():
    root = parse_xml("<a>pre<b>mid</b>post</a>")
    assert root.text_content() == "premidpost"


def test_mismatched_tags_rejected():
    with pytest.raises(XMLError):
        parse_xml("<a><b></a></b>")


def test_unterminated_rejected():
    with pytest.raises(XMLError):
        parse_xml("<a><b>")


def test_trailing_content_rejected():
    with pytest.raises(XMLError):
        parse_xml("<a/><b/>")


def test_garbage_rejected():
    with pytest.raises(XMLError):
        parse_xml("just text")


def test_round_trip_pretty():
    original = element(
        "BookView",
        element("book", element("bookid", "98001"), element("title", "T & T")),
    )
    again = parse_xml(serialize(original))
    assert original.equals(again)


def test_round_trip_compact():
    original = element("a", element("b", "x"), element("c"))
    compact = serialize(original, indent=0)
    assert "\n" not in compact
    assert parse_xml(compact).equals(original)


def test_serialize_escapes_text():
    node = element("a", "1 < 2 & 3 > 2")
    assert "&lt;" in serialize(node) and "&amp;" in serialize(node)


def test_serialize_escapes_attributes():
    node = element("a", x='say "hi" & more')
    out = serialize(node)
    assert "&quot;" in out and "&amp;" in out


def test_serialize_empty_element_self_closes():
    assert serialize(element("a"), indent=0) == "<a/>"


def test_deeply_nested_round_trip():
    node = element("l0")
    cursor = node
    for depth in range(1, 30):
        child = element(f"l{depth}")
        cursor.append(child)
        cursor = child
    cursor.append("deep")
    assert parse_xml(serialize(node)).equals(node)


def _tree(node):
    if isinstance(node, XMLText):
        return node.value
    return (node.tag, node.attributes, [_tree(child) for child in node.children])


def test_text_runs_pinned():
    """Text runs are taken whole (up to the next ``<``); entities, comment
    splits and trailing whitespace read as a per-character scan did."""
    root = parse_xml("<a> x &amp; y<!-- c -->z &#65;<b/>\n</a>")
    assert _tree(root) == ("a", {}, [" x & y", "z A", ("b", {}, []), "\n"])
    root = parse_xml(' <a\tk = "v&lt;" >t</a >  ')
    assert _tree(root) == ("a", {"k": "v<"}, ["t"])


@pytest.mark.parametrize(
    "text, message",
    [
        ("<a>text", "unterminated element <a> at offset 7"),
        ("<a>x<!-- open", "unterminated comment at offset 4"),
        ("<a>x</b>", "mismatched closing tag </b> for <a> at offset 7"),
    ],
)
def test_error_messages_pinned(text, message):
    with pytest.raises(XMLError) as caught:
        parse_xml(text)
    assert str(caught.value) == message
