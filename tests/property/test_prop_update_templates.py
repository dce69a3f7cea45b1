"""The update-shape table answers exactly like the parser it fronts.

``UFilter.parse`` binds texts of a known shape to a cached template
instead of parsing them.  The plain parser is the oracle: for texts drawn
from the perfbench and ``workloads/`` shapes, with literals that are
padded, empty, quoted, entity-bearing, curly-quoted, numeric, embedded in
comments or made of ``<``/``>``, every parse — cold or warm — must equal
``_UpdateParser(text).parse()`` exactly (types, whitespace, order,
parent links), a malformed text must raise the parser's exception, and
mutating a returned update must never leak into a later hit.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UFilter
from repro.workloads import books
from repro.xml.nodes import XMLElement, XMLText
from repro.xquery.update_parser import UpdateTemplates, _UpdateParser

#: update shapes; ``@i@`` marks where literal *i* goes
SHAPES = (
    # tpch-point: Fig. 15's lineitem insert
    """
FOR $o IN document("@0@")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "@1@"
UPDATE $o {
INSERT
    <lineitem>
        <l_orderkey>@1@</l_orderkey>
        <l_linenumber>@2@</l_linenumber>
        <l_quantity>@3@</l_quantity>
        <l_extendedprice>@4@</l_extendedprice>
    </lineitem>}
""",
    # tpch-point: lineitem delete on two keys
    """
FOR $root IN document("TpchView.xml"),
    $x IN $root/region/nation/customer/order/lineitem
WHERE $x/l_orderkey/text() = "@0@" AND $x/l_linenumber/text() = "@1@"
UPDATE $root { DELETE $x }
""",
    # tpch-point: a nested subtree insert
    """
FOR $n IN document("TpchView.xml")/region/nation
WHERE $n/n_nationkey/text() = "@0@"
UPDATE $n {
INSERT
    <customer>
        <c_custkey>@1@</c_custkey>
        <c_name>@2@</c_name>
        <order>
            <o_orderkey>@3@</o_orderkey>
            <lineitem><l_orderkey>@3@</l_orderkey><l_quantity>@4@</l_quantity></lineitem>
        </order>
    </customer>}
""",
    # tpch-bulk: the bush region delete
    """
FOR $c IN document("TpchBush.xml")/customer
WHERE $c/r_name/text() = "@0@"
UPDATE $c { DELETE $c }
""",
    # chain-stream: child insert and parent delete
    """
FOR $root IN document("GenView.xml"),
    $p IN $root/parent
WHERE $p/pname/text() = "@0@"
UPDATE $p {
INSERT
    <child>
        <cid>@1@</cid>
        <cname>@2@</cname>
        <cnum>@3@</cnum>
    </child> }
""",
    """
FOR $root IN document("GenView.xml"),
    $p IN $root/parent
WHERE $p/pid/text() = "@0@"
UPDATE $root { DELETE $p }
""",
    # BookView: quoted text content, replace, curly and single quotes
    """
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT
    <book>
        <bookid>"@0@"</bookid>
        <title> @1@ </title>
        <price>@2@</price>
    </book> }
""",
    """
FOR $b IN document("v.xml")/book
WHERE $b/title/text() = “@0@” AND $b/bookid/text() = '@1@'
UPDATE $b { REPLACE $b/price WITH <price>@2@</price> }
""",
    # bare operands next to '<' / '>' operators, spaced and not
    """
FOR $book IN document("BookView.xml")/book
WHERE $book/price > @0@ AND $book/price<@1@
UPDATE $book { DELETE $book/review }
""",
    """
FOR $b IN document("v.xml")/book
WHERE $b/price>"@0@" AND $b/price <= "@1@"
UPDATE $b { DELETE $b/review, INSERT <review><reviewid>@2@</reviewid></review> }
""",
    # comments, attributes, mixed text runs
    """
FOR $r IN document("@0@") (: note "@1@" :)
UPDATE $r { INSERT <book id="@2@"><title>says "@1@" and @4@</title><price>@3@</price></book> }
""",
)

SPECIAL_LITERALS = (
    "", " ", " x", "x ", " x ", '"x"', "'x'", "&amp;", "&#65;", "a&b",
    "“x”", "”", "12", "12.50", ".5", "-3", "(: c :)", "a:)b", ":)", "(:",
    ">", "<", "a<b", "a>b", "x\ny", "é", "\xa0x", "0", "streamed",
    "Customer#12", "No Such Customer 3-4",
)

#: literals the table may treat as slots: texts that use them share a shape
PLAIN = st.lists(
    st.text(alphabet="aZ1#.-", min_size=1, max_size=3), min_size=1, max_size=2
).map(" ".join)

LITERAL = st.one_of(
    st.sampled_from(SPECIAL_LITERALS),
    PLAIN,
    st.text(alphabet=st.sampled_from('ab1 "\'<>&;:()“”\n\tx'), max_size=5),
)


def _fill(shape, literals):
    for index, literal in enumerate(literals):
        shape = shape.replace(f"@{index}@", literal)
    return shape


@st.composite
def batches(draw):
    """Texts of one or two shapes.  Each text fills its shape with plain
    literals and overrides up to two of them with drawn ones, so texts
    often share a skeleton and later ones are bound, not parsed."""
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=2))
    texts = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        literals = [draw(PLAIN) for _ in range(5)]
        for index in draw(st.lists(st.integers(min_value=0, max_value=4), max_size=2)):
            literals[index] = draw(LITERAL)
        texts.append(_fill(draw(st.sampled_from(shapes)), literals))
    return texts


@lru_cache(maxsize=1)
def _ufilter():
    return UFilter(books.build_book_database(), books.book_view_query())


def _outcome(parse, text, name):
    try:
        return "ok", _dump(parse(text, name))
    except Exception as error:  # the oracle's error is part of the answer
        return "error", (type(error), str(error))


def _oracle(text, name):
    update = _UpdateParser(text).parse()
    update.name = name
    return update


def _dump(update):
    """Every field, with operand types (via repr) and fragment structure."""
    return (
        update.name,
        update.source_text,
        update.target_var,
        [repr(binding) for binding in update.bindings],
        [repr(predicate) for predicate in update.where],
        [(type(op).__name__, repr(getattr(op, "path", None)),
          _tree(getattr(op, "fragment", None))) for op in update.ops],
    )


def _tree(node, parent=None):
    if node is None:
        return None
    assert node.parent is parent
    if isinstance(node, XMLText):
        return ("#text", node.value)
    return (node.tag, list(node.attributes.items()),
            [_tree(child, node) for child in node.children])


def _fresh():
    ufilter = _ufilter()
    ufilter.templates = UpdateTemplates()
    return ufilter


@settings(max_examples=200, deadline=None)
@given(batches())
def test_cold_and_warm_parses_equal_the_parser(batch):
    ufilter = _fresh()
    for sweep in range(2):  # cold (first sight of each shape), then warm
        for index, text in enumerate(batch):
            name = f"u{index}"
            assert _outcome(ufilter.parse, text, name) == _outcome(_oracle, text, name)
    templates = ufilter.templates
    assert templates.hits + templates.misses == 2 * len(batch)


@settings(max_examples=100, deadline=None)
@given(batches())
def test_mutating_a_result_never_leaks_into_the_next_hit(batch):
    ufilter = _fresh()
    for text in batch + batch:
        try:
            expected = _dump(_oracle(text, "n"))
        except Exception:
            continue
        update = ufilter.parse(text, "n")
        assert _dump(update) == expected
        # vandalize everything the caller can reach
        update.bindings.append(update.bindings[0])
        update.where.append(None)
        update.ops.append(None)
        update.name = "changed"
        for op in update.ops[:-1]:
            fragment = getattr(op, "fragment", None)
            if fragment is None:
                continue
            for node in list(fragment.iter()):
                node.attributes["spoiled"] = "1"
                for child in node.children:
                    if isinstance(child, XMLText):
                        child.value = "spoiled"
                node.append(XMLElement("spoiled"))
        assert _dump(ufilter.parse(text, "n")) == expected


def test_every_special_literal_in_every_slot_of_a_learned_shape():
    """Exhaustive companion to the random batches: each shape is learned
    from plain literals, then every special literal is tried in every
    slot, each in a text the table may answer from that template."""
    for shape in SHAPES:
        ufilter = _fresh()
        plain = ["a1", "b-2", "c 3", "d#4", "e.5"]
        _outcome(ufilter.parse, _fill(shape, plain), "s")
        for index in range(5):
            for literal in SPECIAL_LITERALS:
                literals = list(plain)
                literals[index] = literal
                text = _fill(shape, literals)
                assert _outcome(ufilter.parse, text, "s") == _outcome(_oracle, text, "s")
