"""Parser for view-update statements.

INSERT / REPLACE bodies are literal XML: the parser asks the lexer for
the raw balanced fragment and hands it to the XML parser.  Text content
that the paper writes quoted (``<bookid>"98004"</bookid>``) is
unquoted, and whitespace-only text (``<title> </title>``) becomes the
empty string — both normalizations match how the paper's update
validation step reads the fragments.

:class:`UpdateTemplates` puts a literal-agnostic shape table in front of
the parser: of the texts that differ only in their string and text
literals, the first is parsed and the later ones are bound to its
cached parse.  The module function :func:`parse_view_update` is the
plain parser and the table's oracle.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Union

from ..errors import ReproError, UpdateSyntaxError
from ..xml.nodes import XMLElement, XMLText
from ..xml.parser import parse_xml
from .ast import Binding, DocSource, Predicate, VarPath
from .lexer import Lexer, Token, TokenKind
from .update_ast import DeleteOp, InsertOp, ReplaceOp, UpdateOp, ViewUpdate

__all__ = ["UpdateTemplates", "parse_view_update"]

_QUOTES = ('"', "'", "“", "”")


class _UpdateParser:
    def __init__(self, text: str) -> None:
        self.lexer = Lexer(text)
        self.text = text

    # -- plumbing (mirrors the view parser) ------------------------------------

    def next(self) -> Token:
        return self.lexer.next()

    def peek(self) -> Token:
        return self.lexer.peek()

    def expect(self, kind: TokenKind, value: Optional[str] = None) -> Token:
        token = self.next()
        matches = token.value == value or (
            kind is TokenKind.KEYWORD
            and value is not None
            and token.value.upper() == value.upper()
        )
        if token.kind is not kind or (value is not None and not matches):
            raise UpdateSyntaxError(
                f"expected {value or kind.value}, found {token.value!r} "
                f"at offset {token.position}"
            )
        return token

    def accept(self, kind: TokenKind, value: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        matches = value is None or token.value == value or (
            kind is TokenKind.KEYWORD and token.value.upper() == value.upper()
        )
        if token.kind is kind and matches:
            return self.next()
        return None

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.is_keyword(word):
            self.next()
            return True
        return False

    # -- grammar -------------------------------------------------------------------

    def parse(self) -> ViewUpdate:
        self.expect(TokenKind.KEYWORD, "FOR")
        bindings = [self.parse_binding()]
        while self.accept(TokenKind.COMMA):
            bindings.append(self.parse_binding())
        where: list[Predicate] = []
        if self.accept_keyword("WHERE"):
            where.append(self.parse_predicate())
            while self.accept_keyword("AND"):
                where.append(self.parse_predicate())
        self.expect(TokenKind.KEYWORD, "UPDATE")
        target = self.expect(TokenKind.VAR)
        self.expect(TokenKind.LBRACE)
        ops = [self.parse_op()]
        while self.accept(TokenKind.COMMA):
            ops.append(self.parse_op())
        self.expect(TokenKind.RBRACE)
        token = self.peek()
        if token.kind is not TokenKind.EOF:
            raise UpdateSyntaxError(
                f"trailing input after update at offset {token.position}"
            )
        return ViewUpdate(
            bindings=bindings,
            where=where,
            target_var=target.value,
            ops=ops,
            source_text=self.text,
        )

    def parse_binding(self) -> Binding:
        var = self.expect(TokenKind.VAR)
        token = self.next()
        in_like = token.is_keyword("IN") or (
            token.kind is TokenKind.OP and token.value == "="
        )
        if not in_like:
            raise UpdateSyntaxError(
                f"expected IN or = after ${var.value} at offset {token.position}"
            )
        source = self.parse_source()
        return Binding(var=var.value, source=source)

    def parse_source(self) -> Union[DocSource, VarPath]:
        token = self.peek()
        if token.kind is TokenKind.IDENT and token.value == "document":
            self.next()
            self.expect(TokenKind.LPAREN)
            document = self.expect(TokenKind.STRING)
            self.expect(TokenKind.RPAREN)
            segments: list[str] = []
            while self.accept(TokenKind.SLASH):
                name = self.next()
                if name.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                    raise UpdateSyntaxError(
                        f"expected a path segment at offset {name.position}"
                    )
                segments.append(name.value)
            return DocSource(document=document.value, path=tuple(segments))
        if token.kind is TokenKind.VAR:
            return self.parse_var_path()
        raise UpdateSyntaxError(
            f"expected document(...) or a variable path at offset {token.position}"
        )

    def parse_var_path(self) -> VarPath:
        var = self.expect(TokenKind.VAR)
        segments: list[str] = []
        text_fn = False
        while self.accept(TokenKind.SLASH):
            name = self.next()
            # tag names may collide with keywords (<order>, <in>, ...)
            if name.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                raise UpdateSyntaxError(
                    f"expected a path segment at offset {name.position}"
                )
            if name.value == "text" and self.accept(TokenKind.LPAREN):
                self.expect(TokenKind.RPAREN)
                text_fn = True
                break
            segments.append(name.value)
        return VarPath(var=var.value, segments=tuple(segments), text_fn=text_fn)

    def parse_predicate(self) -> Predicate:
        if self.accept(TokenKind.LPAREN):
            inner = self.parse_predicate()
            self.expect(TokenKind.RPAREN)
            return inner
        left = self.parse_operand()
        token = self.next()
        if token.kind is not TokenKind.OP:
            raise UpdateSyntaxError(
                f"expected a comparison operator at offset {token.position}"
            )
        right = self.parse_operand()
        op = "<>" if token.value == "!=" else token.value
        return Predicate(op=op, left=left, right=right)

    def parse_operand(self):
        token = self.peek()
        if token.kind is TokenKind.VAR:
            return self.parse_var_path()
        if token.kind is TokenKind.STRING:
            self.next()
            return token.value.strip()
        if token.kind is TokenKind.NUMBER:
            self.next()
            return float(token.value) if "." in token.value else int(token.value)
        raise UpdateSyntaxError(
            f"unexpected operand {token.value!r} at offset {token.position}"
        )

    def parse_op(self) -> UpdateOp:
        if self.accept_keyword("INSERT"):
            return InsertOp(fragment=self.parse_fragment())
        if self.accept_keyword("DELETE"):
            return DeleteOp(path=self.parse_var_path())
        if self.accept_keyword("REPLACE"):
            path = self.parse_var_path()
            self.expect(TokenKind.KEYWORD, "WITH")
            return ReplaceOp(path=path, fragment=self.parse_fragment())
        token = self.peek()
        raise UpdateSyntaxError(
            f"expected INSERT, DELETE or REPLACE at offset {token.position}"
        )

    def parse_fragment(self) -> XMLElement:
        raw = self.lexer.scan_raw_xml_fragment()
        fragment = parse_xml(raw)
        _normalize_fragment(fragment)
        return fragment


def _normalize_fragment(node: XMLElement) -> None:
    """Unquote and trim literal text content, in place."""
    for child in list(node.children):
        if isinstance(child, XMLText):
            value = child.value.strip()
            if len(value) >= 2 and value[0] in _QUOTES and value[-1] in _QUOTES:
                value = value[1:-1]
            if value:
                child.value = value
            else:
                node.children.remove(child)
        elif isinstance(child, XMLElement):
            _normalize_fragment(child)


def parse_view_update(text: str, name: str = "") -> ViewUpdate:
    """Parse a view-update statement; *name* labels it (u1, u2, ...)."""
    update = _UpdateParser(text).parse()
    update.name = name
    return update


# ---------------------------------------------------------------------------
# the shape table
# ---------------------------------------------------------------------------

# Why binding is exact: a slot holds nothing that ends a string (quotes),
# a text run or a tag (angle brackets), an entity body (``&``) or a
# comment (``:)``), and it starts and ends with a non-space character.
# So the lexer, the XML parser and ``_normalize_fragment`` read it as
# opaque data, and their ``strip`` and quote-unwrapping stop at its edges
# whatever it holds.  A slot that lands where syntax is read puts a
# sentinel there, which no reader accepts.  ``UpdateTemplates._learn``
# still checks every template against the direct parse before keeping it.

#: a slot's first and last character: no whitespace (``strip`` must not
#: reach into it), and no ``:`` that could start a comment close
_EDGE = r"""(?:[^\s"'<>&“”:]|:(?!\)))"""
#: a slot's inner characters: nothing that ends a string, a text run, an
#: entity body or a ``(: ... :)`` comment
_INNER = r"""(?:[^"'<>&“”:]|:(?!\)))"""
_LITERAL = rf"{_EDGE}(?:{_INNER}*{_EDGE})?"
#: a ``"..."`` string (admitted as a slot only when its content is a
#: literal; other strings are consumed so quotes keep pairing left to
#: right), or the literal text run after a ``>``
_SLOT = re.compile(rf'"(?P<string>{_LITERAL})"|"[^"]*"|>(?P<run>{_LITERAL})(?=<)')
#: private-use sentinels mark slots in a skeleton; the lexer rejects them
#: outside strings and comments, so a slot it would read as syntax makes
#: the skeleton unparseable and its shape uncacheable
_OPEN, _CLOSE = "\ue000", "\ue001"
_HOLE = re.compile(f"{_OPEN}(\\d+){_CLOSE}")


def _split(text: str) -> Optional[tuple[str, list[str]]]:
    """The skeleton of *text* (slots replaced by numbered sentinels) and
    its literals, or None when *text* itself holds a sentinel character."""
    if _OPEN in text or _CLOSE in text:
        return None
    literals: list[str] = []

    def slot(match: re.Match) -> str:
        string = match.group("string")
        if string is not None:
            literals.append(string)
            return f'"{_OPEN}{len(literals) - 1}{_CLOSE}"'
        run = match.group("run")
        if run is not None:
            literals.append(run)
            return f">{_OPEN}{len(literals) - 1}{_CLOSE}"
        return match.group(0)

    return _SLOT.sub(slot, text), literals


def _binder(literals: list[str]) -> Callable[[str], str]:
    def fill(value: str) -> str:
        if _OPEN not in value:
            return value
        if value[0] == _OPEN and value.find(_CLOSE) == len(value) - 1:
            return literals[int(value[1:-1])]  # the whole value is one slot
        return _HOLE.sub(lambda match: literals[int(match.group(1))], value)

    return fill


def _bind(
    template: ViewUpdate, literals: list[str], text: str, name: str
) -> ViewUpdate:
    """A fresh update: *template* with its slots filled from *literals*."""
    fill = _binder(literals)
    bindings = []
    for binding in template.bindings:
        source = binding.source
        if isinstance(source, DocSource) and _OPEN in source.document:
            source = DocSource(fill(source.document), source.path)
            binding = Binding(binding.var, source, binding.is_let)
        bindings.append(binding)
    where = []
    for predicate in template.where:
        left, right = predicate.left, predicate.right
        if isinstance(left, str) or isinstance(right, str):
            predicate = Predicate(
                predicate.op,
                fill(left) if isinstance(left, str) else left,
                fill(right) if isinstance(right, str) else right,
            )
        where.append(predicate)
    ops: list[UpdateOp] = []
    for op in template.ops:
        if isinstance(op, InsertOp):
            ops.append(InsertOp(fragment=_bind_fragment(op.fragment, fill)))
        elif isinstance(op, DeleteOp):
            ops.append(DeleteOp(path=op.path))
        else:
            ops.append(
                ReplaceOp(path=op.path, fragment=_bind_fragment(op.fragment, fill))
            )
    return ViewUpdate(
        bindings=bindings,
        where=where,
        target_var=template.target_var,
        ops=ops,
        source_text=text,
        name=name,
    )


def _bind_fragment(node: XMLElement, fill: Callable[[str], str]) -> XMLElement:
    copy = XMLElement(
        node.tag,
        attributes={key: fill(value) for key, value in node.attributes.items()},
    )
    for child in node.children:
        if isinstance(child, XMLText):
            copy.append(XMLText(fill(child.value)))
        elif isinstance(child, XMLElement):
            copy.append(_bind_fragment(child, fill))
    return copy


def _same_update(left: ViewUpdate, right: ViewUpdate) -> bool:
    """Exact equality: operand types count, and fragments compare child by
    child with their whitespace (unlike :meth:`XMLElement.equals`)."""
    return (
        left.bindings == right.bindings
        and left.target_var == right.target_var
        and len(left.where) == len(right.where)
        and all(
            a.op == b.op and _same_operand(a.left, b.left) and _same_operand(a.right, b.right)
            for a, b in zip(left.where, right.where)
        )
        and len(left.ops) == len(right.ops)
        and all(_same_op(a, b) for a, b in zip(left.ops, right.ops))
    )


def _same_operand(left: object, right: object) -> bool:
    return type(left) is type(right) and left == right


def _same_op(left: UpdateOp, right: UpdateOp) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, (DeleteOp, ReplaceOp)) and left.path != right.path:
        return False
    if isinstance(left, (InsertOp, ReplaceOp)):
        return _same_node(left.fragment, right.fragment)
    return True


def _same_node(left: object, right: object) -> bool:
    if isinstance(left, XMLText):
        return isinstance(right, XMLText) and left.value == right.value
    return (
        isinstance(left, XMLElement)
        and isinstance(right, XMLElement)
        and left.tag == right.tag
        and list(left.attributes.items()) == list(right.attributes.items())
        and len(left.children) == len(right.children)
        and all(_same_node(a, b) for a, b in zip(left.children, right.children))
    )


class UpdateTemplates:
    """A bounded table of parsed update shapes.

    A text's *shape* is its skeleton: the text with every literal slot
    (the content of a ``"..."`` string or of an XML text run that no
    reader can see into) replaced by a numbered sentinel.  The first text
    of a shape is parsed as usual; then the skeleton is parsed, and the
    result is kept as the shape's template only if binding this text's
    literals into it gives exactly the direct parse.  Later texts of the
    shape are bound without being parsed.  Errors are never cached:
    every text a template cannot answer goes to the parser.

    The table keeps :attr:`capacity` shapes and evicts the oldest.
    :attr:`hits` counts texts bound from a template, :attr:`misses`
    texts the parser read, and :attr:`uncacheable` shapes found not to
    bind exactly (their texts always miss).
    """

    capacity = 256

    def __init__(self) -> None:
        #: skeleton -> template, or None for an uncacheable shape
        self._shapes: dict[str, Optional[ViewUpdate]] = {}
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    def __len__(self) -> int:
        return len(self._shapes)

    def parse(
        self,
        text: str,
        name: str = "",
        parser: Callable[..., ViewUpdate] = parse_view_update,
    ) -> ViewUpdate:
        """Parse *text* like *parser* (``parser(text, name=name)``) does."""
        shape = _split(text)
        if shape is None:
            self.misses += 1
            return parser(text, name=name)
        skeleton, literals = shape
        template = self._shapes.get(skeleton)
        if template is not None:
            self.hits += 1
            return _bind(template, literals, text, name)
        self.misses += 1
        update = parser(text, name=name)
        if skeleton not in self._shapes:
            self._learn(skeleton, literals, update)
        return update

    def _learn(self, skeleton: str, literals: list[str], update: ViewUpdate) -> None:
        try:
            template: Optional[ViewUpdate] = _UpdateParser(skeleton).parse()
        except ReproError:  # a sentinel sits where syntax is read
            template = None
        if template is not None and not _same_update(
            _bind(template, literals, update.source_text, update.name), update
        ):
            template = None
        if template is None:
            self.uncacheable += 1
        if len(self._shapes) >= self.capacity:
            del self._shapes[next(iter(self._shapes))]
        self._shapes[skeleton] = template
