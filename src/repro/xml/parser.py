"""A small XML parser sufficient for the paper's documents.

Supports elements, attributes (single or double quoted), text content,
character entities (&lt; &gt; &amp; &quot; &apos; and numeric), comments
and an optional XML declaration.  No namespaces, CDATA, or DTDs — the
views of the paper never produce them.
"""

from __future__ import annotations

import re

from ..errors import XMLError
from .nodes import XMLElement, XMLText

__all__ = ["parse_xml"]

_NAME = re.compile(r"[A-Za-z_][\w.\-]*")
_SPACE = re.compile(r"\s*")
_ENTITY = re.compile(r"&([^;&\s]+);")
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.position = 0

    def eof(self) -> bool:
        return self.position >= len(self.text)

    def peek(self, length: int = 1) -> str:
        return self.text[self.position:self.position + length]

    def advance(self, length: int = 1) -> str:
        chunk = self.text[self.position:self.position + length]
        self.position += length
        return chunk

    def skip_whitespace(self) -> None:
        self.position = _SPACE.match(self.text, self.position).end()

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.position):
            raise XMLError(
                f"expected {literal!r} at offset {self.position} "
                f"(found {self.peek(len(literal))!r})"
            )
        self.position += len(literal)

    def read_name(self) -> str:
        match = _NAME.match(self.text, self.position)
        if not match:
            raise XMLError(f"expected a name at offset {self.position}")
        self.position = match.end()
        return match.group(0)

    def error(self, message: str) -> XMLError:
        return XMLError(f"{message} at offset {self.position}")


def _decode_entities(raw: str) -> str:
    if "&" not in raw:
        return raw

    def replace(match: re.Match) -> str:
        body = match.group(1)
        try:
            if body.startswith("#x") or body.startswith("#X"):
                return chr(int(body[2:], 16))
            if body.startswith("#"):
                return chr(int(body[1:]))
        except ValueError:
            return match.group(0)
        # unknown entities (and bare & in data) pass through leniently —
        # update fragments quote free text the paper never escapes
        return _ENTITIES.get(body, match.group(0))

    return _ENTITY.sub(replace, raw)


def parse_xml(text: str) -> XMLElement:
    """Parse *text* and return the root element."""
    scanner = _Scanner(text)
    scanner.skip_whitespace()
    if scanner.peek(5) == "<?xml":
        end = scanner.text.find("?>", scanner.position)
        if end == -1:
            raise scanner.error("unterminated XML declaration")
        scanner.position = end + 2
        scanner.skip_whitespace()
    _skip_misc(scanner)
    root = _parse_element(scanner)
    _skip_misc(scanner)
    scanner.skip_whitespace()
    if not scanner.eof():
        raise scanner.error("trailing content after the root element")
    return root


def _skip_misc(scanner: _Scanner) -> None:
    while True:
        scanner.skip_whitespace()
        if scanner.peek(4) == "<!--":
            end = scanner.text.find("-->", scanner.position)
            if end == -1:
                raise scanner.error("unterminated comment")
            scanner.position = end + 3
            continue
        return


def _parse_element(scanner: _Scanner) -> XMLElement:
    scanner.expect("<")
    tag = scanner.read_name()
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        if scanner.peek(2) == "/>":
            scanner.advance(2)
            return XMLElement(tag, attributes=attributes)
        if scanner.peek() == ">":
            scanner.advance()
            break
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("expected a quoted attribute value")
        scanner.advance()
        end = scanner.text.find(quote, scanner.position)
        if end == -1:
            raise scanner.error("unterminated attribute value")
        attributes[name] = _decode_entities(scanner.text[scanner.position:end])
        scanner.position = end + 1

    node = XMLElement(tag, attributes=attributes)
    text = scanner.text
    while True:
        start = scanner.position
        if start >= len(text):
            raise scanner.error(f"unterminated element <{tag}>")
        if text[start] != "<":
            # a text run reaches the next markup (or the end of input,
            # which the check above then reports)
            end = text.find("<", start)
            if end == -1:
                end = len(text)
            content = _decode_entities(text[start:end])
            if content:
                node.append(XMLText(content))
            scanner.position = end
            continue
        if text.startswith("<!--", start):
            end = text.find("-->", start)
            if end == -1:
                raise scanner.error("unterminated comment")
            scanner.position = end + 3
            continue
        if text.startswith("</", start):
            scanner.advance(2)
            closing = scanner.read_name()
            if closing != tag:
                raise scanner.error(
                    f"mismatched closing tag </{closing}> for <{tag}>"
                )
            scanner.skip_whitespace()
            scanner.expect(">")
            return node
        node.append(_parse_element(scanner))
