"""Streaming lexer shared by the view-query and update parsers.

The language mixes XML-ish element constructors (``<book>``, ``</book>``)
with FLWR expression syntax (``FOR $book IN document(...)``).  ``<`` is
disambiguated lexically: followed by a letter or ``/`` it starts a tag,
otherwise it is the less-than operator (``$book/price<50.00``).

The lexer is *streaming* (pull-based with pushback) because the update
parser needs to grab raw balanced XML fragments out of the middle of the
token stream (``INSERT <book>...</book>``), which is easiest when the
lexer owns a single cursor into the source text.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional

from ..errors import XQueryError

__all__ = ["TokenKind", "Token", "Lexer", "KEYWORDS"]


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    VAR = "var"          # $book  (value stored without the $)
    STRING = "string"
    NUMBER = "number"
    OP = "op"            # = != <> < <= > >=
    TAG_OPEN = "tag_open"    # <book>
    TAG_CLOSE = "tag_close"  # </book>
    LBRACE = "lbrace"
    RBRACE = "rbrace"
    LPAREN = "lparen"
    RPAREN = "rparen"
    COMMA = "comma"
    SLASH = "slash"
    EOF = "eof"


KEYWORDS = {
    "FOR", "LET", "IN", "WHERE", "RETURN", "UPDATE", "INSERT", "DELETE",
    "REPLACE", "WITH", "AND", "OR", "NOT", "IF", "THEN", "ELSE",
    "ORDER", "BY", "SORTBY",
}

_NAME = re.compile(r"[A-Za-z_][\w.\-]*")
_SPACE = re.compile(r"\s*")
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?|\.[0-9]+")
#: what closes a string opened by a curly double quote
_CURLY_CLOSE = re.compile('[“”"]')
_PUNCTUATION = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    "/": TokenKind.SLASH,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    value: str                  # original spelling (case preserved)
    position: int

    def is_keyword(self, word: str) -> bool:
        return (
            self.kind is TokenKind.KEYWORD and self.value.upper() == word.upper()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.value!r})"


class Lexer:
    """Pull-based tokenizer with single-token pushback."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.position = 0
        self._pushback: list[Token] = []

    # -- public API -----------------------------------------------------------

    def next(self) -> Token:
        if self._pushback:
            return self._pushback.pop()
        return self._scan()

    def peek(self) -> Token:
        token = self.next()
        self.push_back(token)
        return token

    def push_back(self, token: Token) -> None:
        self._pushback.append(token)

    def error(self, message: str, position: Optional[int] = None) -> XQueryError:
        where = self.position if position is None else position
        context = self.text[max(0, where - 20):where + 20].replace("\n", " ")
        return XQueryError(f"{message} at offset {where} (near ...{context}...)")

    def scan_raw_xml_fragment(self) -> str:
        """Capture a balanced XML fragment starting at the next ``<``.

        Used by the update parser for INSERT/REPLACE bodies, whose
        content is literal XML (possibly containing quoted strings and
        free text).  Any tokens pushed back are discarded — callers must
        only invoke this when the next token is known to be a TAG_OPEN
        that has been pushed back or not yet consumed.
        """
        if self._pushback:
            # rewind the cursor to the start of the pushed-back token
            first = min(token.position for token in self._pushback)
            self.position = first
            self._pushback.clear()
        self._skip_space()
        start = self.position
        if self.position >= len(self.text) or self.text[self.position] != "<":
            raise self.error("expected an XML fragment")
        depth = 0
        i = self.position
        n = len(self.text)
        while i < n:
            if self.text[i] == "<":
                if self.text.startswith("</", i):
                    end = self.text.find(">", i)
                    if end == -1:
                        raise self.error("unterminated closing tag", i)
                    depth -= 1
                    i = end + 1
                    if depth == 0:
                        self.position = i
                        return self.text[start:i]
                    continue
                end = self.text.find(">", i)
                if end == -1:
                    raise self.error("unterminated tag", i)
                if self.text[end - 1] == "/":  # self-closing
                    i = end + 1
                    if depth == 0:
                        self.position = i
                        return self.text[start:i]
                    continue
                depth += 1
                i = end + 1
                continue
            i += 1
        raise self.error("unbalanced XML fragment", start)

    # -- scanning -------------------------------------------------------------

    def _skip_space(self) -> None:
        text = self.text
        position = _SPACE.match(text, self.position).end()
        while text.startswith("(:", position):  # XQuery comment
            end = text.find(":)", position + 2)
            if end == -1:
                self.position = position
                raise self.error("unterminated comment")
            position = _SPACE.match(text, end + 2).end()
        self.position = position

    def _scan(self) -> Token:
        self._skip_space()
        text, n = self.text, len(self.text)
        if self.position >= n:
            return Token(TokenKind.EOF, "", n)
        start = self.position
        ch = text[start]

        if ch == "<":
            nxt = text[start + 1] if start + 1 < n else ""
            if nxt == "/":
                match = _NAME.match(text, start + 2)
                if not match:
                    raise self.error("malformed closing tag", start)
                end = match.end()
                self._expect_char(end, ">")
                self.position = end + 1
                return Token(TokenKind.TAG_CLOSE, match.group(0), start)
            if nxt.isalpha() or nxt == "_":
                match = _NAME.match(text, start + 1)
                if not match:  # a non-ASCII letter: not a tag name
                    raise self.error("malformed tag", start)
                end = match.end()
                self._expect_char(end, ">")
                self.position = end + 1
                return Token(TokenKind.TAG_OPEN, match.group(0), start)
            # otherwise it's a comparison operator
            if nxt == "=":
                self.position = start + 2
                return Token(TokenKind.OP, "<=", start)
            if nxt == ">":
                self.position = start + 2
                return Token(TokenKind.OP, "<>", start)
            self.position = start + 1
            return Token(TokenKind.OP, "<", start)

        if ch == ">":
            if text.startswith(">=", start):
                self.position = start + 2
                return Token(TokenKind.OP, ">=", start)
            self.position = start + 1
            return Token(TokenKind.OP, ">", start)
        if ch == "=":
            self.position = start + 1
            return Token(TokenKind.OP, "=", start)
        if ch == "!":
            if text.startswith("!=", start):
                self.position = start + 2
                return Token(TokenKind.OP, "!=", start)
            raise self.error("unexpected '!'", start)

        if ch == "$":
            match = _NAME.match(text, start + 1)
            if not match:
                raise self.error("malformed variable", start)
            self.position = match.end()
            return Token(TokenKind.VAR, match.group(0), start)

        if ch in ("'", '"'):
            end = text.find(ch, start + 1)
            if end == -1:
                raise self.error("unterminated string", start)
            self.position = end + 1
            return Token(TokenKind.STRING, text[start + 1:end], start)
        if ch in ("“", "”"):  # curly double quotes seen in the paper's listings
            close = _CURLY_CLOSE.search(text, start + 1)
            if close is None:
                raise self.error("unterminated string", start)
            end = close.start()
            self.position = end + 1
            return Token(TokenKind.STRING, text[start + 1:end], start)

        # ASCII digits only: str.isdigit() also accepts "²" and friends,
        # which int()/float() then reject
        number = _NUMBER.match(text, start)
        if number:
            self.position = number.end()
            return Token(TokenKind.NUMBER, number.group(0), start)

        if ch.isalpha() or ch == "_":
            match = _NAME.match(text, start)
            if not match:  # a non-ASCII letter: names are ASCII-led
                raise self.error(f"unexpected character {ch!r}", start)
            word = match.group(0)
            self.position = match.end()
            if word.upper() in KEYWORDS:
                return Token(TokenKind.KEYWORD, word, start)
            return Token(TokenKind.IDENT, word, start)

        kind = _PUNCTUATION.get(ch)
        if kind is not None:
            self.position = start + 1
            return Token(kind, ch, start)
        raise self.error(f"unexpected character {ch!r}", start)

    def _expect_char(self, index: int, expected: str) -> None:
        if index >= len(self.text) or self.text[index] != expected:
            raise self.error(f"expected {expected!r}", index)
