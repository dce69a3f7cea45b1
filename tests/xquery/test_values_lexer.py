"""Value rendering/comparison helpers and the xquery lexer."""

import datetime

import pytest

from repro.errors import XQueryError
from repro.xquery.lexer import Lexer, TokenKind
from repro.xquery.update_parser import parse_view_update
from repro.xquery.values import compare_values, render_value


class TestRenderValue:
    def test_none_is_empty(self):
        assert render_value(None) == ""

    def test_float_two_decimals(self):
        assert render_value(37.0) == "37.00"
        assert render_value(48.567) == "48.57"

    def test_int_plain(self):
        assert render_value(42) == "42"

    def test_date_january_first_renders_year(self):
        assert render_value(datetime.date(1997, 1, 1)) == "1997"

    def test_other_dates_render_iso(self):
        assert render_value(datetime.date(2004, 7, 15)) == "2004-07-15"

    def test_bool(self):
        assert render_value(True) == "true"

    def test_string_passthrough(self):
        assert render_value("abc") == "abc"


class TestCompareValues:
    def test_null_is_unknown(self):
        assert compare_values("=", None, 1) is None
        assert compare_values("=", 1, None) is None

    def test_numeric_text_vs_number(self):
        assert compare_values(">", "48.00", 40.0) is True
        assert compare_values("<", "37.00", 40) is True

    def test_non_numeric_text_vs_number_falls_back(self):
        assert compare_values("=", "abc", 40) is False

    def test_date_vs_year(self):
        date = datetime.date(1997, 3, 1)
        assert compare_values(">", date, 1990) is True
        assert compare_values(">", date, 1997) is False

    def test_date_vs_string(self):
        date = datetime.date(1997, 1, 1)
        assert compare_values("=", date, "1997") is True

    def test_string_comparison(self):
        assert compare_values("=", "x", "x") is True
        assert compare_values("<>", "x", "y") is True

    def test_incomparable_types_compared_as_text(self):
        assert compare_values("=", "1997-05-05", datetime.date(1997, 5, 5)) is True


class TestXQueryLexer:
    def kinds(self, text):
        lexer = Lexer(text)
        out = []
        while True:
            token = lexer.next()
            out.append(token)
            if token.kind is TokenKind.EOF:
                return out

    def test_tag_vs_less_than(self):
        tokens = self.kinds("<book> $b/price<50.00 </book>")
        kinds = [t.kind for t in tokens]
        assert kinds[0] is TokenKind.TAG_OPEN
        assert TokenKind.OP in kinds  # the < before 50.00
        assert kinds[-2] is TokenKind.TAG_CLOSE

    def test_keywords_preserve_case(self):
        token = self.kinds("for")[0]
        assert token.kind is TokenKind.KEYWORD and token.value == "for"
        assert token.is_keyword("FOR")

    def test_variables(self):
        token = self.kinds("$book")[0]
        assert token.kind is TokenKind.VAR and token.value == "book"

    def test_curly_quotes(self):
        token = self.kinds("“98001”")[0]
        assert token.kind is TokenKind.STRING and token.value == "98001"

    def test_comment_skipped(self):
        tokens = self.kinds("(: note :) $x")
        assert tokens[0].kind is TokenKind.VAR

    def test_operators(self):
        values = [t.value for t in self.kinds("<= >= <> != =")[:-1]]
        assert values == ["<=", ">=", "<>", "!=", "="]

    def test_pushback(self):
        lexer = Lexer("$a $b")
        first = lexer.next()
        lexer.push_back(first)
        assert lexer.next() is first

    def test_scan_raw_fragment_balanced(self):
        lexer = Lexer("  <a><b>text</b></a> trailing")
        raw = lexer.scan_raw_xml_fragment()
        assert raw == "<a><b>text</b></a>"
        assert lexer.next().kind is TokenKind.IDENT  # 'trailing'

    def test_scan_raw_fragment_self_closing(self):
        lexer = Lexer("<a/> rest")
        assert lexer.scan_raw_xml_fragment() == "<a/>"

    def test_scan_raw_fragment_unbalanced(self):
        with pytest.raises(XQueryError):
            Lexer("<a><b></a>").scan_raw_xml_fragment()  # never closes <b>... it closes a first

    def test_unterminated_string(self):
        with pytest.raises(XQueryError):
            self.kinds('"oops')

    def test_unexpected_character(self):
        with pytest.raises(XQueryError):
            self.kinds("#")


class TestLexerPinned:
    """Tokens, positions and error messages, pinned: the lexer skips
    space and finds string ends with regex/``str.find`` scans, and must
    read every text exactly as a one-character-at-a-time scan did."""

    MIXED = (
        "FOR  (: a comment :)\t$r (:x:)(: y :) IN document(\"V.xml\") ,"
        "\xa0$x IN $r/a\u2003WHERE $x/b <= “12” AND "
        "$x/c != 'q\"r' UPDATE $r { DELETE $x }"
    )

    def scan(self, text):
        lexer = Lexer(text)
        out = []
        while True:
            token = lexer.next()
            out.append((token.kind.name, token.value, token.position))
            if token.kind is TokenKind.EOF:
                return out

    def test_mixed_text_tokens_and_positions(self):
        assert self.scan(self.MIXED) == [
            ("KEYWORD", "FOR", 0), ("VAR", "r", 21), ("KEYWORD", "IN", 37),
            ("IDENT", "document", 40), ("LPAREN", "(", 48),
            ("STRING", "V.xml", 49), ("RPAREN", ")", 56), ("COMMA", ",", 58),
            ("VAR", "x", 60), ("KEYWORD", "IN", 63), ("VAR", "r", 66),
            ("SLASH", "/", 68), ("IDENT", "a", 69), ("KEYWORD", "WHERE", 71),
            ("VAR", "x", 77), ("SLASH", "/", 79), ("IDENT", "b", 80),
            ("OP", "<=", 82), ("STRING", "12", 85), ("KEYWORD", "AND", 90),
            ("VAR", "x", 94), ("SLASH", "/", 96), ("IDENT", "c", 97),
            ("OP", "!=", 99), ("STRING", 'q"r', 102), ("KEYWORD", "UPDATE", 108),
            ("VAR", "r", 115), ("LBRACE", "{", 118), ("KEYWORD", "DELETE", 120),
            ("VAR", "x", 127), ("RBRACE", "}", 130), ("EOF", "", 131),
        ]

    def test_unicode_space_and_empty_comment(self):
        assert self.scan("\u3000\x1c(::)\x85$v") == [
            ("VAR", "v", 7), ("EOF", "", 9),
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("$a/b<50.00 (:", "unterminated comment at offset 11 (near ...$a/b<50.00 (:...)"),
            ('WHERE $a = "abc', 'unterminated string at offset 11 (near ...WHERE $a = "abc...)'),
            ("WHERE $a = “abc", "unterminated string at offset 11 (near ...WHERE $a = “abc...)"),
            ("WHERE $a = 'abc", "unterminated string at offset 11 (near ...WHERE $a = 'abc...)"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(XQueryError) as caught:
            self.scan(text)
        assert str(caught.value) == message


class TestNonAsciiDigits:
    """Only ASCII 0-9 make a NUMBER: ``str.isdigit()`` also accepts
    superscripts and other scripts' digits, which ``int()`` rejects with
    a bare ``ValueError``."""

    def test_ascii_numbers_still_lex(self):
        lexer = Lexer("12.5 .5 7")
        values = [lexer.next() for _ in range(3)]
        assert [(t.kind, t.value) for t in values] == [
            (TokenKind.NUMBER, "12.5"),
            (TokenKind.NUMBER, ".5"),
            (TokenKind.NUMBER, "7"),
        ]

    @pytest.mark.parametrize(
        "operand, message",
        [
            ("\u00b2", "unexpected character '\u00b2' at offset 41"),
            ("1\u0663", "unexpected character '\u0663' at offset 42"),
            ("2.\u00b9", "unexpected character '.' at offset 42"),
        ],
    )
    def test_non_ascii_digit_is_an_xquery_error(self, operand, message):
        text = (
            f'FOR $r IN document("V.xml") WHERE $r/b = {operand} '
            "UPDATE $r { DELETE $r }"
        )
        with pytest.raises(XQueryError) as caught:
            parse_view_update(text)
        assert str(caught.value).startswith(message)
