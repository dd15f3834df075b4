"""Input document grammar and exact text rendering.

A session document declares a ring, an optional grading, and named ideals
and points:

    # comments run to end of line
    ring y1 y2 y3 y4 ;
    grading [[1,2],[1,0],[0,1],[2,3]] ;
    ideal F = y1^2*y2*y3 + y1*y4 + y2*y3^2*y4 ;
    point P = (1, 1, 1, 1) ;

The grading lists one integer degree vector per variable.  A polynomial is
a signed sum of terms; a term multiplies rationals p or p/q and powers x^k,
with * or side by side (`2 y1`, `2y1` and `2*y1` agree).  The grammar has no
parentheses, so each term is one coefficient times one monomial and the
reader fills the term dictionary directly.  Digits are the decimal digits
of any script and a name starts with a letter or _.  Every error carries a
1-based line and column.

Rendering is the exact inverse: rationals print as p/q, terms are sorted by
the active term order, descending.  parse(format(x)) == x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseFailure
from .grading import GradingMap
from .orders import TermOrder
from .rings import PolyRing, Polynomial

RESERVED = {"ring", "grading", "ideal", "point"}


class Token(NamedTuple):
    kind: str  # IDENT, INT, PUNCT, EOF
    text: str
    line: int
    column: int


# Each match is optional blanks and then one alternative.  \d is
# str.isdecimal and \w is str.isalnum or _, but a name must start with a
# letter or _, which tokenize checks.  The last match is always EOF, and a
# comment that ends the document is part of it, so EOF sits at its #.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<INT>\d+)|(?P<IDENT>\w+)|(?P<PUNCT>[-+*^/()\[\],;=])"
    r"|(?P<EOF>(?:\#.*)?\Z)|(?P<NEWLINE>(?:\#.*)?\n)|(?P<BAD>.))"
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        column = start - line_start + 1
        if kind == "BAD" or (kind == "IDENT" and not (text[start].isalpha() or text[start] == "_")):
            raise ParseFailure(f"unexpected character {text[start]!r}", line, column)
        if kind == "EOF":
            tokens.append(Token(kind, "", line, column))
            return tokens
        tokens.append(Token(kind, m[kind], line, column))


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseFailure(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.column)
        return self.next()

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.text == text


def _parse_list(cur: _Cursor, item, *args) -> list:
    """item (',' item)*"""
    out = [item(cur, *args)]
    while cur.at_punct(","):
        cur.next()
        out.append(item(cur, *args))
    return out


# -- polynomials ---------------------------------------------------------------


def _parse_unsigned_int(cur: _Cursor) -> int:
    return int(cur.expect("INT").text)


def _parse_signs(cur: _Cursor) -> int:
    """The product of a run of + and - signs, possibly empty."""
    sign = 1
    while cur.at_punct("-") or cur.at_punct("+"):
        if cur.next().text == "-":
            sign = -sign
    return sign


def _parse_fraction(cur: _Cursor) -> Fraction:
    num = _parse_unsigned_int(cur)
    if not cur.at_punct("/"):
        return Fraction(num)
    cur.next()
    t = cur.peek()
    den = _parse_unsigned_int(cur)
    if den == 0:
        raise ParseFailure("zero denominator", t.line, t.column)
    return Fraction(num, den)


def _parse_rational(cur: _Cursor) -> Fraction:
    return _parse_signs(cur) * _parse_fraction(cur)


def _parse_term(cur: _Cursor, ring: PolyRing) -> tuple[Fraction, tuple[int, ...]]:
    """Factors joined by * or juxtaposed, as (coefficient, exponent)."""
    coeff = Fraction(1)
    exponent = [0] * ring.nvars
    while True:
        t = cur.peek()
        if t.kind == "INT":
            coeff *= _parse_fraction(cur)
        elif t.kind == "IDENT":
            cur.next()
            idx = ring.index.get(t.text)
            if idx is None:
                raise ParseFailure(f"unknown variable {t.text!r}", t.line, t.column)
            if cur.at_punct("^"):
                cur.next()
                exponent[idx] += _parse_unsigned_int(cur)
            else:
                exponent[idx] += 1
        else:
            raise ParseFailure(f"expected a term, found {t.text or t.kind!r}", t.line, t.column)
        if cur.at_punct("*"):
            cur.next()
        elif cur.peek().kind not in ("IDENT", "INT"):
            return coeff, tuple(exponent)


def _parse_poly(cur: _Cursor, ring: PolyRing) -> Polynomial:
    terms: dict[tuple[int, ...], Fraction] = {}
    sign = _parse_signs(cur)
    while True:
        coeff, e = _parse_term(cur, ring)
        s = terms.get(e, 0) + sign * coeff
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
        if not (cur.at_punct("+") or cur.at_punct("-")):
            return Polynomial(ring, terms)
        sign = 1 if cur.next().text == "+" else -1


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    cur = _Cursor(tokenize(text))
    p = _parse_poly(cur, ring)
    t = cur.peek()
    if t.kind != "EOF":
        raise ParseFailure(f"trailing input {t.text!r}", t.line, t.column)
    return p


def format_rational(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_monomial(ring: PolyRing, exponent) -> str:
    parts = []
    for name, k in zip(ring.names, exponent):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts) if parts else "1"


def format_polynomial(p: Polynomial, order: TermOrder | None = None) -> str:
    if p.is_zero():
        return "0"
    order = order or TermOrder.lex()
    pieces = []
    for e, c in order.sorted_terms(p):
        mono = format_monomial(p.ring, e)
        mag = abs(c)
        if mono == "1":
            body = format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_rational(mag)}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# -- session documents ----------------------------------------------------------


@dataclass
class SessionInput:
    """Parsed declarations of one input document."""

    ring: PolyRing | None = None
    grading: GradingMap | None = None
    ideals: dict[str, tuple[Polynomial, ...]] = field(default_factory=dict)
    points: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)

    def sole_ideal_name(self) -> str | None:
        if len(self.ideals) == 1:
            return next(iter(self.ideals))
        return None

    def sole_point_name(self) -> str | None:
        if len(self.points) == 1:
            return next(iter(self.points))
        return None


def _parse_int(cur: _Cursor) -> int:
    sign = 1
    while cur.at_punct("-"):
        cur.next()
        sign = -sign
    return sign * _parse_unsigned_int(cur)


def _parse_int_vector(cur: _Cursor) -> tuple[int, ...]:
    cur.expect("PUNCT", "[")
    out = tuple(_parse_list(cur, _parse_int))
    cur.expect("PUNCT", "]")
    return out


def _declared_name(cur: _Cursor, session: SessionInput, what: str) -> Token:
    t = cur.expect("IDENT")
    if t.text in RESERVED:
        raise ParseFailure(f"{t.text!r} is a reserved word", t.line, t.column)
    if t.text in session.ideals or t.text in session.points:
        raise ParseFailure(f"{what} name {t.text!r} already declared", t.line, t.column)
    return t


def _require_ring(session: SessionInput, t: Token) -> PolyRing:
    if session.ring is None:
        raise ParseFailure("ring must be declared first", t.line, t.column)
    return session.ring


def parse_session(text: str) -> SessionInput:
    cur = _Cursor(tokenize(text))
    session = SessionInput()
    while cur.peek().kind != "EOF":
        t = cur.expect("IDENT")
        if t.text == "ring":
            if session.ring is not None:
                raise ParseFailure("ring already declared", t.line, t.column)
            names = []
            while cur.peek().kind == "IDENT":
                name = cur.next()
                if name.text in RESERVED:
                    raise ParseFailure(f"{name.text!r} is a reserved word", name.line, name.column)
                if name.text in names:
                    raise ParseFailure(f"duplicate variable {name.text!r}", name.line, name.column)
                names.append(name.text)
                if cur.at_punct(","):
                    cur.next()
            if not names:
                bad = cur.peek()
                raise ParseFailure("ring needs at least one variable", bad.line, bad.column)
            cur.expect("PUNCT", ";")
            session.ring = PolyRing(names)
        elif t.text == "grading":
            ring = _require_ring(session, t)
            if session.grading is not None:
                raise ParseFailure("grading already declared", t.line, t.column)
            open_tok = cur.expect("PUNCT", "[")
            columns = _parse_list(cur, _parse_int_vector)
            cur.expect("PUNCT", "]")
            cur.expect("PUNCT", ";")
            if len(columns) != ring.nvars:
                raise ParseFailure(
                    f"grading lists {len(columns)} degree vectors for {ring.nvars} variables",
                    open_tok.line,
                    open_tok.column,
                )
            if len({len(c) for c in columns}) != 1:
                raise ParseFailure("degree vectors have mixed lengths", open_tok.line, open_tok.column)
            session.grading = GradingMap(ring, columns)
        elif t.text == "ideal":
            ring = _require_ring(session, t)
            name = _declared_name(cur, session, "ideal")
            cur.expect("PUNCT", "=")
            gens = [] if cur.at_punct(";") else _parse_list(cur, _parse_poly, ring)
            cur.expect("PUNCT", ";")
            session.ideals[name.text] = tuple(gens)
        elif t.text == "point":
            ring = _require_ring(session, t)
            name = _declared_name(cur, session, "point")
            cur.expect("PUNCT", "=")
            open_tok = cur.expect("PUNCT", "(")
            coords = _parse_list(cur, _parse_rational)
            cur.expect("PUNCT", ")")
            cur.expect("PUNCT", ";")
            if len(coords) != ring.nvars:
                raise ParseFailure(
                    f"point has {len(coords)} coordinates for {ring.nvars} variables",
                    open_tok.line,
                    open_tok.column,
                )
            session.points[name.text] = tuple(coords)
        else:
            raise ParseFailure(f"unknown statement {t.text!r}", t.line, t.column)
    return session


def format_session(session: SessionInput) -> str:
    lines = []
    if session.ring is not None:
        lines.append("ring " + " ".join(session.ring.names) + " ;")
    if session.grading is not None:
        cols = ",".join("[" + ",".join(str(x) for x in c) + "]" for c in session.grading.columns)
        lines.append(f"grading [{cols}] ;")
    for name, gens in session.ideals.items():
        body = ", ".join(format_polynomial(g) for g in gens)
        lines.append(f"ideal {name} = {body} ;" if body else f"ideal {name} = ;")
    for name, coords in session.points.items():
        body = ", ".join(format_rational(c) for c in coords)
        lines.append(f"point {name} = ({body}) ;")
    return "\n".join(lines) + "\n"
