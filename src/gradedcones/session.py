"""Input document grammar and exact text rendering.

A session document declares a ring, an optional grading, and named ideals
and points:

    # comments run to end of line
    ring y1 y2 y3 y4 ;
    grading [[1,2],[1,0],[0,1],[2,3]] ;
    ideal F = y1^2*y2*y3 + y1*y4 + y2*y3^2*y4 ;
    point P = (1, 1, 1, 1) ;

The grading lists one integer degree vector per variable.  Polynomials use
^ for powers; * is optional where juxtaposition is unambiguous (tokens are
split at name/number boundaries, so `2 y1` and `2*y1` agree).  Every error
carries a 1-based line and column.

Rendering is the exact inverse: rationals print as p/q, terms are sorted by
the active term order, descending.  parse(format(x)) == x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseFailure
from .grading import GradingMap
from .orders import TermOrder
from .rings import PolyRing, Polynomial

RESERVED = {"ring", "grading", "ideal", "point"}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, PUNCT, EOF
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^/()[],;=":
            tokens.append(Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseFailure(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


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


# -- polynomials ---------------------------------------------------------------


def _parse_unsigned_int(cur: _Cursor) -> int:
    t = cur.expect("INT")
    return int(t.text)


def _parse_rational(cur: _Cursor) -> Fraction:
    sign = 1
    while cur.at_punct("-") or cur.at_punct("+"):
        if cur.next().text == "-":
            sign = -sign
    num = _parse_unsigned_int(cur)
    if cur.at_punct("/"):
        cur.next()
        t = cur.peek()
        den = _parse_unsigned_int(cur)
        if den == 0:
            raise ParseFailure("zero denominator", t.line, t.column)
        return Fraction(sign * num, den)
    return Fraction(sign * num)


def _parse_factor(cur: _Cursor, ring: PolyRing) -> Polynomial:
    t = cur.peek()
    if t.kind == "INT":
        return ring.constant(_parse_rational(cur))
    if t.kind == "IDENT":
        cur.next()
        idx = ring.index.get(t.text)
        if idx is None:
            raise ParseFailure(f"unknown variable {t.text!r}", t.line, t.column)
        power = 1
        if cur.at_punct("^"):
            cur.next()
            power = _parse_unsigned_int(cur)
        return ring.variable(idx) ** power
    raise ParseFailure(f"expected a term, found {t.text or t.kind!r}", t.line, t.column)


def _parse_term(cur: _Cursor, ring: PolyRing) -> Polynomial:
    acc = _parse_factor(cur, ring)
    while True:
        if cur.at_punct("*"):
            cur.next()
            acc = acc * _parse_factor(cur, ring)
        elif cur.peek().kind in ("IDENT", "INT"):
            acc = acc * _parse_factor(cur, ring)
        else:
            return acc


def _parse_poly(cur: _Cursor, ring: PolyRing) -> Polynomial:
    sign = 1
    while cur.at_punct("+") or cur.at_punct("-"):
        if cur.next().text == "-":
            sign = -sign
    acc = _parse_term(cur, ring) * sign
    while cur.at_punct("+") or cur.at_punct("-"):
        sign = 1 if cur.next().text == "+" else -1
        acc = acc + _parse_term(cur, ring) * sign
    return acc


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


def _parse_int_vector(cur: _Cursor) -> tuple[int, ...]:
    cur.expect("PUNCT", "[")
    out = []
    while True:
        sign = 1
        while cur.at_punct("-"):
            cur.next()
            sign = -sign
        out.append(sign * _parse_unsigned_int(cur))
        if cur.at_punct(","):
            cur.next()
            continue
        cur.expect("PUNCT", "]")
        return tuple(out)


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
            columns = []
            while True:
                columns.append(_parse_int_vector(cur))
                if cur.at_punct(","):
                    cur.next()
                    continue
                break
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
            gens: list[Polynomial] = []
            if not cur.at_punct(";"):
                while True:
                    gens.append(_parse_poly(cur, ring))
                    if cur.at_punct(","):
                        cur.next()
                        continue
                    break
            cur.expect("PUNCT", ";")
            session.ideals[name.text] = tuple(gens)
        elif t.text == "point":
            ring = _require_ring(session, t)
            name = _declared_name(cur, session, "point")
            cur.expect("PUNCT", "=")
            open_tok = cur.expect("PUNCT", "(")
            coords = [_parse_rational(cur)]
            while cur.at_punct(","):
                cur.next()
                coords.append(_parse_rational(cur))
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
