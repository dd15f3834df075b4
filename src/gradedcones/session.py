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
of any script and a name starts with a letter or _.

The reader scans the text once into parallel lists of token kinds, texts
and start offsets and parses by index into them.  Every error carries a
1-based line and column, computed from its offset only when it is raised.
A punctuation text is one character no other token can spell (an INT is
digits, an IDENT starts with a letter or _, EOF is empty), so comparing
texts alone finds punctuation.  A rational, and the coefficient of a term,
costs one Fraction, built from its integer numerator and denominator.

Rendering is the exact inverse: rationals print as p/q, terms are sorted by
the active term order, descending.  parse(format(x)) == x.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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


# Each match is the blanks, line ends and whole comment lines it skips, then
# PUNCT, INT, IDENT or BAD; all four are empty at EOF, which sits at the # of
# a comment that ends the document.  \d is str.isdecimal and \w is
# str.isalnum or _, but a name must start with a letter or _.
_TOKEN = re.compile(
    r"([ \t\r\n]*(?:\#.*\n[ \t\r\n]*)*)"
    r"(?:([-+*^/()\[\],;=])|(\d+)|(\w+)|(?:\#.*)?\Z|(.))"
)


class _Cursor:
    """One scan of a text, as parallel lists of token kinds, texts and start
    offsets ending with EOF, and the index of the next token."""

    __slots__ = ("text", "kinds", "texts", "starts", "pos")

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        self.kinds, self.texts, self.starts = kinds, texts, starts = [], [], []
        end = 0
        for skipped, punct, integer, name, bad in _TOKEN.findall(text):
            start = end + len(skipped)
            if punct:
                kind, token = "PUNCT", punct
            elif integer:
                kind, token = "INT", integer
            elif name and (name[0].isalpha() or name[0] == "_"):
                kind, token = "IDENT", name
            elif name or bad:
                raise self.fail(f"unexpected character {text[start]!r}", offset=start)
            else:
                kind, token = "EOF", ""
            kinds.append(kind)
            texts.append(token)
            starts.append(start)
            if not token:
                return
            end = start + len(token)

    def fail(self, reason: str, at: int | None = None, offset: int | None = None) -> ParseFailure:
        """A ParseFailure at token `at` (by default the next one) or at a
        character offset; only here are line and column computed."""
        if offset is None:
            offset = self.starts[self.pos if at is None else at]
        line = self.text.count("\n", 0, offset) + 1
        return ParseFailure(reason, line, offset - self.text.rfind("\n", 0, offset))

    def expect(self, want: str) -> int:
        """Step over the punctuation or the token kind `want`; return its index."""
        i = self.pos
        if (self.texts[i] if len(want) == 1 else self.kinds[i]) != want:
            raise self.fail(f"expected {want!r}, found {self.texts[i] or 'EOF'!r}")
        self.pos = i + 1
        return i


def tokenize(text: str) -> list[Token]:
    """The scan as Token tuples, each with its line and column."""
    cur = _Cursor(text)
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    tokens = []
    for kind, token, start in zip(cur.kinds, cur.texts, cur.starts):
        line = bisect_right(line_starts, start)
        tokens.append(Token(kind, token, line, start - line_starts[line - 1] + 1))
    return tokens


def _parse_list(cur: _Cursor, item, *args) -> list:
    """item (',' item)*"""
    out = [item(cur, *args)]
    while cur.texts[cur.pos] == ",":
        cur.pos += 1
        out.append(item(cur, *args))
    return out


# -- polynomials ---------------------------------------------------------------


def _parse_signs(cur: _Cursor, signs=("+", "-")) -> int:
    """The product of a run of the given signs, possibly empty."""
    start = cur.pos
    while cur.texts[cur.pos] in signs:
        cur.pos += 1
    return -1 if cur.texts[start : cur.pos].count("-") % 2 else 1


def _parse_int(cur: _Cursor, signs=("-",)) -> int:
    """An integer after a run of the given signs, possibly empty."""
    sign = _parse_signs(cur, signs) if cur.texts[cur.pos] in signs else 1
    return sign * int(cur.texts[cur.expect("INT")])


def _parse_fraction(cur: _Cursor, signs=()) -> tuple[int, int]:
    """p or p/q after a run of the given signs, as the integers (+-p, q)."""
    num = _parse_int(cur, signs)
    if cur.texts[cur.pos] != "/":
        return num, 1
    at = cur.pos = cur.pos + 1
    den = _parse_int(cur, ())
    if den == 0:
        raise cur.fail("zero denominator", at)
    return num, den


def _parse_rational(cur: _Cursor) -> Fraction:
    num, den = _parse_fraction(cur, ("+", "-"))
    return Fraction(num) if den == 1 else Fraction(num, den)


def _parse_term(cur: _Cursor, ring: PolyRing, sign: int) -> tuple[Fraction, tuple[int, ...]]:
    """Factors joined by * or juxtaposed, as (sign * coefficient, exponent)."""
    kinds, texts = cur.kinds, cur.texts
    num, den = sign, 1
    exponent = [0] * ring.nvars
    while True:
        i = cur.pos
        if kinds[i] == "INT":
            p, q = _parse_fraction(cur)
            num, den = num * p, den * q
        elif kinds[i] == "IDENT":
            idx = ring.index.get(texts[i])
            if idx is None:
                raise cur.fail(f"unknown variable {texts[i]!r}")
            if texts[i + 1] == "^":
                cur.pos = i + 2
                exponent[idx] += _parse_int(cur, ())
            else:
                cur.pos = i + 1
                exponent[idx] += 1
        else:
            raise cur.fail(f"expected a term, found {texts[i] or 'EOF'!r}")
        i = cur.pos
        if texts[i] == "*":
            cur.pos = i + 1
        elif kinds[i] != "IDENT" and kinds[i] != "INT":
            return Fraction(num, den), tuple(exponent)


def _parse_poly(cur: _Cursor, ring: PolyRing) -> Polynomial:
    terms: dict[tuple[int, ...], Fraction] = {}
    sign = _parse_signs(cur)
    while True:
        coeff, e = _parse_term(cur, ring, sign)
        s = terms[e] + coeff if e in terms else coeff
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
        if cur.texts[cur.pos] not in ("+", "-"):
            return Polynomial(ring, terms)
        sign = 1 if cur.texts[cur.pos] == "+" else -1
        cur.pos += 1


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    cur = _Cursor(text)
    p = _parse_poly(cur, ring)
    if cur.kinds[cur.pos] != "EOF":
        raise cur.fail(f"trailing input {cur.texts[cur.pos]!r}")
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
    cur.expect("[")
    out = tuple(_parse_list(cur, _parse_int))
    cur.expect("]")
    return out


def _declared_name(cur: _Cursor, session: SessionInput, what: str) -> str:
    at = cur.expect("IDENT")
    name = cur.texts[at]
    if name in RESERVED:
        raise cur.fail(f"{name!r} is a reserved word", at)
    if name in session.ideals or name in session.points:
        raise cur.fail(f"{what} name {name!r} already declared", at)
    return name


def parse_session(text: str) -> SessionInput:
    cur = _Cursor(text)
    kinds, texts = cur.kinds, cur.texts
    session = SessionInput()
    while kinds[cur.pos] != "EOF":
        at = cur.expect("IDENT")
        keyword, ring = texts[at], session.ring
        if ring is None and keyword in ("grading", "ideal", "point"):
            raise cur.fail("ring must be declared first", at)
        if keyword == "ring":
            if ring is not None:
                raise cur.fail("ring already declared", at)
            names: dict[str, None] = {}  # an ordered set: a duplicate is found in O(1)
            while kinds[cur.pos] == "IDENT":
                i = cur.pos
                name = texts[i]
                if name in RESERVED:
                    raise cur.fail(f"{name!r} is a reserved word", i)
                if name in names:
                    raise cur.fail(f"duplicate variable {name!r}", i)
                names[name] = None
                cur.pos = i + 2 if texts[i + 1] == "," else i + 1
            if not names:
                raise cur.fail("ring needs at least one variable")
            cur.expect(";")
            session.ring = PolyRing(names)
        elif keyword == "grading":
            if session.grading is not None:
                raise cur.fail("grading already declared", at)
            opening = cur.expect("[")
            columns = _parse_list(cur, _parse_int_vector)
            cur.expect("]")
            cur.expect(";")
            if len(columns) != ring.nvars:
                raise cur.fail(
                    f"grading lists {len(columns)} degree vectors for {ring.nvars} variables",
                    opening,
                )
            if len({len(c) for c in columns}) != 1:
                raise cur.fail("degree vectors have mixed lengths", opening)
            session.grading = GradingMap(ring, columns)
        elif keyword == "ideal":
            name = _declared_name(cur, session, "ideal")
            cur.expect("=")
            gens = [] if texts[cur.pos] == ";" else _parse_list(cur, _parse_poly, ring)
            cur.expect(";")
            session.ideals[name] = tuple(gens)
        elif keyword == "point":
            name = _declared_name(cur, session, "point")
            cur.expect("=")
            opening = cur.expect("(")
            coords = _parse_list(cur, _parse_rational)
            cur.expect(")")
            cur.expect(";")
            if len(coords) != ring.nvars:
                raise cur.fail(
                    f"point has {len(coords)} coordinates for {ring.nvars} variables", opening
                )
            session.points[name] = tuple(coords)
        else:
            raise cur.fail(f"unknown statement {keyword!r}", at)
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
