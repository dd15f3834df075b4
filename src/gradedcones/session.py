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

The reader scans the text once, with one regular expression whose only
group is the token text, into a list of texts ending with EOF's empty text
(comment lines are texts too, and are dropped).  The kind of a token is a
function of its text alone, so it is decided once per distinct text and
mapped over the list; a text of no kind is a bad character, and the first
one in the document is raised.  The parser steps by index through the two
lists.  Start offsets are not kept: an error finds the offset of its token
by running the same expression again up to that token, and only then turns
it into a 1-based line and column.  A punctuation text is one character no
other token can spell (an INT is digits, an IDENT starts with a letter or
_, EOF is empty), so comparing texts alone finds punctuation.

The grading's degree vectors and a point's coordinates are each read in
one loop over the token lists.  A rational, and the coefficient of a term,
costs one Fraction, built from its integer numerator and denominator; the
coordinates of one document share one Fraction per distinct spelling.

Rendering is the exact inverse: rationals print as p/q, terms are sorted by
the active term order, descending.  parse(format(x)) == x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice

from .errors import ParseFailure
from .grading import GradingMap
from .orders import TermOrder
from .rings import PolyRing, Polynomial

RESERVED = {"ring", "grading", "ideal", "point"}


_PUNCT = frozenset("-+*^/()[],;=")
# Each match skips blanks and line ends, then captures one text: PUNCT, INT,
# a \w run (an IDENT if it starts with a letter or _), another lone
# character, a comment line, or nothing.  A # is left for the empty text
# only by a comment that ends the document, so the empty text is EOF and
# sits at that #; the matches after it are not tokens.  \d is str.isdecimal
# and \w is str.isalnum or _.
_TOKEN = re.compile(
    r"[ \t\r\n]*([" + re.escape("".join(sorted(_PUNCT))) + r"]|\d+|\w+|[^#]|\#.*\n|)"
)


def _is_token(text: str) -> bool:
    """Whether a captured text is a token, not a comment line."""
    return text[:1] != "#"


def _token_matches(text: str):
    """The matches of _TOKEN that are tokens: comment lines, if the text has
    any, left out."""
    matches = _TOKEN.finditer(text)
    if "#" in text:
        return (match for match in matches if _is_token(match[1]))
    return matches


class _Cursor:
    """One scan of a text, as parallel lists of token kinds and texts ending
    with EOF, and the index of the next token.

    The scan keeps texts only.  Kinds are decided once per distinct text; a
    text of no kind is a bad token, and the first one in the document is
    raised.  Offsets are found only by `fail`.
    """

    __slots__ = ("text", "kinds", "texts", "pos")

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        texts = _TOKEN.findall(text)
        del texts[texts.index("") + 1 :]
        if "#" in text:
            texts = list(filter(_is_token, texts))
        self.texts = texts
        kind, bad = {}, []
        for token in set(texts):
            first = token[:1]
            if first.isdecimal():
                kind[token] = "INT"
            elif first.isalpha() or first == "_":
                kind[token] = "IDENT"
            elif token in _PUNCT:
                kind[token] = "PUNCT"
            elif not token:
                kind[token] = "EOF"
            else:
                bad.append(token)
        if bad:
            at = min(map(texts.index, bad))
            raise self.fail(f"unexpected character {texts[at][0]!r}", at)
        self.kinds = list(map(kind.__getitem__, texts))

    def fail(self, reason: str, at: int | None = None) -> ParseFailure:
        """A ParseFailure at token `at`, by default the next one; only here
        are its offset, line and column computed, by scanning up to it."""
        match = next(islice(_token_matches(self.text), self.pos if at is None else at, None))
        offset = match.start(1)
        line = self.text.count("\n", 0, offset) + 1
        return ParseFailure(reason, line, offset - self.text.rfind("\n", 0, offset))

    def expect(self, want: str) -> int:
        """Step over the punctuation or the token kind `want`; return its index."""
        i = self.pos
        if (self.texts[i] if len(want) == 1 else self.kinds[i]) != want:
            raise self.expected(want, i)
        self.pos = i + 1
        return i

    def expected(self, want: str, at: int) -> ParseFailure:
        """The ParseFailure of finding token `at` where `want` belongs."""
        return self.fail(f"expected {want!r}, found {self.texts[at] or 'EOF'!r}", at)


# -- polynomials ---------------------------------------------------------------


def _parse_signs(cur: _Cursor) -> int:
    """The product of a run of + and - signs, possibly empty."""
    start = cur.pos
    while cur.texts[cur.pos] in ("+", "-"):
        cur.pos += 1
    return -1 if cur.texts[start : cur.pos].count("-") % 2 else 1


def _parse_term(cur: _Cursor, ring: PolyRing, sign: int) -> tuple[Fraction, tuple[int, ...]]:
    """Factors p, p/q, x and x^k joined by * or juxtaposed, as
    (sign * coefficient, exponent)."""
    kinds, texts = cur.kinds, cur.texts
    num, den = sign, 1
    exponent = [0] * ring.nvars
    i = cur.pos
    while True:
        if kinds[i] == "INT":
            num *= int(texts[i])
            if texts[i + 1] == "/":
                i += 2
                if kinds[i] != "INT":
                    raise cur.expected("INT", i)
                q = int(texts[i])
                if not q:
                    raise cur.fail("zero denominator", i)
                den *= q
        elif kinds[i] == "IDENT":
            idx = ring.index.get(texts[i])
            if idx is None:
                raise cur.fail(f"unknown variable {texts[i]!r}", i)
            if texts[i + 1] == "^":
                i += 2
                if kinds[i] != "INT":
                    raise cur.expected("INT", i)
                exponent[idx] += int(texts[i])
            else:
                exponent[idx] += 1
        else:
            raise cur.fail(f"expected a term, found {texts[i] or 'EOF'!r}", i)
        i += 1
        if texts[i] == "*":
            i += 1
        elif kinds[i] != "IDENT" and kinds[i] != "INT":
            cur.pos = i
            return Fraction(num) if den == 1 else Fraction(num, den), tuple(exponent)


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
    """x^k joined by *; the nonzero exponents and their names are selected at
    C level, so a wide ring costs little per monomial."""
    parts = [
        name if k == 1 else f"{name}^{k}"
        for name, k in zip(compress(ring.names, exponent), filter(None, exponent))
    ]
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


def _parse_columns(cur: _Cursor) -> list[tuple[int, ...]]:
    """'[' int (',' int)* ']' (',' '[' ... ']')*, each int a run of - signs
    then digits: the grading's degree vectors."""
    kinds, texts = cur.kinds, cur.texts
    i, columns = cur.pos, []
    while True:
        if texts[i] != "[":
            raise cur.expected("[", i)
        column = []
        while True:
            start = i = i + 1
            while texts[i] == "-":
                i += 1
            if kinds[i] != "INT":
                raise cur.expected("INT", i)
            column.append(-int(texts[i]) if (i - start) % 2 else int(texts[i]))
            i += 1
            if texts[i] != ",":
                break
        if texts[i] != "]":
            raise cur.expected("]", i)
        columns.append(tuple(column))
        i += 1
        if texts[i] != ",":
            cur.pos = i
            return columns
        i += 1


def _parse_coordinates(cur: _Cursor, fractions: dict) -> list[Fraction]:
    """rational (',' rational)*, each rational a run of + and - signs then
    p or p/q.  `fractions` maps the spelling of each rational read so far,
    its sign written as one - or none, to its Fraction: points repeat
    spellings (zeros, one point copied into another), and a repeat then
    costs neither int() nor a Fraction."""
    kinds, texts = cur.kinds, cur.texts
    i, coords = cur.pos, []
    while True:
        key = texts[i]
        if kinds[i] != "INT":
            start = i
            while texts[i] == "-" or texts[i] == "+":
                i += 1
            if kinds[i] != "INT":
                raise cur.expected("INT", i)
            key = "-" + texts[i] if texts[start:i].count("-") % 2 else texts[i]
        if texts[i + 1] == "/":
            i += 2
            if kinds[i] != "INT":
                raise cur.expected("INT", i)
            key = (key, texts[i])
        c = fractions.get(key)
        if c is None:
            if type(key) is str:
                c = Fraction(int(key))
            else:
                q = int(key[1])
                if not q:
                    raise cur.fail("zero denominator", i)
                c = Fraction(int(key[0]), q)
            fractions[key] = c
        coords.append(c)
        i += 1
        if texts[i] != ",":
            cur.pos = i
            return coords
        i += 1


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
    fractions: dict[str | tuple[str, str], Fraction] = {}
    while kinds[cur.pos] != "EOF":
        at = cur.expect("IDENT")
        keyword, ring = texts[at], session.ring
        if ring is None and keyword in ("grading", "ideal", "point"):
            raise cur.fail("ring must be declared first", at)
        if keyword == "ring":
            if ring is not None:
                raise cur.fail("ring already declared", at)
            names: dict[str, None] = {}  # an ordered set: a duplicate is found in O(1)
            i = cur.pos
            while kinds[i] == "IDENT":
                name = texts[i]
                if name in RESERVED:
                    raise cur.fail(f"{name!r} is a reserved word", i)
                if name in names:
                    raise cur.fail(f"duplicate variable {name!r}", i)
                names[name] = None
                i += 2 if texts[i + 1] == "," else 1
            cur.pos = i
            if not names:
                raise cur.fail("ring needs at least one variable")
            cur.expect(";")
            session.ring = PolyRing(names)
        elif keyword == "grading":
            if session.grading is not None:
                raise cur.fail("grading already declared", at)
            opening = cur.expect("[")
            columns = _parse_columns(cur)
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
            gens = [] if texts[cur.pos] == ";" else [_parse_poly(cur, ring)]
            while texts[cur.pos] == ",":
                cur.pos += 1
                gens.append(_parse_poly(cur, ring))
            cur.expect(";")
            session.ideals[name] = tuple(gens)
        elif keyword == "point":
            name = _declared_name(cur, session, "point")
            cur.expect("=")
            opening = cur.expect("(")
            coords = _parse_coordinates(cur, fractions)
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
