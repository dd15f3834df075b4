"""The character-loop reader that session.py replaced, kept as a reference.

`tests/test_session.py` runs `mismatches` on seeded strings: the parsed
sessions and polynomials of the reference and of `gradedcones.session`, or
the ParseFailure message, line and column, must agree.  The reference's
`tokenize` feeds its own parser, and `tests/test_session_properties.py`
re-spaces documents along its tokens.
It also runs `mismatches` on documents shaped like the benchmark's pool
documents (`pool_document`).  Run this file directly to do the same check
without pytest, on the `random` documents or the `pool` ones:

    PYTHONPATH=src python3 tests/reference_reader.py [count] [seed] [random|pool]
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from gradedcones import session
from gradedcones.errors import ParseFailure
from gradedcones.grading import GradingMap
from gradedcones.rings import PolyRing, Polynomial
from gradedcones.session import RESERVED, SessionInput


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


def _declared_name(cur: _Cursor, s: SessionInput, what: str) -> Token:
    t = cur.expect("IDENT")
    if t.text in RESERVED:
        raise ParseFailure(f"{t.text!r} is a reserved word", t.line, t.column)
    if t.text in s.ideals or t.text in s.points:
        raise ParseFailure(f"{what} name {t.text!r} already declared", t.line, t.column)
    return t


def _require_ring(s: SessionInput, t: Token) -> PolyRing:
    if s.ring is None:
        raise ParseFailure("ring must be declared first", t.line, t.column)
    return s.ring


def parse_session(text: str) -> SessionInput:
    cur = _Cursor(tokenize(text))
    s = SessionInput()
    while cur.peek().kind != "EOF":
        t = cur.expect("IDENT")
        if t.text == "ring":
            if s.ring is not None:
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
            s.ring = PolyRing(names)
        elif t.text == "grading":
            ring = _require_ring(s, t)
            if s.grading is not None:
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
            s.grading = GradingMap(ring, columns)
        elif t.text == "ideal":
            ring = _require_ring(s, t)
            name = _declared_name(cur, s, "ideal")
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
            s.ideals[name.text] = tuple(gens)
        elif t.text == "point":
            ring = _require_ring(s, t)
            name = _declared_name(cur, s, "point")
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
            s.points[name.text] = tuple(coords)
        else:
            raise ParseFailure(f"unknown statement {t.text!r}", t.line, t.column)
    return s


# -- the differential check -----------------------------------------------------

RING = PolyRing(("x", "y", "ß"))
PREFIX = "ring x y ß ;\ngrading [[1,0],[0,1],[2,-1]] ;\n"
PIECES = (
    # the reserved words and the statements they open
    "ring", "grading", "ideal", "point", "ideal I = ", "ideal J = ", "point P = (",
    "ring x y ß ;", "grading [[1],[2],[3]] ;",
    # names, numbers and the names the two kinds of token disagree on
    "x", "y", "ß", "z", "_a", "x2", "x²", "ß٣", "é", "٣", "0", "1", "2", "10", "007", "3/4", "1/0",
    # punctuation, blanks, line ends and comments
    "+", "-", "*", "^", "/", "(", ")", "[", "]", ",", ";", "=", " ", "  ", "\t",
    "\r", "\n", "\r\n", "#", "# note", "# note\n",
)
# characters that may not start a token, drawn less often so that most
# documents get past the tokenizer
ODD = ("²", "½", "Ⅻ", "?", "$", "\\", "\v", "\u00a0")
FACTORS = ("x", "y", "ß", "x^2", "y^0", "ß^3", "2", "3/4", "0", "٣")


def random_polynomial(rng: random.Random) -> str:
    """Signed terms of factors in RING, juxtaposed or joined by *; some cancel."""
    text = rng.choice(("", "-", "+ ", "- -"))
    for k in range(rng.randint(1, 4)):
        if k:
            text += rng.choice(("+", "-", " + ", " - "))
        factors = rng.choices(FACTORS, k=rng.randint(1, 3))
        text += rng.choice(("*", " ", " * ")).join(factors)
    return text


def random_document(rng: random.Random) -> str:
    """Random text, half of the documents after a ring and a grading.

    A third of the bodies are pieces drawn with replacement, a third one
    polynomial and a third an ideal of polynomials.  Any of them may end in
    a comment.
    """
    kind = rng.randrange(3)
    if kind == 0:
        body = "".join(
            rng.choice(ODD if rng.random() < 0.04 else PIECES) for _ in range(rng.randint(0, 14))
        )
    elif kind == 1:
        body = random_polynomial(rng)
    else:
        gens = [random_polynomial(rng) for _ in range(rng.randint(1, 3))]
        body = "ideal I = " + ",".join(gens) + rng.choice((" ;", ";\n", ""))
    if rng.random() < 0.1:
        body += "#" + rng.choice(PIECES)  # a comment that ends the document
    return PREFIX + body if rng.random() < 0.5 else body


# what a token edit may put in place of a token of a pool-shaped document
EDITS = ("(", ")", "[", "]", ",", ";", "=", "/", "-", "+", "*", "^", "0", "3", "y1", "z", "point", "²", "#")
# blanks between two tokens; between two names or numbers at least one blank
BLANKS = (" ", " ", " ", "\n", "\r\n", "\t", " # note\n", "\n# note\n  ")


def _number(rng: random.Random, signs: str, fraction: bool) -> list[str]:
    """The tokens of a run of the given signs, then p or, if `fraction`, sometimes p/q."""
    tokens = [rng.choice(signs) for _ in range(rng.choice((0, 0, 0, 1, 1, 2)) if signs else 0)]
    tokens.append(rng.choice(("0", "0", "1", "2", "3", "7", "12", "007", "٣")))
    if fraction and rng.random() < 0.3:
        tokens += ["/", rng.choice(("1", "2", "3", "4", "10", "0" if rng.random() < 0.1 else "5"))]
    return tokens


def _pool_polynomial(rng: random.Random, names: list[str]) -> list[str]:
    """The tokens of signed terms: an optional p or p/q, then powers of names."""
    tokens = []
    for k in range(rng.randint(1, 3)):
        if k or rng.random() < 0.3:
            tokens.append(rng.choice("+-"))
        coefficient = rng.random() < 0.5
        if coefficient:
            tokens += _number(rng, "", True)
        for f in range(rng.randint(1, 3)):
            if (f or coefficient) and rng.random() < 0.5:
                tokens.append("*")
            tokens.append(rng.choice(names))
            if rng.random() < 0.3:
                tokens += ["^", str(rng.randint(0, 3))]
    return tokens


def pool_document(rng: random.Random) -> str:
    """A document shaped like the benchmark's pool documents.

    A ring, a grading with negative entries, an ideal and one to three
    points whose coordinates are signed p or p/q.  Any two tokens may have
    blanks, line ends or comment lines between them.  Half of the documents
    then get one token dropped, duplicated or replaced.
    """
    n, m = rng.randint(2, 6), rng.randint(1, 3)
    names = [f"y{i}" for i in range(1, n + 1)]
    tokens = ["ring", *names, ";", "grading", "["]
    for k in range(n):
        tokens += [","] * bool(k) + ["["]
        for t in range(m):
            tokens += [","] * bool(t) + _number(rng, "-", False)
        tokens.append("]")
    tokens += ["]", ";", "ideal", "F", "="]
    for k in range(rng.randint(1, 2)):
        tokens += [","] * bool(k) + _pool_polynomial(rng, names)
    tokens.append(";")
    for name in "PQR"[: rng.randint(1, 3)]:
        tokens += ["point", name, "=", "("]
        for i in range(n):
            tokens += [","] * bool(i) + _number(rng, "+-", True)
        tokens += [")", ";"]
    if rng.random() < 0.5:
        k, edit = rng.randrange(len(tokens)), rng.randrange(3)
        if edit == 0:
            del tokens[k]
        elif edit == 1:
            tokens.insert(k, tokens[k])
        else:
            tokens[k] = rng.choice(EDITS)
    text = tokens[0]
    for before, token in zip(tokens, tokens[1:]):
        words = before[-1].isalnum() and token[0].isalnum()
        text += rng.choice(BLANKS) if words or rng.random() < 0.3 else ""
        text += token
    return text + rng.choice(("\n", "", " # end", "\n\n"))


def _outcome(read, text):
    try:
        return ("ok", read(text))
    except ParseFailure as err:
        return ("fail", err.reason, err.line, err.column)
    except ValueError as err:  # PolyRing refuses a name that is no identifier
        return ("refused", str(err))


def _terms(p: Polynomial):
    """Terms in dictionary order, so the order they were added in counts too."""
    return [(e, c, type(c)) for e, c in p.terms.items()]


def session_view(reader):
    """`reader` returning its session as plain data, so term order and
    coefficient types count too."""

    def read(text):
        s = reader(text)
        return (
            s.ring,
            s.grading and s.grading.columns,
            [(k, [_terms(g) for g in gens]) for k, gens in s.ideals.items()],
            [(k, [(c, type(c)) for c in coords]) for k, coords in s.points.items()],
        )

    return read


def _polynomial(parse):
    return lambda text: _terms(parse(RING, text))


CHECKS = (
    (session_view(parse_session), session_view(session.parse_session)),
    (_polynomial(parse_polynomial), _polynomial(session.parse_polynomial)),
)


def mismatches(count: int, seed: int, document=random_document) -> list[str]:
    """The seeded documents of the generator `document` on which the two
    readers disagree."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        text = document(rng)
        if any(_outcome(old, text) != _outcome(new, text) for old, new in CHECKS):
            bad.append(text)
    return bad


GENERATORS = {"random": random_document, "pool": pool_document}


def classes_differ() -> bool:
    """Whether \\d is not str.isdecimal or \\w not str.isalnum or _ on some code point."""
    chars = "".join(map(chr, range(0x110000)))
    digits = "".join(re.findall(r"\d+", chars)) != "".join(filter(str.isdecimal, chars))
    words = "".join(re.findall(r"[^\W_]+", chars)) != "".join(filter(str.isalnum, chars))
    return digits or words or re.fullmatch(r"\w", "_") is None


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20090118
    generator = sys.argv[3] if len(sys.argv) > 3 else "random"
    classes = classes_differ()
    bad = mismatches(count, seed, GENERATORS[generator])
    print(f"Python {sys.version.split()[0]}: character classes", "differ" if classes else "agree")
    print(f"{count} {generator} documents, seed {seed}: {len(bad)} mismatches")
    for text in bad[:10]:
        print(repr(text))
    sys.exit(1 if classes or bad else 0)
