"""Input documents: tokenizer, polynomial syntax, session declarations, round-trips."""

from fractions import Fraction

import pytest

from gradedcones.errors import ParseFailure
from gradedcones.rings import PolyRing
from gradedcones.session import (
    format_polynomial,
    format_rational,
    format_session,
    parse_polynomial,
    parse_session,
)

import reference_reader

EXAMPLE = """\
ring y1 y2 y3 y4 ;
grading [[1,2],[1,0],[0,1],[2,3]] ;
ideal F = y1^2 y2 y3 + y1 y4 + y2 y3^2 y4 ;
point P = (1, 0, 1/2, -2) ;
"""


def fails_at(text, line, column):
    with pytest.raises(ParseFailure) as info:
        parse_session(text)
    assert (info.value.line, info.value.column) == (line, column)
    return info.value


def test_tokenizer_positions():
    # a comment line is skipped, and the token after it starts line 3
    err = fails_at("ring x ;\n# comment\nbogus P", 3, 1)
    assert err.reason == "unknown statement 'bogus'"
    for text in ("x ? y", "x ² y", "x ½y"):  # ² and ½ are alphanumeric but no letters
        err = fails_at(text, 1, 3)
        assert err.reason == f"unexpected character {text[2]!r}"
    # the column does not advance through a comment that ends the document:
    # EOF sits at its #
    err = fails_at("ring x # tail", 1, 8)
    assert err.reason == "expected ';', found 'EOF'"


def test_reader_matches_the_character_loop_reader():
    assert not reference_reader.classes_differ()
    assert reference_reader.mismatches(3000, seed=20090118) == []


def test_reader_matches_the_character_loop_reader_on_pool_documents():
    # signed p and p/q coordinates, negative degree entries and one token
    # edit in half of the documents
    pool = reference_reader.pool_document
    assert reference_reader.mismatches(1000, seed=20090118, document=pool) == []


def test_parse_full_session():
    s = parse_session(EXAMPLE)
    assert s.ring.names == ("y1", "y2", "y3", "y4")
    assert s.grading.columns == ((1, 2), (1, 0), (0, 1), (2, 3))
    assert s.sole_ideal_name() == "F"
    assert s.sole_point_name() == "P"
    assert s.points["P"] == (1, 0, Fraction(1, 2), -2)
    (f,) = s.ideals["F"]
    assert f == s.ring.parse("y1^2 y2 y3 + y1 y4 + y2 y3^2 y4")


def test_session_round_trip():
    s = parse_session(EXAMPLE)
    text = format_session(s)
    again = parse_session(text)
    assert again.ring == s.ring
    assert again.grading == s.grading
    assert again.ideals == s.ideals
    assert again.points == s.points
    # formatting is a fixed point
    assert format_session(again) == text


def test_declaration_errors():
    fails_at("ring x ;\nring y ;", 2, 1)
    fails_at("grading [[1]] ;", 1, 1)  # no ring yet
    fails_at("ring x ;\ngrading [[1],[2]] ;", 2, 9)
    fails_at("ring x y ;\ngrading [[1],[2,3]] ;", 2, 9)
    fails_at("ring x ;\nideal I = x ;\nideal I = x ;", 3, 7)
    fails_at("ring x ;\npoint P = (1, 2) ;", 2, 11)
    fails_at("ring x point ;", 1, 8)  # reserved word as a variable
    fails_at("ring x x ;", 1, 8)
    fails_at("ring ;", 1, 6)
    fails_at("bogus ;", 1, 1)
    err = fails_at("ring x ;\nideal ring = x ;", 2, 7)
    assert "reserved" in err.reason


def test_empty_ideal_is_allowed():
    s = parse_session("ring x ;\nideal Z = ;\n")
    assert s.ideals["Z"] == ()
    assert "ideal Z = ;" in format_session(s)


def test_polynomial_syntax():
    ring = PolyRing(("x", "y"))
    p = parse_polynomial(ring, "3 x^2 y - 1/2 y + 2")
    assert p == ring.parse("3*x^2*y - 1/2*y + 2")
    # star is optional between factors
    assert parse_polynomial(ring, "x y") == parse_polynomial(ring, "x*y")
    assert parse_polynomial(ring, "- - x - y") == ring.parse("x - y")
    assert parse_polynomial(ring, "5/3") == ring.constant(Fraction(5, 3))


def test_polynomial_syntax_errors():
    ring = PolyRing(("x", "y"))
    for bad in ("x +", "x ^ y", "z", "(x + y)", "x // 2", "1/0"):
        with pytest.raises(ParseFailure):
            parse_polynomial(ring, bad)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


def test_format_polynomial_goldens():
    ring = PolyRing(("x", "y"))
    assert format_polynomial(ring.zero()) == "0"
    assert format_polynomial(ring.parse("x - y")) == "x - y"
    assert format_polynomial(ring.parse("-x + y")) == "-x + y"
    assert format_polynomial(ring.parse("2 x^2 - 1/3")) == "2*x^2 - 1/3"
    assert format_polynomial(ring.one()) == "1"


def test_polynomial_format_parse_round_trip():
    ring = PolyRing(("x", "y", "z"))
    for text in ("x^3 - 2 x y z + 7/5 z^2 - 1", "x + y + z", "-x^2 y^2 z^2"):
        p = ring.parse(text)
        assert parse_polynomial(ring, format_polynomial(p)) == p
