"""Property tests: formatting a session document and parsing it back is the identity,
and blanks, line ends, comments and the optional * do not change what is parsed,
nor make the reader disagree with the character-loop reader it replaced."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gradedcones.grading import GradingMap  # noqa: E402
from gradedcones.rings import PolyRing, Polynomial  # noqa: E402
from gradedcones.session import (  # noqa: E402
    RESERVED,
    SessionInput,
    format_session,
    parse_session,
)

import reference_reader  # noqa: E402

# each reader's session as plain data: term order and coefficient types count
READ = reference_reader.session_view(parse_session)
READ_REFERENCE = reference_reader.session_view(reference_reader.parse_session)

LETTERS = "adeginloprtxyZ_"  # spells every reserved word
names = st.builds(
    str.__add__,
    st.sampled_from(LETTERS),
    st.text(LETTERS + "0123456789", max_size=3),
).filter(lambda s: s not in RESERVED)
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
nonzero_rationals = rationals.filter(bool)


def polynomials(ring: PolyRing):
    exponents = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    terms = st.dictionaries(exponents, nonzero_rationals, max_size=4)
    return terms.map(lambda t: Polynomial(ring, t))


def gradings(ring: PolyRing):
    def columns(m):
        column = st.tuples(*[st.integers(-4, 4)] * m)
        return st.lists(column, min_size=ring.nvars, max_size=ring.nvars)

    return st.integers(1, 3).flatmap(columns).map(lambda cols: GradingMap(ring, cols))


def points(ring: PolyRing):
    return st.tuples(*[rationals] * ring.nvars)


@st.composite
def sessions(draw):
    ring = PolyRing(draw(st.lists(names, min_size=1, max_size=4, unique=True)))
    grading = draw(st.none() | gradings(ring))
    labels = draw(st.lists(names, max_size=4, unique=True))
    cut = draw(st.integers(0, len(labels)))
    ideals = {
        label: tuple(draw(st.lists(polynomials(ring), max_size=3))) for label in labels[:cut]
    }
    coords = {label: draw(points(ring)) for label in labels[cut:]}
    return SessionInput(ring, grading, ideals, coords)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(sessions())
def test_format_then_parse_is_the_identity(session):
    assert parse_session(format_session(session)) == session


# what may stand between two tokens; a comment runs to the end of its line
SEPARATORS = ("", " ", "\t  ", "\n", "\r\n", " # note\r\n", "\n# ring x ;\n")


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(sessions(), st.data())
def test_blanks_comments_and_stars_leave_the_parse_alone(session, data):
    text = format_session(session)
    tokens = [t for t in reference_reader.tokenize(text)[:-1] if t.text != "*" or data.draw(st.booleans())]
    seps = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
    out = ""
    prev = None
    for sep, tok in zip(seps, tokens):
        if not sep and prev in ("IDENT", "INT") and tok.kind in ("IDENT", "INT"):
            sep = " "  # two names or numbers side by side would read as one
        out += sep + tok.text
        prev = tok.kind
    out += data.draw(st.sampled_from(("", "\n", "\r\n", " # end")))
    assert parse_session(out) == parse_session(text) == session
    assert READ(out) == READ_REFERENCE(out)
