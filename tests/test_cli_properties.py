"""Property test: every command on a drawn document ends in a report.

A command either succeeds (exit 0, status ok) or is refused with a typed
error (exit 1, a GradedConesError subclass named in the diagnostics); no
exception escapes `main`.  Some drawn gradings are not positive, some
generators are not monomials and some bounds are negative, so the refusal
paths are exercised as well as the reports.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gradedcones import errors  # noqa: E402
from gradedcones.cli import COMMANDS, main  # noqa: E402
from gradedcones.grading import GradingMap  # noqa: E402
from gradedcones.rings import PolyRing, Polynomial  # noqa: E402
from gradedcones.session import SessionInput, format_session  # noqa: E402

from helpers import exponents_up_to  # noqa: E402

TYPED = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.GradedConesError)
}
coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2))


@st.composite
def gradings(draw, ring: PolyRing):
    """1-2 rows of entries 0-3, no zero column, now and then one entry negated."""
    m = draw(st.integers(1, 2))
    column = st.tuples(*[st.integers(0, 3)] * m).filter(any)
    cols = [list(c) for c in draw(st.lists(column, min_size=ring.nvars, max_size=ring.nvars))]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, ring.nvars - 1))
        k = draw(st.integers(0, m - 1))
        cols[i][k] = -cols[i][k]
    return GradingMap(ring, [tuple(c) for c in cols])


@st.composite
def homogeneous_polynomials(draw, grading: GradingMap, top: int):
    """A few terms of total degree 1 to top sharing one degree under the grading."""
    exponents = [e for e in exponents_up_to(grading.ring.nvars, top) if any(e)]
    lead = draw(st.sampled_from(exponents))
    same = [e for e in exponents if grading.degree(e) == grading.degree(lead)]
    others = draw(st.lists(st.sampled_from(same), max_size=2))
    return Polynomial(grading.ring, {e: draw(coefficients) for e in [lead, *others]})


@st.composite
def documents(draw):
    """One ideal and one point in 1-3 variables.

    The ideal has one generator of degree at most 3 or two of degree at most
    2: the stratum of two monomials of degree 3 in three variables, or of
    degree 2 in four, can take minutes to decide properness (ROADMAP item 1).
    """
    ring = PolyRing(("a", "b", "c")[: draw(st.integers(1, 3))])
    grading = draw(gradings(ring))
    count = draw(st.integers(1, 2))
    gens = tuple(draw(homogeneous_polynomials(grading, 4 - count)) for _ in range(count))
    coordinate = coefficients | st.just(Fraction(0))
    point = tuple(draw(coordinate) for _ in range(ring.nvars))
    return SessionInput(ring, grading, {"I": gens}, {"P": point})


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(documents(), st.integers(-1, 2), st.data())
def test_every_command_reports_or_refuses(session, mu, data):
    chosen = data.draw(st.lists(st.sampled_from(session.ring.names), min_size=1, unique=True))
    required = {"stratum-mu": ["--mu", str(mu)], "cross-section": ["--vars", ",".join(chosen)]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.gc")
        with open(path, "w") as handle:
            handle.write(format_session(session))
        for name in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([name, "--json", "--file", path] + required.get(name, []))
            report = json.loads(out.getvalue())
            if code == 0:
                assert report["status"] == "ok", (name, report)
            else:
                assert code == 1, (name, report)
                assert report["status"] == "rejected", (name, report)
                assert report["diagnostics"]["error"] in TYPED, (name, report)
