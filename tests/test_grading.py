"""Multigradings: degrees, homogeneous decomposition, positivity, induced orders."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import gradedcones
from gradedcones.errors import NonPositiveGradingError, NotHomogeneousError
from gradedcones.grading import (
    GradingMap,
    NonPositivityCertificate,
    PositivityWitness,
)
from gradedcones.intlinalg import lattice_index, rank
from gradedcones.orders import TermOrder
from gradedcones.ratlp import fourier_motzkin, phase_one_simplex
from gradedcones.rings import PolyRing

from helpers import exponents_up_to, random_positive_grading, random_rational

Y = PolyRing(("y1", "y2", "y3", "y4"))
# the running surface example: degrees in Z^2
G = GradingMap(Y, [(1, 2), (1, 0), (0, 1), (2, 3)])
F = Y.parse("y1^2 y2 y3 + y1 y4 + y2 y3^2 y4")


def test_constructor_validation():
    try:
        GradingMap(Y, [(1, 2), (1, 0)])
    except ValueError:
        pass
    else:
        raise AssertionError("column count must match the ring")
    try:
        GradingMap(Y, [(1, 2), (1,), (0, 1), (2, 3)])
    except ValueError:
        pass
    else:
        raise AssertionError("ragged columns must be rejected")
    try:
        GradingMap(Y, [(1, 2), (1, 0), (0, 1), (2, 3)], ambient_dim=3)
    except ValueError:
        pass
    else:
        raise AssertionError("ambient_dim mismatch must be rejected")
    empty = GradingMap(PolyRing(()), [], ambient_dim=2)
    assert empty.m == 2


def test_degree_golden():
    assert G.degree((2, 1, 1, 0)) == (3, 5)
    assert G.degree((1, 0, 0, 1)) == (3, 5)
    assert G.degree((0, 1, 2, 1)) == (3, 5)
    assert G.degree((0, 0, 0, 0)) == (0, 0)
    assert G.homogeneous_degree(F) == (3, 5)
    assert [G.degree(tuple(int(k == i) for k in range(4))) for i in range(4)] == list(G.columns)


def test_degree_is_additive():
    rng = random.Random(2201)
    for _ in range(40):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        ab = tuple(x + y for x, y in zip(a, b))
        assert G.degree(ab) == tuple(
            x + y for x, y in zip(G.degree(a), G.degree(b))
        )


def test_homogeneous_components_round_trip():
    p = Y.parse("y1 + y2 + y1 y4 + 3 y2 y3^2 y4")
    comps = G.homogeneous_components(p)
    assert set(comps) == {(1, 2), (1, 0), (3, 5)}
    assert comps[(1, 2)] == Y.parse("y1")
    assert comps[(1, 0)] == Y.parse("y2")
    total = Y.zero()
    for piece in comps.values():
        total = total + piece
    assert total == p
    assert G.homogeneous_components(Y.zero()) == {}
    assert list(comps) == sorted(comps)


def test_homogeneity_predicates():
    assert G.is_homogeneous(F)
    assert G.is_homogeneous(Y.zero())
    assert not G.is_homogeneous(Y.parse("y1 + y3"))
    try:
        G.homogeneous_degree(Y.parse("y1 + y3"))
    except NotHomogeneousError as err:
        assert set(err.degrees) == {(1, 2), (0, 1)}
    else:
        raise AssertionError("mixed degrees must be rejected")
    try:
        G.homogeneous_degree(Y.zero())
    except NotHomogeneousError:
        pass
    else:
        raise AssertionError("zero polynomial has no degree")


def test_positivity_witness_golden():
    w = G.require_positive()
    assert isinstance(w, PositivityWitness)
    assert all(
        sum(a * b for a, b in zip(w.omega, col)) == d > 0
        for col, d in zip(G.columns, w.dots)
    )
    # omega = (1, 1) works here and the engines both certify positivity
    assert sum(w.omega[k] * G.columns[0][k] for k in range(2)) == w.dots[0]
    for engine in (fourier_motzkin, phase_one_simplex):
        kind, omega = engine(G.columns, 2)
        assert kind == "point"
        assert all(sum(w * x for w, x in zip(omega, col)) >= 1 for col in G.columns)


def test_non_positive_grading_certificate():
    ring = PolyRing(("u", "v"))
    g = GradingMap(ring, [(1,), (-1,)])
    cert = g.positivity()
    assert isinstance(cert, NonPositivityCertificate)
    assert cert.alpha == (1, 1)
    for engine in (fourier_motzkin, phase_one_simplex):
        kind, alpha = engine(g.columns, 1)
        assert kind == "farkas"
        # u^a v^b is a nonconstant degree-zero monomial
        assert all(a >= 0 for a in alpha) and any(alpha)
        assert sum(alpha[i] * g.columns[i][0] for i in range(2)) == 0


def test_graded_pieces_are_finite_dimensional_when_positive():
    # positivity forces k[y]_0 = k: no nonconstant monomial of degree zero
    for e in exponents_up_to(4, 6):
        if sum(e) == 0:
            continue
        assert G.degree(e) != (0, 0)


def test_induced_order_golden():
    order = G.induced_order()
    # witness dots (3, 1, 1, 5) push y4 above y1 above y2, y3
    y1, y2, y3, y4 = (Y.variable(i) for i in range(4))
    exp = lambda p: next(iter(p.terms))
    assert order.greater(exp(y4), exp(y1))
    assert order.greater(exp(y1), exp(y2))
    assert order.greater(exp(y1), exp(y3))
    # equal weight falls back to the tiebreak (lex by default)
    assert order.greater(exp(y2), exp(y3))


def test_induced_order_requires_positivity():
    ring = PolyRing(("u", "v"))
    g = GradingMap(ring, [(1,), (-1,)])
    try:
        g.induced_order()
    except NonPositiveGradingError as err:
        assert err.certificate == (1, 1)
        assert str(err) == "grading is not positive, no induced order exists"
    else:
        raise AssertionError("non-positive grading has no induced order")


def test_require_positive_is_the_one_gate():
    ring = PolyRing(("u", "v"))
    g = GradingMap(ring, [(1,), (-1,)])
    with pytest.raises(NonPositiveGradingError) as info:
        g.require_positive()
    assert str(info.value) == "grading admits a nonconstant monomial of degree zero"
    assert info.value.certificate == (1, 1)
    with pytest.raises(NonPositiveGradingError, match="^curves to the origin"):
        g.require_positive("curves to the origin need a positive grading")
    assert G.require_positive() is G.positivity()


def test_only_grading_solves_the_lp_and_rejects_a_grading():
    src = Path(gradedcones.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "NonPositiveGradingError":
                    offenders.append((path.name, node.lineno, "raises"))
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                if (node.module or "").endswith("ratlp") or "ratlp" in names:
                    offenders.append((path.name, node.lineno, "imports ratlp"))
            elif isinstance(node, ast.Import):
                if any(a.name.endswith("ratlp") for a in node.names):
                    offenders.append((path.name, node.lineno, "imports ratlp"))
    assert {o[0] for o in offenders} == {"grading.py"}, offenders


def test_random_positive_gradings_behave():
    rng = random.Random(2202)
    ring = PolyRing(("a", "b", "c"))
    for _ in range(15):
        g = random_positive_grading(rng, ring, 2)
        w = g.require_positive()
        assert all(d > 0 for d in w.dots)
        # any product of homogeneous monomials is homogeneous
        e1 = tuple(rng.randint(0, 3) for _ in range(3))
        e2 = tuple(rng.randint(0, 3) for _ in range(3))
        p = ring.monomial(e1, random_rational(rng, nonzero=True))
        q = ring.monomial(e2, random_rational(rng, nonzero=True))
        assert g.homogeneous_degree(p * q) == tuple(
            x + y for x, y in zip(g.degree(e1), g.degree(e2))
        )


def test_restrict_keeps_degrees():
    sub = G.restrict([1, 2])
    assert sub.ring.names == ("y2", "y3")
    assert sub.columns == ((1, 0), (0, 1))
    assert sub.m == 2


def test_lattice_rank_index():
    # rank of the degree lattice and the index of a sublattice in it
    cols = list(G.columns)
    assert rank(cols) == 2
    assert lattice_index(cols, [(1, 0), (0, 1)]) == 1
    assert lattice_index(cols, [(1, 2), (2, 3)]) == 1
    assert rank([(1, 0), (0, 2)]) == 2
    assert lattice_index([(1, 0), (0, 2)], [(1, 0)]) is None


def test_grading_equality_and_cache():
    g1 = GradingMap(Y, [(1, 2), (1, 0), (0, 1), (2, 3)])
    assert g1 == G and hash(g1) == hash(G)
    # positivity result is cached on the instance
    assert g1.positivity() is g1.positivity()


def test_non_integer_degrees_are_rejected_not_truncated():
    ring = PolyRing(("x", "y"))
    for columns in ([(1.5,), (2,)], [(1,), (Fraction(5, 2),)], [(1,), (2.0,)]):
        with pytest.raises(TypeError):
            GradingMap(ring, columns)
    with pytest.raises(TypeError):
        GradingMap(PolyRing(()), [], ambient_dim=1.0)
    assert GradingMap(ring, [(True,), (2,)]).columns == ((1,), (2,))
