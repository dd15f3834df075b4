"""Sparse polynomial arithmetic over the rationals."""

import random
from fractions import Fraction

import pytest

from gradedcones import GradingMap, PolyRing, Polynomial, parse_polynomial
from gradedcones.orbits import RationalPoint, point, rational_curve_through
from gradedcones.rings import (
    exp_add,
    exp_divides,
    exp_lcm,
    exp_lower,
    exp_sub,
    exp_support,
    exp_unit,
    term_value,
)


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def test_exponent_helpers():
    assert exp_add((1, 2), (3, 0)) == (4, 2)
    assert exp_sub((3, 2), (1, 2)) == (2, 0)
    assert exp_lcm((1, 2), (3, 0)) == (3, 2)
    assert exp_divides((1, 0), (2, 5))
    assert not exp_divides((1, 3), (2, 2))
    assert exp_support((0, 3, 0, 1)) == frozenset({1, 3})
    assert exp_support((0, 0)) == frozenset()
    assert exp_lower((2, 5, 1), 1, 3) == (2, 2, 1)
    assert [exp_unit(3, i) for i in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert term_value(Fraction(3), (Fraction(1, 2), 0, 5), (2, 0, 1)) == Fraction(15, 4)


def test_construction_and_repr(ring):
    p = parse_polynomial(ring, "3 x^2 y - 1/2 y + 2")
    assert repr(p) == "3*x^2*y - 1/2*y + 2"
    assert p.terms[(2, 1)] == 3
    assert p.terms[(0, 0)] == 2


def test_zero_terms_dropped(ring):
    x = ring.variable(0)
    assert (x - x).is_zero()
    assert (x - x).terms == {}


def test_arithmetic(ring):
    x, y = ring.variable(0), ring.variable(1)
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert -(x - y) == y - x
    assert (x + y) * Fraction(1, 2) == parse_polynomial(ring, "1/2 x + 1/2 y")
    assert (x + y) / 2 == (x + y) / Fraction(2) == (x + y) * Fraction(1, 2)
    assert (x + y) / 1 == x + y
    assert 0 + x == x + 0 == x and 0 - x == -x and 1 - x == parse_polynomial(ring, "1 - x")


def test_pow_matches_repeated_multiplication(ring):
    rng = random.Random(11)
    x, y = ring.variable(0), ring.variable(1)
    for _ in range(10):
        p = x * rng.randint(-3, 3) + y * rng.randint(-3, 3) + rng.randint(-2, 2)
        q = ring.one()
        for _ in range(4):
            q = q * p
        assert p**4 == q


def test_evaluate(ring):
    p = parse_polynomial(ring, "x^2 y - y + 1")
    assert p.evaluate((Fraction(2), Fraction(3))) == 12 - 3 + 1
    assert p.evaluate((Fraction(1, 2), Fraction(4))) == 1 - 4 + 1


def test_substitute(ring):
    p = parse_polynomial(ring, "x^2 + y")
    y = ring.variable(1)
    q = p.substitute(ring, [y**2, y])
    assert q == parse_polynomial(ring, "y^4 + y")
    line = PolyRing(("t",))
    t = line.variable(0)
    assert p.substitute(line, [t + 1, t**3]) == parse_polynomial(line, "t^3 + t^2 + 2 t + 1")
    assert parse_polynomial(ring, "x^2").substitute(line, [t, None]) == t**2
    with pytest.raises(ValueError):
        p.substitute(line, [t, None])


# -- substitution against the two routines it replaced ---------------------------


def _reference_substitute(p: Polynomial, mapping) -> Polynomial:
    """Replace variable i by mapping[i]; unmapped variables stay put."""
    acc = p.ring.zero()
    for e, c in p.terms.items():
        term = p.ring.constant(c)
        plain = [0] * p.ring.nvars
        for i, k in enumerate(e):
            if not k:
                continue
            if i in mapping:
                term = term * mapping[i] ** k
            else:
                plain[i] = k
        acc = acc + term * p.ring.monomial(tuple(plain))
    return acc


def _reference_map_variables(p: Polynomial, ring: PolyRing, where) -> Polynomial:
    """Carry p into ring, sending variable i to position where[i]; None raises."""
    out = {}
    for e, c in p.terms.items():
        ne = [0] * ring.nvars
        for i, k in enumerate(e):
            if not k:
                continue
            pos = where[i]
            if pos is None:
                raise ValueError(f"variable {p.ring.names[i]} has no image in {ring!r}")
            ne[pos] = k
        out[tuple(ne)] = c
    return Polynomial(ring, out)


def _random_polynomial(rng, ring: PolyRing, variables, terms=4, degree=3) -> Polynomial:
    """Up to `terms` random terms in the given variables, each of degree <= `degree`."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            if variables:
                e[rng.choice(variables)] += 1
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            out[tuple(e)] = c
    return Polynomial(ring, out)


def test_substitute_matches_substitute_then_map_variables():
    rng = random.Random(20090122)
    raised = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        everything = list(range(n))
        p = _random_polynomial(rng, ring, everything)

        # into the same ring: some variables replaced, the others kept
        mapping = {
            i: _random_polynomial(rng, ring, everything, terms=3, degree=2)
            for i in everything
            if rng.random() < 0.5
        }
        images = [mapping.get(i, ring.variable(i)) for i in everything]
        assert p.substitute(ring, images) == _reference_substitute(p, mapping)

        # into the subring on the kept variables: the others get kept images
        kept = sorted(rng.sample(everything, k=rng.randint(0, n)))
        sub = ring.subring(kept)
        where = [kept.index(i) if i in kept else None for i in everything]
        lifted = {}
        images = [sub.variable(pos) if pos is not None else None for pos in where]
        for i in everything:
            if i not in kept and rng.random() < 0.7:
                images[i] = _random_polynomial(rng, sub, list(range(len(kept))), terms=3, degree=2)
                lifted[i] = _reference_map_variables(images[i], ring, kept)
        if any(images[i] is None for i in p.support_variables()):
            # a variable without an image occurs, even where its term would vanish
            raised += 1
            with pytest.raises(ValueError, match="has no image"):
                p.substitute(sub, images)
        else:
            expected = _reference_map_variables(_reference_substitute(p, lifted), sub, where)
            assert p.substitute(sub, images) == expected
    assert 20 < raised < 200


def test_partial_derivative(ring):
    p = parse_polynomial(ring, "x^3 y^2 + x")
    assert p.partial(0) == parse_polynomial(ring, "3 x^2 y^2 + 1")
    assert p.partial(1) == parse_polynomial(ring, "2 x^3 y")
    assert ring.one().partial(0).is_zero()


def test_total_degree_and_components(ring):
    p = parse_polynomial(ring, "x^2 + x y + y")
    assert p.degree_component(2) == parse_polynomial(ring, "x^2 + x y")
    assert p.degree_component(1) == parse_polynomial(ring, "y")
    assert p.degree_component(0).is_zero()


def test_support_variables(ring):
    p = parse_polynomial(ring, "x^2 + x")
    assert p.support_variables() == frozenset({0})
    assert parse_polynomial(ring, "x + y").support_variables() == frozenset({0, 1})


def test_map_variables(ring):
    big = PolyRing(("x", "y", "t"))
    p = parse_polynomial(big, "x^2 + y")
    images = [ring.variable(0), ring.variable(1), None]
    moved = p.substitute(ring, images)
    assert moved == parse_polynomial(ring, "x^2 + y")
    q = parse_polynomial(big, "t x")
    with pytest.raises(ValueError):
        q.substitute(ring, images)


def test_scaled_primitive(ring):
    p = parse_polynomial(ring, "4/3 x + 2 y")
    q = p.scaled_primitive()
    assert q == parse_polynomial(ring, "2 x + 3 y")
    assert (-p).scaled_primitive() == parse_polynomial(ring, "-2 x - 3 y")


def test_subring():
    bigger = PolyRing(("x", "y", "t"))
    sub = bigger.subring((0, 2))
    assert sub.names == ("x", "t")


def test_ring_equality_by_names(ring):
    assert ring == PolyRing(("x", "y"))
    assert ring != PolyRing(("x", "z"))
    assert hash(ring) == hash(PolyRing(("x", "y")))


def test_no_floats_accepted(ring):
    with pytest.raises((TypeError, ValueError)):
        ring.constant(0.5)


def test_points_and_curves_refuse_floats(ring):
    # Fraction(0.1) would be 3602879701896397/36028797018963968
    base = point(ring, (3, Fraction(1, 2)))
    curve = rational_curve_through(base, GradingMap(ring, [(1,), (2,)]))
    for make in (
        lambda: point(ring, (0.1, 1)),
        lambda: RationalPoint(ring, (1, 2.0)),
        lambda: curve.at(0.5),
    ):
        with pytest.raises(TypeError, match="floating point"):
            make()
    assert curve.at(Fraction(1, 2)).coords == (Fraction(3, 2), Fraction(1, 8))


def test_non_integer_exponents_are_rejected_not_truncated():
    ring = PolyRing(("x", "y"))
    for exponent in ((1.0, 2), (1, Fraction(2))):
        with pytest.raises(TypeError):
            ring.monomial(exponent)
    assert ring.monomial([1, 2]) == parse_polynomial(ring, "x y^2")
