"""Ideal arithmetic: sums, saturations, elimination, dimension."""

import random
from fractions import Fraction

import pytest

from gradedcones import intlinalg
from gradedcones.errors import ImproperIdealError
from gradedcones.ideals import (
    IdealPresentation,
    eliminate,
    ideal_sum,
    is_proper_homogeneous,
    krull_dimension,
    saturate,
)
from gradedcones.orders import TermOrder
from gradedcones.rings import PolyRing

from helpers import (
    random_homogeneous_generators,
    random_positive_grading,
    random_rational,
    rename,
)

R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))


def I(ring, *texts):
    return IdealPresentation(ring, [ring.parse(t) for t in texts])


def test_membership_and_properness():
    a = I(R2, "x^2", "x y")
    assert a.contains(R2.parse("x^3 + x^2 y"))
    assert not a.contains(R2.parse("y^5"))
    assert a.is_proper()
    assert not a.is_zero_ideal()
    assert I(R2).is_zero_ideal()
    assert not I(R2, "x - x + 1").is_proper()


def test_inclusion_and_equality():
    a = I(R2, "x")
    b = I(R2, "x", "x^2 + x y")
    assert a.same_ideal(b)
    assert a.included_in(I(R2, "x", "y"))
    assert not I(R2, "x", "y").included_in(a)


def test_sum():
    assert ideal_sum(I(R2, "x"), I(R2, "y")).same_ideal(I(R2, "x", "y"))


def test_saturation_goldens():
    w = (1, 1)
    assert saturate(I(R2, "x y"), [0], w).same_ideal(I(R2, "y"))
    assert saturate(I(R2, "x"), [1], w).same_ideal(I(R2, "x"))
    assert saturate(I(R2, "x^2", "x y"), [1], w).same_ideal(I(R2, "x"))
    assert not saturate(I(R2, "x^2", "x y"), [0], w).is_proper()
    assert saturate(I(R2, "x^2 - x y"), [0], w).same_ideal(I(R2, "x - y"))
    # x^2 - y is homogeneous for the weights (1, 2) only
    assert saturate(I(R2, "x^3 - x y"), [0], (1, 2)).same_ideal(I(R2, "x^2 - y"))
    assert saturate(I(R2, "x y"), [], w).same_ideal(I(R2, "x y"))


def test_saturation_errors():
    a = I(R2, "x^2 - x y")
    for weights in ((1, 0), (1, -1), (1,)):
        with pytest.raises(ValueError):
            saturate(a, [0], weights)
    with pytest.raises(ValueError):
        saturate(a, [2], (1, 1))
    with pytest.raises(ArithmeticError):
        saturate(I(R2, "x^2 - y"), [0], (1, 1))


def test_saturation_by_several_variables_matches_iterated_saturation():
    a = I(R3, "x^2 y", "x z^2")
    w = (1, 1, 1)
    step = saturate(saturate(a, [0], w), [2], w)
    assert saturate(a, {0, 2}, w).same_ideal(step)
    assert saturate(a, [2, 0], w).same_ideal(step)


# -- graded saturation against the auxiliary-variable one -----------------------------


def _rabinowitsch(a: IdealPresentation, variables) -> IdealPresentation:
    """a : x_i^inf for each i in turn, by eliminating z from a + (z x_i - 1)
    in a ring with one more variable."""
    ring = a.ring
    big = PolyRing(ring.names + ("z_",))
    into = list(range(ring.nvars))
    back = into + [None]
    z = big.variable(ring.nvars)
    for i in sorted(variables):
        gens = [rename(g, big, into) for g in a.generators]
        gens.append(z * big.variable(i) - big.one())
        kept = eliminate(IdealPresentation(big, gens), {ring.nvars})
        a = IdealPresentation(ring, [rename(g, ring, back) for g in kept.generators])
    return a


def _lattice_binomials(grading, coords) -> IdealPresentation:
    """The binomials of an integer kernel basis of the support columns,
    with coefficients vanishing at coords, as orbit_closure_ideal builds them."""
    ring = grading.ring
    support = [i for i, c in enumerate(coords) if c]
    rows = [[grading.columns[i][t] for i in support] for t in range(grading.m)]
    gens = []
    for u in intlinalg.integer_kernel(rows) if support else []:
        plus, minus = [0] * ring.nvars, [0] * ring.nvars
        aplus = aminus = Fraction(1)
        for k, i in zip(u, support):
            if k > 0:
                plus[i] = k
                aplus *= coords[i] ** k
            elif k < 0:
                minus[i] = -k
                aminus *= coords[i] ** -k
        gens.append(ring.monomial(plus, aminus) - ring.monomial(minus, aplus))
    return IdealPresentation(ring, gens)


def _saturation_cases(seed: int, count: int):
    """(ideal, variables, weights): random homogeneous ideals in 2-5 variables,
    every fourth one a lattice-binomial ideal, with random variable subsets."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 5)
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        grading = random_positive_grading(rng, ring, rng.randint(1, 2))
        if k % 4 == 3:
            coords = [random_rational(rng, nonzero=rng.random() < 0.8) for _ in range(n)]
            a = _lattice_binomials(grading, coords)
        else:
            gens = random_homogeneous_generators(rng, grading, max_gens=3, max_degree=3)
            a = IdealPresentation(ring, gens)
        variables = sorted(rng.sample(range(n), rng.randint(1, n)))
        yield a, variables, grading.require_positive().dots


def test_graded_saturation_matches_the_auxiliary_variable_path():
    lex = TermOrder.lex()
    for a, variables, weights in _saturation_cases(20090122, 300):
        graded = saturate(a, variables, weights).groebner(lex).elements
        assert graded == _rabinowitsch(a, variables).groebner(lex).elements, (a, variables)


def test_graded_properness_rule_matches_the_basis():
    verdicts = {True: 0, False: 0}
    for a, variables, weights in _saturation_cases(20090125, 60):
        ideals = [a, saturate(a, variables, weights)]
        ideals += [saturate(a, [i], weights) for i in range(a.ring.nvars)]
        for b in ideals:
            verdict = is_proper_homogeneous(b)
            assert verdict == b.is_proper(), b
            verdicts[verdict] += 1
    assert verdicts[True] > 50 and verdicts[False] > 5


def test_graded_saturation_matches_sympy():
    sympy = pytest.importorskip("sympy")
    lex = TermOrder.lex()
    for a, variables, weights in _saturation_cases(20090123, 30):
        ring = a.ring
        xs = sympy.symbols(ring.names)
        z = sympy.Symbol("z_")
        polys = [
            sympy.Add(
                *(
                    sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                    for e, c in g.terms.items()
                )
            )
            for g in a.generators
        ]
        polys.append(z * sympy.Mul(*(xs[i] for i in variables)) - 1)
        theirs = set()
        for poly in sympy.groebner(polys, z, *xs, order="lex", domain="QQ").polys:
            if poly.degree(z) == 0:
                terms = {e[1:]: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}
                lc = terms[max(terms, key=lex.key)]
                theirs.add(frozenset((e, c / lc) for e, c in terms.items()))
        ours = saturate(a, variables, weights).groebner(lex).elements
        assert {frozenset(g.terms.items()) for g in ours} == theirs, (a, variables)


def test_elimination_goldens():
    a = I(R3, "x - y^2", "z - y^3")
    only_yz = eliminate(a, {0})
    assert all(0 not in g.support_variables() for g in only_yz.generators)
    assert only_yz.contains(R3.parse("z - y^3"))
    assert only_yz.contains(R3.parse("y^6 - z^2"))
    only_z = eliminate(a, {0, 1})
    assert only_z.is_zero_ideal()


def test_elimination_soundness_random():
    rng = random.Random(8102)
    for _ in range(12):
        g = random_positive_grading(rng, R3, 1)
        a = IdealPresentation(R3, random_homogeneous_generators(rng, g, max_gens=3))
        block = {rng.randrange(3)}
        small = eliminate(a, block)
        for f in small.generators:
            assert not (f.support_variables() & block)
            assert a.contains(f)


def test_eliminate_validates_indices():
    try:
        eliminate(I(R2, "x"), {5})
    except ValueError:
        pass
    else:
        raise AssertionError("out-of-range index must be rejected")


def test_krull_dimension_goldens():
    assert krull_dimension(I(R3, "x")) == 2
    assert krull_dimension(I(R3)) == 3
    assert krull_dimension(I(R2, "x^2", "x y", "y^2")) == 0
    assert krull_dimension(I(R3, "x y", "x z")) == 2
    try:
        krull_dimension(I(R2, "1"))
    except ImproperIdealError:
        pass
    else:
        raise AssertionError("unit ideal has no dimension")


def test_krull_dimension_is_order_independent():
    rng = random.Random(8103)
    for _ in range(20):
        g = random_positive_grading(rng, R3, 1)
        a = IdealPresentation(R3, random_homogeneous_generators(rng, g, max_gens=3))
        if not a.is_proper():
            continue
        d1 = krull_dimension(a, TermOrder.lex())
        d2 = krull_dimension(a, TermOrder.degrevlex())
        assert d1 == d2


def test_cached_groebner_is_reused():
    a = I(R2, "x^2", "x y + y^2")
    gb1 = a.groebner(TermOrder.lex())
    gb2 = a.groebner(TermOrder.lex())
    assert gb1 is gb2
    assert a.groebner(TermOrder.degrevlex()) is not gb1
