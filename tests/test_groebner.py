"""Buchberger, normal forms, and the pair-queue cap."""

import random
from fractions import Fraction

import pytest

from gradedcones import (
    PolyRing,
    Polynomial,
    ResourceLimitError,
    TermOrder,
    buchberger,
    normal_form,
    parse_polynomial,
    s_polynomial,
)
from gradedcones.groebner import DEFAULT_PAIR_LIMIT, PAIR_LIMIT_ENV, pair_limit

import reference_groebner

R = PolyRing(("x", "y"))
LEX = TermOrder.lex()


def P(text):
    return parse_polynomial(R, text)


def test_normal_form_single_division_step():
    r = normal_form(P("x y^2"), [P("x y + y^2")], LEX)
    assert r == P("-y^3")


def test_normal_form_zero_input():
    assert normal_form(R.zero(), [P("x")], LEX).is_zero()


def test_normal_form_irreducible():
    assert normal_form(P("y^3"), [P("x^2"), P("x y")], LEX) == P("y^3")


def test_normal_form_leaves_its_input_unchanged():
    f = P("x^2 y + x y^2 + y^3 + 1")
    before = dict(f.terms)
    r = normal_form(f, [P("x y + y^2"), P("y^3 - x")], LEX)
    assert f.terms == before
    assert r.terms is not f.terms


def test_s_polynomial():
    # y*(x^2) - x*(xy + y^2), the cancellation leaves -x y^2
    s = s_polynomial(P("x^2"), P("x y + y^2"), LEX)
    assert s == P("- x y^2")


def test_buchberger_single_generator():
    gb = buchberger([P("x - y^2")], LEX)
    assert list(gb.elements) == [P("x - y^2")]


def test_buchberger_hand_worked_basis():
    gb = buchberger([P("x^2"), P("x y + y^2")], LEX)
    assert [repr(g) for g in gb.elements] == ["x^2", "x*y + y^2", "y^3"]


def test_buchberger_two_variables():
    gb = buchberger([P("x"), P("y")], LEX)
    assert [repr(g) for g in gb.elements] == ["x", "y"]


def test_buchberger_fixed_point():
    gb = buchberger([P("x^2 - y"), P("x y - 1")], LEX)
    items = list(gb.elements)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            s = s_polynomial(items[i], items[j], LEX)
            assert normal_form(s, items, LEX).is_zero()


def test_membership_iff_zero_normal_form():
    gb = buchberger([P("x^2"), P("x y + y^2")], LEX)
    assert gb.normal_form(P("x^3 + x y^2")).is_zero() == gb.contains(P("x^3 + x y^2"))
    assert gb.contains(P("y^3"))
    assert not gb.contains(P("y^2"))


def test_division_remainder_is_congruent():
    # f minus its normal form must lie in the ideal
    gb = buchberger([P("x^2 - y"), P("y^2 - 1")], LEX)
    f = P("x^3 y + x y^2 + 7")
    r = gb.normal_form(f)
    assert gb.contains(f - r)


def test_reduced_basis_unique_across_presentations():
    rng = random.Random(23)
    base = [P("x^2 - y"), P("x y - 1"), P("y^2 - x")]
    reference = buchberger(base, LEX).elements
    for _ in range(20):
        mixed = list(base)
        rng.shuffle(mixed)
        # also throw in random combinations of the generators
        a, b = rng.sample(mixed, 2)
        mixed.append(a * P("x") + b * rng.randint(1, 3))
        assert buchberger(mixed, LEX).elements == reference


def test_unit_ideal_detection():
    gb = buchberger([P("x"), P("x + 1")], LEX)
    assert gb.is_unit_ideal()
    assert [repr(g) for g in gb.elements] == ["1"]


def test_empty_generators_need_ring():
    with pytest.raises(ValueError):
        buchberger([], LEX)
    gb = buchberger([], LEX, ring=R)
    assert gb.elements == ()
    # the same stats keys as a run with generators
    assert gb.stats == {"pairs_processed": 0, "basis_size": 0}
    assert buchberger([P("x")], LEX).stats == {"pairs_processed": 0, "basis_size": 1}


def test_pair_limit_cap(monkeypatch):
    gens = [P("x^3 - y^2"), P("x^2 y - 1"), P("y^4 - x")]
    monkeypatch.setenv(PAIR_LIMIT_ENV, "1")
    with pytest.raises(ResourceLimitError) as info:
        buchberger(gens, LEX)
    assert info.value.limit == 1
    assert info.value.processed == info.value.limit + 1


def test_pair_limit_env(monkeypatch):
    monkeypatch.delenv(PAIR_LIMIT_ENV, raising=False)
    assert pair_limit() == DEFAULT_PAIR_LIMIT
    monkeypatch.setenv(PAIR_LIMIT_ENV, "17")
    assert pair_limit() == 17


def test_basis_sorted_descending_by_leading_term():
    gb = buchberger([P("y^3"), P("x^2"), P("x y + y^2")], LEX)
    leads = [LEX.leading_exponent(g) for g in gb.elements]
    assert leads == sorted(leads, key=LEX.key, reverse=True)


# -- differential test against sympy -------------------------------------------------

NAMES = ("x", "y", "z", "w")


def _random_ideal(rng):
    """2-4 variables, 2-4 generators of 1-3 terms, degree <= 3, small integers."""
    n = rng.randint(2, 4)
    ring = PolyRing(NAMES[:n])
    gens = []
    for _ in range(rng.randint(2, 4)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * n
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(Polynomial(ring, terms))
    return gens


def _sympy_basis(sympy, gens, order_name, order):
    """sympy's reduced basis as sets of terms, made monic under our order."""
    syms = sympy.symbols(gens[0].ring.names)
    polys = []
    for g in gens:
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms.items()}
        polys.append(sympy.Poly.from_dict(terms, *syms))
    basis = set()
    for poly in sympy.groebner(polys, *syms, order=order_name, domain="QQ").polys:
        terms = {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}
        lc = terms[max(terms, key=order.key)]
        basis.add(frozenset((e, c / lc) for e, c in terms.items()))
    return basis


def test_reduced_bases_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20090121)
    r3 = PolyRing(NAMES[:3])
    ideals = [_random_ideal(rng) for _ in range(40)] + [
        # x^2 y^2 - 1 meets x^2 and y^2 in two new pairs with equal lcms
        [r3.parse("x^2 - z"), r3.parse("y^2 - z"), r3.parse("x^2 y^2 - 1")],
        # pairwise coprime leading terms under both orders
        [r3.parse("x^2 - y"), r3.parse("y^2 - z"), r3.parse("z^2 - 1")],
    ]
    for gens in ideals:
        for name, order in (("lex", TermOrder.lex()), ("grevlex", TermOrder.degrevlex())):
            gb = buchberger(gens, order)
            ours = {frozenset(g.terms.items()) for g in gb.elements}
            assert ours == _sympy_basis(sympy, gens, name, order), (name, gens)


def test_buchberger_agrees_with_the_unsplit_reference():
    # lone variables placed before the pair loop against the loop that took
    # them as generators: lone variables inside other generators, lone only
    # once terms are dropped, and unit ideals, under lex, degrevlex, a
    # weighted order, an elimination order and saturate's order
    assert reference_groebner.mismatches(300, seed=20090127) == []


def test_binomial_basis_agrees_with_buchberger():
    # the pair loop on exponents against buchberger on the same pure
    # binomials, zero ones included, under the same five orders: elements,
    # leads, their order and the pairs processed, or the same refusal at
    # the pair cap
    assert reference_groebner.binomial_mismatches(300, seed=20090127) == []


def test_lone_variables_go_straight_into_the_basis():
    r4 = PolyRing(("y1", "y2", "y3", "y4"))
    # y1 is lone, then y2 once y1 y3 is dropped, then y3 once y2 y4 is
    gens = [r4.parse(t) for t in ("y1 y3 + y2", "2 y1", "y2 y4 - y3")]
    for order in (LEX, TermOrder.degrevlex()):
        gb = buchberger(gens, order)
        assert gb.elements == tuple(r4.parse(v) for v in ("y1", "y2", "y3"))
        assert gb.stats == {"pairs_processed": 0, "basis_size": 3}
    # dropping y1 leaves the constant 1
    assert buchberger([r4.parse("y1"), r4.parse("y1 + 1")], LEX).elements == (r4.one(),)
