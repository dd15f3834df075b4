"""Groebner strata: tail schemes, stratum equations, reduced embeddings."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from gradedcones.errors import Rejection
from gradedcones.grading import PositivityWitness
from gradedcones.groebner import buchberger, normal_form, s_polynomial
from gradedcones.ideals import IdealPresentation, krull_dimension
from gradedcones.orders import TermOrder
from gradedcones.rings import PolyRing, Polynomial, exp_lcm
from gradedcones.strata import (
    MonomialIdealSpec,
    _same_degree_exponents,
    reduced_stratum,
    stratum_ideal,
    tail_scheme,
)

from helpers import sympy_expr

R = PolyRing(("x", "y"))
LEX = TermOrder.lex()
DRL = TermOrder.degrevlex()


def test_monomial_ideal_validation():
    try:
        MonomialIdealSpec(R, ((1, -1),), LEX)
    except ValueError:
        pass
    else:
        raise AssertionError("negative exponents must be rejected")
    try:
        MonomialIdealSpec(R, ((1, 0), (2, 0)), LEX)
    except Rejection:
        pass
    else:
        raise AssertionError("x divides x^2, not minimal")
    try:
        MonomialIdealSpec(R, ((1, 0),), TermOrder.weighted((-1, -1), LEX))
    except ValueError:
        pass
    else:
        raise AssertionError("non-well-orders must be rejected")
    j = MonomialIdealSpec(R, ((0, 2), (2, 0)), LEX)
    assert j.contains((2, 5)) and not j.contains((1, 1))


def test_tail_scheme_one_head():
    j = MonomialIdealSpec(PolyRing(("x0", "x1")), ((1, 0),), TermOrder.lex())
    s = tail_scheme(j)
    assert s.heads == ((1, 0),)
    assert s.tails == (((0, 1),),)
    assert s.legend() == (("C1", "x0", "x1"),)
    assert s.coefficient_ring.names == ("C1",)
    assert s.coefficient_grading.columns == ((1, -1),)
    r = stratum_ideal(s)
    assert r.stratum_ideal.is_zero_ideal()
    assert isinstance(s.coefficient_grading.positivity(), PositivityWitness)


def test_tail_scheme_square_of_the_maximal_ideal():
    j = MonomialIdealSpec(R, ((2, 0), (1, 1), (0, 2)), LEX)
    s = tail_scheme(j)
    # every same-degree monomial below a head is already in J
    assert s.tails == ((), (), ())
    assert s.coefficient_ring.names == ()
    r = stratum_ideal(s)
    assert r.stratum_ideal.is_zero_ideal()


def test_stratum_golden_two_heads():
    j = MonomialIdealSpec(R, ((2, 0), (1, 1)), LEX)
    s = tail_scheme(j)
    assert s.legend() == (("C1", "x^2", "y^2"), ("C2", "x*y", "y^2"))
    assert s.coefficient_grading.columns == ((2, -2), (1, -1))
    r = stratum_ideal(s)
    assert [repr(g) for g in r.stratum_ideal.generators] == ["C1 + C2^2"]
    assert isinstance(s.coefficient_grading.positivity(), PositivityWitness)
    rr = reduced_stratum(j)
    assert rr.reduced is not None
    assert rr.reduced.eliminated == (0,) and rr.reduced.kept == (1,)
    assert rr.reduced.embedded.base.is_zero_ideal()
    assert rr.reduced.embedded.ring.names == ("C2",)
    assert repr(rr.reduced.substitution[0]) == "-C2^2"


def test_stratum_fibers_have_the_right_initial_ideal():
    # specialize C1 = -c^2, C2 = c and check the marked basis stays one for J
    j = MonomialIdealSpec(R, ((2, 0), (1, 1)), LEX)
    s = tail_scheme(j)
    for c in (0, 1, -1, 2, -2):
        c = Fraction(c)
        values = {0: -(c**2), 1: c}
        gens = []
        for h, head in enumerate(s.heads):
            terms = {head: Fraction(1)}
            for k, (hk, beta) in enumerate(s.pairs):
                if hk == h and values[k]:
                    terms[beta] = values[k]
            gens.append(Polynomial(R, terms))
        gb = buchberger(gens, LEX)
        leading = {LEX.leading_exponent(g) for g in gb.elements}
        assert leading == {(2, 0), (1, 1)}


def test_off_stratum_fiber_changes_the_initial_ideal():
    # C1 = 1, C2 = 0 violates C1 + C2^2 = 0 and y^3 enters the initial ideal
    gens = [R.parse("x^2 + y^2"), R.parse("x y")]
    gb = buchberger(gens, LEX)
    leading = {LEX.leading_exponent(g) for g in gb.elements}
    assert leading != {(2, 0), (1, 1)}
    assert (0, 3) in leading


def test_full_mode_finite():
    j = MonomialIdealSpec(R, ((1, 0),), DRL)
    s = tail_scheme(j, mode="full")
    assert s.tails == (((0, 1), (0, 0)),)
    assert s.legend() == (("C1", "x", "y"), ("C2", "x", "1"))
    r = stratum_ideal(s)
    assert r.stratum_ideal.is_zero_ideal()
    # the constant tail has degree equal to the head itself
    assert s.coefficient_grading.columns == ((1, -1), (1, 0))


def test_full_mode_infinite_rejected():
    j = MonomialIdealSpec(R, ((1, 0),), LEX)
    try:
        tail_scheme(j, mode="full")
    except Rejection:
        pass
    else:
        raise AssertionError("x > y^k for all k under lex, infinitely many tails")


def test_full_mode_pure_powers_keep_it_finite():
    j = MonomialIdealSpec(R, ((2, 0), (0, 2)), LEX)
    s = tail_scheme(j, mode="full")
    for alpha, ts in zip(s.heads, s.tails):
        for beta in ts:
            assert not j.contains(beta)
            assert LEX.greater(alpha, beta)


def test_unknown_mode():
    try:
        tail_scheme(MonomialIdealSpec(R, ((1, 0),), LEX), mode="partial")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown mode must be rejected")


def test_three_variable_borel_ideal():
    ring = PolyRing(("x", "y", "z"))
    j = MonomialIdealSpec(ring, ((2, 0, 0), (1, 1, 0), (0, 2, 0)), TermOrder.degrevlex())
    r = reduced_stratum(j)
    for g in r.stratum_ideal.generators:
        assert r.scheme.coefficient_grading.is_homogeneous(g)
    if r.reduced is not None:
        d1 = krull_dimension(
            IdealPresentation(
                r.stratum_ideal.ring, r.stratum_ideal.generators
            )
        )
        d2 = krull_dimension(r.reduced.embedded.base)
        assert d1 == d2


def test_mixed_sign_columns_still_admit_a_witness():
    # head minus tail can have negative entries, but tails sit strictly
    # below their heads in the order, and an order restricted to finitely
    # many comparisons is always realizable by one weight vector, so the
    # coefficient grading of a finite tail scheme is positive
    ring = PolyRing(("x", "y"))
    order = TermOrder.weighted((1, 3), TermOrder.lex())
    j = MonomialIdealSpec(ring, ((0, 1), (3, 0)), order)
    result = reduced_stratum(j, mode="full")
    grading = result.scheme.coefficient_grading
    assert any(any(v < 0 for v in col) for col in grading.columns)
    assert isinstance(grading.positivity(), PositivityWitness)
    assert result.reduced is not None


def test_same_degree_exponents_each_once():
    for n in range(1, 5):
        for d in range(7):
            found = list(_same_degree_exponents(n, d))
            assert len(found) == len(set(found)) == comb(n + d - 1, d)
            assert all(len(e) == n and min(e) >= 0 and sum(e) == d for e in found)
    assert list(_same_degree_exponents(0, 0)) == [()]
    assert list(_same_degree_exponents(0, 2)) == []


def _random_monomial_ideal(rng, nvars):
    """Minimal generators of a random monomial ideal, small degrees."""
    pool = sorted(
        {tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 4))}
        - {(0,) * nvars}
    )
    return tuple(
        e for e in pool if not any(f != e and all(x <= y for x, y in zip(f, e)) for f in pool)
    )


def test_every_coefficient_grading_is_positive():
    # a term order agrees with a positive weight on the finitely many
    # (head, tail) pairs, which is a positivity witness for head minus tail;
    # four variables take the simplex, so those schemes are kept small
    rng = random.Random(20090126)
    checked = 0
    while checked < 240:
        nvars = rng.choice((2, 3, 3, 4))
        ring = PolyRing(tuple("xyzw"[:nvars]))
        gens = _random_monomial_ideal(rng, nvars)
        if not gens:
            continue
        weights = tuple(rng.randint(1, 4) for _ in range(nvars))
        for order in (LEX, DRL, TermOrder.weighted(weights, LEX)):
            for mode in ("homogeneous", "full"):
                try:
                    scheme = tail_scheme(MonomialIdealSpec(ring, gens, order), mode)
                except Rejection:
                    continue  # infinitely many tails
                if scheme.coefficient_ring.nvars > (40 if nvars < 4 else 12):
                    continue
                w = scheme.coefficient_grading.positivity()
                assert isinstance(w, PositivityWitness), (gens, order, mode)
                checked += 1


class _BlockOrder:
    """The block order x > C of the reference: order on the first split
    exponents, ties by lex on the rest."""

    def __init__(self, first, split):
        self.first = first
        self.split = split

    def key(self, e):
        return (self.first.key(e[: self.split]), e[self.split :])


def _combined_ring_generators(scheme):
    """Stratum generators by reduction in the combined ring Q[x, C].

    The earlier implementation of stratum_ideal, kept as a reference: every
    coefficient variable is an exponent position of one big ring, and the
    S-polynomials are reduced under a block order with the x's first.
    """
    xring = scheme.ideal.ring
    cring = scheme.coefficient_ring
    order = scheme.ideal.order
    s = xring.nvars
    combined = PolyRing(xring.names + cring.names)

    def marker(h):
        terms = {scheme.heads[h] + (0,) * cring.nvars: Fraction(1)}
        for k, (hk, beta) in enumerate(scheme.pairs):
            if hk == h:
                unit = tuple(int(t == k) for t in range(cring.nvars))
                terms[beta + unit] = Fraction(1)
        return Polynomial(combined, terms)

    markers = [marker(h) for h in range(len(scheme.heads))]
    marker_leads = [head + (0,) * cring.nvars for head in scheme.heads]
    pair_order = sorted(
        (order.key(exp_lcm(scheme.heads[i], scheme.heads[j])), i, j)
        for i in range(len(scheme.heads))
        for j in range(i + 1, len(scheme.heads))
    )
    reduction_order = _BlockOrder(order, s)
    generators = []
    seen = set()
    for _, i, j in pair_order:
        leads = (marker_leads[i], marker_leads[j])
        spoly = s_polynomial(markers[i], markers[j], reduction_order, leads)
        remainder = normal_form(spoly, markers, reduction_order, marker_leads)
        buckets = {}
        for e, c in remainder.terms.items():
            buckets.setdefault(e[:s], {})[e[s:]] = c
        for xmono in sorted(buckets, key=order.key, reverse=True):
            g = Polynomial(cring, buckets[xmono])
            g = LEX.positive_leading(g.scaled_primitive())
            key = tuple(sorted(g.terms.items()))
            if key not in seen:
                seen.add(key)
                generators.append(g)
    return generators


def test_stratum_equations_match_the_combined_ring_reduction():
    # reducing over Q[C] must give the same generators, in the same order,
    # as reducing in Q[x, C] under the block order
    rng = random.Random(20090127)
    ideals = nonzero = 0
    covered = {}
    while ideals < 300:
        nvars = rng.choice((2, 3, 3))
        ring = PolyRing(tuple("xyz"[:nvars]))
        gens = _random_monomial_ideal(rng, nvars)
        weights = tuple(rng.randint(1, 4) for _ in range(nvars))
        if len(gens) < 2:
            continue
        # one order per ideal, in turn, keeps the reference inside the budget
        name, order = (
            ("lex", LEX),
            ("degrevlex", DRL),
            ("weighted", TermOrder.weighted(weights, LEX)),
        )[ideals % 3]
        compared = False
        for mode in ("homogeneous", "full"):
            try:
                scheme = tail_scheme(MonomialIdealSpec(ring, gens, order), mode)
            except Rejection:
                continue  # infinitely many tails
            if scheme.coefficient_ring.nvars > 12:
                continue
            ours = list(stratum_ideal(scheme).stratum_ideal.generators)
            assert ours == _combined_ring_generators(scheme), (gens, name, mode)
            covered[name, mode] = covered.get((name, mode), 0) + 1
            nonzero += bool(ours)
            compared = True
        ideals += compared
    assert len(covered) == 6 and nonzero > 100, (covered, nonzero)


def _sympy_stratum_equations(sympy, scheme, order_name):
    """x-coefficients of every S-polynomial reduced by sympy over QQ[C]."""
    xs = sympy.symbols(scheme.ideal.ring.names)
    cs = sympy.symbols(scheme.coefficient_ring.names)

    def mono(e):
        return sympy.Mul(*(v**k for v, k in zip(xs, e)))

    markers = [mono(head) for head in scheme.heads]
    for k, (h, beta) in enumerate(scheme.pairs):
        markers[h] += cs[k] * mono(beta)
    domain = sympy.QQ[cs]
    equations = []
    for i, j in combinations(range(len(markers)), 2):
        lcm = exp_lcm(scheme.heads[i], scheme.heads[j])
        shift_i = tuple(a - b for a, b in zip(lcm, scheme.heads[i]))
        shift_j = tuple(a - b for a, b in zip(lcm, scheme.heads[j]))
        spoly = sympy.expand(mono(shift_i) * markers[i] - mono(shift_j) * markers[j])
        _, remainder = sympy.reduced(spoly, markers, *xs, order=order_name, domain=domain)
        remainder = sympy.Poly(remainder, *xs, domain=domain)
        if not remainder.is_zero:
            equations += [c.as_expr() for c in remainder.coeffs()]
    return equations, cs


def test_stratum_ideal_matches_sympy_reduction():
    # sympy reduces the markers' S-polynomials with coefficients in QQ[C];
    # its remainders may differ from ours, but their coefficients must
    # generate the same ideal, so the reduced bases agree
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20090128)
    cases = nonzero = 0
    while cases < 40:
        nvars = rng.choice((2, 3))
        ring = PolyRing(tuple("xyz"[:nvars]))
        gens = _random_monomial_ideal(rng, nvars)
        if len(gens) < 2:
            continue
        name, order = rng.choice((("lex", LEX), ("grevlex", DRL)))
        mode = rng.choice(("homogeneous", "full"))
        try:
            scheme = tail_scheme(MonomialIdealSpec(ring, gens, order), mode)
        except Rejection:
            continue  # infinitely many tails
        if not 0 < scheme.coefficient_ring.nvars <= 8:
            continue
        cases += 1
        theirs, cs = _sympy_stratum_equations(sympy, scheme, name)
        ours = [sympy_expr(sympy, g, cs) for g in stratum_ideal(scheme).stratum_ideal.generators]
        nonzero += bool(ours)
        if not ours:
            assert not theirs, (gens, name)
            continue
        assert theirs, (gens, name)
        basis_ours = sympy.groebner(ours, *cs, order="grevlex").exprs
        assert sympy.groebner(theirs, *cs, order="grevlex").exprs == basis_ours, (gens, name)
    assert nonzero > 10


def test_non_integer_monomial_exponents_are_rejected_not_truncated():
    for generators in (((2.0, 0.5),), ((2, 0), (Fraction(1), 3))):
        with pytest.raises(TypeError):
            MonomialIdealSpec(R, generators, TermOrder.lex())
    assert MonomialIdealSpec(R, ([2, 0],), TermOrder.lex()).generators == ((2, 0),)
