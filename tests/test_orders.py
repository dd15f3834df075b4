"""Term order comparisons and helpers."""

import random

import pytest

from gradedcones import PolyRing, TermOrder, parse_polynomial


R3 = PolyRing(("x", "y", "z"))


def test_lex_basics():
    lex = TermOrder.lex()
    assert lex.greater((1, 0, 0), (0, 5, 5))
    assert lex.greater((1, 1, 0), (1, 0, 9))
    assert not lex.greater((0, 0, 0), (0, 0, 1))


def test_degrevlex_classic_cases():
    o = TermOrder.degrevlex()
    # same total degree: the smaller exponent on the last variable wins
    assert o.greater((1, 1, 1), (2, 1, 0)) is False
    assert o.greater((1, 1, 0), (2, 0, 0)) is False
    assert o.greater((2, 0, 0), (1, 1, 0))
    assert o.greater((1, 0, 1), (0, 2, 1)) is False  # degree 2 < degree 3
    # x y^2 beats x^2 z: degree ties at 3, z exponent 0 < 1
    assert o.greater((1, 2, 0), (2, 0, 1))


def test_weighted_order_and_tiebreak():
    w = TermOrder.weighted((3, 1, 1), TermOrder.lex())
    assert w.greater((1, 0, 0), (0, 2, 0))  # weight 3 beats 2
    assert w.greater((0, 3, 0), (1, 0, 0)) is False  # tie at 3, lex picks x
    assert w.greater((1, 0, 0), (0, 3, 0))
    assert w.greater((0, 1, 0), (0, 0, 1))  # equal weight, lex on y vs z


def test_elimination_order_blocks():
    elim = TermOrder.elimination({0}, 3, TermOrder.degrevlex())
    # anything with x beats anything without, regardless of degree
    assert elim.greater((1, 0, 0), (0, 9, 9))
    assert elim.greater((0, 1, 0), (0, 0, 1))


def test_elimination_keys_match_the_block_degree_key():
    # the key of the elimination kind that the weighted order replaced
    def block_key(block, tiebreak, e):
        return (sum(e[i] for i in block), tiebreak.key(e))

    rng = random.Random(4242)
    for _ in range(200):
        nvars = rng.randint(1, 6)
        block = set(rng.sample(range(nvars), rng.randint(1, nvars)))
        tiebreak = rng.choice([TermOrder.lex(), TermOrder.degrevlex()])
        order = TermOrder.elimination(block, nvars, tiebreak)
        assert order.kind == "weighted" and order.is_well_order()
        for _ in range(10):
            e = tuple(rng.randint(0, 5) for _ in range(nvars))
            assert order.key(e) == block_key(block, tiebreak, e)


def test_degrevlex_sorts_as_the_generator_key():
    # the degrevlex key as a generator expression, before it mapped neg
    def generator_key(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    rng = random.Random(20090118)
    degrevlex = TermOrder.degrevlex()
    for _ in range(100):
        nvars = rng.randint(1, 15)
        exponents = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(30)]
        assert sorted(exponents, key=degrevlex.key) == sorted(exponents, key=generator_key)


def test_well_order_detection():
    assert TermOrder.lex().is_well_order()
    assert TermOrder.degrevlex().is_well_order()
    assert TermOrder.weighted((1, 1, 1), TermOrder.lex()).is_well_order()
    assert not TermOrder.weighted((1, -1, 1), TermOrder.lex()).is_well_order()
    # positive weights make any tiebreak fine, even one preferring a small y exponent
    least_y = TermOrder.weighted((0, -1), TermOrder.degrevlex())
    assert not least_y.is_well_order()
    assert TermOrder.weighted((1, 2), least_y).is_well_order()
    assert not TermOrder.weighted((0, 1), least_y).is_well_order()


def test_order_multiplicative_and_total():
    rng = random.Random(7)
    orders = [
        TermOrder.lex(),
        TermOrder.degrevlex(),
        TermOrder.weighted((2, 1, 3), TermOrder.lex()),
        TermOrder.elimination({1}, 3, TermOrder.degrevlex()),
    ]
    for o in orders:
        for _ in range(60):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            # totality: distinct monomials never tie
            assert (a == b) == (o.key(a) == o.key(b))
            # multiplication by c preserves the comparison
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert o.greater(a, b) == o.greater(ac, bc)
            assert o.greater(b, a) == o.greater(bc, ac)


def test_sorted_terms_and_leading():
    p = parse_polynomial(R3, "x y^2 + x^2 + z^5")
    lex = TermOrder.lex()
    exps = [e for e, _ in lex.sorted_terms(p)]
    assert exps == [(2, 0, 0), (1, 2, 0), (0, 0, 5)]
    assert lex.leading_exponent(p) == (2, 0, 0)
    assert lex.leading_coefficient(p) == 1


def test_monic_and_positive_leading():
    lex = TermOrder.lex()
    p = parse_polynomial(R3, "-2 x + y")
    assert p * (1 / lex.leading_coefficient(p)) == parse_polynomial(R3, "x - 1/2 y")
    assert lex.positive_leading(p) == parse_polynomial(R3, "2 x - y")
    assert lex.positive_leading(-p) == parse_polynomial(R3, "2 x - y")


def test_zero_polynomial_has_no_leading_term():
    with pytest.raises(ValueError):
        TermOrder.lex().leading_exponent(R3.zero())


def test_order_equality_and_tag():
    assert TermOrder.lex() == TermOrder.lex()
    assert TermOrder.lex() != TermOrder.degrevlex()
    assert TermOrder.weighted((1, 2, 3), TermOrder.lex()) == TermOrder.weighted(
        (1, 2, 3), TermOrder.lex()
    )


def test_non_integer_weights_are_rejected_not_truncated():
    for weights in ([1.9, 2], [1, 2.0]):
        with pytest.raises(TypeError):
            TermOrder.weighted(weights, TermOrder.lex())
    assert TermOrder.weighted([1, 2], TermOrder.lex()).weights == (1, 2)
