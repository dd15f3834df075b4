"""The Buchberger loop before lone variables were placed, kept as a reference.

`groebner.buchberger` puts each generator that is a multiple of one variable
straight into the reduced basis and drops the terms that variable divides
from the other generators before the pair loop.  The reference below is the
loop without that split: every generator goes through the Gebauer-Moeller
update, the pair loop and the interreduction.  `tests/test_groebner.py` runs
`mismatches` on seeded ideals under five orders: the elements, their leading
exponents and their order must agree, and the pair loop must process as
many pairs as the reference does on the generators left once every lone
variable is set to zero.  Every run is capped at PAIR_CAP
pairs, so an ideal past the cap raises `ResourceLimitError` instead of
running on.  Run this file directly to do the same check without pytest:

    PYTHONPATH=src python3 tests/reference_groebner.py [count] [seed]
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction

from gradedcones.errors import ResourceLimitError
from gradedcones.groebner import (
    GroebnerBasis,
    binomial_basis,
    buchberger,
    normal_form,
    pair_limit,
    s_polynomial,
)
from gradedcones.orders import TermOrder
from gradedcones.rings import Exponent, PolyRing, Polynomial, exp_add, exp_divides, exp_lcm, exp_sub

from helpers import exponents_up_to
from reference_singular import pair_cap

PAIR_CAP = 200  # Groebner pairs per run; the seeded lone-variable ideals need at most 48


def reference_buchberger(
    generators,
    order: TermOrder,
    *,
    ring: PolyRing | None = None,
) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal the generators span."""
    if not order.is_well_order():
        raise ValueError("Groebner computation requires a well-order")
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        if ring is None:
            raise ValueError("empty generator list needs an explicit ring")
        return GroebnerBasis(ring, order, (), (), {"pairs_processed": 0, "basis_size": 0})
    ring = gens[0].ring
    cap = pair_limit()

    basis: list[Polynomial] = []
    leads: list[Exponent] = []
    active: list[int] = []  # G: the elements no later leading term divides
    live: dict[tuple[int, int], Exponent] = {}  # queued pairs not deleted yet, with their lcms
    heap: list = []  # (lcm key, i, j); deleted pairs are skipped when popped
    reducers: list[Polynomial] = []  # the elements of G, and their leads
    reducer_leads: list[Exponent] = []

    def add(g: Polynomial) -> None:
        # the Gebauer-Moeller update for the new element g, made monic
        k = len(basis)
        h = order.leading_exponent(g)
        basis.append(g * (1 / g.terms[h]))
        leads.append(h)
        # a queued pair whose lcm h divides is redundant, unless the lcm
        # equals the lcm of one of its sides with h
        for (i, j), lcm in list(live.items()):
            if exp_divides(h, lcm) and lcm != exp_lcm(leads[i], h) and lcm != exp_lcm(leads[j], h):
                del live[i, j]
        # new pairs with G by ascending lcm degree, so a proper divisor of an
        # lcm comes before it, and coprime ones first among equal lcms; a pair
        # goes when an earlier kept lcm divides its lcm, and coprime pairs are
        # kept only to delete others this way
        new = []
        for i in active:
            lcm = exp_lcm(leads[i], h)
            new.append((sum(lcm), lcm != exp_add(leads[i], h), i, lcm))
        new.sort()
        kept: list[Exponent] = []
        for _, useful, i, lcm in new:
            if any(exp_divides(m, lcm) for m in kept):
                continue
            kept.append(lcm)
            if useful:
                heapq.heappush(heap, (order.key(lcm), i, k))
                live[i, k] = lcm
        active[:] = [i for i in active if not exp_divides(h, leads[i])]
        active.append(k)
        reducers[:] = [basis[i] for i in active]
        reducer_leads[:] = [leads[i] for i in active]

    for g in gens:
        add(g)

    processed = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > cap:
            raise ResourceLimitError(processed, len(live), len(basis), cap)
        s = s_polynomial(basis[i], basis[j], order, (leads[i], leads[j]))
        r = normal_form(s, reducers, order, reducer_leads)
        if not r.is_zero():
            add(r)

    elements, element_leads = reference_interreduce(reducers, reducer_leads, order)
    stats = {"pairs_processed": processed, "basis_size": len(elements)}
    return GroebnerBasis(ring, order, elements, element_leads, stats)


def reference_interreduce(basis, leads, order: TermOrder):
    """The reduced basis and its leads, descending by leading term.

    basis is a Groebner basis of monic elements with the given leads.
    """
    # drop elements whose leading term another element's leading term divides
    ranked = sorted(zip(leads, basis), key=lambda t: order.key(t[0]))
    minimal: list[tuple[Exponent, Polynomial]] = []
    for le, g in ranked:
        if not any(exp_divides(m, le) for m, _ in minimal):
            minimal.append((le, g))
    # the leading terms are fixed from here on, so one pass of tail
    # reduction against the other elements yields the reduced basis; a lead
    # no other lead divides stays in the remainder with coefficient 1
    ml = [le for le, _ in minimal]
    mp = [g for _, g in minimal]
    reduced = [
        normal_form(g, mp[:i] + mp[i + 1 :], order, ml[:i] + ml[i + 1 :]) for i, g in enumerate(mp)
    ]
    return tuple(reversed(reduced)), tuple(reversed(ml))


# -- the comparison -------------------------------------------------------------


def random_ideal(rng: random.Random) -> list[Polynomial]:
    """Generators in 4-6 variables, some of them lone variables.

    Two to four random generators of degree at most 3, with one to three
    terms each, may contain the lone variables.  One or two lone variables
    c*x_i follow, then chains: a generator m + c*x_j whose monomial m
    contains a variable placed before it, so x_j is lone only once the
    terms of m are dropped.  One ideal in eight also gets a generator
    m + c with m containing a placed variable, which makes it the unit
    ideal.  Generators are shuffled.
    """
    n = rng.randint(4, 6)
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    monomials = [e for e in exponents_up_to(n, 3) if any(e)]
    gens = []
    for _ in range(rng.randint(2, 4)):
        chosen = rng.sample(monomials, k=rng.randint(1, 3))
        gens.append(Polynomial(ring, {e: _rational(rng) for e in chosen}))
    shuffled = rng.sample(range(n), k=n)
    placed = shuffled[: rng.randint(1, 2)]
    free = shuffled[len(placed) :]
    for i in placed:
        gens.append(ring.variable(i) * _rational(rng))
    for _ in range(rng.randint(0, 2)):
        if len(free) < 2:
            break
        j = free.pop()
        gens.append(_through(rng, ring, monomials, placed) + ring.variable(j) * _rational(rng))
        placed.append(j)
    if rng.randrange(8) == 0:
        gens.append(_through(rng, ring, monomials, placed) + ring.constant(_rational(rng)))
    rng.shuffle(gens)
    return gens


def _through(rng, ring, monomials, placed) -> Polynomial:
    """A monomial term that some placed variable divides."""
    i = rng.choice(placed)
    e = rng.choice([e for e in monomials if e[i]])
    return ring.monomial(e, _rational(rng))


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


def orders(rng: random.Random, n: int) -> list[TermOrder]:
    """lex, degrevlex, a weighted order, an elimination order and saturate's order."""
    weights = [rng.randint(1, 3) for _ in range(n)]
    block = rng.sample(range(n), k=rng.randint(1, n - 1))
    i = rng.randrange(n)
    least_xi = TermOrder.weighted([-1 if j == i else 0 for j in range(n)], TermOrder.degrevlex())
    return [
        TermOrder.lex(),
        TermOrder.degrevlex(),
        TermOrder.weighted(weights, rng.choice([TermOrder.lex(), TermOrder.degrevlex()])),
        TermOrder.elimination(block, n, TermOrder.degrevlex()),
        TermOrder.weighted([rng.randint(1, 3) for _ in range(n)], least_xi),
    ]


def mismatches(count: int, seed: int) -> list[str]:
    """Descriptions of the ideals and orders on which the two bases disagree."""
    rng = random.Random(seed)
    bad = []
    with pair_cap(PAIR_CAP):
        for _ in range(count):
            gens = random_ideal(rng)
            for order in orders(rng, gens[0].ring.nvars):
                ours = buchberger(gens, order)
                theirs = reference_buchberger(gens, order)
                if (ours.elements, ours.leads) != (theirs.elements, theirs.leads):
                    bad.append(f"{gens} under {order!r}: {ours.elements} != {theirs.elements}")
                # the pair loop must see exactly the generators left once
                # every lone variable is zero
                rest = lone_variables_set_to_zero(gens)
                pairs = reference_buchberger(rest, order, ring=gens[0].ring).stats
                if ours.stats["pairs_processed"] != pairs["pairs_processed"]:
                    bad.append(f"{gens} under {order!r}: {ours.stats} != {pairs} on {rest}")
    return bad


def lone_variables_set_to_zero(gens) -> list[Polynomial]:
    """The nonzero generators left once every lone variable is set to zero.

    A generator that is a multiple of one variable makes that variable zero
    in the others, which may leave a new one; the substitution repeats
    until none is left.  Generators keep their order.
    """
    ring = gens[0].ring
    images = [ring.variable(i) for i in range(ring.nvars)]
    while True:
        rest = [r for r in (g.substitute(ring, images) for g in gens) if not r.is_zero()]
        lone = [e for r in rest if len(r.terms) == 1 for e in r.terms if sum(e) == 1]
        if not lone:
            return rest
        for e in lone:
            images[e.index(1)] = ring.zero()


def random_binomials(rng: random.Random) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two to four exponent pairs (a, b) in 2-6 variables, entries 0-2.

    Each stands for the pure binomial x^a - x^b.  The two sides are drawn
    apart, so a pair may be zero (a = b), have a constant side, or share
    variables on both sides.
    """
    n = rng.randint(2, 6)
    return [
        tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in "ab")
        for _ in range(rng.randint(2, 4))
    ]


def binomial_mismatches(count: int, seed: int) -> list[str]:
    """Descriptions of the binomial ideals and orders on which the two loops disagree."""
    rng = random.Random(seed)
    bad = []
    with pair_cap(PAIR_CAP):
        for _ in range(count):
            pairs = random_binomials(rng)
            n = len(pairs[0][0])
            ring = PolyRing(tuple(f"x{i}" for i in range(n)))
            gens = [_pure(ring, a, b) for a, b in pairs]
            for order in orders(rng, n):
                ours = _pair_outcome(ring, pairs, order)
                theirs = _buchberger_outcome(ring, gens, order)
                if ours != theirs:
                    bad.append(f"{pairs} under {order!r}: {ours} != {theirs}")
    return bad


def _pure(ring: PolyRing, a, b) -> Polynomial:
    return ring.monomial(a) - ring.monomial(b)


def _pair_outcome(ring: PolyRing, pairs, order: TermOrder):
    """The (lead, x^lead - x^tail) elements and the pairs processed, or the refusal at the cap."""
    try:
        basis, processed = binomial_basis(pairs, order)
    except ResourceLimitError as err:
        return str(err)
    return [(lead, _pure(ring, lead, tail)) for lead, tail in basis], processed


def _buchberger_outcome(ring: PolyRing, gens, order: TermOrder):
    """The (lead, element) pairs and the pairs processed, or the refusal at the cap."""
    try:
        gb = buchberger(gens, order, ring=ring)
    except ResourceLimitError as err:
        return str(err)
    return list(zip(gb.leads, gb.elements)), gb.stats["pairs_processed"]


STREAMS = {"lone": mismatches, "binomial": binomial_mismatches}


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20090127
    stream = sys.argv[3] if len(sys.argv) > 3 else "lone"
    bad = STREAMS[stream](count, seed)
    print(f"{count} {stream} ideals, seed {seed}: {len(bad)} mismatches")
    for line in bad[:10]:
        print(line)
    sys.exit(1 if bad else 0)
