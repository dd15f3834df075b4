"""Buchberger's algorithm with deterministic output.

Pair bookkeeping is the Gebauer-Moeller update (Gebauer and Moeller,
J. Symbolic Comput. 6, 1988; the UPDATE procedure of Becker and
Weispfenning, Groebner Bases, 1993, section 5.5).  When an element h joins
the basis:

  * its pairs are formed only with the active set G, the elements whose
    leading term no later leading term divides;
  * a new pair whose lcm is a proper multiple of another new pair's lcm is
    dropped, and of several new pairs with equal lcms one is kept;
  * a pair with coprime leading terms is never queued (its S-polynomial
    reduces to zero), though it still drops the new pairs its lcm divides;
  * a queued pair (a, b) is deleted when lead(h) divides lcm(a, b) and
    lcm(a, b) differs from both lcm(a, h) and lcm(b, h);
  * every element of G whose leading term lead(h) divides leaves G.

S-polynomials are reduced against G.  Pair selection follows the normal
strategy: the live pair with the smallest lcm under the active order is
processed next, ties broken by the generator index pair; deleted pairs stay
in the heap and are skipped when popped.  stats["pairs_processed"] counts
the pairs popped and not deleted.  Each element's leading exponent is
computed once, when it joins the basis, and handed to s_polynomial and
normal_form.  The
final basis is interreduced and monic, which makes it the unique reduced
Groebner basis of the ideal; elements are listed in descending leading-term
order.

Before the pair loop, every generator that is a nonzero multiple of one
variable x_i places x_i in the basis, and every term containing x_i is
dropped from the other generators; this repeats while a drop leaves a new
lone variable, as y1 + y2 does once y1 is placed.  That changes no ideal,
since a dropped term is a multiple of x_i.  The pair loop and the
interreduction then run on what is left, and the placed variables, monic,
are merged into the result by leading term.  The union is the reduced basis
under every well-order: each x_i is coprime to every remaining leading term,
so their S-polynomials reduce to zero (Buchberger's first criterion,
Buchberger 1979), no remaining element contains x_i, and x_i has no tail.
If what is left is the unit ideal, the basis is {1} alone.  An orbit
closure's vanishing coordinates are such generators; placed, they skip
the pair update, the reducer search and the interreduction.

A second loop, binomial_basis, computes the reduced basis of an ideal of
pure binomials x^a - x^b on exponent pairs (a, b) alone: S-polynomials and
remainders of pure binomials are pure binomials or zero (Eisenbud and
Sturmfels, Duke Math. J. 84, 1996, Prop. 1.1), so no coefficient is ever
computed (as in GRIN: Hosten and Sturmfels, IPCO 1995).  It takes the same
steps buchberger takes on the same binomials as polynomials.  Both loops
share one Gebauer-Moeller update and pair selection, _PairQueue, which
reads leading exponents only and runs once per element that joins.

The number of processed pairs is capped to keep runaway inputs from hanging
a session; the cap is read from the environment (see DEFAULT_PAIR_LIMIT).
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub

from .errors import ResourceLimitError
from .orders import TermOrder
from .rings import Exponent, PolyRing, Polynomial, exp_add, exp_divides, exp_lcm, exp_sub

PAIR_LIMIT_ENV = "GRADEDCONES_PAIR_LIMIT"
DEFAULT_PAIR_LIMIT = 200_000


def pair_limit() -> int:
    raw = os.environ.get(PAIR_LIMIT_ENV)
    if raw is None:
        return DEFAULT_PAIR_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{PAIR_LIMIT_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{PAIR_LIMIT_ENV} must be positive, got {value}")
    return value


def normal_form(f: Polynomial, basis, order: TermOrder, leads=None) -> Polynomial:
    """Remainder of f under division by basis.

    Deterministic: at each step the greatest reducible term is cancelled
    using the first basis element (in stored order) whose leading term
    divides it.  The result has no term divisible by any basis leading term.
    f itself is not mutated; the division runs on a copy of its terms.

    leads, when given, are the leading exponents of basis under order, one
    per element, as the caller already holds them; basis then must not
    contain the zero polynomial.  Without leads they are computed here,
    skipping zero elements.

    Coefficients are Fractions, or polynomials over Q (Polynomials of one
    coefficient ring) when every basis element's leading coefficient is a
    unit, a nonzero Fraction: each step divides by that coefficient.
    """
    if leads is None:
        basis = [g for g in basis if not g.is_zero()]
        leads = [order.leading_exponent(g) for g in basis]
    if not basis:
        return f
    reducers = list(zip(leads, basis))
    remainder: dict[Exponent, Fraction] = {}
    p = dict(f.terms)
    while p:
        e = max(p, key=order.key)
        c = p.pop(e)
        for le, g in reducers:
            if exp_divides(le, e):
                # p -= q x^shift g; g's leading term would cancel the popped c
                q = c / g.terms[le]
                shift = exp_sub(e, le)
                for ge, gc in g.terms.items():
                    if ge != le:
                        t = exp_add(ge, shift)
                        s = p.get(t, 0) - q * gc
                        if s:
                            p[t] = s
                        else:
                            del p[t]
                break
        else:
            remainder[e] = c
    return Polynomial(f.ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder, leads=None) -> Polynomial:
    """x^(l - lead f) f / lc(f) - x^(l - lead g) g / lc(g), l the lcm of the leads.

    leads, when given, is the pair (lead f, lead g) of leading exponents
    under order, as the caller already holds them.  Coefficients are as for
    normal_form: Fractions, or polynomials over Q with unit leading
    coefficients in f and g.
    """
    lf, lg = leads if leads is not None else (order.leading_exponent(f), order.leading_exponent(g))
    lcm = exp_lcm(lf, lg)
    terms: dict[Exponent, Fraction] = {}
    # the leading terms cancel, so only the tails are shifted and combined
    for poly, le, sign in ((f, lf, 1), (g, lg, -1)):
        q = sign / poly.terms[le]
        shift = exp_sub(lcm, le)
        for e, c in poly.terms.items():
            if e != le:
                t = exp_add(e, shift)
                s = terms.get(t, 0) + q * c
                if s:
                    terms[t] = s
                else:
                    del terms[t]
    return Polynomial(f.ring, terms)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with the order that defines it.

    leads holds each element's leading exponent, in the order of elements.
    """

    ring: PolyRing
    order: TermOrder
    elements: tuple[Polynomial, ...]
    leads: tuple[Exponent, ...]
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.elements, self.order, self.leads)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant() and not self.elements[0].is_zero()


class _PairQueue:
    """The Gebauer-Moeller update and the normal selection strategy.

    Both pair loops, `buchberger` on polynomials and `binomial_basis` on
    exponent pairs, keep their elements in lists indexed like `leads`,
    call `add` once for each element that joins and take the next pair from
    `pop`.  The bookkeeping reads leading exponents only.
    """

    __slots__ = ("order", "cap", "leads", "active", "live", "heap", "processed")

    def __init__(self, order: TermOrder):
        self.order = order
        self.cap = pair_limit()
        self.leads: list[Exponent] = []
        self.active: list[int] = []  # G: the elements no later leading term divides
        # queued pairs not deleted yet, with their lcms
        self.live: dict[tuple[int, int], Exponent] = {}
        self.heap: list = []  # (lcm key, i, j); deleted pairs are skipped when popped
        self.processed = 0

    def add(self, h: Exponent) -> None:
        """The update for a new element with leading exponent h."""
        leads, live = self.leads, self.live
        k = len(leads)
        leads.append(h)
        # a queued pair whose lcm h divides is redundant, unless the lcm
        # equals the lcm of one of its sides with h
        dead = [
            (i, j)
            for (i, j), lcm in live.items()
            if exp_divides(h, lcm) and lcm != exp_lcm(leads[i], h) and lcm != exp_lcm(leads[j], h)
        ]
        for pair in dead:
            del live[pair]
        # new pairs with G by ascending lcm degree, so a proper divisor of an
        # lcm comes before it, and coprime ones first among equal lcms; a pair
        # goes when an earlier kept lcm divides its lcm, and coprime pairs are
        # kept only to delete others this way
        new = []
        for i in self.active:
            lcm = exp_lcm(leads[i], h)
            new.append((sum(lcm), lcm != exp_add(leads[i], h), i, lcm))
        new.sort()
        kept: list[Exponent] = []
        for _, useful, i, lcm in new:
            if any(exp_divides(m, lcm) for m in kept):
                continue
            kept.append(lcm)
            if useful:
                heapq.heappush(self.heap, (self.order.key(lcm), i, k))
                live[i, k] = lcm
        self.active = [i for i in self.active if not exp_divides(h, leads[i])]
        self.active.append(k)

    def pop(self) -> tuple[int, int] | None:
        """The next pair to process, or None when none is left.

        Raises ResourceLimitError once more pairs than the cap are processed.
        """
        heap, live = self.heap, self.live
        while heap:
            _, i, j = heapq.heappop(heap)
            if live.pop((i, j), None) is None:
                continue
            self.processed += 1
            if self.processed > self.cap:
                raise ResourceLimitError(self.processed, len(live), len(self.leads), self.cap)
            return i, j
        return None


def buchberger(
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
    pairs = _PairQueue(order)
    placed, gens = _place_lone_variables(ring, gens)

    basis: list[Polynomial] = []  # monic, indexed like pairs.leads
    leads = pairs.leads
    reducers: list[Polynomial] = []  # the elements of G, and their leads
    reducer_leads: list[Exponent] = []

    def add(g: Polynomial) -> None:
        h = order.leading_exponent(g)
        basis.append(g * (1 / g.terms[h]))
        pairs.add(h)
        reducers[:] = [basis[i] for i in pairs.active]
        reducer_leads[:] = [leads[i] for i in pairs.active]

    for g in gens:
        add(g)
    while (pair := pairs.pop()) is not None:
        i, j = pair
        s = s_polynomial(basis[i], basis[j], order, (leads[i], leads[j]))
        r = normal_form(s, reducers, order, reducer_leads)
        if not r.is_zero():
            add(r)

    elements, element_leads = _interreduce(reducers, reducer_leads, order)
    if placed and not (len(elements) == 1 and not any(element_leads[0])):
        # not the unit ideal: merge the placed variables in by leading term
        merged = sorted(
            [*zip(element_leads, elements), *placed.items()],
            key=lambda t: order.key(t[0]),
            reverse=True,
        )
        element_leads = tuple(le for le, _ in merged)
        elements = tuple(g for _, g in merged)
    stats = {"pairs_processed": pairs.processed, "basis_size": len(elements)}
    return GroebnerBasis(ring, order, elements, element_leads, stats)


def _binomial_normal_form(pair: tuple[Exponent, Exponent], basis, order: TermOrder):
    """The remainder of x^a - x^b, (a, b) = pair, under division by basis.

    basis holds (lead, tail) pairs, each x^lead - x^tail with lead greater
    than tail under order.  The steps are normal_form's: the greater term
    is reduced while the lead of some element divides it, by the first such
    element, and then the lesser one, each step replacing a monomial m by
    m - lead + tail.  A pure binomial stays one, or two equal monomials
    cancel (Eisenbud and Sturmfels, Duke Math. J. 84, 1996, Prop. 1.1).
    Returns the remainder as a (lead, tail) pair, whatever the sign the
    division leaves on it, or None when it is zero.
    """
    key = order.key
    c, d = pair
    if c == d:
        return None
    if key(c) < key(d):
        c, d = d, c
    kd = key(d)
    while True:  # the greater term
        for a, b in basis:
            if exp_divides(a, c):
                c = _replace(c, a, b)
                break
        else:
            break
        if c == d:
            return None
        kc = key(c)
        if kc < kd:
            c, d, kd = d, c, kc
    return c, _reduce_tail(d, basis)


def _replace(m: Exponent, a: Exponent, b: Exponent) -> Exponent:
    """m - a + b: the monomial x^m with its factor x^a replaced by x^b."""
    return tuple(map(add, map(sub, m, a), b))


def _reduce_tail(d: Exponent, basis) -> Exponent:
    """The monomial d reduced while the lead of some element of basis divides it."""
    while True:
        for a, b in basis:
            if exp_divides(a, d):
                d = _replace(d, a, b)
                break
        else:
            return d


def binomial_basis(pairs, order: TermOrder) -> tuple[tuple[tuple[Exponent, Exponent], ...], int]:
    """The reduced Groebner basis of the ideal of the pure binomials x^a - x^b.

    pairs holds (a, b) exponent pairs; a pair with a = b is zero and is
    skipped.  Returns the basis as (lead, tail) pairs in descending lead
    order, and the number of pairs processed.  The loop is buchberger's,
    with its pair bookkeeping and cap, on exponents alone: every
    S-polynomial and every remainder of pure binomials is a pure binomial or
    zero, so no coefficient is ever computed.  The S-pair of (a1, b1) and
    (a2, b2) with l = lcm(a1, a2) is (l - a1 + b1, l - a2 + b2).  On the
    same generators as polynomials, buchberger processes as many pairs and
    returns the same elements.
    """
    if not order.is_well_order():
        raise ValueError("Groebner computation requires a well-order")
    key = order.key
    queue = _PairQueue(order)
    basis: list[tuple[Exponent, Exponent]] = []  # indexed like queue.leads
    reducers: list[tuple[Exponent, Exponent]] = []  # the elements of G

    def add(pair) -> None:
        basis.append(pair)
        queue.add(pair[0])
        reducers[:] = [basis[i] for i in queue.active]

    for a, b in pairs:
        if a != b:
            add((a, b) if key(a) > key(b) else (b, a))
    while (pair := queue.pop()) is not None:
        (a1, b1), (a2, b2) = basis[pair[0]], basis[pair[1]]
        lcm = exp_lcm(a1, a2)
        r = _binomial_normal_form((_replace(lcm, a1, b1), _replace(lcm, a2, b2)), reducers, order)
        if r is not None:
            add(r)

    # interreduce as _interreduce does: the minimal leads, ascending, each
    # with its tail reduced against the others
    minimal: list[tuple[Exponent, Exponent]] = []
    for a, b in sorted(reducers, key=lambda t: key(t[0])):
        if not any(exp_divides(m, a) for m, _ in minimal):
            minimal.append((a, b))
    reduced = [
        (a, _reduce_tail(b, minimal[:i] + minimal[i + 1 :])) for i, (a, b) in enumerate(minimal)
    ]
    return tuple(reversed(reduced)), queue.processed


def _place_lone_variables(ring: PolyRing, gens):
    """The lone variables of the ideal, and the generators left without them.

    A generator that is a nonzero multiple of one variable x_i puts x_i in
    the ideal, so every term containing x_i is dropped from the other
    generators; that may leave a new lone variable, and the step repeats.
    Returns a dict from each placed x_i's exponent to monic x_i, and the
    nonzero generators that are left, none of which contains a placed
    variable.
    """
    placed: dict[Exponent, Polynomial] = {}
    while True:
        # the term count first: most generators are not monomials
        lone = [e for g in gens if len(g.terms) == 1 for e in g.terms if sum(e) == 1]
        if not lone:
            return placed, gens
        hit = {e.index(1) for e in lone}
        for e in lone:
            placed[e] = Polynomial(ring, {e: Fraction(1)})
        gens = [
            Polynomial(ring, kept)
            for g in gens
            if (kept := {e: c for e, c in g.terms.items() if not any(e[i] for i in hit)})
        ]


def _interreduce(basis, leads, order: TermOrder):
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
