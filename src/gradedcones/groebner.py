"""Buchberger's algorithm with deterministic output.

Pair selection follows the normal strategy: the pending pair with the
smallest lcm under the active order is processed next, ties broken by the
generator index pair.  The product (coprime-lcm) and chain criteria discard
useless pairs.  The final basis is interreduced and monic, which makes it
the unique reduced Groebner basis of the ideal; elements are listed in
descending leading-term order.

The number of processed pairs is capped to keep runaway inputs from hanging
a session; the cap is read from the environment (see DEFAULT_PAIR_LIMIT).
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from fractions import Fraction

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


def normal_form(f: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Remainder of f under division by basis.

    Deterministic: at each step the greatest reducible term is cancelled
    using the first basis element (in stored order) whose leading term
    divides it.  The result has no term divisible by any basis leading term.
    f itself is not mutated; the division runs on a copy of its terms.
    """
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return f
    leads = [(order.leading_exponent(g), g) for g in basis]
    remainder: dict[Exponent, Fraction] = {}
    p = dict(f.terms)
    while p:
        e = max(p, key=order.key)
        c = p.pop(e)
        for le, g in leads:
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


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lf, lg = order.leading_exponent(f), order.leading_exponent(g)
    lcm = exp_lcm(lf, lg)
    mf = f.ring.monomial(exp_sub(lcm, lf), 1 / order.leading_coefficient(f))
    mg = f.ring.monomial(exp_sub(lcm, lg), 1 / order.leading_coefficient(g))
    return mf * f - mg * g


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with the order that defines it."""

    ring: PolyRing
    order: TermOrder
    elements: tuple[Polynomial, ...]
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    def leading_exponents(self) -> tuple[Exponent, ...]:
        return tuple(self.order.leading_exponent(g) for g in self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.elements, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant() and not self.elements[0].is_zero()


def buchberger(
    generators,
    order: TermOrder,
    *,
    ring: PolyRing | None = None,
    limit: int | None = None,
) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal the generators span."""
    if not order.is_well_order():
        raise ValueError("Groebner computation requires a well-order")
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        if ring is None:
            raise ValueError("empty generator list needs an explicit ring")
        return GroebnerBasis(ring, order, ())
    ring = gens[0].ring
    cap = pair_limit() if limit is None else limit

    basis = [order.monic(g) for g in gens]
    leads = [order.leading_exponent(g) for g in basis]

    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push_pairs(j: int):
        # a pair holds no lcm: it is recomputed on pop, saving memory per pair
        for i in range(j):
            heapq.heappush(heap, (order.key(exp_lcm(leads[i], leads[j])), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    processed = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        lcm = exp_lcm(leads[i], leads[j])
        pending.discard((i, j))
        processed += 1
        if processed > cap:
            raise ResourceLimitError(processed, len(heap), len(basis), cap)
        # product criterion: coprime leading terms reduce to zero
        if lcm == exp_add(leads[i], leads[j]):
            continue
        # chain criterion: a third element divides the lcm and both side
        # pairs are settled already
        if _chain_applies(i, j, lcm, leads, pending):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if r.is_zero():
            continue
        basis.append(order.monic(r))
        leads.append(order.leading_exponent(r))
        push_pairs(len(basis) - 1)

    reduced = _interreduce(basis, order)
    reduced.sort(key=lambda g: order.key(order.leading_exponent(g)), reverse=True)
    stats = {"pairs_processed": processed, "basis_size": len(reduced)}
    return GroebnerBasis(ring, order, tuple(reduced), stats)


def _chain_applies(i, j, lcm, leads, pending) -> bool:
    for k in range(len(leads)):
        if k == i or k == j:
            continue
        if not exp_divides(leads[k], lcm):
            continue
        a = (min(i, k), max(i, k))
        b = (min(j, k), max(j, k))
        if a not in pending and b not in pending:
            return True
    return False


def _interreduce(basis, order: TermOrder) -> list[Polynomial]:
    # drop elements whose leading term another element's leading term divides
    basis = sorted(basis, key=lambda g: order.key(order.leading_exponent(g)))
    minimal: list[Polynomial] = []
    for g in basis:
        le = order.leading_exponent(g)
        if not any(exp_divides(order.leading_exponent(h), le) for h in minimal):
            minimal.append(g)
    # the leading terms are fixed from here on, so one pass of tail
    # reduction against the other elements yields the reduced basis
    for i, g in enumerate(minimal):
        minimal[i] = order.monic(normal_form(g, minimal[:i] + minimal[i + 1 :], order))
    return minimal
