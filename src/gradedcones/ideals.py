"""Ideal presentations and the classical ideal operations.

An IdealPresentation is a generator list plus a per-order cache of reduced
Groebner bases.  The zero ideal is the empty generator tuple.  Every
operation runs in the ideal's own ring: elimination through a block order,
and saturation by coordinates, which needs the ideal homogeneous for
strictly positive weights, through a weight order that puts the coordinate
last.
"""

from __future__ import annotations

from operator import mul

from .errors import ImproperIdealError
from .groebner import GroebnerBasis, buchberger
from .orders import TermOrder
from .rings import PolyRing, Polynomial

DEFAULT_ORDER = TermOrder.degrevlex()


class IdealPresentation:
    """Finitely many generators of an ideal in a PolyRing."""

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring: PolyRing, generators=()):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial")
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb_cache: dict[tuple, GroebnerBasis] = {}

    def groebner(self, order: TermOrder | None = None) -> GroebnerBasis:
        order = order or DEFAULT_ORDER
        tag = order.tag()
        gb = self._gb_cache.get(tag)
        if gb is None:
            gb = buchberger(self.generators, order, ring=self.ring)
            self._gb_cache[tag] = gb
        return gb

    def contains(self, f: Polynomial, order: TermOrder | None = None) -> bool:
        if f.is_zero():
            return True
        return self.groebner(order).contains(f)

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def is_proper(self) -> bool:
        if not self.generators:
            return True
        return not self.groebner().is_unit_ideal()

    def included_in(self, other: "IdealPresentation") -> bool:
        return all(other.contains(g) for g in self.generators)

    def same_ideal(self, other: "IdealPresentation") -> bool:
        return self.included_in(other) and other.included_in(self)

    def __repr__(self) -> str:
        inside = ", ".join(repr(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


def is_proper_homogeneous(a: IdealPresentation) -> bool:
    """Properness of an ideal whose generators are homogeneous for a positive grading.

    Such an ideal is the unit ideal exactly when one generator is a nonzero
    constant: a positive grading gives every nonconstant monomial a nonzero
    degree, so every other homogeneous generator lies in the ideal of the
    origin.  No Groebner basis is needed.
    """
    return not any(g.is_constant() for g in a.generators)


def ideal_sum(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    return IdealPresentation(a.ring, a.generators + b.generators)


def eliminate(a: IdealPresentation, variables) -> IdealPresentation:
    """Generators of the elimination ideal a ∩ k[remaining variables].

    Computed with a block elimination order that makes the named variables
    greatest; the returned presentation lives in the same ring but its
    generators avoid the eliminated variables.
    """
    block = frozenset(variables)
    if not block:
        return a
    if not all(0 <= i < a.ring.nvars for i in block):
        raise ValueError("variable index out of range")
    order = TermOrder.elimination(block, a.ring.nvars, TermOrder.degrevlex())
    gb = a.groebner(order)
    kept = [g for g in gb.elements if not (g.support_variables() & block)]
    return IdealPresentation(a.ring, kept)


def saturate(a: IdealPresentation, variables, weights) -> IdealPresentation:
    """The saturation of a by the named coordinates, (a : (prod x_i)^inf).

    a must be homogeneous for the weights, one strictly positive integer
    per variable.  For each i in ascending order the reduced basis under the
    order that compares weight first and then prefers the least x_i exponent
    is divided elementwise by the largest power of x_i dividing it (Bayer and
    Stillman, Invent. Math. 87, 1987; Sturmfels, Groebner Bases and Convex
    Polytopes, ch. 12).  On a homogeneous polynomial that order makes the
    leading term's x_i exponent the least among its terms, so the quotients
    generate a : x_i^inf.
    """
    n = a.ring.nvars
    variables = sorted(variables)
    weights = tuple(weights)
    if len(weights) != n or any(w <= 0 for w in weights):
        raise ValueError("saturation needs a strictly positive weight per variable")
    if not all(0 <= i < n for i in variables):
        raise ValueError("variable index out of range")
    for g in a.generators:
        if len({sum(map(mul, weights, e)) for e in g.terms}) != 1:
            raise ArithmeticError("generator is not homogeneous for the saturation weights")
    if not a.generators:
        return a
    out = a
    for i in variables:
        gens = []
        for g in out.groebner(saturation_order(weights, i)).elements:
            k = min(e[i] for e in g.terms)
            terms = {e[:i] + (e[i] - k,) + e[i + 1 :]: c for e, c in g.terms.items()}
            gens.append(Polynomial(a.ring, terms))
        out = IdealPresentation(a.ring, gens)
    return out


def saturation_order(weights, i: int) -> TermOrder:
    """saturate's order for x_i: weight first, then the least x_i exponent, then degrevlex.

    Dividing the reduced basis under it by the powers of x_i, as saturate
    does, leaves a Groebner basis of the saturation under the same order.
    """
    least_xi = [-1 if j == i else 0 for j in range(len(weights))]
    return TermOrder.weighted(weights, TermOrder.weighted(least_xi, TermOrder.degrevlex()))


def krull_dimension(a: IdealPresentation, order: TermOrder | None = None) -> int:
    """Dimension of the quotient ring, from the leads of a Groebner basis.

    The unit ideal is rejected.
    """
    gb = a.groebner(order)
    if gb.is_unit_ideal():
        raise ImproperIdealError("the unit ideal has no Krull dimension")
    return leading_dimension(gb.leads, a.ring.nvars)


def leading_dimension(leads, n: int) -> int:
    """Krull dimension of the quotient of n variables by the monomials with these exponents.

    It is that of the ideal whose Groebner basis has these leads.  A
    variable set S is independent of the leading-term ideal when no leading
    term involves only variables from S; the dimension is the largest such
    |S| (equivalently n minus a minimum hitting set of the leading-term
    supports).
    """
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
    # a single-variable support forces its variable into every hitting set,
    # and that variable hits every support holding it
    forced = {i for s in supports if len(s) == 1 for i in s}
    rest = {s for s in supports if not s & forced}
    # remove supersets, they are hit automatically
    rest = [s for s in rest if not any(t < s for t in rest)]
    return n - len(forced) - _min_hitting_set(rest, n)


def _min_hitting_set(supports, n: int) -> int:
    supports = sorted(set(supports), key=lambda s: (len(s), sorted(s)))
    best = [n]

    def search(idx: int, chosen: frozenset):
        if len(chosen) >= best[0]:
            return
        for k in range(idx, len(supports)):
            if not (supports[k] & chosen):
                for v in sorted(supports[k]):
                    search(k + 1, chosen | {v})
                return
        best[0] = len(chosen)

    search(0, frozenset())
    return best[0]
