"""Ideal presentations and the classical ideal operations.

An IdealPresentation is a generator list plus a per-order cache of reduced
Groebner bases.  The zero ideal is the empty generator tuple.  Operations
that need an auxiliary variable (intersection, saturation) build a temporary
extended ring, eliminate, and map the result back; nothing here requires the
ideal to be graded.
"""

from __future__ import annotations

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


def ideal_sum(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    return IdealPresentation(a.ring, a.generators + b.generators)


def ideal_product(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    gens = [f * g for f in a.generators for g in b.generators]
    return IdealPresentation(a.ring, gens)


def _extended(a: IdealPresentation, stem: str):
    """a's ring with one fresh variable appended; returns (ring, lift map, aux index)."""
    ring = a.ring
    big = ring.extend([ring.fresh_name(stem)])
    where = list(range(ring.nvars))
    return big, where, ring.nvars


def _back(big_ring: PolyRing, small_ring: PolyRing, polys, aux_positions) -> list[Polynomial]:
    where: list[int | None] = []
    j = 0
    for i in range(big_ring.nvars):
        if i in aux_positions:
            where.append(None)
        else:
            where.append(j)
            j += 1
    return [p.map_variables(small_ring, where) for p in polys]


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
    order = TermOrder.elimination(block, TermOrder.degrevlex())
    gb = a.groebner(order)
    kept = [g for g in gb.elements if not (g.support_variables() & block)]
    return IdealPresentation(a.ring, kept)


def ideal_intersection(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    """a ∩ b through the one-auxiliary-variable trick: eliminate t from t*a + (1-t)*b."""
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    big, where, aux = _extended(a, "t_")
    t = big.variable(aux)
    one_minus_t = big.one() - t
    gens = [t * g.map_variables(big, where) for g in a.generators]
    gens += [one_minus_t * g.map_variables(big, where) for g in b.generators]
    mixed = IdealPresentation(big, gens)
    elim = eliminate(mixed, {aux})
    return IdealPresentation(a.ring, _back(big, a.ring, elim.generators, {aux}))


def saturate(a: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """The saturation (a : f^inf), computed by inverting f with a fresh variable."""
    if f.ring != a.ring:
        raise ValueError("mixed rings")
    if f.is_zero():
        raise ValueError("cannot saturate by zero")
    big, where, aux = _extended(a, "z_")
    z = big.variable(aux)
    gens = [g.map_variables(big, where) for g in a.generators]
    gens.append(z * f.map_variables(big, where) - big.one())
    elim = eliminate(IdealPresentation(big, gens), {aux})
    return IdealPresentation(a.ring, _back(big, a.ring, elim.generators, {aux}))


def saturate_by_variables(a: IdealPresentation, variables) -> IdealPresentation:
    """Saturate successively by each named coordinate; order does not matter."""
    out = a
    for i in sorted(variables):
        out = saturate(out, a.ring.variable(i))
    return out


def krull_dimension(a: IdealPresentation, order: TermOrder | None = None) -> int:
    """Dimension of the quotient ring, via a maximal independent variable set.

    A variable set S is independent of the leading-term ideal when no leading
    term involves only variables from S; the dimension is the largest such
    |S| (equivalently nvars minus a minimum hitting set of the leading-term
    supports).  The unit ideal is rejected.
    """
    gb = a.groebner(order)
    if gb.is_unit_ideal():
        raise ImproperIdealError("the unit ideal has no Krull dimension")
    supports = []
    for e in gb.leads:
        supports.append(frozenset(i for i, x in enumerate(e) if x))
    # remove supersets, they are hit automatically
    supports = [s for s in supports if not any(t < s for t in supports)]
    n = a.ring.nvars
    best = _min_hitting_set(supports, n)
    return n - best


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
