"""Defining ideals of Groebner strata of monomial ideals.

Fix a monomial ideal J with minimal generators x^alpha and a term order.
Perturb each generator into a marked polynomial x^alpha + sum C x^beta over
the admissible tails beta, with one fresh coefficient variable C per
(head, tail) pair.  Requiring the marked set to stay a Groebner basis with
initial ideal J is a closed condition on the C's: every S-polynomial must
reduce to zero.  The markers are polynomials in x with coefficients in Q[C],
monic in their heads, and they are reduced as such by the library's one
reduction kernel (groebner.s_polynomial and normal_form) under the order on
x alone, as in Cioffi and Roggero (J. Symbolic Comput. 46, 2011) and
Bertone, Lella and Roggero (J. Symbolic Comput. 53, 2013).  The
Q[C]-coefficients of the fully reduced remainders cut out the stratum inside
affine C-space.

Grading the C-variables by head minus tail makes every stratum equation
multigraded, so the whole cone machinery applies; in particular the linear
parts can be eliminated to land in the smallest ambient space.  That grading
is validated on every computed equation rather than assumed.  It is always
positive: a term order agrees with a positive integer weight on the finitely
many (head, tail) pairs (Sturmfels, Groebner Bases and Convex Polytopes,
Prop. 1.11), and that weight is positive on every head minus tail.  The
positivity LP is still solved, for the witness the report prints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from .cones import EmbeddingResult, homogeneous_ideal, minimal_embedding
from .errors import Rejection
from .grading import GradingMap
from .groebner import normal_form, s_polynomial
from .ideals import IdealPresentation
from .orders import TermOrder
from .rings import (
    Exponent,
    PolyRing,
    Polynomial,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    exp_support,
    exp_unit,
)


@dataclass(frozen=True)
class MonomialIdealSpec:
    """A monomial ideal by its minimal generating exponents, plus a term order."""

    ring: PolyRing
    generators: tuple[Exponent, ...]
    order: TermOrder

    def __post_init__(self):
        gens = tuple(tuple(map(operator.index, e)) for e in self.generators)
        object.__setattr__(self, "generators", gens)
        for e in gens:
            if len(e) != self.ring.nvars or any(x < 0 for x in e):
                raise ValueError(f"bad monomial exponent {e}")
        for a, b in combinations(gens, 2):
            if exp_divides(a, b) or exp_divides(b, a):
                raise Rejection("generators are not a minimal generating set")
        if not self.order.is_well_order():
            raise ValueError("the monomial order must be a well order")

    def contains(self, e: Exponent) -> bool:
        return any(exp_divides(g, e) for g in self.generators)


@dataclass(frozen=True)
class TailScheme:
    """Heads, admissible tails, and the graded coefficient ring they span.

    pairs[k] = (head index, tail exponent) names coefficient variable k; its
    degree is head minus tail, a vector with one entry per ambient variable.
    """

    ideal: MonomialIdealSpec
    mode: str
    heads: tuple[Exponent, ...]  # descending under the order
    tails: tuple[tuple[Exponent, ...], ...]  # per head, descending
    pairs: tuple[tuple[int, Exponent], ...]
    coefficient_ring: PolyRing
    coefficient_grading: GradingMap

    def legend(self) -> tuple[tuple[str, str, str], ...]:
        """(coefficient name, head monomial, tail monomial) per variable."""
        from .session import format_monomial

        xring = self.ideal.ring
        return tuple(
            (
                self.coefficient_ring.names[k],
                format_monomial(xring, self.heads[h]),
                format_monomial(xring, beta),
            )
            for k, (h, beta) in enumerate(self.pairs)
        )


def tail_scheme(j: MonomialIdealSpec, mode: str = "homogeneous") -> TailScheme:
    """Enumerate the admissible tails of every minimal generator of J.

    A tail of the head x^alpha is a monomial outside J and below the head in
    the order; homogeneous mode keeps only tails of the same total degree.
    In full mode the tail set can be infinite (a variable with no pure power
    in J and unbounded powers below the head), which is rejected, as is a
    scan of more than TAIL_LIMIT monomials: counted before any is
    enumerated in homogeneous mode, as the search finds them in full mode.
    """
    if mode not in ("homogeneous", "full"):
        raise ValueError(f"unknown tail mode {mode!r}")
    order = j.order
    heads = tuple(sorted(j.generators, key=order.key, reverse=True))
    if mode == "homogeneous":
        _check_tail_scan(sum(comb(sum(alpha) + j.ring.nvars - 1, sum(alpha)) for alpha in heads))
    tails = []
    for alpha in heads:
        if mode == "homogeneous":
            found = [
                beta
                for beta in _same_degree_exponents(j.ring.nvars, sum(alpha))
                if not j.contains(beta) and order.greater(alpha, beta)
            ]
        else:
            found = _full_tails(j, alpha, sum(map(len, tails)))
        tails.append(tuple(sorted(found, key=order.key, reverse=True)))

    pairs = tuple((h, beta) for h in range(len(heads)) for beta in tails[h])
    taken = set(j.ring.names)
    names = []
    for k in range(len(pairs)):
        name = f"C{k + 1}"
        while name in taken:
            name = name + "_"
        taken.add(name)
        names.append(name)
    cring = PolyRing(tuple(names))
    columns = []
    for h, beta in pairs:
        col = exp_sub(heads[h], beta)
        assert any(col), "a tail equal to its head slipped through"
        columns.append(col)
    grading = GradingMap(cring, columns, ambient_dim=j.ring.nvars)
    return TailScheme(
        ideal=j,
        mode=mode,
        heads=heads,
        tails=tuple(tails),
        pairs=pairs,
        coefficient_ring=cring,
        coefficient_grading=grading,
    )


def _same_degree_exponents(nvars: int, degree: int):
    """Every exponent of nvars entries summing to degree, each once.

    An exponent is the gaps between 0, its nvars - 1 cut points
    c_1 <= ... <= c_{nvars-1} in 0..degree, and degree; each multiset of
    cut points comes once from combinations_with_replacement.  A gap costs
    one subtraction per variable, not one pass over degree.
    """
    if nvars:
        for cuts in combinations_with_replacement(range(degree + 1), nvars - 1):
            yield tuple(map(operator.sub, cuts + (degree,), (0,) + cuts))
    elif degree == 0:
        yield ()


TAIL_LIMIT = 4000  # the most tail monomials tail_scheme scans


def _check_tail_scan(count: int) -> None:
    if count > TAIL_LIMIT:
        raise Rejection(f"the tail scan reaches {count} monomials, more than the limit of {TAIL_LIMIT}")


def _full_tails(j: MonomialIdealSpec, alpha: Exponent, before: int) -> list[Exponent]:
    """All exponents outside J and below alpha, by BFS; `before` counts toward TAIL_LIMIT."""
    order = j.order
    nvars = j.ring.nvars
    bound = _stabilizing_power(order, alpha)
    for i in range(nvars):
        if any(exp_support(g) <= {i} for g in j.generators):
            continue  # a pure power of x_i lies in J
        probe = tuple(bound if k == i else 0 for k in range(nvars))
        if order.greater(alpha, probe):
            raise Rejection(
                f"infinitely many tails: every power of {j.ring.names[i]} stays "
                f"outside the ideal and below the head with exponent {alpha}"
            )
    start = (0,) * nvars
    if j.contains(start) or not order.greater(alpha, start):
        return []
    seen = {start}
    queue = [start]
    out = []
    while queue:
        e = queue.pop()
        out.append(e)
        _check_tail_scan(before + len(out))
        for i in range(nvars):
            child = exp_add(e, exp_unit(nvars, i))
            if child in seen or j.contains(child) or not order.greater(alpha, child):
                continue
            seen.add(child)
            queue.append(child)
    return out


def _stabilizing_power(order: TermOrder, alpha: Exponent) -> int:
    """K with x_i^K < x^alpha iff x_i^k < x^alpha for all k (our order kinds).

    Every comparison layer of an order scores x_i^k either as zero or
    proportional to k, so exceeding all of alpha's layer scores settles it.
    """
    scores = [sum(alpha), max(alpha, default=0)]
    o = order
    while o is not None:
        if o.kind == "weighted":
            scores.append(sum(w * a for w, a in zip(o.weights, alpha)))
        o = o.tiebreak
    return 1 + max(scores)


@dataclass(frozen=True)
class StratumResult:
    scheme: TailScheme
    stratum_ideal: IdealPresentation  # in the coefficient ring
    reduced: EmbeddingResult | None = None


def stratum_ideal(scheme: TailScheme) -> StratumResult:
    """Equations on the coefficients keeping the marked basis's initial ideal.

    Each marker is held in the x-ring with coefficients in Q[C]: its head
    has coefficient 1 and the tail x^beta of coefficient variable k has
    coefficient C_k.  Every S-polynomial of the markers is reduced by
    groebner.normal_form under the ideal's own order, with the heads as
    leading terms.  The heads are monic, so reduction never divides by a
    coefficient, and whether a term is reducible depends on its x-monomial
    alone.  The remainder has no x-monomial in J; its Q[C]-coefficients,
    taken in descending x-order, generate the stratum ideal.  Each is checked
    to be homogeneous for the head-minus-tail grading.
    """
    cring = scheme.coefficient_ring
    order = scheme.ideal.order
    heads = scheme.heads
    markers = [Polynomial(scheme.ideal.ring, {head: Fraction(1)}) for head in heads]
    for k, (h, beta) in enumerate(scheme.pairs):
        markers[h].terms[beta] = cring.variable(k)

    pair_order = sorted(
        (order.key(exp_lcm(heads[i], heads[j])), i, j)
        for i in range(len(heads))
        for j in range(i + 1, len(heads))
    )
    clex = TermOrder.lex()
    generators: list[Polynomial] = []
    seen: set = set()
    for _, i, j in pair_order:
        spoly = s_polynomial(markers[i], markers[j], order, (heads[i], heads[j]))
        remainder = normal_form(spoly, markers, order, heads).terms
        for xmono in sorted(remainder, key=order.key, reverse=True):
            g = clex.positive_leading(remainder[xmono].scaled_primitive())
            if g not in seen:
                seen.add(g)
                generators.append(g)

    grading = scheme.coefficient_grading
    for g in generators:
        if not grading.is_homogeneous(g):
            raise ArithmeticError(
                "stratum equation is not homogeneous for the head-minus-tail grading"
            )
    return StratumResult(scheme=scheme, stratum_ideal=IdealPresentation(cring, generators))


def reduced_stratum(j: MonomialIdealSpec, mode: str = "homogeneous") -> StratumResult:
    """Stratum ideal re-embedded in its tangent space at the origin.

    Eliminates one coefficient per independent linear form among the
    equations.
    """
    result = stratum_ideal(tail_scheme(j, mode))
    cone = homogeneous_ideal(
        result.stratum_ideal.generators, result.scheme.coefficient_grading
    )
    return replace(result, reduced=minimal_embedding(cone))
