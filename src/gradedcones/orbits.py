"""Torus orbits attached to a multigrading.

The grading's torus acts on affine space by scaling coordinate i through
the character given by degree column i.  The orbit of a rational point is
parametrized by substituting y_i -> a_i t^{column_i}; its dimension is the
lattice rank of the support columns, and its closure is cut out by binomials
coming from the integer kernel of the support columns (saturated by the
support coordinates) plus the vanishing coordinates.  The binomials come
from an LLL-reduced basis of that kernel: short vectors make low-degree
binomials, and so small saturations.  The binomial part is
computed in the ring of the support's variables alone, so a closure costs
what its support costs, whatever the width of the ring, and at the
all-ones point: scaling each coordinate by the point's makes it an ideal
of pure binomials, whose Groebner bases are computed on exponent pairs
with no coefficients (Eisenbud and Sturmfels, Duke Math. J. 84, 1996,
Prop. 1.1) and scaled back by the point at the end.  A support coordinate
is saturated only while no binomial of a saturated basis shows it to be a
nonzerodivisor, a lattice of rank at most 1 needs no Groebner run at all,
and the closure is checked from its lex basis alone.

Also here: the union of coordinate subspaces where the orbit dimension is
at most a bound (the flats of that rank in the column matroid, each read
off the integer annihilator of its spanning columns), the
largest orbit dimension on a cone (a coordinate point on the cone, read
from the generators' coefficients, witnesses a non-vanishing coordinate
without a saturation), a rational search for one-dimensional orbits,
cross-section charts, and the rational curves that witness every point's
connection to the origin.  The search, too, works on each support in the
ring of its variables: the cone restricted there is a cone of its own, and
each value the search fixes is substituted, so every level of the search
runs in one variable fewer.  Each level computes its coordinate's
univariate eliminant once, as one reduced basis, and isolates its roots
from one remainder sequence, which holds the square-free part too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from . import intlinalg
from .cones import HomogeneousIdeal, generator_degrees
from .errors import DependentColumnsError, NoRationalPointError, Rejection
from .grading import GradingMap
from .groebner import binomial_basis
from .ideals import (
    IdealPresentation,
    eliminate,
    ideal_sum,
    is_proper_homogeneous,
    krull_dimension,
    leading_dimension,
    saturate,
    saturation_order,
)
from .orders import TermOrder
from .rings import ZERO, PolyRing, Polynomial, exact, exp_lower, exp_support, term_value


@dataclass(frozen=True)
class RationalPoint:
    ring: PolyRing
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(exact, self.coords)))
        if len(self.coords) != self.ring.nvars:
            raise ValueError("coordinate count does not match the ring")

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)

    def __repr__(self) -> str:
        from .session import format_rational

        return "(" + ", ".join(format_rational(c) for c in self.coords) + ")"


def point(ring: PolyRing, coords) -> RationalPoint:
    return RationalPoint(ring, tuple(coords))


@dataclass(frozen=True)
class OrbitInfo:
    point: RationalPoint
    support: tuple[int, ...]
    dimension: int
    columns: tuple[tuple[int, ...], ...]  # degree columns over the support


def orbit_dimension(p: RationalPoint, grading: GradingMap) -> OrbitInfo:
    """Dimension of the orbit through p: rank of the support's degree columns."""
    if p.ring != grading.ring:
        raise ValueError("point and grading live on different rings")
    support = p.support()
    cols = tuple(grading.columns[i] for i in support)
    return OrbitInfo(
        point=p,
        support=support,
        dimension=intlinalg.rank([list(c) for c in cols]),
        columns=cols,
    )


def torus_restriction(g: Polynomial, p: RationalPoint, degree) -> dict:
    """Coefficients of g(a_i t^{c_i}) as a map exponent-of-t -> value.

    a is p's coordinates, and degree(e) is the exponent of t that the
    monomial with exponent e carries: a degree vector for the orbit's
    parametrization, an integer for a curve.  Terms hitting a vanishing
    coordinate drop out.  Negative exponents are fine here (clearing
    denominators by a global t power would not change which values are
    zero).
    """
    out: dict = {}
    for e, c in g.terms.items():
        value = term_value(c, p.coords, e)
        if value == 0:
            continue
        d = degree(e)
        s = out.get(d, ZERO) + value
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def orbit_contained(p: RationalPoint, cone: HomogeneousIdeal) -> bool:
    """Whether the whole orbit of p lies on the cone.

    Substitutes the parametrization into every generator and tests the
    Laurent result for zero; because the generators are homogeneous this
    must agree with plain evaluation at p, and the agreement is asserted.
    """
    grading = cone.grading
    ok = True
    for g in cone.base.generators:
        by_substitution = not torus_restriction(g, p, grading.degree)
        by_evaluation = g.evaluate(p.coords) == 0
        if by_substitution != by_evaluation:
            raise ArithmeticError("parametrization and evaluation disagree on a generator")
        ok = ok and by_substitution
    return ok


def orbit_closure_ideal(p: RationalPoint, grading: GradingMap) -> HomogeneousIdeal:
    """The ideal of the closure of the orbit through p.

    With S the support of p, the closure is I_S + (x_j : j not in S), where
    I_S, the toric part, lives in the variables of S alone: binomials from
    an integer kernel basis of the support columns, saturated by the
    support coordinates (the lattice basis ideal saturated to the toric
    ideal: Eisenbud and Sturmfels, Duke Math. J. 84, 1996).  Generators are
    the reduced lex basis, normalized to content-free integer coefficients
    with a positive leading sign.

    Any basis of the kernel lattice will do: the ideal of a basis's
    binomials, saturated by the product of the variables, is the lattice
    ideal, which depends on the lattice alone, and its reduced lex basis is
    unique.  The basis only sets the cost of the saturations.  The Hermite
    basis is skewed (the o04 document of the benchmark's orbits pool has
    (0, 0, 10, 2, -12, -3)), and its binomials' high degrees swell the
    intermediate bases, so the kernel is LLL-reduced first
    (intlinalg.lll_reduced): short vectors give low-degree binomials.

    I_S is computed in the support's subring, under grading.restrict(S)
    and the positivity weights of S: lex and the saturation orders,
    restricted to monomials in S, are the same orders there, and reduced
    bases are unique, so its reduced lex basis lifted back (exponents
    scattered into the positions of S) is the full ring's.  Each vanishing
    x_j is coprime to every lead of I_S, so the reduced basis of the closure
    is the lifted basis with every x_j merged in by descending lex lead:
    x_j comes before a lead exactly when j precedes the lead's first
    variable.

    I_S is computed at the all-ones point, on exponent pairs.  With q the
    coordinates of p on S, the substitution x_i = q_i y_i maps a binomial
    q^b x^a - q^a x^b to q^(a+b) (y^a - y^b) and keeps every leading
    exponent, so I_S corresponds to the lattice ideal of pure binomials
    y^(u+) - y^(u-), and every Groebner computation on I_S to the same
    computation on pure binomials, step for step.  Pure binomials stay pure
    under S-polynomials and reduction (Eisenbud and Sturmfels, Prop. 1.1),
    so groebner.binomial_basis computes them from exponents alone, and
    each basis pair (a, b) maps back to q^b x^a - q^a x^b.

    Fewer saturations suffice.  A set N of support coordinates known to be
    nonzerodivisors modulo the current ideal K grows as K is saturated: the
    least coordinate x_i outside N is saturated, under
    ideals.saturation_order(weights, i), with the least exponent of x_i
    taken from both sides of every pair (Bayer and Stillman), and x_i joins
    N.  Then every pair (c, d) of the saturated basis, in both orientations,
    whose side d has all its variables in N puts every variable of c in N:
    x_j f in K for x_j dividing x^c gives x^c f in K, so x^d f in K and f in
    K.  The scan repeats until N stops growing, and the saturations stop
    once N covers the support.  Saturation keeps both the binomial and every
    nonzerodivisor, so at the end every support coordinate is a
    nonzerodivisor and K is the lattice ideal.  A lattice of rank 0 or 1
    needs no saturation and no Groebner run: a single binomial with
    disjoint sides has no monomial factor, so the ideal it generates is
    saturated, and oriented by lex it is its own reduced lex basis.

    I_S is verified from its lex basis: homogeneous generators, each
    vanishing along the parametrization, and Krull dimension, read from the
    leads, equal to the orbit dimension, which is the closure's dimension
    too.  The x_j are monic, of degree column j, and vanish at p.
    """
    if p.ring != grading.ring:
        raise ValueError("point and grading live on different rings")
    dots = grading.require_positive().dots
    ring = grading.ring
    support = p.support()
    local = grading.restrict(support)
    q = RationalPoint(local.ring, tuple(p.coords[i] for i in support))
    weights = tuple(dots[i] for i in support)
    matrix = [[column[t] for column in local.columns] for t in range(local.m)]
    lattice = intlinalg.lll_reduced(intlinalg.integer_kernel(matrix))
    pairs = [(tuple(max(k, 0) for k in u), tuple(max(-k, 0) for k in u)) for u in lattice]
    lex = TermOrder.lex()
    if len(lattice) <= 1:
        # one binomial with disjoint sides has no monomial factor, so (f) is
        # saturated, and f, oriented by lex, is its own reduced lex basis
        gb = tuple((a, b) if lex.key(a) > lex.key(b) else (b, a) for a, b in pairs)
    else:
        known: set[int] = set()  # N: support coordinates shown to be nonzerodivisors
        while unknown := set(range(len(support))) - known:
            i = min(unknown)
            basis, _ = binomial_basis(pairs, saturation_order(weights, i))
            pairs = []
            for a, b in basis:
                k = min(a[i], b[i])
                pairs.append((exp_lower(a, i, k), exp_lower(b, i, k)))
            known.add(i)
            # x^c - x^d in K with every variable of d known: so is every one of c
            sides = [tuple(map(exp_support, side)) for a, b in pairs for side in ((a, b), (b, a))]
            while grown := {j for c, d in sides if d <= known for j in c} - known:
                known |= grown
        gb, _ = binomial_basis(pairs, lex)
    leads = [a for a, _ in gb]
    # the orbit dimension, by rank-nullity from the full kernel of the support columns
    if leading_dimension(leads, len(support)) != len(support) - len(lattice):
        raise ArithmeticError("closure dimension disagrees with the orbit dimension")
    toric = IdealPresentation(
        local.ring, [lex.positive_leading(_scaled_back(q, a, b).scaled_primitive()) for a, b in gb]
    )
    for g in toric.generators:
        if torus_restriction(g, q, local.degree):
            raise ArithmeticError("closure generator does not vanish on the orbit")
    n = ring.nvars
    rows = []  # (first variable of the lead, generator, degree)
    for g, degree, lead in zip(toric.generators, generator_degrees(toric, local), leads):
        terms = {}
        for e, c in g.terms.items():
            lifted = [0] * n
            for i, k in zip(support, e):
                lifted[i] = k
            terms[tuple(lifted)] = c
        first = next(i for i, k in zip(support, lead) if k)
        rows.append((first, Polynomial(ring, terms), degree))
    kept = set(support)
    rows += [(j, ring.variable(j), grading.columns[j]) for j in range(n) if j not in kept]
    rows.sort(key=lambda row: row[0])
    return HomogeneousIdeal(
        base=IdealPresentation(ring, [g for _, g, _ in rows]),
        grading=grading,
        degrees=tuple(d for _, _, d in rows),
    )


def _scaled_back(q: RationalPoint, a, b) -> Polynomial:
    """q^b x^a - q^a x^b: the pure binomial x^a - x^b moved from the all-ones point to q."""
    qa, qb = (term_value(Fraction(1), q.coords, e) for e in (a, b))
    return q.ring.monomial(a, qb) - q.ring.monomial(b, qa)


@dataclass(frozen=True)
class CoordinateSubspaceUnion:
    """Maximal coordinate supports whose degree columns have rank <= bound."""

    bound: int
    components: tuple[tuple[int, ...], ...]


def low_orbit_stratum(grading: GradingMap, mu0: int) -> CoordinateSubspaceUnion:
    """All points whose orbit dimension is at most mu0, as a union of
    coordinate subspaces given by their maximal supports.

    Orbit dimension only depends on the support and grows with it, so the
    union is described by the maximal supports of column rank <= mu0.  If
    all columns together have rank <= mu0 that is the whole space.
    Otherwise every maximal support has rank exactly mu0 and is closed
    (adding any other coordinate raises the rank): the maximal supports are
    the rank-mu0 flats of the column matroid, each the closure of any mu0
    independent columns inside it.  The mu0-subsets are tried in
    lexicographic order, skipping those inside a flat already found.  Each
    subset tried costs one integer kernel of its columns, the annihilator:
    more than m - mu0 vectors mean dependent columns, which span a smaller
    flat, and otherwise column i lies in the flat exactly when every
    annihilator vector is orthogonal to it.  So at most C(n, mu0) kernels
    and C(n, mu0) * n dot products run, and one rank, of all the columns.
    For mu0 = 0 the one flat is the set of zero columns, which is the empty
    support (the origin alone) when there are none.
    """
    if mu0 < 0:
        raise Rejection("the orbit-dimension bound must be nonnegative")
    n = grading.ring.nvars
    if n > 20:
        raise Rejection("subset enumeration is limited to 20 variables")
    cols = grading.columns
    if intlinalg.rank(cols) <= mu0:
        return CoordinateSubspaceUnion(bound=mu0, components=(tuple(range(n)),))
    if not mu0:
        zero = tuple(i for i in range(n) if not any(cols[i]))
        return CoordinateSubspaceUnion(bound=0, components=(zero,))
    flats: list[tuple[int, ...]] = []
    for basis in combinations(range(n), mu0):
        if any(set(basis).issubset(flat) for flat in flats):
            continue
        annihilator = intlinalg.integer_kernel([cols[i] for i in basis])
        if len(annihilator) > grading.m - mu0:
            continue  # dependent columns span a smaller flat
        flats.append(
            tuple(i for i in range(n) if not any(sum(map(mul, u, cols[i])) for u in annihilator))
        )
    flats.sort(key=lambda s: (-len(s), s))
    return CoordinateSubspaceUnion(bound=mu0, components=tuple(flats))


def nonvanishing_coordinates(cone: HomogeneousIdeal) -> tuple[int, ...]:
    """Variables that do not vanish identically on the cone.

    When the coordinate point e_i lies on the cone, it witnesses that x_i
    does not vanish there, and no basis is needed.  It is read from the
    coefficients, without evaluating: e_i lies on the cone when, in every
    generator, the terms that are pure powers of x_i (or constants) have
    coefficients summing to zero.  Otherwise x_i vanishes identically
    exactly when a power of x_i lies in the ideal, that is when the
    saturation by x_i is the unit ideal.
    """
    weights = cone.grading.require_positive().dots
    return tuple(
        i
        for i in range(cone.ring.nvars)
        if _on_ones(cone, (i,)) or is_proper_homogeneous(saturate(cone.base, [i], weights))
    )


def max_orbit_dimension(cone: HomogeneousIdeal) -> int:
    """Largest orbit dimension over the points of the cone.

    Equals the rank of the degree columns of the coordinates that are not
    identically zero on the cone.
    """
    h = nonvanishing_coordinates(cone)
    return intlinalg.rank([list(cone.grading.columns[i]) for i in h])


# -- rational search for a one-dimensional orbit -----------------------------------


def find_one_dim_orbit(cone: HomogeneousIdeal) -> RationalPoint:
    """A rational point of the cone whose orbit is one-dimensional.

    Candidate supports of column rank one are tried in lexicographic order,
    maximal ones first, recursing into subsets.  The point with ones on the
    support is tried first, from the generators' coefficients.  Otherwise
    the search runs in the support's subring: the generators restricted to
    it (every other coordinate set to zero) are saturated by its variables,
    under the positivity weights of the support, and the coordinates are
    solved one at a time (`_assign`).  The point found is lifted back with
    zeros off the support.  If qualifying supports exist but none yields a
    rational point, the failure reports them instead of inventing an
    irrational one.
    """
    if krull_dimension(cone.base) < 1:
        raise Rejection("the cone is just the origin; no positive-dimensional orbit")
    grading = cone.grading
    ring = cone.ring
    weights = grading.require_positive().dots
    stratum = low_orbit_stratum(grading, 1)
    queue = sorted(s for s in stratum.components if s)
    seen = set(queue)
    unsolved: list[tuple[int, ...]] = []
    while queue:
        support = queue.pop(0)
        if _on_ones(cone, support):
            return _support_point(ring, support, (Fraction(1),) * len(support))
        local = ring.subring(support)
        images = [local.zero()] * ring.nvars
        for k, i in enumerate(support):
            images[i] = local.variable(k)
        restricted = [g.substitute(local, images) for g in cone.base.generators]
        system = IdealPresentation(local, restricted)
        saturated = saturate(system, range(len(support)), [weights[i] for i in support])
        if is_proper_homogeneous(saturated):
            values = _assign(system, saturated, ())
            if values is not None:
                return _support_point(ring, support, values)
            unsolved.append(support)
        for sub in combinations(support, len(support) - 1):
            if sub and sub not in seen:
                seen.add(sub)
                queue.append(sub)
        queue.sort()
    if unsolved:
        raise NoRationalPointError(
            "one-dimensional orbits exist but none has a rational representative "
            f"on supports {[tuple(ring.names[i] for i in s) for s in unsolved]}",
            supports=unsolved,
        )
    raise ArithmeticError("positive-dimensional cone without a qualifying support")


def _support_point(ring: PolyRing, support, values) -> RationalPoint:
    coords = [Fraction(0)] * ring.nvars
    for i, c in zip(support, values):
        coords[i] = c
    return RationalPoint(ring, tuple(coords))


def _vanishes_at_ones(g: Polynomial, support) -> bool:
    """Whether g vanishes at the point with ones on the support and zeros elsewhere.

    A term is 1 there when its variables all lie in the support, that is
    when its degree in them is its total degree, and 0 otherwise; so g
    vanishes exactly when the coefficients of those terms sum to zero.
    """
    return not sum(c for e, c in g.terms.items() if sum(e) == sum(e[i] for i in support))


def _on_ones(cone: HomogeneousIdeal, support) -> bool:
    """Whether the point with ones on the support and zeros elsewhere lies on the cone."""
    return all(_vanishes_at_ones(g, support) for g in cone.base.generators)


FREE_VALUE_CANDIDATES = tuple(
    Fraction(v) for v in (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2))
)


def _assign(system: IdealPresentation, pres: IdealPresentation, values: tuple) -> tuple | None:
    """Nonzero rational values that extend `values` to a zero of system, or None.

    system lives in the support's subring, and pres is its saturation with
    `values` substituted for the leading variables, so pres lives in the
    ring of the variables still to solve.  The first of them takes the
    nonzero rational roots of the monic generator of pres's univariate
    elimination ideal, the one element of `eliminate`'s reduced basis, or,
    when that ideal is zero, FREE_VALUE_CANDIDATES.
    When no generator of pres contains it, pres is a cylinder over its axis
    and every value leads to the same search, so only the first candidate
    is tried, which the search would have tried first anyway.  Each value
    is substituted into pres, and the next level runs in one variable
    fewer.  A full assignment is checked against system.
    """
    ring = pres.ring
    if not ring.nvars:
        return values if all(g.evaluate(values) == 0 for g in system.generators) else None
    if any(e[0] for g in pres.generators for e in g.terms):
        uni = eliminate(pres, range(1, ring.nvars)).generators
        roots = _nonzero_rational_roots(uni[0], 0) if uni else FREE_VALUE_CANDIDATES
    else:
        roots = FREE_VALUE_CANDIDATES[:1]
    rest = ring.subring(range(1, ring.nvars))
    images = [None] + [rest.variable(k) for k in range(rest.nvars)]
    for c in roots:
        images[0] = rest.constant(c)
        tighter = IdealPresentation(rest, [g.substitute(rest, images) for g in pres.generators])
        found = _assign(system, tighter, values + (c,))
        if found is not None:
            return found
    return None


def _nonzero_rational_roots(p: Polynomial, var: int) -> list[Fraction]:
    """Nonzero rational roots of a univariate polynomial, smallest first.

    The distinct real roots are isolated exactly, by a Sturm sequence and
    bisection, into intervals narrower than 1/(2 lead^2).  A rational root
    has a denominator dividing the lead coefficient, and two fractions with
    denominators at most |lead| lie at least 1/lead^2 apart, so the one
    candidate in an interval is the fraction of such a denominator nearest
    its midpoint, if that lies inside.  The work grows with the bit sizes of
    the coefficients, not with their values.

    One signed remainder sequence of (a, a') serves twice.  Its last element
    is gcd(a, a'), and every element divided by it (exactly, by its
    primitive part) gives a Sturm sequence of the square-free part of a,
    which has a's distinct roots, each simple (the generalized Sturm
    theorem: Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry,
    2006, section 2.2).  Without the division every element vanishes at a
    multiple root, so a bisection point landing on one reads no sign
    change there, and the bisection around it does not end.
    """
    coeffs: dict[int, Fraction] = {}
    for e, c in p.terms.items():
        coeffs[e[var]] = c
    shift = min(k for k, c in coeffs.items() if c != 0)
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [0] * (max(coeffs) - shift + 1)
    for k, c in coeffs.items():
        ints[k - shift] = int(c * den)
    if len(ints) == 1:
        return []
    lead = abs(ints[-1])
    seq = _sturm_sequence(ints)
    g = _primitive(seq[-1])
    sturm = [_exact_quotient(a, g) for a in seq]
    bound = 2 + max(abs(c) for c in ints[:-1]) // lead  # beyond every root
    roots = []
    # (lo, hi, e): the interval (lo/2^e, hi/2^e], holding at_lo - at_hi roots
    todo = [(-bound, bound, 0, _sign_changes(sturm, -bound, 1), _sign_changes(sturm, bound, 1))]
    while todo:
        lo, hi, e, at_lo, at_hi = todo.pop()
        if at_lo - at_hi == 1 and (hi - lo) * 2 * lead * lead < 1 << e:
            candidate = Fraction(lo + hi, 1 << (e + 1)).limit_denominator(lead)
            n, d = candidate.numerator, candidate.denominator
            if lo * d < n << e <= hi * d and _scaled_value(ints, n, d) == 0:
                roots.append(candidate)
        elif at_lo > at_hi:
            mid = lo + hi
            at_mid = _sign_changes(sturm, mid, 1 << (e + 1))
            todo += [(2 * lo, mid, e + 1, at_lo, at_mid), (mid, 2 * hi, e + 1, at_mid, at_hi)]
    return sorted(roots, key=lambda r: (abs(r), r < 0))


# Integer polynomials below are coefficient lists, lowest degree first.


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lead(b)^(deg a - deg b + 1) * a reduced modulo b, over the integers."""
    a = list(a)
    for _ in range(len(a) - len(b) + 1):
        f = a[-1]
        a = [b[-1] * c for c in a]
        for i, c in enumerate(b, len(a) - len(b)):
            a[i] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    g = gcd(*a)
    return [c // g for c in a]


def _derivative(a: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _exact_quotient(a: list[int], g: list[int]) -> list[int]:
    """a / g, for a primitive g that divides a over the rationals (exact by Gauss's lemma)."""
    q = [0] * (len(a) - len(g) + 1)
    a = list(a)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(g) - 1] // g[-1]
        for i, c in enumerate(g, k):
            a[i] -= q[k] * c
    return q


def _sturm_sequence(a: list[int]) -> list[list[int]]:
    """a, a' and the negated remainders, each up to a positive factor."""
    seq = [a, _derivative(a)]
    while True:
        prev, last = seq[-2], seq[-1]
        rest = _pseudo_remainder(prev, last)
        if not rest:
            return seq
        # rest is lead^k times the remainder; the sequence needs minus it
        if last[-1] > 0 or (len(prev) - len(last)) % 2:
            rest = [-c for c in rest]
        seq.append(_primitive(rest))


def _scaled_value(a: list[int], n: int, d: int) -> int:
    """d^deg * a(n/d) for d > 0: an integer with the sign of a(n/d)."""
    value, scale = a[-1], 1
    for c in reversed(a[:-1]):
        scale *= d
        value = value * n + c * scale
    return value


def _sign_changes(seq: list[list[int]], n: int, d: int) -> int:
    """Sign changes of the Sturm sequence at n/d, zeros skipped."""
    changes, last = 0, 0
    for a in seq:
        value = _scaled_value(a, n, d)
        if value:
            if last and (value > 0) != (last > 0):
                changes += 1
            last = value
    return changes


# -- cross-sections and curves -------------------------------------------------------


@dataclass(frozen=True)
class CrossSectionChart:
    """Slice y_i = 1 over a chosen independent set of coordinates.

    index_r counts, over the closure, how many points of a dense orbit the
    slice meets: the lattice index of the chosen columns inside the columns
    of all non-vanishing coordinates.  r = 1 means the chart meets each
    such orbit exactly once.
    """

    chosen: tuple[int, ...]
    index_r: int
    slice_ideal: IdealPresentation
    unique: bool


def cross_section(cone: HomogeneousIdeal, chosen) -> CrossSectionChart:
    ring = cone.ring
    chosen = tuple(sorted(set(chosen)))
    if any(not 0 <= i < ring.nvars for i in chosen):
        raise ValueError("chosen variable index out of range")
    h = nonvanishing_coordinates(cone)
    h_cols = [list(cone.grading.columns[i]) for i in h]
    mu = intlinalg.rank(h_cols)
    if len(chosen) != mu:
        raise Rejection(
            f"a cross-section needs exactly {mu} chosen coordinates, got {len(chosen)}"
        )
    if any(i not in h for i in chosen):
        raise Rejection("chosen coordinates must not vanish identically on the cone")
    # the chosen columns span a lattice of rank mu = len(chosen) exactly when independent
    r = intlinalg.lattice_index(h_cols, [list(cone.grading.columns[i]) for i in chosen])
    if r is None:
        raise DependentColumnsError("chosen degree columns are linearly dependent")
    assert r >= 1
    slice_gens = [ring.variable(i) - ring.one() for i in chosen]
    chart = ideal_sum(cone.base, IdealPresentation(ring, slice_gens))
    return CrossSectionChart(chosen=chosen, index_r=r, slice_ideal=chart, unique=r == 1)


@dataclass(frozen=True)
class RationalCurve:
    """t -> (a_i t^{c_i}) with every exponent positive.

    Passes through the origin at t = 0 and through the base point at t = 1.
    """

    point: RationalPoint
    exponents: tuple[int, ...]

    def at(self, t) -> RationalPoint:
        t = exact(t)
        return RationalPoint(
            self.point.ring,
            tuple(a * t**c for a, c in zip(self.point.coords, self.exponents)),
        )

    def degree(self, e) -> int:
        """The exponent of t that the monomial with exponent e carries on the curve."""
        return sum(ci * k for ci, k in zip(self.exponents, e))

    def stays_on(self, cone: HomogeneousIdeal) -> bool:
        return all(not torus_restriction(g, self.point, self.degree) for g in cone.base.generators)


def rational_curve_through(p: RationalPoint, grading: GradingMap) -> RationalCurve:
    """The witness curve from the origin to p given by a positivity witness.

    Exponents are the witness dots divided by their gcd.
    """
    if p.ring != grading.ring:
        raise ValueError("point and grading live on different rings")
    w = grading.require_positive("curves to the origin need a positive grading")
    g = gcd(*w.dots) if w.dots else 1
    exponents = tuple(d // g for d in w.dots)
    return RationalCurve(point=p, exponents=exponents)
