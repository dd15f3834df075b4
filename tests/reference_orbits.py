"""Orbit closures by full saturation and the full-ring orbit search, kept as references.

`orbits.orbit_closure_ideal` works in the ring of the support's variables,
on exponent pairs at the all-ones point.  It saturates only the support
coordinates that no binomial of an earlier saturated basis has shown to be
nonzerodivisors, runs no Groebner basis for a lattice of rank at most 1,
and checks the closure from its lex basis.  `orbits.nonvanishing_coordinates`
takes a coordinate point on the cone, read from coefficients, as a witness
instead of saturating.  The references below work in the full ring,
saturate by every support coordinate, validate the closure through
`homogeneous_ideal`, and saturate by every coordinate.
`orbits.find_one_dim_orbit` searches each support in the ring of its
variables and substitutes every value it fixes; the reference search adds
the vanishing coordinates and each fixed value x_i - c as generators and
eliminates in all the ring's variables.

`tests/test_orbits.py` runs `mismatches` on seeded documents: the closure
generators, in order, their degrees, and the tuples of non-vanishing
coordinates must agree.  It runs `one_dim_mismatches` too: the point found
on the document's cone, or the error's type and supports, must agree.  Both
run on small random documents (`random_document`) and on documents shaped
like the benchmark's orbits pool (`pool_document`), whose points vanish in
at least half of their coordinates.  Every Groebner run is capped at
PAIR_CAP pairs, so a document past the cap raises `ResourceLimitError`
instead of running on.  Run this file directly to do the same checks
without pytest:

    PYTHONPATH=src python3 tests/reference_orbits.py [count] [seed] [random|pool] [closure|one-dim]
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from gradedcones import intlinalg
from gradedcones.cones import HomogeneousIdeal, homogeneous_ideal
from gradedcones.errors import GradedConesError, NoRationalPointError, Rejection
from gradedcones.grading import GradingMap
from gradedcones.ideals import (
    IdealPresentation,
    eliminate,
    ideal_sum,
    is_proper_homogeneous,
    krull_dimension,
    saturate,
)
from gradedcones.orbits import (
    FREE_VALUE_CANDIDATES,
    RationalPoint,
    _nonzero_rational_roots,
    _on_ones,
    find_one_dim_orbit,
    low_orbit_stratum,
    nonvanishing_coordinates,
    orbit_closure_ideal,
    orbit_dimension,
    point,
    torus_restriction,
)
from gradedcones.orders import TermOrder
from gradedcones.rings import PolyRing, Polynomial

from helpers import exponents_up_to, random_homogeneous_generators
from reference_singular import pair_cap

PAIR_CAP = 5000  # Groebner pairs per run; the seeded documents need at most 3064


def reference_orbit_closure_ideal(p: RationalPoint, grading: GradingMap) -> HomogeneousIdeal:
    """The lattice basis ideal saturated by every support coordinate."""
    weights = grading.require_positive().dots
    ring = grading.ring
    info = orbit_dimension(p, grading)
    support = info.support
    gens: list[Polynomial] = []
    if support:
        rows = [[grading.columns[i][t] for i in support] for t in range(grading.m)]
        kernel = intlinalg.integer_kernel(rows)
        for u in kernel:
            plus = [0] * ring.nvars
            minus = [0] * ring.nvars
            aplus = Fraction(1)
            aminus = Fraction(1)
            for pos, i in enumerate(support):
                k = u[pos]
                if k > 0:
                    plus[i] = k
                    aplus *= p.coords[i] ** k
                elif k < 0:
                    minus[i] = -k
                    aminus *= p.coords[i] ** (-k)
            gens.append(
                ring.monomial(tuple(plus), aminus) - ring.monomial(tuple(minus), aplus)
            )
    pres = saturate(IdealPresentation(ring, gens), support, weights)
    off = [ring.variable(j) for j in range(ring.nvars) if j not in support]
    pres = ideal_sum(pres, IdealPresentation(ring, off))

    lex = TermOrder.lex()
    reduced = pres.groebner(lex)
    normalized = [lex.positive_leading(g.scaled_primitive()) for g in reduced.elements]
    closure = homogeneous_ideal(normalized, grading)

    for g in closure.base.generators:
        if torus_restriction(g, p, grading.degree):
            raise ArithmeticError("closure generator does not vanish on the orbit")
    if krull_dimension(closure.base) != info.dimension:
        raise ArithmeticError("closure dimension disagrees with the orbit dimension")
    return closure


def reference_nonvanishing_coordinates(cone: HomogeneousIdeal) -> tuple[int, ...]:
    """Variables whose saturation of the cone's ideal is proper."""
    weights = cone.grading.require_positive().dots
    return tuple(
        i
        for i in range(cone.ring.nvars)
        if is_proper_homogeneous(saturate(cone.base, [i], weights))
    )


def reference_find_one_dim_orbit(cone: HomogeneousIdeal) -> RationalPoint:
    """The search in the full ring: each support's system is the cone plus
    the vanishing coordinates, and each fixed value joins it as x_i - c."""
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
            return _support_point(ring, support)
        off = [ring.variable(j) for j in range(ring.nvars) if j not in support]
        restricted = ideal_sum(cone.base, IdealPresentation(ring, off))
        saturated = saturate(restricted, support, weights)
        if is_proper_homogeneous(saturated):
            found = _assign(cone, saturated, support, list(support), {})
            if found is not None:
                return found
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


def _support_point(ring: PolyRing, support, values: dict | None = None) -> RationalPoint:
    coords = [Fraction(0)] * ring.nvars
    for i in support:
        coords[i] = Fraction(1) if values is None else values[i]
    return RationalPoint(ring, tuple(coords))


def _on_cone(q: RationalPoint, cone: HomogeneousIdeal) -> bool:
    return all(g.evaluate(q.coords) == 0 for g in cone.base.generators)


def _assign(cone, pres, support, todo, values) -> RationalPoint | None:
    ring = cone.ring
    if not todo:
        candidate = _support_point(ring, support, values)
        return candidate if _on_cone(candidate, cone) else None
    i = todo[0]
    others = frozenset(k for k in range(ring.nvars) if k != i)
    uni = eliminate(pres, others)
    if uni.generators:
        roots = _nonzero_rational_roots(uni.generators[0], i)
    else:
        roots = list(FREE_VALUE_CANDIDATES)
    for c in roots:
        tighter = ideal_sum(pres, IdealPresentation(ring, [ring.variable(i) - ring.constant(c)]))
        found = _assign(cone, tighter, support, todo[1:], {**values, i: c})
        if found is not None:
            return found
    return None


# -- the comparison -------------------------------------------------------------


def random_document(rng: random.Random) -> tuple[GradingMap, RationalPoint, HomogeneousIdeal]:
    """A positive grading, a point and a cone in 2-7 variables.

    The grading has 1-3 rows: the first row's entries are 1-3, which makes
    it positive, and the other rows' are -2..2, so columns are often
    dependent in small ways.  Each coordinate of the point is zero with
    probability 1/4 and otherwise a small nonzero rational.  The cone holds
    one to three homogeneous generators of total degree at most 3, each one
    to three monomials of one degree, so both pure powers of a variable and
    binomials through a coordinate point occur.
    """
    n = rng.randint(2, 7)
    m = rng.randint(1, 3)
    ring = PolyRing(tuple(f"y{i}" for i in range(1, n + 1)))
    columns = [
        (rng.randint(1, 3),) + tuple(rng.randint(-2, 2) for _ in range(m - 1)) for _ in range(n)
    ]
    grading = GradingMap(ring, columns)
    coords = [0 if rng.randrange(4) == 0 else _rational(rng) for _ in range(n)]
    cone = homogeneous_ideal(random_homogeneous_generators(rng, grading, 3, 3), grading)
    return grading, point(ring, coords), cone


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


POOL_COORDINATES = tuple(Fraction(v) for v in (1, -1, 2, -2, "1/2", 3))


def pool_document(rng: random.Random) -> tuple[GradingMap, RationalPoint, HomogeneousIdeal]:
    """A document shaped like the benchmark's orbits pool, in 8-16 variables.

    The grading has 2-3 rows of entries 0..3, each column nonzero, so it is
    positive.  The point is zero in at least half of its coordinates, as
    the pool's points Q, R and S are, and its others are small rationals.
    The cone holds one or two binomials: a monomial of total degree 2 minus
    a multiple of another monomial of its degree and of total degree 2 or
    3, when there is one.
    """
    n = rng.randint(8, 16)
    m = rng.randint(2, 3)
    ring = PolyRing(tuple(f"y{i}" for i in range(1, n + 1)))
    columns = []
    for _ in range(n):
        column = [rng.randint(0, 3) for _ in range(m)]
        if not any(column):
            column[rng.randrange(m)] = 1
        columns.append(column)
    grading = GradingMap(ring, columns)
    quadrics = []
    by_degree: dict = {}
    for e in exponents_up_to(n, 3):
        if sum(e) >= 2:
            by_degree.setdefault(grading.degree(e), []).append(e)
            if sum(e) == 2:
                quadrics.append(e)
    generators = []
    for _ in range(rng.randint(1, 2)):
        a = rng.choice(quadrics)
        terms = {a: Fraction(1)}
        mates = [e for e in by_degree[grading.degree(a)] if e != a]
        if mates:
            terms[rng.choice(mates)] = -rng.choice(POOL_COORDINATES)
        generators.append(Polynomial(ring, terms))
    support = set(rng.sample(range(n), k=rng.randint(1, n // 2)))
    coords = [rng.choice(POOL_COORDINATES) if i in support else 0 for i in range(n)]
    return grading, point(ring, coords), homogeneous_ideal(generators, grading)


GENERATORS = {"random": random_document, "pool": pool_document}


def mismatches(count: int, seed: int, document=random_document) -> list[str]:
    """Descriptions of the seeded documents of the generator `document` on
    which a closure, its degrees or a coordinate tuple differs."""
    rng = random.Random(seed)
    bad = []
    with pair_cap(PAIR_CAP):
        for _ in range(count):
            grading, p, cone = document(rng)
            ours = orbit_closure_ideal(p, grading)
            theirs = reference_orbit_closure_ideal(p, grading)
            if (ours.base.generators, ours.degrees) != (theirs.base.generators, theirs.degrees):
                bad.append(f"closure of {p!r} under {grading.columns}: {ours!r} != {theirs!r}")
            # the closure is a cone as well, one whose coordinate points often miss it
            for c in (cone, theirs):
                here, there = nonvanishing_coordinates(c), reference_nonvanishing_coordinates(c)
                if here != there:
                    bad.append(f"{c!r} under {grading.columns}: {here} != {there}")
    return bad


def one_dim_outcome(search, cone: HomogeneousIdeal) -> str:
    """The point that search finds on the cone, or the error's type and supports."""
    try:
        return repr(search(cone))
    except GradedConesError as err:
        return f"{type(err).__name__} {getattr(err, 'supports', None)}"


def one_dim_mismatches(count: int, seed: int, document=random_document) -> list[str]:
    """Descriptions of the seeded documents of the generator `document` on
    whose cone the search and the full-ring search disagree."""
    rng = random.Random(seed)
    bad = []
    with pair_cap(PAIR_CAP):
        for _ in range(count):
            grading, _, cone = document(rng)
            ours = one_dim_outcome(find_one_dim_orbit, cone)
            theirs = one_dim_outcome(reference_find_one_dim_orbit, cone)
            if ours != theirs:
                bad.append(f"{cone!r} under {grading.columns}: {ours} != {theirs}")
    return bad


CHECKS = {"closure": mismatches, "one-dim": one_dim_mismatches}


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20090129
    generator = sys.argv[3] if len(sys.argv) > 3 else "random"
    check = sys.argv[4] if len(sys.argv) > 4 else "closure"
    bad = CHECKS[check](count, seed, GENERATORS[generator])
    print(f"{count} {generator} documents, seed {seed}, {check}: {len(bad)} mismatches")
    for line in bad[:10]:
        print(line)
    sys.exit(1 if bad else 0)
