"""Seeded random generators shared by the test modules.

Callers pass their own random.Random so every test stays reproducible on
its own; nothing here touches global state.
"""

from fractions import Fraction

from gradedcones import (
    GradingMap,
    HomogeneousIdeal,
    IdealPresentation,
    PolyRing,
    Polynomial,
    PositivityWitness,
)
from gradedcones.ideals import is_proper_homogeneous


def random_rational(rng, lo=-4, hi=4, nonzero=False) -> Fraction:
    while True:
        v = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
        if v or not nonzero:
            return v


def random_positive_grading(rng, ring: PolyRing, m: int) -> GradingMap:
    """Rejection-sample small integer columns until a witness exists."""
    while True:
        cols = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(ring.nvars)]
        g = GradingMap(ring, cols)
        if isinstance(g.positivity(), PositivityWitness):
            return g


def exponents_up_to(nvars: int, total: int):
    """All exponent tuples with entry sum at most total, lexicographic."""
    if nvars == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in exponents_up_to(nvars - 1, total - first):
            yield (first,) + rest


def random_homogeneous_polynomial(rng, grading: GradingMap, max_degree: int) -> Polynomial:
    ring = grading.ring
    pool: dict = {}
    for e in exponents_up_to(ring.nvars, max_degree):
        if sum(e) == 0:
            continue  # constants would make the ideal improper
        pool.setdefault(grading.degree(e), []).append(e)
    degree = rng.choice(sorted(pool))
    exps = pool[degree]
    chosen = rng.sample(exps, k=min(len(exps), rng.randint(1, 3)))
    return Polynomial(ring, {e: random_rational(rng, nonzero=True) for e in chosen})


def random_homogeneous_generators(rng, grading: GradingMap, max_gens=3, max_degree=4):
    return tuple(
        random_homogeneous_polynomial(rng, grading, max_degree)
        for _ in range(rng.randint(1, max_gens))
    )


def torus_scaled(point_coords, t, grading: GradingMap):
    """Coordinates of the torus element t acting on the point."""
    out = []
    for i, a in enumerate(point_coords):
        v = Fraction(a)
        for k, tk in enumerate(t):
            e = grading.columns[i][k]
            if e:
                v *= Fraction(tk) ** e
        out.append(v)
    return tuple(out)


def stratum_cone(ideal: IdealPresentation, grading: GradingMap) -> HomogeneousIdeal:
    """A stratum ideal as a cone, without homogeneous_ideal's Groebner basis.

    Stratum equations are homogeneous for the head-minus-tail grading, and
    no equation is a constant, so the ideal is proper.
    """
    assert is_proper_homogeneous(ideal)
    degrees = tuple(grading.homogeneous_degree(g) for g in ideal.generators)
    return HomogeneousIdeal(base=ideal, grading=grading, degrees=degrees)


def rename(p: Polynomial, ring: PolyRing, where) -> Polynomial:
    """p carried into ring, variable i to position where[i].

    where[i] is None for a variable that must not occur in p.
    """
    return p.substitute(ring, [None if j is None else ring.variable(j) for j in where])


def sympy_expr(sympy, p: Polynomial, symbols):
    """p as a sympy expression in the given symbols, one per variable."""
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(v**k for v, k in zip(symbols, e)))
            for e, c in p.terms.items()
        )
    )
