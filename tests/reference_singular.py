"""The cofactor-expansion Jacobian minors that cones.py replaced, kept as a reference.

The reference expands each c x c minor of the Jacobian by recursive
cofactor expansion along its first row, c! products per minor, for every
row selection and every column selection in `combinations` order, with a
separate branch for the zero ideal (c = 0).  `tests/test_cones.py` runs
`mismatches` on seeded random cones: the generator tuples of
`singular_locus(...).presentation` must agree, order included.  Every
Groebner run is capped at PAIR_CAP pairs, so a cone past the cap raises
`ResourceLimitError` instead of running on.  Run this file directly to do
the same check without pytest:

    PYTHONPATH=src python3 tests/reference_singular.py [count] [seed]
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from gradedcones.cones import HomogeneousIdeal, homogeneous_ideal, singular_locus
from gradedcones.grading import GradingMap
from gradedcones.groebner import PAIR_LIMIT_ENV
from gradedcones.ideals import IdealPresentation, krull_dimension
from gradedcones.rings import PolyRing, Polynomial

from helpers import exponents_up_to

PAIR_CAP = 500  # Groebner pairs per run; the seeded cones need far fewer


def reference_poly_det(matrix) -> Polynomial:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    ring = matrix[0][0].ring
    acc = ring.zero()
    for j in range(size):
        sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * reference_poly_det(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def reference_singular_generators(cone: HomogeneousIdeal) -> tuple[Polynomial, ...]:
    """The cone's generators and every c x c Jacobian minor, zeros dropped."""
    ring = cone.ring
    n = ring.nvars
    gens = cone.base.generators
    c = n - krull_dimension(cone.base)
    jac = [[g.partial(i) for i in range(n)] for g in gens]
    minors: list[Polynomial] = []
    if c == 0:
        minors.append(ring.one())
    else:
        for rows_sel in combinations(range(len(gens)), c):
            for cols_sel in combinations(range(n), c):
                minors.append(
                    reference_poly_det([[jac[r][cc] for cc in cols_sel] for r in rows_sel])
                )
    return IdealPresentation(ring, tuple(gens) + tuple(minors)).generators


# -- the comparison -------------------------------------------------------------


def random_cone(rng: random.Random) -> HomogeneousIdeal:
    """A cone in 2-5 variables of weights 1-3 with 0-4 generators.

    Each generator takes a weighted degree from 2 to 4 that some monomial
    has and holds one to three monomials of that degree.  A variable of
    weight 2 or 3 gives generators with a linear term, so constant and zero
    Jacobian entries both occur; no generator at all is the zero ideal.
    """
    n = rng.randint(2, 5)
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    grading = GradingMap(ring, [(rng.randint(1, 3),) for _ in range(n)])
    by_degree: dict = {}
    for e in exponents_up_to(n, 4):
        if any(e):
            by_degree.setdefault(grading.degree(e)[0], []).append(e)
    degrees = [d for d in (2, 3, 4) if d in by_degree]
    gens = []
    for _ in range(rng.randint(0, 4)):
        exps = by_degree[rng.choice(degrees)]
        chosen = rng.sample(exps, k=min(len(exps), rng.randint(1, 3)))
        gens.append(Polynomial(ring, {e: _rational(rng) for e in chosen}))
    return homogeneous_ideal(gens, grading)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


@contextmanager
def pair_cap(cap: int):
    """Cap every Groebner run inside the block at cap pairs."""
    before = os.environ.get(PAIR_LIMIT_ENV)
    os.environ[PAIR_LIMIT_ENV] = str(cap)
    try:
        yield
    finally:
        if before is None:
            del os.environ[PAIR_LIMIT_ENV]
        else:
            os.environ[PAIR_LIMIT_ENV] = before


def mismatches(count: int, seed: int) -> list[str]:
    """Descriptions of the cones on which the two loci disagree."""
    rng = random.Random(seed)
    bad = []
    with pair_cap(PAIR_CAP):
        for _ in range(count):
            cone = random_cone(rng)
            ours = singular_locus(cone).presentation.generators
            theirs = reference_singular_generators(cone)
            if ours != theirs:
                bad.append(f"{cone!r}: {ours} != {theirs}")
    return bad


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20090125
    bad = mismatches(count, seed)
    print(f"{count} cones, seed {seed}: {len(bad)} mismatches")
    for line in bad[:10]:
        print(line)
    sys.exit(1 if bad else 0)
