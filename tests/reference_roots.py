"""Rational root isolation against sympy's, kept as a reference.

`orbits._nonzero_rational_roots` isolates the real roots of an integer
polynomial by a Sturm sequence and bisection and keeps the rational ones;
sympy's `Poly.ground_roots()` finds them by factoring.  The polynomials are
x^k times rational linear factors, some of them squared, times a random
integer polynomial (mostly without rational roots) and a rational scalar,
written in one variable of a two-variable ring.  Each isolation runs under
CASE_SECONDS of wall-clock time, and one past it counts as a mismatch, so
a search that loops fails the check instead of hanging it.
`tests/test_orbits.py` runs `mismatches` on a seeded stream.  Run this file
directly to do the same check without pytest:

    PYTHONPATH=src python3 tests/reference_roots.py [count] [seed]
"""

from __future__ import annotations

import random
from fractions import Fraction

from gradedcones.orbits import _nonzero_rational_roots
from gradedcones.rings import PolyRing, Polynomial

from helpers import random_rational, time_limit

RING = PolyRing(("x", "y"))
# seconds per isolation; the slowest of 10000 polynomials at seed 20090148
# takes about 10 ms on a 2-core x86-64 Xeon under Python 3.11
CASE_SECONDS = 1.0


def mismatches(count: int, seed: int) -> tuple[list[str], int]:
    """The polynomials whose nonzero rational roots differ from sympy's,
    and how many of the count polynomials had such a root."""
    import sympy

    t = sympy.Symbol("t")
    rng = random.Random(seed)
    bad = []
    with_roots = 0
    for _ in range(count):
        q = sympy.Poly(t ** rng.choice((0, 0, 1, 3)), t)
        for _ in range(rng.randint(0, 4)):
            linear = sympy.Poly(rng.randint(1, 15) * t - rng.randint(-40, 40), t)
            q *= linear ** rng.choice((1, 1, 2))
        lead = rng.choice((1, 1, rng.randint(2, 30)))
        q *= sympy.Poly([lead] + [rng.randint(-30, 30) for _ in range(rng.randint(0, 4))], t)
        scale = random_rational(rng, nonzero=True)
        var = rng.randrange(2)
        terms = {
            (k, 0) if var == 0 else (0, k): int(c) * scale
            for k, c in enumerate(reversed(q.all_coeffs()))
            if c
        }
        expected = sorted(
            (Fraction(int(r.p), int(r.q)) for r in q.ground_roots() if r),
            key=lambda r: (abs(r), r < 0),
        )
        try:
            with time_limit(CASE_SECONDS):
                ours = _nonzero_rational_roots(Polynomial(RING, terms), var)
        except TimeoutError as err:
            ours = err
        if ours != expected:
            bad.append(f"{q}: {ours} != {expected}")
        with_roots += bool(expected)
    return bad, with_roots


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20090126
    bad, with_roots = mismatches(count, seed)
    print(f"{count} polynomials, seed {seed}: {with_roots} with a rational root, {len(bad)} mismatches")
    for line in bad[:10]:
        print(line)
    sys.exit(1 if bad else 0)
