"""LLL reduction against sympy's, kept as a reference.

`intlinalg.lll_reduced` is Cohen's integral LLL with delta = 3/4, in
integers; sympy's `DomainMatrix.lll()` is the rational-arithmetic LLL with
the same delta, the same rounding (the nearest integer, halves up) and the
same order of size reductions and swaps.  Both are deterministic, so they
must return the same basis, row for row.  `tests/test_intlinalg.py` runs
`mismatches` on seeded bases: random independent rows (`random_basis`) and
Hermite kernel bases of random column sets (`kernel_basis`), as orbit
closures reduce them.  Run this file directly to do the same check without
pytest:

    PYTHONPATH=src python3 tests/reference_lattice.py [count] [seed]
"""

from __future__ import annotations

import random

from gradedcones.intlinalg import integer_kernel, lll_reduced, rank


def random_basis(rng: random.Random) -> list[list[int]]:
    """1-6 independent rows of 1-10 entries in -30..30."""
    ncols = rng.randint(1, 10)
    nrows = rng.randint(1, min(6, ncols))
    while True:
        rows = [[rng.randint(-30, 30) for _ in range(ncols)] for _ in range(nrows)]
        if rank(rows) == nrows:
            return rows


def kernel_basis(rng: random.Random) -> list[list[int]]:
    """The Hermite kernel basis of 2-10 columns of 1-4 rows, entries 0..3, never empty."""
    while True:
        m = rng.randint(1, 4)
        columns = [[rng.randint(0, 3) for _ in range(m)] for _ in range(rng.randint(2, 10))]
        kernel = integer_kernel([[c[t] for c in columns] for t in range(m)])
        if kernel:
            return [list(u) for u in kernel]


def sympy_lll(rows) -> list[tuple[int, ...]]:
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    reduced = DomainMatrix(rows, (len(rows), len(rows[0])), ZZ).lll()
    return [tuple(int(x) for x in row) for row in reduced.to_list()]


def mismatches(count: int, seed: int) -> list[str]:
    """Bases, random and kernel ones alternately, on which the two reductions differ."""
    rng = random.Random(seed)
    bad = []
    for k in range(count):
        rows = (random_basis if k % 2 == 0 else kernel_basis)(rng)
        ours, theirs = lll_reduced(rows), sympy_lll(rows)
        if ours != theirs:
            bad.append(f"{rows}: {ours} != {theirs}")
    return bad


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20090143
    bad = mismatches(count, seed)
    print(f"{count} bases, seed {seed}: {len(bad)} mismatches")
    for line in bad[:10]:
        print(line)
    sys.exit(1 if bad else 0)
