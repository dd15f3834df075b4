"""Krull dimensions of leading-term ideals by brute force, kept as a reference.

`ideals.leading_dimension` reads the Krull dimension from the leading
exponents of a Groebner basis: n minus a minimum hitting set of their
supports, searched class by class with a packing bound.  The reference
tries every variable set, largest first, and returns the size of the first
one that contains no leading term's support; on at most 10 variables that
is at most 1024 sets.  The seeded leads are random monomials (pure powers
included, so lone-variable supports occur), edge ideals of random graphs,
and disjoint unions of both.  `tests/test_ideals.py` runs `mismatches`;
run this file directly to do the same check without pytest:

    PYTHONPATH=src python3 tests/reference_dimension.py [count] [seed]
"""

from __future__ import annotations

import random
from itertools import combinations

from gradedcones.ideals import leading_dimension

MAX_VARS = 10


def reference_dimension(leads, n: int) -> int:
    """The most variables among which no lead's support lies."""
    supports = [{i for i, k in enumerate(e) if k} for e in leads]
    for size in range(n, -1, -1):
        for chosen in combinations(range(n), size):
            if not any(s <= set(chosen) for s in supports):
                return size
    raise ValueError("a constant lead: the unit ideal has no dimension")


def random_monomials(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Zero to eight nonconstant monomials of exponents 0 to 3, some of them pure powers."""
    leads = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.2:
            i = rng.randrange(n)
            leads.append(tuple(rng.randint(1, 3) if k == i else 0 for k in range(n)))
            continue
        density = rng.uniform(0.1, 0.6)
        e = [rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n)]
        if any(e):
            leads.append(tuple(e))
    return leads


def random_edges(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """The squarefree quadrics x_a x_b of a random graph on n vertices."""
    p = rng.uniform(0.1, 0.7)
    return [
        tuple(int(k in (a, b)) for k in range(n))
        for a, b in combinations(range(n), 2)
        if rng.random() < p
    ]


def random_leads(rng: random.Random) -> tuple[list[tuple[int, ...]], int]:
    """Leads on 1 to MAX_VARS variables: monomials, an edge ideal, or both on split variables."""
    n = rng.randint(1, MAX_VARS)
    kind = rng.choice(("monomials", "edges", "split"))
    if kind == "monomials":
        return random_monomials(rng, n), n
    if kind == "edges":
        return random_edges(rng, n), n
    m = rng.randint(0, n)
    left = [e + (0,) * (n - m) for e in random_edges(rng, m)]
    right = [(0,) * m + e for e in (random_monomials(rng, n - m) if n > m else [])]
    return left + right, n


def mismatches(count: int, seed: int) -> list[str]:
    """Descriptions of the lead sets on which the two dimensions disagree."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        leads, n = random_leads(rng)
        ours = leading_dimension(leads, n)
        theirs = reference_dimension(leads, n)
        if ours != theirs:
            bad.append(f"{n} variables, leads {leads}: {ours} != {theirs}")
    return bad


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20090149
    bad = mismatches(count, seed)
    print(f"{count} lead sets, seed {seed}: {len(bad)} mismatches")
    for line in bad[:10]:
        print(line)
    sys.exit(1 if bad else 0)
