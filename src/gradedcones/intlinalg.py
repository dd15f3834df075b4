"""Exact integer matrix normal forms.

Everything here works on small dense matrices given as sequences of rows of
Python ints, with no modular arithmetic and no floating point.  The row
Hermite normal form is the only elimination: it gives the rank, a canonical
basis of the integer kernel (the Hermite form of [M^T | I], Cohen, *A Course
in Computational Algebraic Number Theory*, section 2.4) and lattice indices
(ratios of pivot products).
"""

from __future__ import annotations

import operator
from math import prod


def _copy(rows) -> list[list[int]]:
    return [list(map(operator.index, row)) for row in rows]


def hermite_normal_form(rows) -> list[list[int]]:
    """Row-style Hermite normal form; returns only the nonzero rows.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and pivot columns strictly increase, so the result is a canonical basis
    of the row lattice: two generating sets span the same lattice exactly
    when their forms agree.
    """
    m = _copy(rows)
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        # gcd-reduce column c below the current pivot row
        live = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not live:
            continue
        while True:
            live = [i for i in range(r, len(m)) if m[i][c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(m[i][c]))
            small = live[0]
            for i in live[1:]:
                q = m[i][c] // m[small][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[small])]
        idx = live[0]
        m[r], m[idx] = m[idx], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        # reduce the entries above the pivot
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r] if any(row)]


def rank(rows) -> int:
    return len(hermite_normal_form(rows))


def _pivot(row) -> int:
    return next(x for x in row if x)


def integer_kernel(rows) -> list[tuple[int, ...]]:
    """Hermite basis of {u in Z^n : M u = 0} for the matrix with the given rows.

    The rows of [M^T | I] span the lattice of all (M u, u); the rows of its
    Hermite form whose M^T part is zero span the kernel, and their identity
    parts are the kernel's own Hermite form.  So the basis is canonical and
    each vector's first nonzero entry is positive.
    """
    m = _copy(rows)
    if not m:
        raise ValueError("kernel of an empty matrix is ambiguous; pass rows")
    nrows, ncols = len(m), len(m[0])
    stacked = [
        [m[t][j] for t in range(nrows)] + [int(i == j) for i in range(ncols)] for j in range(ncols)
    ]
    return [tuple(row[nrows:]) for row in hermite_normal_form(stacked) if not any(row[:nrows])]


def lattice_index(full_vectors, sub_vectors) -> int | None:
    """Index of the sublattice spanned by sub_vectors inside span(full_vectors).

    Both arguments are sequences of integer vectors of a common length.
    Returns None when the index is infinite (ranks differ), and raises
    ValueError when the second lattice is not contained in the first.  Two
    lattices of equal rank, one inside the other, have Hermite forms with the
    same pivot columns, so the index is the ratio of their pivot products.
    """
    full = hermite_normal_form(full_vectors)
    sub = hermite_normal_form(sub_vectors)
    if len(sub) != len(full):
        return None
    if hermite_normal_form(full + sub) != full:
        raise ValueError("second lattice is not contained in the first")
    return prod(map(_pivot, sub)) // prod(map(_pivot, full))
