"""Exact integer matrix normal forms.

Everything here works on small dense matrices given as sequences of rows of
Python ints, with no modular arithmetic and no floating point.  The row
Hermite normal form is the only elimination: it gives the rank, a canonical
basis of the integer kernel (the Hermite form of [M^T | I], Cohen, *A Course
in Computational Algebraic Number Theory*, section 2.4) and lattice indices
(ratios of pivot products).  The LLL reduction is the only reduction: it
turns a basis of a lattice into one of short, nearly orthogonal vectors
(Cohen, section 2.6), as orbit closures want their lattice binomials.
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


def lll_reduced(rows) -> list[tuple[int, ...]]:
    """An LLL-reduced basis, with delta = 3/4, of the lattice the independent rows span.

    Cohen's integral LLL (Algorithm 2.6.7): the Gram-Schmidt data are kept
    as integers, d[l + 1] the Gram determinant of the first l + 1 rows and
    lam[k][l] = d[l + 1] mu[k][l], every division exact, so the reduction
    runs in polynomial time with no fraction.  Row k is size-reduced
    against row k - 1 (an integer multiple, the nearest to mu[k][k - 1], is
    subtracted when |mu| > 1/2), swapped with it while Lovasz's condition
    B_k >= (3/4 - mu^2) B_{k-1} fails, B_k = d[k + 1] / d[k] the squared
    length of row k's Gram-Schmidt vector, and otherwise size-reduced
    against the rows before, nearest first.  Raises ValueError on
    dependent rows.
    """
    b = _copy(rows)
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):  # the Gram-Schmidt data of the rows as given
        for j in range(k + 1):
            u = sum(map(operator.mul, b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u:
                d[k + 1] = u
            else:
                raise ValueError("LLL reduction needs independent rows")

    def reduce(k: int, l: int) -> None:
        # row k minus the multiple of row l nearest to mu[k][l], if |mu| > 1/2
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        reduce(k, k - 1)
        nu = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * nu * nu:
            # swap rows k - 1 and k; lam[k][k - 1] stays
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            dk = (d[k - 1] * d[k + 1] + nu * nu) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - nu * t) // d[k]
                lam[i][k - 1] = (dk * t + nu * lam[i][k]) // d[k + 1]
            d[k] = dk
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return [tuple(row) for row in b]
