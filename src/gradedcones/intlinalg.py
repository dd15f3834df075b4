"""Exact integer matrix normal forms.

Everything here works on small dense matrices given as sequences of rows of
Python ints, with no modular arithmetic and no floating point.  Provided:
row Hermite normal form (canonical lattice basis, rank), Smith invariant
factors (elementary divisors), integer kernels, and lattice index
computations through products of elementary divisors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _copy(rows) -> list[list[int]]:
    return [[int(x) for x in row] for row in rows]


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
    pivot_rows: list[list[int]] = []
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


def smith_invariants(rows) -> list[int]:
    """The elementary divisors d1 | d2 | ... (positive, nonzero ones only)."""
    m = _copy(rows)
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    divisors: list[int] = []
    top = 0
    while top < nrows and top < ncols:
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0:
                    if pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        dirty = False
        for i in range(top + 1, nrows):
            q = m[i][top] // m[top][top]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[top])]
            if m[i][top] != 0:
                dirty = True
        for j in range(top + 1, ncols):
            q = m[top][j] // m[top][top]
            if q:
                for row in m:
                    row[j] -= q * row[top]
            if m[top][j] != 0:
                dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry for d1 | d2 | ...
        fix = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j] % m[top][top] != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            m[top] = [x + y for x, y in zip(m[top], m[fix])]
            continue
        divisors.append(abs(m[top][top]))
        top += 1
    return divisors


def integer_kernel(rows) -> list[tuple[int, ...]]:
    """Basis of {u in Z^n : M u = 0} for the matrix with the given rows.

    Column-reduces M while carrying the same operations on an identity
    block; columns that end up zero in M give the kernel basis.  Each basis
    vector is normalized so its first nonzero entry is positive.
    """
    m = _copy(rows)
    if not m:
        raise ValueError("kernel of an empty matrix is ambiguous; pass rows")
    nrows, ncols = len(m), len(m[0])
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col(mat, j):
        return [mat[i][j] for i in range(len(mat))]

    def addmul_col(mat, dst, src, q):
        for i in range(len(mat)):
            mat[i][dst] -= q * mat[i][src]

    def swap_col(mat, a, b):
        for row in mat:
            row[a], row[b] = row[b], row[a]

    lead = 0
    for r in range(nrows):
        live = [j for j in range(lead, ncols) if m[r][j] != 0]
        if not live:
            continue
        while True:
            live = [j for j in range(lead, ncols) if m[r][j] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda j: abs(m[r][j]))
            small = live[0]
            for j in live[1:]:
                q = m[r][j] // m[r][small]
                addmul_col(m, j, small, q)
                addmul_col(u, j, small, q)
        j = live[0]
        if j != lead:
            swap_col(m, j, lead)
            swap_col(u, j, lead)
        lead += 1
        if lead == ncols:
            break
    out = []
    for j in range(lead, ncols):
        if all(m[i][j] == 0 for i in range(nrows)):
            v = tuple(u[i][j] for i in range(ncols))
            first = next((x for x in v if x != 0), 0)
            if first < 0:
                v = tuple(-x for x in v)
            out.append(v)
    # columns past `lead` are zero by construction; double check
    assert len(out) == ncols - lead
    return out


def lattice_index(full_vectors, sub_vectors) -> int | None:
    """Index of the sublattice spanned by sub_vectors inside span(full_vectors).

    Both arguments are sequences of integer vectors of a common length.
    Returns None when the index is infinite (ranks differ).  The finite
    index is the ratio of the products of elementary divisors, which is an
    integer whenever the second lattice really sits inside the first.
    """
    full = [list(v) for v in full_vectors]
    sub = [list(v) for v in sub_vectors]
    r_full = rank(full)
    r_sub = rank(sub) if sub else 0
    if r_sub != r_full:
        return None
    if r_full == 0:
        return 1
    p_full = 1
    for d in smith_invariants(full):
        p_full *= d
    p_sub = 1
    for d in smith_invariants(sub):
        p_sub *= d
    ratio = Fraction(p_sub, p_full)
    if ratio.denominator != 1:
        raise ValueError("second lattice is not contained in the first")
    return int(ratio)
