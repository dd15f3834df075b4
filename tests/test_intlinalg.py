"""Exact integer matrix routines: HNF, rank, kernels, lattice indices."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest

from gradedcones.intlinalg import (
    hermite_normal_form,
    integer_kernel,
    lattice_index,
    lll_reduced,
    rank,
)

import reference_lattice


def mat_vec(rows, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)


def test_hnf_goldens():
    assert hermite_normal_form([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]
    assert hermite_normal_form([[0, 0], [0, 0]]) == []
    assert hermite_normal_form([[0, 3]]) == [[0, 3]]
    # above-pivot entries land in [0, pivot)
    h = hermite_normal_form([[1, 5], [0, 2]])
    assert h == [[1, 1], [0, 2]]


def test_hnf_is_a_lattice_invariant():
    rng = random.Random(4401)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        h = hermite_normal_form(rows)
        # shuffling rows or adding one row to another keeps the lattice
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert hermite_normal_form(shuffled) == h
        if len(rows) >= 2:
            bumped = [r[:] for r in rows]
            bumped[0] = [a + b for a, b in zip(bumped[0], bumped[1])]
            assert hermite_normal_form(bumped) == h


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0]]) == 0


def test_integer_kernel_golden():
    rows = [[1, 1, 0, 2], [2, 0, 1, 3]]
    basis = integer_kernel(rows)
    assert basis == [(1, 1, 1, -1), (0, 2, 3, -1)]
    # the Hermite form of the basis the column reduction gave
    assert [tuple(v) for v in hermite_normal_form([(1, -1, -2, 0), (2, 0, -1, -1)])] == basis
    for v in basis:
        assert mat_vec(rows, v) == (0, 0)


def test_integer_kernel_properties():
    rng = random.Random(4403)
    for _ in range(25):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        basis = integer_kernel(rows)
        assert len(basis) == ncols - rank(rows)
        for v in basis:
            assert mat_vec(rows, v) == (0,) * nrows
            lead = next(x for x in v if x) if any(v) else 0
            assert lead > 0 or not any(v)
        # basis vectors are independent
        if basis:
            assert rank([list(v) for v in basis]) == len(basis)


def test_integer_kernel_rejects_empty():
    try:
        integer_kernel([])
    except ValueError:
        pass
    else:
        raise AssertionError("empty matrix must be rejected")


def test_lattice_index_goldens():
    assert lattice_index([[1, 0], [0, 1]], [[1, 0], [0, 1]]) == 1
    assert lattice_index([[1, 0], [0, 1]], [[1, 0], [0, 2]]) == 2
    assert lattice_index([[1, 0], [0, 1]], [[2, 0], [0, 2]]) == 4
    assert lattice_index([[1, 0], [0, 1]], [[1, 0]]) is None
    assert lattice_index([], []) == 1


def test_lattice_index_not_contained():
    for full, sub in (
        ([[2, 0], [0, 2]], [[1, 0], [0, 2]]),
        # the elementary divisor ratio is the integer 2 here, yet (1, 0)
        # is not in the first lattice
        ([[2, 0], [0, 1]], [[1, 0], [0, 4]]),
    ):
        with pytest.raises(ValueError):
            lattice_index(full, sub)


def test_hermite_normal_form_detects_lattice_equality():
    a = [[1, 2], [3, 4]]
    b = [[4, 6], [1, 2]]  # row ops of a
    assert hermite_normal_form(a) == hermite_normal_form(b)
    c = [[2, 4], [6, 8]]
    assert hermite_normal_form(a) != hermite_normal_form(c)



# The eliminations the Hermite form replaced, kept as the reference: a column
# reduction carrying an identity block for the kernel, and Smith invariant
# factors for the index.


def _old_kernel(rows):
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0])
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

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
    out = [tuple(u[i][j] for i in range(ncols)) for j in range(lead, ncols)]
    assert all(m[i][j] == 0 for i in range(nrows) for j in range(lead, ncols))
    return out


def _smith_invariants(rows):
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    divisors = []
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
        # the pivot must divide every remaining entry for d1 | d2 | ...
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


def _old_index(full, sub):
    if rank(sub) != rank(full):
        return None
    ratio = Fraction(prod(_smith_invariants(sub)), prod(_smith_invariants(full)))
    if ratio.denominator != 1:
        raise ValueError("second lattice is not contained in the first")
    return int(ratio)


def _random_matrix(rng, ncols=None):
    """1-4 rows, 1-8 columns, entries -4..4, with zero and repeated columns."""
    nrows = rng.randint(1, 4)
    cols = []
    for _ in range(ncols or rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.15:
            cols.append([0] * nrows)
        elif roll < 0.3 and cols:
            cols.append(list(rng.choice(cols)))
        else:
            cols.append([rng.randint(-4, 4) for _ in range(nrows)])
    return [[col[t] for col in cols] for t in range(nrows)]


def _combinations(rng, rows):
    """Random integer combinations of the rows, at least as many as there are rows."""
    out = []
    for _ in range(rng.randint(len(rows), len(rows) + 2)):
        coeffs = [rng.randint(-3, 3) for _ in rows]
        out.append([sum(a * x for a, x in zip(coeffs, col)) for col in zip(*rows)])
    return out


def _primitive(v):
    g = gcd(*v)
    return [x // g for x in v] if g else v


def test_kernel_and_index_agree_with_the_old_eliminations():
    rng = random.Random(20090107)
    for _ in range(300):
        full = _random_matrix(rng)
        assert [tuple(v) for v in hermite_normal_form(_old_kernel(full))] == integer_kernel(full)
        inside = _combinations(rng, full)
        assert lattice_index(full, inside) == _old_index(full, inside), (full, inside)
        # vectors of the same rational span, often outside the lattice, and any vectors
        for sub in ([_primitive(v) for v in inside], _random_matrix(rng, len(full[0]))):
            if rank(sub) != rank(full):
                assert lattice_index(full, sub) is None
            elif hermite_normal_form(full + sub) != hermite_normal_form(full):
                with pytest.raises(ValueError):
                    lattice_index(full, sub)
            else:
                assert lattice_index(full, sub) == _old_index(full, sub), (full, sub)


def test_kernel_and_index_match_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def factors(rows):
        return [int(d) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if d]

    rng = random.Random(20090108)
    for _ in range(40):
        rows = _random_matrix(rng)
        ncols = len(rows[0])
        kernel = integer_kernel(rows)
        assert len(kernel) == ncols - sympy.Matrix(rows).rank()
        for v in kernel:
            assert mat_vec(rows, v) == (0,) * len(rows)
        # a primitive basis of vectors in ker M spans all of ker M meet Z^n
        if kernel:
            assert factors([list(v) for v in kernel]) == [1] * len(kernel)
        sub = _combinations(rng, rows)
        index = lattice_index(rows, sub)
        if index is not None:
            assert Fraction(prod(factors(sub)), prod(factors(rows))) == index


def test_hermite_normal_form_matches_sympy():
    # sympy picks other pivot conventions, so the entries may differ; the
    # forms must have the same rank and span the same row lattice
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    def spans(basis, vectors):
        """Every vector is an integer combination of the independent basis rows."""
        # [B^T | V^T] in reduced echelon form: V^T = B^T X needs no pivot
        # right of B's columns, and then X is the top block on the right
        augmented = sympy.Matrix(basis + vectors).T.to_DM().convert_to(sympy.QQ)
        echelon, pivots = augmented.rref()
        r = len(basis)
        coords = echelon.to_Matrix()[:r, r:]
        return pivots == tuple(range(r)) and all(c.is_integer for c in coords)

    rng = random.Random(20090129)
    for _ in range(300):
        rows = _random_matrix(rng)
        ours = hermite_normal_form(rows)
        # sympy's form spans the column lattice, so it is taken of M^T
        form = sympy_hnf(sympy.Matrix(rows).T).T
        theirs = [[int(x) for x in form.row(i)] for i in range(form.rows)]
        assert len(ours) == len(theirs) == sympy.Matrix(rows).rank(), rows
        if ours:
            assert spans(ours, theirs) and spans(theirs, ours), rows
            assert spans(ours, rows), rows


def test_lll_reduced_agrees_with_sympy():
    # random independent bases and Hermite kernel bases, row for row
    pytest.importorskip("sympy")
    assert reference_lattice.mismatches(300, seed=20090143) == []


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def test_lll_reduced_is_a_reduced_basis_of_the_same_lattice():
    rng = random.Random(20090144)
    for k in range(300):
        rows = (reference_lattice.random_basis if k % 2 else reference_lattice.kernel_basis)(rng)
        reduced = lll_reduced(rows)
        assert hermite_normal_form(reduced) == hermite_normal_form(rows), rows
        # Gram-Schmidt in Fractions: |mu| <= 1/2 below the diagonal, and
        # Lovasz's condition with delta = 3/4 between neighbours
        star, norms = [], []
        for i, b in enumerate(reduced):
            v = [Fraction(x) for x in b]
            for j, (s, norm) in enumerate(zip(star, norms)):
                mu = _dot(b, s) / norm
                assert abs(mu) <= Fraction(1, 2), rows
                v = [x - mu * y for x, y in zip(v, s)]
            star.append(v)
            norms.append(_dot(v, v))
            if i:
                mu = _dot(b, star[i - 1]) / norms[i - 1]
                assert norms[i] >= (Fraction(3, 4) - mu * mu) * norms[i - 1], rows
    assert lll_reduced([]) == []
    assert lll_reduced([[0, 3]]) == [(0, 3)]


def test_lll_reduced_rejects_dependent_rows():
    for rows in ([[0, 0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]], [[1], [2]]):
        with pytest.raises(ValueError):
            lll_reduced(rows)


def test_non_integer_entries_are_rejected_not_truncated():
    for rows in ([[1.0, 2]], [[1, Fraction(1, 2)]], [[1, 2], [3, 4.5]]):
        with pytest.raises(TypeError):
            hermite_normal_form(rows)
        with pytest.raises(TypeError):
            integer_kernel(rows)
    assert rank([[True, 2]]) == 1
