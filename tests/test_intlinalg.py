"""Exact integer matrix routines: HNF, Smith invariants, kernels, lattice indices."""

import random

from gradedcones.intlinalg import (
    hermite_normal_form,
    integer_kernel,
    lattice_index,
    rank,
    smith_invariants,
)


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


def test_smith_invariants_goldens():
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariants([[2, 4], [4, 8]]) == [2]
    # divisibility chain d1 | d2 | ...
    rng = random.Random(4402)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        inv = smith_invariants(rows)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def test_integer_kernel_golden():
    rows = [[1, 1, 0, 2], [2, 0, 1, 3]]
    basis = integer_kernel(rows)
    assert basis == [(1, -1, -2, 0), (2, 0, -1, -1)]
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
    try:
        lattice_index([[2, 0], [0, 2]], [[1, 0], [0, 2]])
    except ValueError:
        pass
    else:
        raise AssertionError("non-sublattice must be rejected")


def test_hermite_normal_form_detects_lattice_equality():
    a = [[1, 2], [3, 4]]
    b = [[4, 6], [1, 2]]  # row ops of a
    assert hermite_normal_form(a) == hermite_normal_form(b)
    c = [[2, 4], [6, 8]]
    assert hermite_normal_form(a) != hermite_normal_form(c)
