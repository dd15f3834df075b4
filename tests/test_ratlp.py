"""Rational feasibility: both engines agree and every answer is certified."""

import random
from fractions import Fraction

from gradedcones.ratlp import feasible_or_farkas, fourier_motzkin, phase_one_simplex


def check_answer(rows, rhs, nvars, answer):
    kind, data = answer
    if kind == "point":
        assert len(data) == nvars
        for r, b in zip(rows, rhs):
            assert sum(Fraction(c) * x for c, x in zip(r, data)) >= b
    else:
        assert kind == "farkas"
        assert len(data) == len(rows)
        assert all(m >= 0 for m in data)
        combo = [sum(m * Fraction(r[j]) for m, r in zip(data, rows)) for j in range(nvars)]
        assert all(c == 0 for c in combo)
        assert sum(m * Fraction(b) for m, b in zip(data, rhs)) > 0
    return kind


def test_feasible_golden():
    kind, x = feasible_or_farkas([[1, 0], [0, 1]], [1, 2], 2)
    assert kind == "point"
    assert x[0] >= 1 and x[1] >= 2


def test_infeasible_golden():
    # x >= 1 and -x >= 0 cannot both hold
    rows, rhs = [[1], [-1]], [1, 0]
    kind, m = feasible_or_farkas(rows, rhs, 1)
    assert kind == "farkas"
    check_answer(rows, rhs, 1, (kind, m))


def test_trivial_systems():
    kind, x = feasible_or_farkas([], [], 2)
    assert kind == "point" and x == (0, 0)
    # 0 . x >= 1 is already absurd
    kind, m = feasible_or_farkas([[0, 0]], [1], 2)
    assert kind == "farkas" and m[0] > 0


def test_shape_validation():
    try:
        feasible_or_farkas([[1, 2]], [0], 1)
    except ValueError:
        pass
    else:
        raise AssertionError("row width mismatch must be rejected")
    try:
        feasible_or_farkas([[1]], [], 1)
    except ValueError:
        pass
    else:
        raise AssertionError("rhs length mismatch must be rejected")


def test_engines_agree_and_certify():
    rng = random.Random(7301)
    verdicts = {"point": 0, "farkas": 0}
    for _ in range(120):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(nvars)] for _ in range(nrows)]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(nrows)]
        a = fourier_motzkin(rows, rhs, nvars)
        b = phase_one_simplex(rows, rhs, nvars)
        ka = check_answer(rows, rhs, nvars, a)
        kb = check_answer(rows, rhs, nvars, b)
        assert ka == kb
        verdicts[ka] += 1
    # the sample should exercise both branches
    assert verdicts["point"] > 10 and verdicts["farkas"] > 10


def test_rational_data_stays_exact():
    rows = [[Fraction(1, 3), Fraction(-1, 7)]]
    rhs = [Fraction(5, 21)]
    kind, x = feasible_or_farkas(rows, rhs, 2)
    assert kind == "point"
    assert rows[0][0] * x[0] + rows[0][1] * x[1] >= rhs[0]
