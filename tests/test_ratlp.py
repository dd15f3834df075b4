"""The positivity LP: both engines agree, every answer is certified, and
both reproduce the general rational engines they replaced exactly."""

import random
from fractions import Fraction
from math import gcd, lcm

from gradedcones.grading import (
    GradingMap,
    NonPositivityCertificate,
    PositivityWitness,
    positivity_witness,
)
from gradedcones.ratlp import (
    FM_VARIABLE_LIMIT,
    feasible_or_farkas,
    fourier_motzkin,
    phase_one_simplex,
)
from gradedcones.rings import PolyRing


def check_answer(columns, nvars, answer):
    """Certify a point (omega . c >= 1 for every column) or a Farkas certificate."""
    kind, data = answer
    assert not any(isinstance(v, float) for v in data)
    if kind == "point":
        assert len(data) == nvars
        for c in columns:
            assert sum(x * v for x, v in zip(c, data)) >= 1
    else:
        assert kind == "farkas"
        assert len(data) == len(columns)
        assert all(m >= 0 for m in data)
        combo = [sum(m * c[j] for m, c in zip(data, columns)) for j in range(nvars)]
        assert all(v == 0 for v in combo)
        assert sum(data) > 0
    return kind


def test_feasible_golden():
    kind, x = feasible_or_farkas([[1, 0], [0, 1]], 2)
    assert kind == "point"
    assert x[0] >= 1 and x[1] >= 1


def test_infeasible_golden():
    # x >= 1 and -x >= 1 cannot both hold
    columns = [[1], [-1]]
    kind, m = feasible_or_farkas(columns, 1)
    assert kind == "farkas"
    check_answer(columns, 1, (kind, m))


def test_trivial_systems():
    kind, x = feasible_or_farkas([], 2)
    assert kind == "point" and x == (0, 0)
    # 0 . x >= 1 is already absurd
    kind, m = feasible_or_farkas([[0, 0]], 2)
    assert kind == "farkas" and m[0] > 0


def test_engines_agree_and_certify():
    rng = random.Random(7301)
    verdicts = {"point": 0, "farkas": 0}
    for _ in range(120):
        nvars = rng.randint(1, 4)
        columns = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(1, 6))]
        a = fourier_motzkin(columns, nvars)
        b = phase_one_simplex(columns, nvars)
        ka = check_answer(columns, nvars, a)
        kb = check_answer(columns, nvars, b)
        assert ka == kb
        verdicts[ka] += 1
    # the sample should exercise both branches
    assert verdicts["point"] > 10 and verdicts["farkas"] > 10


# -- the general engines, taking any rational rows and right-hand sides, as
# they stood before the LP was narrowed to the positivity system; they are
# the reference the differential test below compares against.


def _exact_system(rows, rhs, nvars):
    rows = [tuple(Fraction(v) for v in r) for r in rows]
    rhs = [Fraction(v) for v in rhs]
    if any(len(r) != nvars for r in rows) or len(rows) != len(rhs):
        raise ValueError("inconsistent system shape")
    return rows, rhs


def reference_fourier_motzkin(rows, rhs, nvars):
    rows, rhs = _exact_system(rows, rhs, nvars)
    n = len(rows)

    def unit(i):
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))

    system = [(rows[i], rhs[i], unit(i)) for i in range(n)]
    stack = []
    for j in range(nvars - 1, -1, -1):
        stack.append((j, system))
        pos = [c for c in system if c[0][j] > 0]
        neg = [c for c in system if c[0][j] < 0]
        zero = [c for c in system if c[0][j] == 0]
        new = list(zero)
        for a_p, b_p, m_p in pos:
            for a_n, b_n, m_n in neg:
                cp, cn = a_p[j], -a_n[j]
                coeffs = tuple(cn * x + cp * y for x, y in zip(a_p, a_n))
                b = cn * b_p + cp * b_n
                mult = tuple(cn * x + cp * y for x, y in zip(m_p, m_n))
                new.append((coeffs, b, mult))
        system = new
    for coeffs, b, mult in system:
        if b > 0:
            return ("farkas", mult)
    point = [Fraction(0)] * nvars
    for j, sys_j in reversed(stack):
        lowers, uppers = [], []
        for coeffs, b, _ in sys_j:
            rest = b - sum(coeffs[k] * point[k] for k in range(nvars) if k != j)
            if coeffs[j] > 0:
                lowers.append(rest / coeffs[j])
            elif coeffs[j] < 0:
                uppers.append(rest / coeffs[j])
        if lowers:
            point[j] = max(lowers)
        elif uppers:
            point[j] = min(min(uppers), Fraction(0))
        else:
            point[j] = Fraction(0)
    return ("point", tuple(point))


def reference_phase_one_simplex(rows, rhs, nvars):
    rows, rhs = _exact_system(rows, rhs, nvars)
    n = len(rows)
    if n == 0:
        return ("point", tuple(Fraction(0) for _ in range(nvars)))
    sign = [1 if b >= 0 else -1 for b in rhs]
    a_rows = [tuple(sign[i] * v for v in rows[i]) for i in range(n)]
    b_col = [sign[i] * rhs[i] for i in range(n)]
    ncols = 2 * nvars + 2 * n

    def column(i, j):
        if j < nvars:
            return a_rows[i][j]
        if j < 2 * nvars:
            return -a_rows[i][j - nvars]
        if j < 2 * nvars + n:
            return -sign[i] * Fraction(j - 2 * nvars == i)
        return Fraction(j - (2 * nvars + n) == i)

    tableau = [[column(i, j) for j in range(ncols)] + [b_col[i]] for i in range(n)]
    basis = [2 * nvars + n + i for i in range(n)]
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        s = sum(tableau[i][j] for i in range(n))
        obj[j] = (Fraction(1) if j >= 2 * nvars + n else Fraction(0)) - s
    obj[ncols] = -sum(row[ncols] for row in tableau)
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        pivot_i = None
        best = None
        for i in range(n):
            if tableau[i][enter] > 0:
                ratio = tableau[i][ncols] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_i]):
                    best = ratio
                    pivot_i = i
        if pivot_i is None:
            raise ArithmeticError("unbounded phase-one simplex")
        piv = tableau[pivot_i][enter]
        tableau[pivot_i] = [v / piv for v in tableau[pivot_i]]
        for i in range(n):
            if i != pivot_i and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [v - f * w for v, w in zip(tableau[i], tableau[pivot_i])]
        if obj[enter] != 0:
            f = obj[enter]
            for j in range(ncols + 1):
                obj[j] -= f * tableau[pivot_i][j]
        basis[pivot_i] = enter
    optimum = -obj[ncols]
    if optimum == 0:
        xs = [Fraction(0)] * nvars
        for i, b in enumerate(basis):
            if b < nvars:
                xs[b] += tableau[i][ncols]
            elif b < 2 * nvars:
                xs[b - nvars] -= tableau[i][ncols]
        return ("point", tuple(xs))
    mult = []
    for i in range(n):
        y = Fraction(1) - obj[2 * nvars + n + i]
        mult.append(sign[i] * y)
    if any(m < 0 for m in mult) or all(m == 0 for m in mult):
        raise ArithmeticError("simplex produced an invalid certificate")
    return ("farkas", tuple(mult))


def reference_positivity(columns, m, answer):
    """positivity_witness's scaling applied to a reference engine's answer."""
    if not columns:
        return PositivityWitness(omega=(0,) * m, dots=())
    status, data = answer
    den = lcm(*[v.denominator for v in data]) if data else 1
    scaled = [int(v * den) for v in data]
    if status == "point":
        omega = tuple(scaled)
        return PositivityWitness(
            omega=omega, dots=tuple(sum(w * x for w, x in zip(omega, c)) for c in columns)
        )
    g = gcd(*scaled)
    return NonPositivityCertificate(alpha=tuple(a // g for a in scaled))


def _column_sets(seed, count):
    """Integer column sets with zero, repeated and opposite columns mixed in,
    m from 0 to 5 and n from 0 to 12."""
    rng = random.Random(seed)
    for k in range(count):
        m = k % 6
        n = rng.randint(0, 12 if m <= 2 else 8)
        cols = []
        while len(cols) < n:
            roll = rng.random()
            if cols and roll < 0.15:
                cols.append(rng.choice(cols))  # repeated
            elif cols and roll < 0.25:
                cols.append(tuple(-x for x in rng.choice(cols)))  # opposite
            elif roll < 0.3:
                cols.append((0,) * m)  # zero
            elif roll < 0.65:
                cols.append(tuple(rng.randint(0, 3) for _ in range(m)))  # positive orthant
            else:
                cols.append(tuple(rng.randint(-3, 3) for _ in range(m)))
        yield cols, m


# systems whose answer depends on Bland's rule breaking equal ratios by the
# least basis index rather than by the first row
TIE_CASES = (
    ([(0, 2, -2, 0), (0, 0, 2, 2), (1, 2, 1, 2)], 4),
    ([(-3, -3, 1, -1, 3), (2, 2, 2, 0, 3), (0, 2, -2, 1, -2)], 5),
    ([(2, -2, -1, 2, 3), (3, 2, 2, 2, 1), (-1, -1, 2, 1, -1)], 5),
    ([(-3, 0), (-1, 0), (2, -1), (1, 3), (2, 3), (2, 3)], 2),
)


def _exact(got, want):
    """Kind and data equal, entry by entry, and no float anywhere."""
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    assert all(isinstance(v, (int, Fraction)) for v in got[1])
    assert all(a == b for a, b in zip(got[1], want[1]))


def test_engines_reproduce_the_general_engines_exactly():
    verdicts = {"point": 0, "farkas": 0}
    for cols, m in TIE_CASES + tuple(_column_sets(20090124, 300)):
        rows = [tuple(Fraction(x) for x in c) for c in cols]
        rhs = [Fraction(1)] * len(cols)
        simplex = phase_one_simplex(cols, m)
        reference = reference_phase_one_simplex(rows, rhs, m)
        _exact(simplex, reference)
        check_answer(cols, m, simplex)
        if m <= FM_VARIABLE_LIMIT:
            elimination = fourier_motzkin(cols, m)
            reference = reference_fourier_motzkin(rows, rhs, m)
            _exact(elimination, reference)
            check_answer(cols, m, elimination)
        verdicts[simplex[0]] += 1

        ring = PolyRing(tuple(f"v{i}" for i in range(len(cols))))
        got = positivity_witness(GradingMap(ring, cols, ambient_dim=m))
        assert got == reference_positivity(cols, m, reference)
        assert all(type(v) is int for v in getattr(got, "omega", ()) + getattr(got, "alpha", ()))
    assert verdicts["point"] > 60 and verdicts["farkas"] > 60


# m from 4 to 6 and n = 9: systems on which breaking equal ratios by the
# first row instead of the least basis index changes the answer
SIMPLEX_TIE_CASES = (
    ([(0, 0, 2, 0, 1, 1)] * 3 + [(0, 0, 0, 2, 0, 2), (2, 0, 2, 1, 1, 0), (1, 2, 0, 0, 2, 0)]
     + [(0, 0, 2, 0, 1, 1)] * 3, 6),
    ([(1, 1, 0, 0), (1, 0, 1, 2), (2, 2, 0, 1), (0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 1, 0),
      (1, 1, 0, 1), (0, 2, 2, 2), (1, 0, 0, 0)], 4),
    ([(2, 1, 2, -1), (0, 0, -1, 0), (0, 0, 1, 0), (1, -1, 0, 2), (-1, 0, 1, 2), (0, -1, 0, 0),
      (0, 1, -1, -1), (0, -1, 0, 2), (0, -1, 0, 0)], 4),
    ([(0, 2, 1, -1, 1), (0, 2, 0, 0, -1), (0, 2, 0, 0, -1), (2, 0, 0, 2, 0), (0, 1, 0, 1, 0),
      (1, 0, 0, 0, 0), (2, 2, 2, 0, 0), (0, -1, 0, 0, 0), (0, 1, 0, 0, 2)], 5),
)


def _simplex_sets(seed, count):
    """Column sets only the simplex sees: m from 4 to 6, n from 9 to 24.

    Odd sets mix signs and add zero and opposite columns, so most are
    infeasible; even sets lie in the positive orthant, so most are feasible.
    Repeated columns give the equal ratios Bland's rule breaks by the least
    basis index.  One pair of sets in four draws n up to 24; the rest keep n
    to 12, since the Fraction reference takes about 20 ms a system at n = 9
    and ten times that at n = 24.
    """
    rng = random.Random(seed)
    for k in range(count):
        m = 4 + k % 3
        n = rng.randint(9, 24) if (k // 2) % 4 == 0 else rng.randint(9, 12)
        mixed = k % 2
        cols = []
        while len(cols) < n:
            roll = rng.random()
            if cols and roll < 0.25:
                cols.append(rng.choice(cols))  # repeated
            elif mixed and cols and roll < 0.3:
                cols.append(tuple(-x for x in rng.choice(cols)))  # opposite
            elif mixed and roll < 0.33:
                cols.append((0,) * m)  # zero
            else:
                c = tuple(rng.randint(-mixed, 2) if rng.random() < 0.5 else 0 for _ in range(m))
                if mixed or any(c):
                    cols.append(c)
        yield cols, m


def test_integer_simplex_reproduces_the_fraction_tableau():
    verdicts = {"point": 0, "farkas": 0}
    for cols, m in SIMPLEX_TIE_CASES + tuple(_simplex_sets(20090125, 300)):
        rows = [tuple(Fraction(x) for x in c) for c in cols]
        got = phase_one_simplex(cols, m)
        _exact(got, reference_phase_one_simplex(rows, [Fraction(1)] * len(cols), m))
        assert all(type(v) is Fraction for v in got[1])
        check_answer(cols, m, got)
        verdicts[got[0]] += 1
    assert verdicts["point"] > 100 and verdicts["farkas"] > 100
