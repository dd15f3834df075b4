"""Exact rational linear feasibility with Farkas certificates.

The one problem solved here: given rational constraint rows a_i and right
hand sides b_i, find x with a_i . x >= b_i for all i, or produce a Farkas
certificate, i.e. multipliers m >= 0 with sum m_i a_i = 0 and
sum m_i b_i > 0 (a nonnegative combination of the constraints reading
0 >= positive, which refutes feasibility).

Two engines implement the same contract and cross-check each other in the
tests: Fourier-Motzkin elimination for few variables, and a phase-one
simplex with Bland's rule for the rest.  All arithmetic is over Fraction.
"""

from __future__ import annotations

from fractions import Fraction

FM_VARIABLE_LIMIT = 3  # Fourier-Motzkin below, simplex above


def feasible_or_farkas(rows, rhs, nvars: int):
    """Solve {x : rows[i] . x >= rhs[i]}.

    Returns ("point", x) with x a tuple of Fractions, or
    ("farkas", m) with m the certificate multipliers, one per constraint.
    The engine is Fourier-Motzkin up to FM_VARIABLE_LIMIT variables and the
    simplex above; each takes the same arguments and keeps the contract.
    """
    engine = fourier_motzkin if nvars <= FM_VARIABLE_LIMIT else phase_one_simplex
    return engine(rows, rhs, nvars)


def _exact_system(rows, rhs, nvars: int):
    rows = [tuple(Fraction(v) for v in r) for r in rows]
    rhs = [Fraction(v) for v in rhs]
    if any(len(r) != nvars for r in rows) or len(rows) != len(rhs):
        raise ValueError("inconsistent system shape")
    return rows, rhs


# -- Fourier-Motzkin -------------------------------------------------------------


def fourier_motzkin(rows, rhs, nvars: int):
    """feasible_or_farkas by eliminating the variables one at a time."""
    rows, rhs = _exact_system(rows, rhs, nvars)
    n = len(rows)
    # each constraint: (coeffs, rhs, multipliers over the original system)
    def unit(i):
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))

    system = [(rows[i], rhs[i], unit(i)) for i in range(n)]
    stack = []  # systems before eliminating variable j, for back-substitution
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
    # feasible; back-substitute, preferring the tightest lower bound
    point: list[Fraction] = [Fraction(0)] * nvars
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


# -- phase-one simplex ------------------------------------------------------------


def phase_one_simplex(rows, rhs, nvars: int):
    """feasible_or_farkas by min sum(artificials) for A x - s + a = b, x free, s, a >= 0.

    Free x is split into positive and negative parts.  Bland's rule keeps
    the exact pivoting finite.  At optimum zero the x parts give a feasible
    point; at a positive optimum the duals on the constraint rows give the
    Farkas multipliers.
    """
    rows, rhs = _exact_system(rows, rhs, nvars)
    n = len(rows)
    if n == 0:
        return ("point", tuple(Fraction(0) for _ in range(nvars)))
    # flip rows so every rhs is nonnegative; remember the orientation
    sign = [1 if b >= 0 else -1 for b in rhs]
    a_rows = [tuple(sign[i] * v for v in rows[i]) for i in range(n)]
    b_col = [sign[i] * rhs[i] for i in range(n)]
    # columns: x+ (nvars), x- (nvars), slack s (n), artificial a (n)
    ncols = 2 * nvars + 2 * n

    def column(i, j):
        if j < nvars:
            return a_rows[i][j]
        if j < 2 * nvars:
            return -a_rows[i][j - nvars]
        if j < 2 * nvars + n:
            return -sign[i] * Fraction(j - 2 * nvars == i)
        return Fraction(j - (2 * nvars + n) == i)

    # dense tableau: T[i] = row of coefficients + rhs; basis starts artificial
    tableau = [[column(i, j) for j in range(ncols)] + [b_col[i]] for i in range(n)]
    basis = [2 * nvars + n + i for i in range(n)]
    # objective row for min sum(a): reduced costs c_j - z_j with z from basis
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
            # phase-one objective is bounded below by zero, so this cannot happen
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
    # duals: y_i = c_B B^-1 e_i = 1 - reduced cost of artificial column i
    mult = []
    for i in range(n):
        y = Fraction(1) - obj[2 * nvars + n + i]
        mult.append(sign[i] * y)
    if any(m < 0 for m in mult) or all(m == 0 for m in mult):
        raise ArithmeticError("simplex produced an invalid certificate")
    return ("farkas", tuple(mult))
