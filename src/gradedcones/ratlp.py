"""Exact positivity LP with Farkas certificates.

The one problem solved here: given integer columns c_i of length nvars,
find a rational omega with omega . c_i >= 1 for all i, or produce a Farkas
certificate, i.e. multipliers m >= 0 with sum m_i c_i = 0 and
sum m_i > 0 (a nonnegative combination of the constraints reading
0 >= positive, which refutes feasibility).  This is the LP behind the
positivity of a grading, whose columns are the variables' degree vectors.

Two engines implement the same contract and cross-check each other in the
tests: Fourier-Motzkin elimination for few variables, and a phase-one
simplex with Bland's rule for the rest.  Fourier-Motzkin eliminates in
integers and divides, over Fraction, only in back-substitution; the
simplex tableau is over Fraction.
"""

from __future__ import annotations

from fractions import Fraction

FM_VARIABLE_LIMIT = 3  # Fourier-Motzkin below, simplex above


def feasible_or_farkas(columns, nvars: int):
    """Solve {omega : omega . columns[i] >= 1}.

    Returns ("point", omega) with omega a tuple of Fractions, or
    ("farkas", m) with m the certificate multipliers, one per column.
    The engine is Fourier-Motzkin up to FM_VARIABLE_LIMIT variables and the
    simplex above; each takes the same arguments and keeps the contract.
    """
    engine = fourier_motzkin if nvars <= FM_VARIABLE_LIMIT else phase_one_simplex
    return engine(columns, nvars)


# -- Fourier-Motzkin -------------------------------------------------------------


def fourier_motzkin(columns, nvars: int):
    """feasible_or_farkas by eliminating the variables one at a time."""
    n = len(columns)
    # each constraint: (coeffs, rhs, multipliers over the original system)
    system = [(tuple(c), 1, (0,) * i + (1,) + (0,) * (n - i - 1)) for i, c in enumerate(columns)]
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
                lowers.append(Fraction(rest, coeffs[j]))
            elif coeffs[j] < 0:
                uppers.append(Fraction(rest, coeffs[j]))
        if lowers:
            point[j] = max(lowers)
        elif uppers:
            point[j] = min(min(uppers), Fraction(0))
        else:
            point[j] = Fraction(0)
    return ("point", tuple(point))


# -- phase-one simplex ------------------------------------------------------------


def phase_one_simplex(columns, nvars: int):
    """feasible_or_farkas by min sum(artificials) for C x - s + a = 1, x free, s, a >= 0.

    C has the columns as its rows.  Free x is split into positive and
    negative parts.  Bland's rule keeps the exact pivoting finite.  At
    optimum zero the x parts give a feasible point; at a positive optimum
    the duals on the constraint rows give the Farkas multipliers.
    """
    n = len(columns)
    if n == 0:
        return ("point", tuple(Fraction(0) for _ in range(nvars)))
    # columns: x+ (nvars), x- (nvars), slack s (n), artificial a (n);
    # dense tableau: T[i] = row of coefficients + rhs; basis starts artificial
    ncols = 2 * nvars + 2 * n
    tableau = [
        [Fraction(v) for v in c]
        + [Fraction(-v) for v in c]
        + [Fraction(-(k == i)) for k in range(n)]
        + [Fraction(k == i) for k in range(n)]
        + [Fraction(1)]
        for i, c in enumerate(columns)
    ]
    basis = [2 * nvars + n + i for i in range(n)]
    # objective row for min sum(a): reduced costs c_j - z_j with z from basis
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        s = sum(tableau[i][j] for i in range(n))
        obj[j] = (Fraction(1) if j >= 2 * nvars + n else Fraction(0)) - s
    obj[ncols] = Fraction(-n)

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
    mult = tuple(Fraction(1) - obj[2 * nvars + n + i] for i in range(n))
    if any(m < 0 for m in mult) or all(m == 0 for m in mult):
        raise ArithmeticError("simplex produced an invalid certificate")
    return ("farkas", mult)
