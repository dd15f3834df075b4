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
integers, with sparse multipliers, and back-substitutes in integers too:
the point is integer numerators over one common denominator, bounds are
compared by cross-multiplication, and Fractions are built only for the
point returned.

The simplex tableau is integral and fraction-free (Edmonds 1967, Bareiss
1968): it is the rational tableau times d, the absolute value of the current
basis determinant, so every entry is an integer minor of the starting
tableau and each pivot divides exactly by the previous d, with no gcd taken.
Only the x+ and slack columns and the right-hand side are stored; the x-
columns are -x+ and the artificial columns -slack in every row, and in the
objective row the reduced cost of x- is minus that of x+ and that of
artificial k is d minus that of slack k.  Scaling by d > 0 keeps every sign,
and ratios are compared by cross-multiplication, so Bland's rule sees the
same comparisons, over all four kinds of column in the same order, and
takes the same bases as a Fraction tableau would; the point and the Farkas
multipliers are read off as Fractions over d, with the same values.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

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
    # each constraint: (coeffs, rhs, multipliers over the original system),
    # the multipliers sparse as {column index: positive int}
    system = [(tuple(c), 1, {i: 1}) for i, c in enumerate(columns)]
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
                mult = {k: cn * v for k, v in m_p.items()}
                for k, v in m_n.items():
                    mult[k] = mult.get(k, 0) + cp * v
                new.append((coeffs, b, mult))
        system = new
    for coeffs, b, mult in system:
        if b > 0:
            return ("farkas", tuple(mult.get(i, 0) for i in range(n)))
    # feasible; back-substitute, preferring the tightest lower bound and else
    # the least upper bound if it is negative.  The point is nums / den with
    # den > 0, so a constraint bounds x_j by rest / (c * den) with
    # rest = b * den - coeffs . nums (nums[j] is still 0), and a bound is held
    # as (p, q) = (+-rest, |c|), compared by cross-multiplication.
    nums, den = [0] * nvars, 1
    for j, sys_j in reversed(stack):
        lower = upper = None
        for coeffs, b, _ in sys_j:
            c = coeffs[j]
            if c:
                rest = b * den - sum(map(operator.mul, coeffs, nums))
                if c > 0 and (lower is None or rest * lower[1] > lower[0] * c):
                    lower = (rest, c)
                elif c < 0 and (upper is None or -rest * upper[1] < upper[0] * -c):
                    upper = (-rest, -c)
        bound = lower or (upper if upper and upper[0] < 0 else None)
        if bound:
            p, q = bound
            nums = [x * q for x in nums]
            nums[j], den = p, den * q
            g = gcd(den, *nums)
            nums, den = [x // g for x in nums], den // g
    return ("point", tuple(Fraction(x, den) for x in nums))


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
    # integer rows [x+ | s | rhs], the rational tableau times d; basis starts artificial
    tableau = [list(c) + [-(k == i) for k in range(n)] + [1] for i, c in enumerate(columns)]
    basis = [2 * nvars + n + i for i in range(n)]
    d = 1
    # objective row for min sum(a), also times d: reduced costs of x+ and s,
    # then minus the objective value
    obj = [-sum(c[j] for c in columns) for j in range(nvars)] + [1] * n + [-n]
    # every original column as (stored column, sign, cost): x+, x- = -x+, s, a = -s
    original = (
        [(j, 1, 0) for j in range(nvars)]
        + [(j, -1, 0) for j in range(nvars)]
        + [(nvars + k, 1, 0) for k in range(n)]
        + [(nvars + k, -1, 1) for k in range(n)]
    )

    while True:
        # reduced cost of an original column, times d: cost * d + sign * obj[stored]
        enter = next((j for j, (s, g, c) in enumerate(original) if c * d + g * obj[s] < 0), None)
        if enter is None:
            break
        s, g, c = original[enter]
        pivot_i = None
        for i in range(n):
            a = g * tableau[i][s]
            if a > 0:
                if pivot_i is None:
                    pivot_i, best_a, best_b = i, a, tableau[i][-1]
                    continue
                # rhs_i / a < best_b / best_a, both denominators positive
                lhs, rhs = tableau[i][-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_i]):
                    pivot_i, best_a, best_b = i, a, tableau[i][-1]
        if pivot_i is None:
            # phase-one objective is bounded below by zero, so this cannot happen
            raise ArithmeticError("unbounded phase-one simplex")
        # Edmonds-Bareiss step: the pivot row stays, every other row is a 2x2
        # minor divided exactly by the old d, and the pivot becomes the new d
        p, prow = best_a, tableau[pivot_i]
        for i, row in enumerate(tableau):
            if i != pivot_i:
                f = g * row[s]
                tableau[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        f = c * d + g * obj[s]
        obj = [(p * v - f * w) // d for v, w in zip(obj, prow)]
        d = p
        basis[pivot_i] = enter

    if obj[-1] == 0:
        xs = [Fraction(0)] * nvars
        for i, b in enumerate(basis):
            if b < nvars:
                xs[b] += Fraction(tableau[i][-1], d)
            elif b < 2 * nvars:
                xs[b - nvars] -= Fraction(tableau[i][-1], d)
        return ("point", tuple(xs))
    # duals: y_i = 1 - reduced cost of artificial i = reduced cost of slack i
    mult = tuple(Fraction(obj[nvars + k], d) for k in range(n))
    if any(m < 0 for m in mult) or all(m == 0 for m in mult):
        raise ArithmeticError("simplex produced an invalid certificate")
    return ("farkas", mult)
