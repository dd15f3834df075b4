"""Multigradings on polynomial rings.

A grading assigns each variable an integer degree vector in Z^m (one column
of an m x nvars matrix); the degree of a monomial is the matrix applied to
its exponent vector.  The central question about a grading is positivity:
does some integer weight row omega make every variable strictly positive?
If yes, the graded pieces behave like a local ring at the origin (degree
zero is just the constants); if no, Gordan duality yields a nonnegative
integer vector alpha, not zero, with matrix * alpha = 0, i.e. a nonconstant
monomial of degree zero.  Exactly one of the two exists; both are verified
exactly before being returned.

This module owns positivity: it alone solves the LP (ratlp) over the
degree columns, and GradingMap.require_positive is the one place that
rejects a non-positive grading.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, lcm

from . import ratlp
from .errors import NonPositiveGradingError, NotHomogeneousError
from .orders import TermOrder
from .rings import Exponent, PolyRing, Polynomial

Degree = tuple[int, ...]


@dataclass(frozen=True)
class PositivityWitness:
    """Integer weight row omega with omega . column > 0 for every variable."""

    omega: tuple[int, ...]
    dots: tuple[int, ...]  # omega . column_i, all strictly positive


@dataclass(frozen=True)
class NonPositivityCertificate:
    """Nonnegative alpha != 0 with matrix * alpha = 0.

    The monomial with exponent alpha is nonconstant of degree zero, which is
    exactly what positivity forbids.
    """

    alpha: tuple[int, ...]


class GradingMap:
    """Degree vectors for the variables of a ring."""

    __slots__ = ("ring", "columns", "m", "_positivity")

    def __init__(self, ring: PolyRing, columns, ambient_dim: int | None = None):
        cols = tuple(tuple(map(operator.index, c)) for c in columns)
        if len(cols) != ring.nvars:
            raise ValueError("one degree vector per variable required")
        if cols:
            if len({len(c) for c in cols}) != 1:
                raise ValueError("degree vectors must share one length")
            m = len(cols[0])
            if ambient_dim is not None and ambient_dim != m:
                raise ValueError("ambient_dim disagrees with the vectors")
        else:
            # a ring with no variables still needs a target Z^m
            m = 0 if ambient_dim is None else operator.index(ambient_dim)
        self.ring = ring
        self.columns = cols
        self.m = m
        self._positivity = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradingMap)
            and self.ring == other.ring
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.columns))

    def __repr__(self) -> str:
        return f"GradingMap({self.ring!r}, {list(self.columns)!r})"

    def degree(self, exponent: Exponent) -> Degree:
        """Degree vector of a monomial: matrix times exponent."""
        out = [0] * self.m
        for c, k in zip(self.columns, exponent):
            if k:
                for t in range(self.m):
                    out[t] += c[t] * k
        return tuple(out)

    def restrict(self, keep) -> "GradingMap":
        keep = list(keep)
        return GradingMap(
            self.ring.subring(keep), [self.columns[i] for i in keep], ambient_dim=self.m
        )

    # -- homogeneity -----------------------------------------------------------

    def homogeneous_components(self, p: Polynomial) -> dict[Degree, Polynomial]:
        """Split p into its graded pieces, keyed by degree vector.

        Keys are emitted in sorted order; the zero polynomial gives {}.
        """
        if p.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        buckets: dict[Degree, dict] = {}
        for e, c in p.terms.items():
            buckets.setdefault(self.degree(e), {})[e] = c
        return {
            d: Polynomial(self.ring, buckets[d]) for d in sorted(buckets)
        }

    def is_homogeneous(self, p: Polynomial) -> bool:
        return len(self.homogeneous_components(p)) <= 1

    def homogeneous_degree(self, p: Polynomial) -> Degree:
        """Degree of a nonzero homogeneous polynomial; rejects anything else."""
        comps = self.homogeneous_components(p)
        if len(comps) != 1:
            raise NotHomogeneousError(
                f"polynomial {p!r} is not homogeneous for this grading"
                if comps
                else "the zero polynomial has every degree",
                polynomial=p,
                degrees=comps.keys(),
            )
        return next(iter(comps))

    # -- positivity ---------------------------------------------------------------

    def positivity(self):
        """PositivityWitness or NonPositivityCertificate; cached after first call."""
        if self._positivity is None:
            self._positivity = positivity_witness(self)
        return self._positivity

    def require_positive(
        self, message: str = "grading admits a nonconstant monomial of degree zero"
    ) -> PositivityWitness:
        """The positivity witness; a non-positive grading is rejected with
        its certificate and the caller's message."""
        w = self.positivity()
        if isinstance(w, NonPositivityCertificate):
            raise NonPositiveGradingError(message, w.alpha)
        return w

    def induced_order(self) -> TermOrder:
        """Weighted order from the positivity witness, ties by lex; requires positivity."""
        w = self.require_positive("grading is not positive, no induced order exists")
        return TermOrder.weighted(w.dots, TermOrder.lex())


def positivity_witness(grading: GradingMap):
    """Decide positivity exactly.

    Solves omega . column_i >= 1 over the rationals and scales the answer to
    integers; infeasibility turns the Farkas multipliers into the dual
    certificate.  Both outcomes are re-verified here before being returned.
    """
    cols = grading.columns
    if not cols:
        return PositivityWitness(omega=(0,) * grading.m, dots=())
    status, data = ratlp.feasible_or_farkas(cols, grading.m)
    if status == "point":
        den = lcm(*[v.denominator for v in data]) if data else 1
        omega = tuple(int(v * den) for v in data)
        dots = tuple(sum(w * x for w, x in zip(omega, c)) for c in cols)
        if any(d <= 0 for d in dots):
            raise ArithmeticError("positivity witness failed verification")
        return PositivityWitness(omega=omega, dots=dots)
    den = lcm(*[v.denominator for v in data])
    alpha = [int(v * den) for v in data]
    g = gcd(*alpha)
    if g > 1:
        alpha = [a // g for a in alpha]
    alpha = tuple(alpha)
    bad = (
        any(a < 0 for a in alpha)
        or all(a == 0 for a in alpha)
        or any(
            sum(alpha[i] * cols[i][t] for i in range(len(cols))) != 0
            for t in range(grading.m)
        )
    )
    if bad:
        raise ArithmeticError("non-positivity certificate failed verification")
    return NonPositivityCertificate(alpha=alpha)

