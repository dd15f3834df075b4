"""Cones cut out by graded-homogeneous ideals.

A proper ideal generated by homogeneous polynomials under a positive
grading defines a cone through the origin.  This module validates such
ideals, extracts the linear span of their generators' degree-one parts,
computes the minimal embedding (re-presenting the quotient inside the
coordinates of the Zariski tangent space at the origin), decides smoothness
at the origin, and produces singular-locus ideals from Jacobian minors.

The embedding works by eliminating the pivot variables of the linear part
with a block order: the reduced basis then contains, for each eliminated
variable, exactly one element "variable minus polynomial in the kept
variables", which is simultaneously the substitution map and the proof that
dropping the variable changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ImproperIdealError, NotHomogeneousError
from .grading import Degree, GradingMap
from .ideals import IdealPresentation, is_proper_homogeneous, krull_dimension
from .orders import TermOrder
from .rings import Polynomial


@dataclass(frozen=True)
class HomogeneousIdeal:
    """A validated presentation: positive grading, homogeneous generators, proper."""

    base: IdealPresentation
    grading: GradingMap
    degrees: tuple[Degree, ...]  # one per generator

    @property
    def ring(self):
        return self.base.ring

    def __repr__(self) -> str:
        return f"HomogeneousIdeal({self.base!r})"


def homogeneous_ideal(generators, grading: GradingMap) -> HomogeneousIdeal:
    """Validate and package generators of a cone ideal.

    Rejects gradings without a positivity witness (carrying the dual
    certificate), generators that are not homogeneous (naming the offender
    and its component degrees), and the unit ideal.  Zero generators are
    dropped; no generators at all is the zero ideal, which is fine.
    """
    grading.require_positive()
    base = IdealPresentation(grading.ring, generators)
    degrees = []
    for i, g in enumerate(base.generators):
        comps = grading.homogeneous_components(g)
        if len(comps) != 1:
            raise NotHomogeneousError(
                f"generator {i + 1} ({g!r}) is not homogeneous; "
                f"component degrees {sorted(comps)}",
                polynomial=g,
                degrees=comps.keys(),
            )
        degrees.append(next(iter(comps)))
    if not base.is_proper():
        raise ImproperIdealError("generators span the unit ideal, not a cone")
    return HomogeneousIdeal(base=base, grading=grading, degrees=tuple(degrees))


@dataclass(frozen=True)
class LinearPartBasis:
    """Reduced row echelon basis of the degree-one span of the generators.

    Pivots are the earliest possible variables; each basis form is itself
    homogeneous because variables of different degree can never mix during
    elimination (a pivot only occurs in rows sharing its degree).
    """

    forms: tuple[Polynomial, ...]
    pivots: tuple[int, ...]

    def dimension(self) -> int:
        return len(self.forms)


def linear_part(cone: HomogeneousIdeal) -> LinearPartBasis:
    ring = cone.ring
    n = ring.nvars
    rows = []
    for g in cone.base.generators:
        lin = g.degree_component(1)
        if not lin.is_zero():
            rows.append(_coefficient_row(lin, n))
    pivots = _rref(rows, n)
    forms = []
    for row in rows[: len(pivots)]:
        terms = {}
        for j, v in enumerate(row):
            if v:
                e = [0] * n
                e[j] = 1
                terms[tuple(e)] = v
        form = Polynomial(ring, terms)
        assert cone.grading.is_homogeneous(form), "mixed-degree linear form"
        forms.append(form)
    return LinearPartBasis(forms=tuple(forms), pivots=tuple(pivots))


def _coefficient_row(form: Polynomial, n: int) -> list[Fraction]:
    """Coefficients of a linear form, one per variable."""
    row = [Fraction(0)] * n
    for e, c in form.terms.items():
        row[e.index(1)] = c
    return row


def _rref(rows: list[list[Fraction]], n: int) -> list[int]:
    """In-place Gauss-Jordan with earliest-column pivoting; returns the pivot
    columns.  The first len(pivots) rows end as the reduced row echelon basis."""
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


@dataclass(frozen=True)
class EmbeddingResult:
    """A smaller presentation of the same quotient.

    kept/eliminated partition the original variables; substitution sends
    each eliminated variable to a polynomial in the kept ones (applying it
    to the original generators lands in the embedded ideal).  The embedded
    cone lives in the subring on the kept variables with the restricted
    grading.  tangent_dim is the dimension of the Zariski tangent space at
    the origin, nvars minus the linear-part dimension; in the minimal
    embedding |kept| == tangent_dim.
    """

    source: HomogeneousIdeal
    kept: tuple[int, ...]
    eliminated: tuple[int, ...]
    substitution: dict[int, Polynomial]
    embedded: HomogeneousIdeal
    tangent_dim: int

    def substitute(self, p: Polynomial) -> Polynomial:
        """Apply the substitution and carry the result into the embedded ring."""
        q = p.substitute(self.substitution)
        where: list[int | None] = [None] * self.source.ring.nvars
        for pos, i in enumerate(self.kept):
            where[i] = pos
        return q.map_variables(self.embedded.ring, where)


def minimal_embedding(cone: HomogeneousIdeal, kept=None) -> EmbeddingResult:
    """Re-present the cone inside fewer coordinates.

    With kept omitted, the linear part's pivot variables are eliminated and
    the result is minimal: the embedded ideal has no linear part and the
    kept count equals the tangent-space dimension.  With kept given, the
    kept variables plus the linear part must span all linear forms; the
    complement is eliminated.
    """
    ring = cone.ring
    n = ring.nvars
    lin = linear_part(cone)
    tangent = n - lin.dimension()
    if kept is None:
        eliminated = list(lin.pivots)
        kept_list = [i for i in range(n) if i not in lin.pivots]
    else:
        kept_list = sorted(set(kept))
        if any(not 0 <= i < n for i in kept_list):
            raise ValueError("kept variable index out of range")
        eliminated = [i for i in range(n) if i not in kept_list]
        _check_span(lin, kept_list, ring)
    elim_set = frozenset(eliminated)

    if not eliminated:
        return EmbeddingResult(
            source=cone,
            kept=tuple(kept_list),
            eliminated=(),
            substitution={},
            embedded=cone,
            tangent_dim=tangent,
        )

    order = TermOrder.elimination(elim_set, n, TermOrder.degrevlex())
    gb = cone.base.groebner(order)
    unit_exponents = {}
    for p in eliminated:
        e = [0] * n
        e[p] = 1
        unit_exponents[tuple(e)] = p
    substitution: dict[int, Polynomial] = {}
    embedded_gens: list[Polynomial] = []
    for g in gb.elements:
        le = order.leading_exponent(g)
        p = unit_exponents.get(le)
        if p is not None:
            tail = g - ring.variable(p)
            if tail.support_variables() & elim_set:
                raise ArithmeticError("substitution tail mentions an eliminated variable")
            substitution[p] = -tail
        elif g.support_variables() & elim_set:
            raise ArithmeticError(
                "reduced basis element mixes eliminated and kept variables; "
                "the kept set does not satisfy the span hypothesis"
            )
        else:
            embedded_gens.append(g)
    missing = [p for p in eliminated if p not in substitution]
    if missing:
        raise ArithmeticError(
            f"no substitution found for variable(s) {[ring.names[p] for p in missing]}"
        )

    sub_grading = cone.grading.restrict(kept_list)
    where: list[int | None] = [None] * n
    for pos, i in enumerate(kept_list):
        where[i] = pos
    moved = [g.map_variables(sub_grading.ring, where) for g in embedded_gens]
    embedded = homogeneous_ideal(moved, sub_grading)
    result = EmbeddingResult(
        source=cone,
        kept=tuple(kept_list),
        eliminated=tuple(eliminated),
        substitution=substitution,
        embedded=embedded,
        tangent_dim=tangent,
    )
    if len(kept_list) == tangent:
        assert linear_part(embedded).dimension() == 0, "minimal embedding kept a linear form"
    return result


def _check_span(lin: LinearPartBasis, kept_list, ring):
    """kept variables plus the linear part must span all degree-one forms."""
    n = ring.nvars
    rows = [_coefficient_row(form, n) for form in lin.forms]
    rows += [_coefficient_row(ring.variable(i), n) for i in kept_list]
    pivots = _rref(rows, n)
    if len(pivots) < n:
        missing = next(i for i in range(n) if i not in pivots)
        raise ValueError(
            f"kept set plus linear part does not span the linear forms; "
            f"{ring.names[missing]} is not covered"
        )


@dataclass(frozen=True)
class SmoothnessReport:
    ambient: int
    cone_dim: int
    linear_dim: int
    tangent_dim: int
    smooth: bool


def smooth_at_origin(cone: HomogeneousIdeal) -> SmoothnessReport:
    """Smoothness at the origin by the tangent-space criterion.

    The cone is smooth at the origin exactly when its dimension equals
    nvars minus the linear-part dimension; in that case the minimal
    embedding must present it as the zero ideal, which is asserted.
    """
    n = cone.ring.nvars
    d = krull_dimension(cone.base)
    e = linear_part(cone).dimension()
    smooth = d == n - e
    if smooth:
        embedded = minimal_embedding(cone).embedded
        assert embedded.base.is_zero_ideal(), "smooth cone with a nonzero embedded ideal"
    return SmoothnessReport(
        ambient=n, cone_dim=d, linear_dim=e, tangent_dim=n - e, smooth=smooth
    )


@dataclass(frozen=True)
class SingularLocus:
    """Jacobian-criterion locus.

    exact is True for a hypersurface or for a codimension-many-generator
    (complete intersection) presentation; otherwise the ideal only bounds
    the singular locus from above and is labeled accordingly.  empty means
    the locus ideal is the unit ideal, i.e. no singular points.
    """

    presentation: IdealPresentation
    grading: GradingMap
    exact: bool
    empty: bool
    codimension: int


def singular_locus(cone: HomogeneousIdeal) -> SingularLocus:
    """The cone ideal plus the c x c minors of the Jacobian, c the codimension.

    Every generator is homogeneous: a partial derivative drops the degree of
    its variable, and a minor sums products with matching row and column
    degree offsets, so homogeneity is preserved (and asserted).
    """
    ring = cone.ring
    n = ring.nvars
    gens = cone.base.generators
    d = krull_dimension(cone.base)
    c = n - d
    jac = [[g.partial(i) for i in range(n)] for g in gens]
    minors: list[Polynomial] = []
    if c == 0:
        minors.append(ring.one())
    else:
        # c is the height of a proper ideal, so c <= len(gens) by Krull's height theorem
        for rows_sel in combinations(range(len(gens)), c):
            for cols_sel in combinations(range(n), c):
                minors.append(_poly_det([[jac[r][cc] for cc in cols_sel] for r in rows_sel]))
    # principal ideals always have height 1, so this also covers hypersurfaces
    exact = len(gens) == c
    out = IdealPresentation(ring, tuple(gens) + tuple(minors))
    for g in out.generators:
        assert cone.grading.is_homogeneous(g), "Jacobian minor lost homogeneity"
    empty = not is_proper_homogeneous(out)
    return SingularLocus(
        presentation=out, grading=cone.grading, exact=exact, empty=empty, codimension=c
    )


def _poly_det(matrix) -> Polynomial:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    ring = matrix[0][0].ring
    acc = ring.zero()
    for j in range(size):
        sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * _poly_det(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
