"""Cones cut out by graded-homogeneous ideals.

A proper ideal generated by homogeneous polynomials under a positive
grading defines a cone through the origin.  This module validates such
ideals, extracts the linear span of their generators' degree-one parts,
computes the minimal embedding, decides smoothness at the origin, and
produces singular-locus ideals from Jacobian minors.

The minimal embedding is the paper's proof that such a cone embeds in its
Zariski tangent space at the origin.  Gauss-Jordan elimination on the
generators gives, for each eliminated variable x_p, an element x_p - s_p
of the ideal with no eliminated variable in the linear part of s_p.  s_p
has the degree of x_p, so under the positivity witness's weights (dots)
every variable of a term of s_p of degree >= 2 weighs less than x_p:
resolving the x_p in ascending dots, each by substituting the ones already
resolved, writes every s_p straight into the kept ring.  The other
generators, under the same substitution, generate the ideal's
intersection with the kept ring.  Its reduced degrevlex basis there, and
each s_p reduced modulo it, are what a block order (eliminated variables
first, ties by degrevlex) would give: that order restricted to kept
monomials is degrevlex on the kept ring, and reduced bases are unique.
That basis is the embedded cone: it is homogeneous and has no constant,
so it is packaged without another Groebner basis, and its restricted
grading, positive under the same weights, without another LP.

The embedding also decides smoothness, by the paper's criterion: the cone
is smooth at the origin exactly when the embedded ideal is zero.  Only a
singular cone needs a Krull dimension; for a cone from homogeneous_ideal
it reads the basis that the properness check cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import ImproperIdealError, NotHomogeneousError, Rejection
from .grading import Degree, GradingMap
from .ideals import IdealPresentation, is_proper_homogeneous, krull_dimension
from .rings import Polynomial, exp_unit

MINOR_LIMIT = 1000  # the most Jacobian minors singular_locus expands


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
    degrees = generator_degrees(base, grading)
    if not base.is_proper():
        raise ImproperIdealError("generators span the unit ideal, not a cone")
    return HomogeneousIdeal(base=base, grading=grading, degrees=degrees)


def generator_degrees(base: IdealPresentation, grading: GradingMap) -> tuple[Degree, ...]:
    """The degree of each generator, rejecting the first that is not homogeneous."""
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
    return tuple(degrees)


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
    lin = [g.degree_component(1) for g in cone.base.generators]
    pivots, _ = _gauss_jordan(lin, range(cone.ring.nvars))
    for form in pivots.values():
        assert cone.grading.is_homogeneous(form), "mixed-degree linear form"
    return LinearPartBasis(forms=tuple(pivots.values()), pivots=tuple(pivots))


def _gauss_jordan(rows, columns) -> tuple[dict[int, Polynomial], list[Polynomial]]:
    """Gauss-Jordan elimination on polynomial rows, pivoting on variables.

    For each column variable x_c in the given order, the first row with an
    x_c term is scaled to make that coefficient 1 and subtracted from every
    other row, pivot rows included, that has an x_c term.  Returns the pivot
    rows keyed by their column, in column order, and the nonzero rows left
    without a pivot.  Whole rows are combined: under a positive grading a
    homogeneous row with an x_c term has the degree of x_c, so homogeneous
    rows stay homogeneous.  On linear forms this is the reduced row echelon
    form with the earliest possible pivot columns.
    """
    rest = [r for r in rows if r]
    pivots: dict[int, Polynomial] = {}
    for c in columns:
        if not rest:
            break
        unit = exp_unit(rest[0].ring.nvars, c)
        hit = next((i for i, r in enumerate(rest) if unit in r.terms), None)
        if hit is None:
            continue
        row = rest.pop(hit)
        row = row / row.terms[unit]

        def clear(r: Polynomial) -> Polynomial:
            return r - row * r.terms[unit] if unit in r.terms else r

        rest = [r for r in map(clear, rest) if r]
        pivots = {q: clear(r) for q, r in pivots.items()}
        pivots[c] = row
    return pivots, rest


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
        """Apply the substitution; the result lies in the embedded ring."""
        ring = self.embedded.ring
        images: list[Polynomial | None] = [None] * self.source.ring.nvars
        for pos, i in enumerate(self.kept):
            images[i] = ring.variable(pos)
        for q, s in self.substitution.items():
            images[q] = s.substitute(ring, images)
        return p.substitute(ring, images)


def minimal_embedding(cone: HomogeneousIdeal, kept=None) -> EmbeddingResult:
    """Re-present the cone inside fewer coordinates.

    With kept omitted, the linear part's pivot variables are eliminated and
    the result is minimal: the embedded ideal has no linear part and the
    kept count equals the tangent-space dimension.  With kept given, the
    kept variables plus the linear part must span all linear forms (a
    Rejection otherwise); the complement is eliminated.
    """
    ring = cone.ring
    n = ring.nvars
    lin = linear_part(cone)
    tangent = n - lin.dimension()
    if kept is None:
        kept_list = sorted(set(range(n)).difference(lin.pivots))
    else:
        kept_list = sorted(set(kept))
        if any(not 0 <= i < n for i in kept_list):
            raise ValueError("kept variable index out of range")
    eliminated = sorted(set(range(n)).difference(kept_list))

    if not eliminated:
        return EmbeddingResult(
            source=cone,
            kept=tuple(kept_list),
            eliminated=(),
            substitution={},
            embedded=cone,
            tangent_dim=tangent,
        )

    # kept variables and linear part span all linear forms iff every eliminated one pivots
    pivots, rest = _gauss_jordan(cone.base.generators, eliminated)
    for p in eliminated:
        if p not in pivots:
            raise Rejection(
                f"kept set plus linear part does not span the linear forms; "
                f"{ring.names[p]} is not covered"
            )
    kept_ring = ring.subring(kept_list)
    # an eliminated variable has no image until resolved: substitute raises on one
    images: list[Polynomial | None] = [None] * n
    for pos, i in enumerate(kept_list):
        images[i] = kept_ring.variable(pos)
    dots = cone.grading.require_positive().dots
    for p in sorted(pivots, key=dots.__getitem__):
        images[p] = (ring.variable(p) - pivots[p]).substitute(kept_ring, images)

    embedded_gens = [g.substitute(kept_ring, images) for g in rest]
    basis = IdealPresentation(kept_ring, embedded_gens).groebner()
    back = [ring.variable(i) for i in kept_list]
    substitution = {p: basis.normal_form(images[p]).substitute(ring, back) for p in eliminated}
    # the quotient of a proper cone, under its restricted grading: positive
    # by the same weights, so the grading's LP runs only if its witness is asked for
    base = IdealPresentation(kept_ring, basis.elements)
    assert is_proper_homogeneous(base), "embedded ideal of a proper cone is the unit ideal"
    restricted = cone.grading.restrict(kept_list)
    embedded = HomogeneousIdeal(base, restricted, generator_degrees(base, restricted))
    if len(kept_list) == tangent:
        assert linear_part(embedded).dimension() == 0, "minimal embedding kept a linear form"
    return EmbeddingResult(
        source=cone,
        kept=tuple(kept_list),
        eliminated=tuple(eliminated),
        substitution=substitution,
        embedded=embedded,
        tangent_dim=tangent,
    )


@dataclass(frozen=True)
class SmoothnessReport:
    ambient: int
    cone_dim: int
    linear_dim: int
    tangent_dim: int
    smooth: bool


def smooth_at_origin(cone: HomogeneousIdeal) -> SmoothnessReport:
    """Smoothness at the origin by the paper's criterion.

    The minimal embedding presents the cone in its Zariski tangent space at
    the origin, and the cone is smooth there exactly when the embedded
    ideal is zero.  A smooth cone fills its tangent space, so its dimension
    is tangent_dim.  Otherwise cone_dim is the Krull dimension of the
    cone's own ideal (from the degrevlex basis that homogeneous_ideal
    cached), below tangent_dim because the embedded ideal is nonzero.
    """
    emb = minimal_embedding(cone)
    n, t = cone.ring.nvars, emb.tangent_dim
    smooth = emb.embedded.base.is_zero_ideal()
    d = t if smooth else krull_dimension(cone.base)
    assert smooth or d < t, "singular cone fills its tangent space"
    return SmoothnessReport(
        ambient=n, cone_dim=d, linear_dim=n - t, tangent_dim=t, smooth=smooth
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
    degree offsets, so homogeneity is preserved (and asserted).  For each
    choice of c rows, a table maps each column set to its nonzero minor on
    the rows taken so far, and each row extends it by Laplace expansion along
    that row: for c <= n/2 it never holds more than C(n, c) minors, so a minor
    costs at most c*n products.  More than MINOR_LIMIT minors is a Rejection,
    raised before any is expanded.
    """
    ring = cone.ring
    n = ring.nvars
    gens = cone.base.generators
    d = krull_dimension(cone.base)
    c = n - d
    count = comb(len(gens), c) * comb(n, c)
    if count > MINOR_LIMIT:
        raise Rejection(
            f"the singular locus needs {count} Jacobian minors of size {c}, "
            f"more than the limit of {MINOR_LIMIT}"
        )
    jac = [[g.partial(i) for i in range(n)] for g in gens]
    minors: list[Polynomial] = []
    # c is the height of a proper ideal, so c <= len(gens) by Krull's height theorem
    for rows_sel in combinations(range(len(gens)), c):
        table = {(): ring.one()}
        for r in rows_sel:
            grown: dict[tuple[int, ...], Polynomial] = {}
            for cols, minor in table.items():
                for j, entry in enumerate(jac[r]):
                    if entry and j not in cols:
                        # row r comes last: the sign is that of the columns after j
                        after = sum(k > j for k in cols)
                        term = entry * minor if cols else entry
                        key = tuple(sorted((*cols, j)))
                        grown[key] = grown.get(key, 0) + (-term if after % 2 else term)
            table = {cols: minor for cols, minor in grown.items() if minor}
        minors.extend(table[cols] for cols in sorted(table))
    # principal ideals always have height 1, so this also covers hypersurfaces
    exact = len(gens) == c
    out = IdealPresentation(ring, tuple(gens) + tuple(minors))
    for g in out.generators:
        assert cone.grading.is_homogeneous(g), "Jacobian minor lost homogeneity"
    empty = not is_proper_homogeneous(out)
    return SingularLocus(
        presentation=out, grading=cone.grading, exact=exact, empty=empty, codimension=c
    )

