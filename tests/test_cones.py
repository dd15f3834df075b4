"""Affine cones: validation, linear parts, minimal embeddings, smoothness, singular loci."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import gradedcones.cones
import gradedcones.grading
import gradedcones.ideals
from gradedcones.cones import (
    homogeneous_ideal,
    linear_part,
    minimal_embedding,
    singular_locus,
    smooth_at_origin,
)
from gradedcones.errors import (
    ImproperIdealError,
    NonPositiveGradingError,
    NotHomogeneousError,
    Rejection,
)
from gradedcones.grading import GradingMap
from gradedcones.ideals import IdealPresentation, eliminate, krull_dimension
from gradedcones.orders import TermOrder
from gradedcones.rings import PolyRing, Polynomial

import reference_embedding
import reference_singular
from helpers import (
    random_homogeneous_generators,
    random_positive_grading,
    random_rational,
    rename,
    sympy_expr,
    torus_scaled,
)

Y = PolyRing(("y1", "y2", "y3", "y4"))
G = GradingMap(Y, [(1, 2), (1, 0), (0, 1), (2, 3)])
F = Y.parse("y1^2 y2 y3 + y1 y4 + y2 y3^2 y4")
SURFACE = homogeneous_ideal([F], G)


def grading1(ring, weights):
    return GradingMap(ring, [(w,) for w in weights])


def test_accepts_the_surface():
    assert SURFACE.degrees == ((3, 5),)
    assert SURFACE.ring is Y
    assert SURFACE.base.contains(F)


def test_rejects_inhomogeneous_generators():
    try:
        homogeneous_ideal([Y.parse("y1 + y2")], G)
    except NotHomogeneousError as err:
        assert set(err.degrees) == {(1, 2), (1, 0)}
    else:
        raise AssertionError("y1 + y2 mixes degrees under this grading")


def test_rejects_non_positive_grading():
    ring = PolyRing(("u", "v"))
    try:
        homogeneous_ideal([ring.parse("u v")], grading1(ring, [1, -1]))
    except NonPositiveGradingError as err:
        assert err.certificate == (1, 1)
    else:
        raise AssertionError("mixed-sign weights admit degree-zero monomials")


def test_rejects_unit_ideal_and_drops_zero():
    try:
        homogeneous_ideal([Y.parse("y1"), Y.one()], G)
    except ImproperIdealError:
        pass
    else:
        raise AssertionError("the unit ideal is not a cone")
    zero_cone = homogeneous_ideal([], G)
    assert zero_cone.base.is_zero_ideal() and zero_cone.degrees == ()


def test_single_weight_grading():
    ring = PolyRing(("x", "y"))
    cone = homogeneous_ideal([ring.parse("x - y^2")], grading1(ring, [2, 1]))
    assert cone.degrees == ((2,),)


def test_linear_part_goldens():
    ring = PolyRing(("x", "y", "z"))
    g = grading1(ring, [1, 1, 1])
    no_linear = homogeneous_ideal([ring.parse("x y - z^2")], g)
    assert linear_part(no_linear).dimension() == 0
    one = homogeneous_ideal([ring.parse("x + y")], g)
    lp = linear_part(one)
    assert lp.dimension() == 1 and lp.pivots == (0,)
    assert lp.forms[0] == ring.parse("x + y")
    # duplicate directions collapse; pivot normalization is monic
    two = homogeneous_ideal(
        [ring.parse("2 x + 2 y"), ring.parse("x + y"), ring.parse("z")], g
    )
    lp2 = linear_part(two)
    assert lp2.dimension() == 2 and lp2.pivots == (0, 2)


def test_linear_part_reads_degree_one_exponents_not_grading_degree():
    # under weights (2, 1) the variable x is a "linear" coordinate of weight 2
    ring = PolyRing(("x", "y"))
    cone = homogeneous_ideal([ring.parse("x + y^2")], grading1(ring, [2, 1]))
    lp = linear_part(cone)
    assert lp.dimension() == 1
    assert lp.forms[0] == ring.parse("x")


def test_minimal_embedding_golden():
    ring = PolyRing(("x", "y", "z"))
    cone = homogeneous_ideal(
        [ring.parse("x + y^2"), ring.parse("z + y^3")], grading1(ring, [2, 1, 3])
    )
    emb = minimal_embedding(cone)
    assert emb.eliminated == (0, 2)
    assert emb.kept == (1,)
    assert emb.embedded.base.is_zero_ideal()
    assert emb.substitution[0] == ring.parse("- y^2")
    assert emb.substitution[2] == ring.parse("- y^3")
    assert emb.tangent_dim == 1
    # substituting the eliminated variables kills every original generator
    for g in cone.base.generators:
        assert emb.substitute(g).is_zero()


def test_minimal_embedding_trivial_when_no_linear_part():
    emb = minimal_embedding(SURFACE)
    assert emb.eliminated == ()
    assert emb.embedded is SURFACE


def test_embedding_with_explicit_kept_set():
    ring = PolyRing(("x", "y", "z"))
    cone = homogeneous_ideal([ring.parse("x + y")], grading1(ring, [1, 1, 1]))
    emb = minimal_embedding(cone, kept=[1, 2])
    assert emb.eliminated == (0,)
    assert emb.substitution[0] == ring.parse("- y")
    try:
        minimal_embedding(cone, kept=[5])
    except ValueError:
        pass
    else:
        raise AssertionError("out-of-range kept index must be rejected")
    # with z alone kept, the one linear form x + y covers x but not y
    with pytest.raises(Rejection, match="does not span the linear forms; y is not covered$"):
        minimal_embedding(cone, kept=[2])


def test_embedding_regenerates_the_cone():
    # pulling the embedded generators back and re-adding the linear forms
    # recovers the original ideal
    ring = PolyRing(("a", "b", "c"))
    cone = homogeneous_ideal(
        [ring.parse("a + b^2"), ring.parse("c^2 - b^4")], grading1(ring, [2, 1, 2])
    )
    emb = minimal_embedding(cone)
    lifted = [rename(g, ring, emb.kept) for g in emb.embedded.base.generators]
    regenerated = IdealPresentation(
        ring, lifted + [ring.variable(p) - emb.substitution[p] for p in emb.eliminated]
    )
    assert regenerated.same_ideal(cone.base)


def test_smoothness_reports():
    ring = PolyRing(("x", "y", "z"))
    g = grading1(ring, [1, 1, 1])
    plane = smooth_at_origin(homogeneous_ideal([ring.parse("x + y")], g))
    assert plane.smooth and plane.cone_dim == 2 and plane.tangent_dim == 2
    quadric = smooth_at_origin(homogeneous_ideal([ring.parse("x y - z^2")], g))
    assert not quadric.smooth
    assert quadric.cone_dim == 2 and quadric.tangent_dim == 3
    everything = smooth_at_origin(homogeneous_ideal([], g))
    assert everything.smooth and everything.cone_dim == 3
    assert not smooth_at_origin(SURFACE).smooth


def test_smoothness_agrees_with_the_dimension_criterion():
    # the embedded ideal's verdict against Krull dimension == tangent
    # dimension, on graph cones (smooth, with a linear part) and random ones
    bad, smooth_linear = reference_embedding.smooth_mismatches(300, seed=20090141)
    assert bad == []
    assert smooth_linear >= 100


def _counted(monkeypatch, module, name) -> list:
    """The calls of module.name from now on, one argument tuple each."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_minimal_embedding_runs_one_groebner_basis_and_no_lp(monkeypatch):
    # the embedded cone is the kept ring's reduced basis under the restricted
    # grading: packaging it needs no second basis and no positivity LP
    ring = PolyRing(("x", "y", "z"))
    cone = homogeneous_ideal(
        [ring.parse("x - y z"), ring.parse("x y - z^3")], grading1(ring, [2, 1, 1])
    )
    runs = _counted(monkeypatch, gradedcones.ideals, "buchberger")
    lps = _counted(monkeypatch, gradedcones.grading, "positivity_witness")
    emb = minimal_embedding(cone)
    assert emb.eliminated == (0,)
    assert emb.embedded.base.generators == (emb.embedded.ring.parse("y^2 z - z^3"),)
    assert emb.embedded.degrees == ((3,),)
    assert len(runs) == 1 and lps == []


def test_a_smooth_cone_needs_no_krull_dimension(monkeypatch):
    ring = PolyRing(("x", "y", "z"))
    cone = homogeneous_ideal(
        [ring.parse("x + y^2"), ring.parse("z + y^3")], grading1(ring, [2, 1, 3])
    )
    dims = _counted(monkeypatch, gradedcones.cones, "krull_dimension")
    report = smooth_at_origin(cone)
    assert report.smooth and report.cone_dim == report.tangent_dim == 1
    assert report.linear_dim == 2 and dims == []


def test_singular_locus_goldens():
    ring = PolyRing(("x", "y"))
    g = grading1(ring, [1, 1])
    line = singular_locus(homogeneous_ideal([ring.parse("x")], g))
    assert line.exact and line.empty and line.codimension == 1
    doubled = singular_locus(homogeneous_ideal([ring.parse("x^2")], g))
    assert doubled.exact and not doubled.empty
    assert doubled.presentation.same_ideal(IdealPresentation(ring, [ring.parse("x")]))


def test_singular_locus_of_the_surface():
    sing = singular_locus(SURFACE)
    assert sing.exact and not sing.empty and sing.codimension == 1
    pres = sing.presentation
    # the two coordinate-plane points and the origin are singular
    for coords in [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)]:
        values = [Fraction(v) for v in coords]
        assert all(g.evaluate(values).numerator == 0 for g in pres.generators)
    # a general point of the surface is not
    y1, y2, y3 = Fraction(1), Fraction(1), Fraction(1)
    y4 = -(y1**2 * y2 * y3) / (y1 + y2 * y3**2)
    values = [y1, y2, y3, y4]
    assert F.evaluate(values) == 0
    assert any(g.evaluate(values) != 0 for g in pres.generators)


def test_singular_locus_generators_stay_homogeneous():
    rng = random.Random(5502)
    ring = PolyRing(("a", "b", "c"))
    for _ in range(8):
        g = random_positive_grading(rng, ring, 2)
        gens = random_homogeneous_generators(rng, g, max_gens=2, max_degree=3)
        try:
            cone = homogeneous_ideal(gens, g)
        except ImproperIdealError:
            continue
        sing = singular_locus(cone)
        for p in sing.presentation.generators:
            assert g.is_homogeneous(p)


def test_singular_locus_is_torus_stable():
    # scaling a singular point by the torus lands on another singular point
    sing = singular_locus(SURFACE).presentation
    rng = random.Random(5503)
    base = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    for _ in range(6):
        t = tuple(random_rational(rng, nonzero=True) for _ in range(2))
        moved = torus_scaled(base, t, G)
        assert all(g.evaluate(list(moved)).numerator == 0 for g in sing.generators)


def test_singular_locus_agrees_with_the_cofactor_reference():
    # the table of smaller minors against the recursive cofactor expansion it
    # replaced: the same generators in the same order, zero minors dropped
    assert reference_singular.mismatches(300, seed=20090125) == []


def test_jacobian_minors_match_sympy():
    # every nonzero c x c minor, rows then columns in combinations order, is
    # sympy's determinant of that Jacobian submatrix
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20090127)
    sizes = set()
    with reference_singular.pair_cap(reference_singular.PAIR_CAP):
        for _ in range(25):
            cone = reference_singular.random_cone(rng)
            locus = singular_locus(cone)
            gens = cone.base.generators
            xs = sympy.symbols(cone.ring.names)
            exprs = [sympy_expr(sympy, g, xs) for g in gens]
            jac = sympy.Matrix(len(gens), len(xs), lambda r, i: exprs[r].diff(xs[i]))
            c = locus.codimension
            sizes.add(c)
            theirs = [
                jac.extract(list(rows), list(cols)).det().expand()
                for rows in combinations(range(len(gens)), c)
                for cols in combinations(range(len(xs)), c)
            ]
            theirs = [d for d in theirs if d != 0]
            ours = [sympy_expr(sympy, m, xs) for m in locus.presentation.generators[len(gens) :]]
            assert len(ours) == len(theirs), cone
            assert all((a - b).expand() == 0 for a, b in zip(ours, theirs)), cone
    assert sizes == {0, 1, 2, 3, 4}


def test_random_embeddings_preserve_dimension():
    rng = random.Random(5504)
    ring = PolyRing(("a", "b", "c"))
    for _ in range(10):
        g = random_positive_grading(rng, ring, 1)
        gens = random_homogeneous_generators(rng, g, max_gens=2, max_degree=3)
        try:
            cone = homogeneous_ideal(gens, g)
        except ImproperIdealError:
            continue
        emb = minimal_embedding(cone)
        assert len(emb.kept) == emb.tangent_dim
        assert linear_part(emb.embedded).dimension() == 0
        d1 = krull_dimension(cone.base)
        d2 = krull_dimension(emb.embedded.base)
        assert d1 == d2


def test_embedding_agrees_with_the_elimination_basis_reference():
    # the graded substitution against the block-order elimination basis it
    # replaced: linear parts, kept sets, substitutions, embedded ideals and
    # rejection messages, on random cones and on stratum cones
    assert reference_embedding.mismatches(300, seed=20090120) == []


def _monic_basis(ring, polys):
    """sympy polynomials as a set of our Polynomials, monic under degrevlex."""
    grevlex = TermOrder.degrevlex()
    out = set()
    for poly in polys:
        q = Polynomial(ring, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})
        out.add(q / grevlex.leading_coefficient(q))
    return out


def test_elimination_and_embedding_match_sympy():
    # sympy's lex basis with the eliminated variables first cuts out the
    # elimination ideal; its reduced grevlex basis in the kept variables must
    # be what eliminate returns and the embedded ideal's generators, and it
    # must contain every relation x_p - substitution[p]
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20090124)
    checked = 0
    while checked < 40:
        cone = reference_embedding.random_cone(rng)
        emb = minimal_embedding(cone)
        if not emb.eliminated:
            continue
        checked += 1
        ring = cone.ring
        xs = sympy.symbols(ring.names)
        elim = [xs[i] for i in emb.eliminated]
        kept = [xs[i] for i in emb.kept]
        lex = sympy.groebner(
            [sympy_expr(sympy, g, xs) for g in cone.base.generators],
            *elim,
            *kept,
            order="lex",
            domain="QQ",
        )
        below = [g for g in lex.exprs if not g.free_symbols & set(elim)]
        kept_ring = emb.embedded.ring
        theirs = set()
        if below:
            theirs = _monic_basis(
                kept_ring, sympy.groebner(below, *kept, order="grevlex", domain="QQ").polys
            )
        where = [None] * ring.nvars
        for pos, i in enumerate(emb.kept):
            where[i] = pos
        ours = eliminate(cone.base, emb.eliminated).generators
        assert {rename(g, kept_ring, where) for g in ours} == theirs, cone
        assert set(emb.embedded.base.generators) == theirs, cone
        for p in emb.eliminated:
            relation = ring.variable(p) - emb.substitution[p]
            assert lex.contains(sympy_expr(sympy, relation, xs)), (cone, p)
