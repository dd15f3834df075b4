"""Torus orbits: dimensions, closures, low-dimension strata, cross-sections, curves."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from gradedcones import ideals as ideals_module
from gradedcones import intlinalg
from gradedcones import orbits as orbits_module
from gradedcones.cones import homogeneous_ideal, singular_locus
from gradedcones.errors import (
    DependentColumnsError,
    NonPositiveGradingError,
    Rejection,
)
from gradedcones.grading import GradingMap, PositivityWitness
from gradedcones.ideals import IdealPresentation, krull_dimension
from gradedcones.orbits import (
    FREE_VALUE_CANDIDATES,
    cross_section,
    find_one_dim_orbit,
    low_orbit_stratum,
    max_orbit_dimension,
    nonvanishing_coordinates,
    orbit_closure_ideal,
    orbit_contained,
    orbit_dimension,
    point,
    rational_curve_through,
    torus_restriction,
)
from gradedcones.orbits import _nonzero_rational_roots, _vanishes_at_ones
from gradedcones.rings import PolyRing, Polynomial

import reference_orbits
from helpers import random_rational, torus_scaled

Y = PolyRing(("y1", "y2", "y3", "y4"))
G = GradingMap(Y, [(1, 2), (1, 0), (0, 1), (2, 3)])
F = Y.parse("y1^2 y2 y3 + y1 y4 + y2 y3^2 y4")
SURFACE = homogeneous_ideal([F], G)

# same variables, rank-one degree repeated on the last three coordinates
FLAT = GradingMap(Y, [(1, 0), (0, 1), (0, 1), (0, 1)])


def test_point_basics():
    p = point(Y, (1, 0, "1/2", -2))
    assert p.coords == (1, 0, Fraction(1, 2), -2)
    assert p.support() == (0, 2, 3)
    assert point(Y, (0, 0, 0, 0)).support() == ()
    assert repr(p) == "(1, 0, 1/2, -2)"
    try:
        point(Y, (1, 2))
    except ValueError:
        pass
    else:
        raise AssertionError("wrong coordinate count must be rejected")


def test_orbit_dimension():
    assert orbit_dimension(point(Y, (1, 1, 1, 1)), G).dimension == 2
    info = orbit_dimension(point(Y, (0, 1, 0, 0)), G)
    assert info.dimension == 1 and info.support == (1,) and info.columns == ((1, 0),)
    assert orbit_dimension(point(Y, (0, 0, 0, 0)), G).dimension == 0
    # parallel columns keep the rank down
    assert orbit_dimension(point(Y, (0, 1, 1, 1)), FLAT).dimension == 1


def test_orbit_closure_golden():
    cl = orbit_closure_ideal(point(Y, (1, 1, 1, 1)), G)
    assert [repr(g) for g in cl.base.generators] == ["y1 - y2*y3^2", "y2^2*y3^3 - y4"]
    assert cl.degrees == ((1, 2), (2, 3))
    expected = IdealPresentation(Y, [Y.parse("y1 - y2 y3^2"), Y.parse("y4 - y2^2 y3^3")])
    assert cl.base.same_ideal(expected)
    assert krull_dimension(cl.base) == 2


def test_orbit_closure_with_general_coefficients():
    cl = orbit_closure_ideal(point(Y, (2, 3, "1/2", 5)), G)
    assert [repr(g) for g in cl.base.generators] == [
        "3*y1 - 8*y2*y3^2",
        "40*y2^2*y3^3 - 9*y4",
    ]


def test_orbit_closure_of_degenerate_points():
    axis = orbit_closure_ideal(point(Y, (1, 0, 0, 0)), G)
    assert [repr(g) for g in axis.base.generators] == ["y2", "y3", "y4"]
    other = orbit_closure_ideal(point(Y, (0, 1, 0, 0)), G)
    assert [repr(g) for g in other.base.generators] == ["y1", "y3", "y4"]
    origin = orbit_closure_ideal(point(Y, (0, 0, 0, 0)), G)
    assert [repr(g) for g in origin.base.generators] == ["y1", "y2", "y3", "y4"]
    assert krull_dimension(origin.base) == 0


def _binomial_runs(monkeypatch) -> list:
    """The orders of the orbits module's binomial_basis runs, recorded from now on."""
    runs = []
    real = orbits_module.binomial_basis

    def spy(pairs, order):
        runs.append(order)
        return real(pairs, order)

    monkeypatch.setattr(orbits_module, "binomial_basis", spy)
    return runs


def test_closures_of_lattices_of_rank_at_most_one_run_no_groebner_basis(monkeypatch):
    # one binomial with disjoint sides is saturated and its own lex basis,
    # and a lattice of rank 0 has no binomial at all
    runs = _binomial_runs(monkeypatch)
    ring = PolyRing(("y1", "y2", "y3"))
    grading = GradingMap(ring, [(1, 0), (0, 1), (1, 1)])
    closure = orbit_closure_ideal(point(ring, (1, 1, 1)), grading)
    assert [repr(g) for g in closure.base.generators] == ["y1*y2 - y3"]
    # independent support columns
    closure = orbit_closure_ideal(point(ring, (0, 2, -1)), grading)
    assert [repr(g) for g in closure.base.generators] == ["y1"]
    assert runs == []


def test_closures_saturate_only_coordinates_not_shown_to_be_nonzerodivisors(monkeypatch):
    # one saturation per support coordinate, less those a binomial of a
    # saturated basis shows to be nonzerodivisors, and one lex run
    runs = _binomial_runs(monkeypatch)
    rng = random.Random(20090130)
    for _ in range(600):
        grading, p, _ = reference_orbits.random_document(rng)
        orbit_closure_ideal(p, grading)
    assert len(runs) <= 655


def test_orbit_closure_contains_every_torus_translate():
    rng = random.Random(6601)
    p = point(Y, (1, 1, 1, 1))
    cl = orbit_closure_ideal(p, G)
    for _ in range(10):
        t = tuple(random_rational(rng, nonzero=True) for _ in range(2))
        moved = torus_scaled(p.coords, t, G)
        for g in cl.base.generators:
            assert g.evaluate(list(moved)) == 0


def test_orbit_contained():
    assert orbit_contained(point(Y, (0, 1, 0, 0)), SURFACE)
    assert orbit_contained(point(Y, (0, 0, 1, 0)), SURFACE)
    assert orbit_contained(point(Y, (0, 0, 0, 0)), SURFACE)
    assert not orbit_contained(point(Y, (1, 1, 1, 1)), SURFACE)
    # a general surface point: off-torus directions matter, orbit still inside
    y4 = Fraction(-1, 2)
    assert F.evaluate([Fraction(1), Fraction(1), Fraction(1), y4]) == 0
    assert orbit_contained(point(Y, (1, 1, 1, y4)), SURFACE)


def test_low_orbit_stratum_goldens():
    assert low_orbit_stratum(G, 0).components == ((),)
    assert low_orbit_stratum(G, 1).components == ((0,), (1,), (2,), (3,))
    assert low_orbit_stratum(G, 2).components == ((0, 1, 2, 3),)
    # parallel columns merge into one big component plus the transverse line
    assert low_orbit_stratum(FLAT, 1).components == ((1, 2, 3), (0,))
    try:
        low_orbit_stratum(G, -1)
    except Rejection:
        pass
    else:
        raise AssertionError("negative bound must be rejected")


def test_low_orbit_stratum_is_monotone():
    rng = random.Random(6602)
    ring = PolyRing(("a", "b", "c", "d", "e"))
    for _ in range(10):
        g = GradingMap(ring, [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(5)])
        for mu0 in range(2):
            small = low_orbit_stratum(g, mu0).components
            big = low_orbit_stratum(g, mu0 + 1).components
            for s in small:
                assert any(set(s) <= set(t) for t in big)


def _all_supports_stratum(grading, mu0):
    """Oracle: every support, largest first, kept when no kept one contains it."""
    n = grading.ring.nvars
    kept: list[tuple[int, ...]] = []
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            cs = set(combo)
            if any(cs <= set(big) for big in kept):
                continue
            cols = [list(grading.columns[i]) for i in combo]
            if intlinalg.rank(cols) <= mu0:
                kept.append(combo)
    kept.sort(key=lambda s: (-len(s), s))
    return tuple(kept)


def test_low_orbit_stratum_matches_all_supports():
    rng = random.Random(5120)
    for _ in range(300):
        n, m = rng.randint(1, 9), rng.randint(1, 4)
        ring = PolyRing(tuple(f"z{i}" for i in range(n)))
        entries = (0, 0, 1, -1, 2, 3)
        g = GradingMap(ring, [[rng.choice(entries) for _ in range(m)] for _ in range(n)])
        cols = [list(c) for c in g.columns]
        mu0 = rng.randint(0, m + 1)
        components = low_orbit_stratum(g, mu0).components
        assert components == _all_supports_stratum(g, mu0), (g.columns, mu0)
        for s in components:
            if len(s) == n:
                continue
            # a flat: rank mu0, and every other coordinate raises the rank
            assert intlinalg.rank([cols[i] for i in s]) == mu0
            for i in set(range(n)) - set(s):
                assert intlinalg.rank([cols[j] for j in s] + [cols[i]]) == mu0 + 1


def test_low_orbit_stratum_at_the_cap_within_budget():
    # 20 variables, the cap: columns on the three coordinate axes, with two
    # multiples of the axis vector on each of the first two
    ring = PolyRing(tuple(f"w{i}" for i in range(20)))
    x, y, z = range(0, 7), range(7, 14), range(14, 20)
    g = GradingMap(
        ring,
        [(1, 0, 0)] * 4 + [(2, 0, 0)] * 3 + [(0, 1, 0)] * 4 + [(0, 3, 0)] * 3 + [(0, 0, 1)] * 6,
    )
    start = time.perf_counter()
    assert low_orbit_stratum(g, 0).components == ((),)
    assert low_orbit_stratum(g, 1).components == (tuple(x), tuple(y), tuple(z))
    assert low_orbit_stratum(g, 2).components == ((*x, *y), (*x, *z), (*y, *z))
    assert low_orbit_stratum(g, 3).components == (tuple(range(20)),)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"stratum at the cap blew its 1 s budget: {elapsed:.2f}s"


def test_low_orbit_stratum_reads_each_flat_off_one_annihilator(monkeypatch):
    # 12 variables, 3 rows: at mu0 = 1 each column tried spans its parallel
    # class, so every subset tried gives a component; one rank runs, of all
    # the columns, and one integer kernel per subset tried, none per column
    ring = PolyRing(tuple(f"v{i}" for i in range(12)))
    columns = [
        (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, 2),
        (3, 0, 0), (1, 2, 3), (2, 2, 0), (0, 3, 0), (2, 4, 6), (1, 0, 1),
    ]
    calls = {"rank": 0, "integer_kernel": 0}
    for name in calls:

        def spy(rows, real=getattr(intlinalg, name), name=name):
            calls[name] += 1
            return real(rows)

        monkeypatch.setattr(intlinalg, name, spy)
    components = low_orbit_stratum(GradingMap(ring, columns), 1).components
    assert components == ((0, 1, 6), (2, 9), (3, 8), (4, 5), (7, 10), (11,))
    assert calls == {"rank": 1, "integer_kernel": 6}


def test_nonvanishing_and_max_dimension():
    assert nonvanishing_coordinates(SURFACE) == (0, 1, 2, 3)
    assert max_orbit_dimension(SURFACE) == 2
    line = homogeneous_ideal([Y.parse("y2"), Y.parse("y3"), Y.parse("y4")], G)
    assert nonvanishing_coordinates(line) == (0,)
    assert max_orbit_dimension(line) == 1


def test_nonvanishing_saturates_when_the_coordinate_point_is_off_the_cone(monkeypatch):
    # y1^2 - y2 y3 is 1 at e_1, yet y1 does not vanish on the cone, while
    # adding y1 y2 makes y1 vanish on both components; e_2 and e_3 lie on
    # both cones and need no saturation
    r3 = PolyRing(("y1", "y2", "y3"))
    g3 = GradingMap(r3, [(1,), (1,), (1,)])
    saturated = []
    real_saturate = orbits_module.saturate

    def spy(a, variables, weights):
        saturated.extend(variables)
        return real_saturate(a, variables, weights)

    monkeypatch.setattr(orbits_module, "saturate", spy)
    cone = homogeneous_ideal([r3.parse("y1^2 - y2 y3")], g3)
    assert nonvanishing_coordinates(cone) == (0, 1, 2)
    assert saturated == [0]
    saturated.clear()
    cone = homogeneous_ideal([r3.parse("y1^2 - y2 y3"), r3.parse("y1 y2")], g3)
    assert nonvanishing_coordinates(cone) == (1, 2)
    assert saturated == [0]


def test_coefficient_sums_decide_the_coordinate_points():
    # g vanishes at the point with ones on S and zeros elsewhere exactly
    # when its terms inside S have coefficients summing to zero; summing
    # every term instead, which evaluates at the all-ones point, disagrees
    # with evaluation on some of these draws
    rng = random.Random(20090133)
    outcomes = set()
    all_terms_wrong = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        ring = PolyRing(tuple(f"y{i}" for i in range(1, n + 1)))
        g = Polynomial(
            ring,
            {
                tuple(rng.randint(0, 2) for _ in range(n)): Fraction(rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(1, 4))
            },
        )
        drawn = tuple(sorted(rng.sample(range(n), k=rng.randint(1, n))))
        for support in ((), tuple(range(n)), drawn):
            vanishes = g.evaluate([int(i in support) for i in range(n)]) == 0
            assert _vanishes_at_ones(g, support) == vanishes, (g, support)
            outcomes.add(vanishes)
            all_terms_wrong += (not sum(g.terms.values())) != vanishes
    assert outcomes == {True, False}
    assert all_terms_wrong > 0


def test_orbit_closures_agree_with_the_full_saturation_reference():
    # closures that skip saturations against the lattice basis ideal
    # saturated by every support coordinate, and coordinate-point witnesses
    # against one saturation per coordinate, on random cones and closures
    assert reference_orbits.mismatches(300, seed=20090129) == []


def test_orbit_closures_agree_with_the_reference_on_pool_shaped_documents():
    # 8-16 variables and points zero in at least half their coordinates, so
    # the closure's toric part lives in few of the ring's variables
    document = reference_orbits.pool_document
    assert reference_orbits.mismatches(60, seed=20090131, document=document) == []


def test_one_dim_orbits_agree_with_the_full_ring_search():
    # the search in each support's subring, substituting every fixed value,
    # against the search that adds them as generators in the full ring; the
    # seed is one whose reference runs stay short, since the reference
    # backtracks exponentially over coordinates that occur in no equation
    assert reference_orbits.one_dim_mismatches(300, seed=20090138) == []
    document = reference_orbits.pool_document
    assert reference_orbits.one_dim_mismatches(60, seed=20090134, document=document) == []


def test_one_dim_orbit_search_runs_in_the_support_rings(monkeypatch):
    # every Groebner run of the search lies in the variables of one
    # qualifying support, here {y1, y2} or a single coordinate, never in
    # all six of the ring's
    ring = PolyRing(tuple(f"y{i}" for i in range(1, 7)))
    grading = GradingMap(ring, [(1, 0), (1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    cone = homogeneous_ideal([ring.parse("y1^2 - 2 y2^2")], grading)
    # the search's dimension check reads the cone's own basis, in all six
    # variables; it is computed before the spy
    krull_dimension(cone.base)
    supports = [
        {ring.names[i] for i in s} for s in low_orbit_stratum(grading, 1).components
    ]
    runs = []
    real_buchberger = ideals_module.buchberger

    def spy(generators, order, *, ring=None):
        gb = real_buchberger(generators, order, ring=ring)
        runs.append(gb.ring.names)
        return gb

    monkeypatch.setattr(ideals_module, "buchberger", spy)
    p = find_one_dim_orbit(cone)
    assert p.coords == (0, 0, 1, 0, 0, 0)
    assert runs and all(any(set(names) <= s for s in supports) for names in runs), runs


def test_find_one_dim_orbit_on_the_surface():
    p = find_one_dim_orbit(SURFACE)
    assert p.coords == (1, 0, 0, 0)
    assert orbit_dimension(p, G).dimension == 1
    assert orbit_contained(p, SURFACE)


def test_find_one_dim_orbit_needs_positive_dimension():
    origin_only = homogeneous_ideal(
        [Y.parse("y1"), Y.parse("y2"), Y.parse("y3"), Y.parse("y4")], G
    )
    try:
        find_one_dim_orbit(origin_only)
    except Rejection:
        pass
    else:
        raise AssertionError("zero-dimensional cone has no such orbit")


def test_find_one_dim_orbit_solves_torus_conditions():
    # no coordinate point works here, the search must solve on the torus
    ring = PolyRing(("u", "v"))
    g = GradingMap(ring, [(1,), (1,)])
    cone = homogeneous_ideal([ring.parse("u - 2 v")], g)
    p = find_one_dim_orbit(cone)
    assert p.coords[0] == 2 * p.coords[1] != 0
    assert orbit_dimension(p, g).dimension == 1


def _trial_division_roots(p, var):
    """The root search that exact isolation replaced: every +-num/den with
    num dividing the constant and den the lead coefficient."""
    coeffs = {e[var]: c for e, c in p.terms.items()}
    shift = min(coeffs)
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {k - shift: int(c * den) for k, c in coeffs.items()}
    if len(ints) == 1:
        return []
    lead, const = ints[max(ints)], ints[0]

    def divisors(n):
        small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
        return sorted(set(small + [n // d for d in small]))

    roots = set()
    for num in divisors(abs(const)):
        for d in divisors(abs(lead)):
            for cand in (Fraction(num, d), Fraction(-num, d)):
                if sum(c * cand**k for k, c in ints.items()) == 0:
                    roots.add(cand)
    return sorted(roots, key=lambda r: (abs(r), r < 0))


def test_rational_roots_agree_with_trial_division():
    # products of rational linear factors (repeated and non-monic), times
    # quadratics that may have no rational root, a rational scalar and x^k
    rng = random.Random(20090121)
    ring = PolyRing(("x", "y"))
    cases = with_roots = 0
    for _ in range(400):
        var = rng.randrange(2)
        x = ring.variable(var)
        p = ring.constant(random_rational(rng, nonzero=True))
        for _ in range(rng.randint(0, 3)):
            factor = ring.constant(rng.randint(1, 3)) * x - ring.constant(rng.randint(-4, 4))
            p = p * factor ** rng.choice((1, 1, 2))
        if rng.random() < 0.5:
            p = p * (ring.constant(rng.randint(1, 2)) * x * x + ring.constant(rng.randint(-5, 5)))
        if rng.random() < 0.3:
            p = p * x ** rng.randint(1, 2)
        roots = _nonzero_rational_roots(p, var)
        assert roots == _trial_division_roots(p, var), p
        cases += len(p.terms) > 1
        with_roots += bool(roots)
    assert cases >= 300 and with_roots >= 150


def test_rational_roots_match_sympy_ground_roots():
    # x^k times rational linear factors with wider coefficients than the
    # trial-division test, times a random integer polynomial (mostly without
    # rational roots) and a rational scalar; sympy finds the roots by factoring
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(20090126)
    ring = PolyRing(("x", "y"))
    with_roots = 0
    for _ in range(300):
        q = sympy.Poly(t ** rng.choice((0, 0, 1, 3)), t)
        for _ in range(rng.randint(0, 4)):
            linear = sympy.Poly(rng.randint(1, 15) * t - rng.randint(-40, 40), t)
            q *= linear ** rng.choice((1, 1, 2))
        lead = rng.choice((1, 1, rng.randint(2, 30)))
        q *= sympy.Poly([lead] + [rng.randint(-30, 30) for _ in range(rng.randint(0, 4))], t)
        scale = random_rational(rng, nonzero=True)
        var = rng.randrange(2)
        terms = {
            (k, 0) if var == 0 else (0, k): int(c) * scale
            for k, c in enumerate(reversed(q.all_coeffs()))
            if c
        }
        expected = sorted(
            (Fraction(int(r.p), int(r.q)) for r in q.ground_roots() if r),
            key=lambda r: (abs(r), r < 0),
        )
        assert _nonzero_rational_roots(Polynomial(ring, terms), var) == expected, q
        with_roots += bool(expected)
    assert with_roots >= 150


def test_free_value_candidates_are_sane():
    assert FREE_VALUE_CANDIDATES[0] == 1
    assert all(v != 0 for v in FREE_VALUE_CANDIDATES)
    assert len(set(FREE_VALUE_CANDIDATES)) == len(FREE_VALUE_CANDIDATES)


def test_cross_section_goldens():
    a = cross_section(SURFACE, (1, 2))
    assert a.index_r == 1 and a.unique
    assert a.slice_ideal.contains(Y.parse("y2 - 1"))
    b = cross_section(SURFACE, (0, 3))
    assert b.index_r == 1 and b.unique
    c = cross_section(SURFACE, (0, 1))
    assert c.index_r == 2 and not c.unique
    d = cross_section(SURFACE, (2, 3))
    assert d.index_r == 2 and not d.unique


def test_cross_section_rejections():
    try:
        cross_section(SURFACE, (1,))
    except Rejection:
        pass
    else:
        raise AssertionError("wrong count must be rejected")
    line = homogeneous_ideal([Y.parse("y2"), Y.parse("y3"), Y.parse("y4")], G)
    try:
        cross_section(line, (1,))
    except Rejection:
        pass
    else:
        raise AssertionError("identically vanishing coordinate must be rejected")
    flat_cone = homogeneous_ideal([], FLAT)
    try:
        cross_section(flat_cone, (1, 2))
    except DependentColumnsError:
        pass
    else:
        raise AssertionError("parallel columns must be rejected")


def test_rational_curve_golden():
    p = point(Y, (1, 1, 1, Fraction(-1, 2)))
    curve = rational_curve_through(p, G)
    assert curve.exponents == (3, 1, 1, 5)
    assert curve.at(0).support() == ()
    assert curve.at(1) == p
    assert curve.at(2).coords == (8, 2, 2, -16)
    assert curve.stays_on(SURFACE)
    off = rational_curve_through(point(Y, (1, 1, 1, 1)), G)
    assert not off.stays_on(SURFACE)


def test_curve_exponents_are_primitive_and_positive():
    rng = random.Random(6603)
    ring = PolyRing(("a", "b", "c"))
    for _ in range(10):
        cols = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(3)]
        g = GradingMap(ring, cols)
        if not isinstance(g.positivity(), PositivityWitness):
            continue
        curve = rational_curve_through(point(ring, (1, 2, 3)), g)
        assert all(e > 0 for e in curve.exponents)
        from math import gcd

        assert gcd(*curve.exponents) == 1


def test_curve_needs_positive_grading():
    ring = PolyRing(("u", "v"))
    g = GradingMap(ring, [(1,), (-1,)])
    try:
        rational_curve_through(point(ring, (1, 1)), g)
    except NonPositiveGradingError as err:
        assert err.certificate == (1, 1)
        assert str(err) == "curves to the origin need a positive grading"
    else:
        raise AssertionError("mixed-sign weights admit no curve to the origin")


def test_curve_composition_profile():
    curve = rational_curve_through(point(Y, (1, 1, 1, 1)), G)
    profile = torus_restriction(F, curve.point, curve.degree)
    # all three monomials land in t-degree 8 and the coefficients add up
    assert profile == {8: Fraction(3)}


def test_singular_locus_is_a_union_of_orbits():
    sing = singular_locus(SURFACE)
    locus = homogeneous_ideal(
        [g.scaled_primitive() for g in sing.presentation.generators], G
    )
    for coords in [(0, 1, 0, 0), (0, 0, 1, 0)]:
        assert orbit_contained(point(Y, coords), locus)
