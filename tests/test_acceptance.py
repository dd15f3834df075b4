"""Acceptance gate: every advertised capability, each with a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; each test also enforces its own wall-clock budget.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd

import pytest

from gradedcones.cli import main
from gradedcones.cones import (
    MINOR_LIMIT,
    TAIL_LIMIT,
    homogeneous_ideal,
    linear_part,
    minimal_embedding,
    singular_locus,
    smooth_at_origin,
)
from gradedcones.errors import ParseFailure
from gradedcones.grading import (
    GradingMap,
    NonPositivityCertificate,
    PositivityWitness,
)
from gradedcones.groebner import buchberger
from gradedcones.ideals import (
    IdealPresentation,
    ideal_sum,
    krull_dimension,
    saturate,
)
from gradedcones.orbits import (
    low_orbit_stratum,
    orbit_closure_ideal,
    point,
    rational_curve_through,
)
from gradedcones.orders import TermOrder
from gradedcones.rings import PolyRing, Polynomial
from gradedcones.session import parse_session
from gradedcones.strata import MonomialIdealSpec, reduced_stratum, stratum_ideal, tail_scheme

from helpers import (
    random_homogeneous_generators,
    random_positive_grading,
    random_rational,
    rename,
    stratum_cone,
    torus_scaled,
)

Y = PolyRing(("y1", "y2", "y3", "y4"))
G = GradingMap(Y, [(1, 2), (1, 0), (0, 1), (2, 3)])
F = Y.parse("y1^2 y2 y3 + y1 y4 + y2 y3^2 y4")
SURFACE = homogeneous_ideal([F], G)

DOC = """\
ring y1 y2 y3 y4 ;
grading [[1,2],[1,0],[0,1],[2,3]] ;
ideal F = y1^2 y2 y3 + y1 y4 + y2 y3^2 y4 ;
"""


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} ({label}): PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} blew its {budget}s budget: {elapsed:.2f}s"


def surface_point(y1, y2, y3):
    """The unique point of the surface over (y1, y2, y3), if y4 is determined."""
    y1, y2, y3 = Fraction(y1), Fraction(y2), Fraction(y3)
    den = y1 + y2 * y3**2
    if den == 0:
        return None
    y4 = -(y1**2 * y2 * y3) / den
    coords = (y1, y2, y3, y4)
    assert F.evaluate(list(coords)) == 0
    return coords


def test_criterion_01_homogeneity_check(capsys, tmp_path):
    with criterion(1, "degree check", 1.0):
        assert G.homogeneous_degree(F) == (3, 5)
        path = tmp_path / "doc.gc"
        path.write_text(DOC)
        code = main(["check", "--json", "--file", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        (entry,) = report["result"]["ideals"]
        assert entry["homogeneous"] is True
        assert entry["generators"][0]["degree"] == [3, 5]


def test_criterion_02_orbit_closure():
    with criterion(2, "orbit closure", 5.0):
        cl = orbit_closure_ideal(point(Y, (1, 1, 1, 1)), G)
        expected = IdealPresentation(
            Y, [Y.parse("y1 - y2 y3^2"), Y.parse("y4 - y2^2 y3^3")]
        )
        assert cl.base.included_in(expected) and expected.included_in(cl.base)

        rng = random.Random(101)
        lex = TermOrder.lex()
        for _ in range(5):
            a1 = random_rational(rng)
            a2 = random_rational(rng, nonzero=True)
            a3 = random_rational(rng, nonzero=True)
            a4 = random_rational(rng)
            got = orbit_closure_ideal(point(Y, (a1, a2, a3, a4)), G)
            formula = [
                Y.parse("y1") * (a2 * a3**2) - Y.parse("y2 y3^2") * a1,
                Y.parse("y4") * (a2**2 * a3**3) - Y.parse("y2^2 y3^3") * a4,
            ]
            normalized = {
                repr(lex.positive_leading(p.scaled_primitive())) for p in formula
            }
            assert {repr(g) for g in got.base.generators} == normalized
            assert got.base.same_ideal(IdealPresentation(Y, formula))


def test_criterion_03_low_orbit_stratum():
    with criterion(3, "orbit-dimension stratum", 1.0):
        flat = GradingMap(Y, [(1, 0), (0, 1), (0, 1), (0, 1)])
        assert low_orbit_stratum(flat, 1).components == ((1, 2, 3), (0,))


def test_criterion_04_singular_locus():
    with criterion(4, "singular locus membership", 10.0):
        sing = singular_locus(SURFACE)
        assert sing.exact and not sing.empty
        gens = sing.presentation.generators
        rng = random.Random(104)

        special = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)]
        for coords in special:
            values = [Fraction(v) for v in coords]
            assert all(g.evaluate(values) == 0 for g in gens)
        for base in ((0, 1, 0, 0), (0, 0, 1, 0)):
            for _ in range(10):
                t = tuple(random_rational(rng, nonzero=True) for _ in range(2))
                moved = list(torus_scaled(base, t, G))
                assert all(g.evaluate(moved) == 0 for g in gens)

        found = 0
        while found < 10:
            coords = surface_point(
                random_rational(rng, nonzero=True),
                random_rational(rng, nonzero=True),
                random_rational(rng, nonzero=True),
            )
            if coords is None or any(c == 0 for c in coords):
                continue
            found += 1
            assert any(g.evaluate(list(coords)) != 0 for g in gens)


def test_criterion_05_graded_ideal_arithmetic():
    with criterion(5, "sum/saturation homogeneity", 300.0):
        rng = random.Random(105)
        for _ in range(100):
            nvars = rng.randint(2, 4)
            ring = PolyRing(tuple(f"x{i}" for i in range(nvars)))
            grading = random_positive_grading(rng, ring, rng.randint(1, 2))
            a = IdealPresentation(
                ring, random_homogeneous_generators(rng, grading, max_gens=3)
            )
            b = IdealPresentation(
                ring, random_homogeneous_generators(rng, grading, max_gens=3)
            )
            weights = grading.require_positive().dots
            saturated = saturate(a, [rng.randrange(nvars)], weights)
            for combined in (ideal_sum(a, b), saturated):
                for g in combined.generators:
                    assert grading.is_homogeneous(g)


def test_criterion_06_minimal_embeddings():
    with criterion(6, "embedding regeneration and smoothness", 300.0):
        rng = random.Random(106)
        done = 0
        while done < 50:
            nvars = rng.randint(2, 4)
            ring = PolyRing(tuple(f"x{i}" for i in range(nvars)))
            grading = random_positive_grading(rng, ring, rng.randint(1, 2))
            gens = random_homogeneous_generators(rng, grading, max_gens=3, max_degree=3)
            cone = homogeneous_ideal(gens, grading)
            done += 1

            emb = minimal_embedding(cone)
            assert len(emb.kept) == emb.tangent_dim
            assert linear_part(emb.embedded).dimension() == 0
            assert krull_dimension(emb.embedded.base) == krull_dimension(cone.base)

            lifted = [rename(g, ring, emb.kept) for g in emb.embedded.base.generators]
            relations = [ring.variable(p) - emb.substitution[p] for p in emb.eliminated]
            assert IdealPresentation(ring, lifted + relations).same_ideal(cone.base)

            # the embedding decides smoothness; the dimension criterion checks it
            report = smooth_at_origin(cone)
            dim = krull_dimension(cone.base)
            assert report.smooth == (dim == emb.tangent_dim)
            assert report.cone_dim == dim


def test_criterion_07_equivariance():
    with criterion(7, "torus equivariance", 30.0):
        rng = random.Random(107)
        for _ in range(100):
            nvars = rng.randint(2, 4)
            ring = PolyRing(tuple(f"x{i}" for i in range(nvars)))
            grading = random_positive_grading(rng, ring, rng.randint(1, 2))
            (f,) = random_homogeneous_generators(rng, grading, max_gens=1)
            degree = grading.homogeneous_degree(f)
            coords = tuple(random_rational(rng) for _ in range(nvars))
            t = tuple(random_rational(rng, nonzero=True) for _ in range(grading.m))
            scale = Fraction(1)
            for tv, d in zip(t, degree):
                scale *= tv**d
            moved = list(torus_scaled(coords, t, grading))
            assert f.evaluate(moved) == scale * f.evaluate(list(coords))


def test_criterion_08_positivity_dichotomy():
    with criterion(8, "positivity dichotomy", 30.0):
        rng = random.Random(108)
        witnesses = certificates = 0
        for _ in range(100):
            m = rng.randint(1, 3)
            s = rng.randint(1, 5)
            ring = PolyRing(tuple(f"x{i}" for i in range(s)))
            cols = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(s)]
            grading = GradingMap(ring, cols)
            verdict = grading.positivity()
            if isinstance(verdict, PositivityWitness):
                witnesses += 1
                assert len(verdict.dots) == s
                for col, dot in zip(cols, verdict.dots):
                    assert sum(w * x for w, x in zip(verdict.omega, col)) == dot > 0
            else:
                assert isinstance(verdict, NonPositivityCertificate)
                certificates += 1
                alpha = verdict.alpha
                assert all(a >= 0 for a in alpha) and any(a > 0 for a in alpha)
                for k in range(m):
                    assert sum(alpha[i] * cols[i][k] for i in range(s)) == 0
        assert witnesses + certificates == 100
        assert witnesses > 0 and certificates > 0


def test_criterion_09_groebner_strata():
    with criterion(9, "stratum goldens and fibers", 5.0):
        lex = TermOrder.lex()

        one = reduced_stratum(MonomialIdealSpec(PolyRing(("x0", "x1")), ((1, 0),), lex))
        assert one.stratum_ideal.is_zero_ideal()
        assert one.scheme.coefficient_ring.nvars == 1

        ring = PolyRing(("x", "y"))
        square = reduced_stratum(MonomialIdealSpec(ring, ((2, 0), (1, 1), (0, 2)), lex))
        assert square.scheme.coefficient_ring.nvars == 0
        assert square.stratum_ideal.is_zero_ideal()

        j = MonomialIdealSpec(ring, ((2, 0), (1, 1)), lex)
        result = reduced_stratum(j)
        assert [repr(g) for g in result.stratum_ideal.generators] == ["C1 + C2^2"]
        assert result.scheme.coefficient_grading.columns == ((2, -2), (1, -1))
        assert isinstance(result.scheme.coefficient_grading.positivity(), PositivityWitness)
        assert result.reduced.embedded.base.is_zero_ideal()
        assert result.reduced.embedded.ring.names == ("C2",)

        scheme = tail_scheme(j)
        for c in (0, 1, -1, 2, -2):
            c = Fraction(c)
            values = {0: -(c**2), 1: c}
            gens = []
            for h, head in enumerate(scheme.heads):
                terms = {head: Fraction(1)}
                for k, (hk, beta) in enumerate(scheme.pairs):
                    if hk == h and values[k]:
                        terms[beta] = values[k]
                gens.append(Polynomial(ring, terms))
            gb = buchberger(gens, lex)
            assert {lex.leading_exponent(g) for g in gb.elements} == {(2, 0), (1, 1)}


def test_criterion_10_curves_to_the_origin():
    with criterion(10, "rational curves through the origin", 10.0):
        rng = random.Random(110)
        tested_on_surface = 0
        for k in range(20):
            if k % 2 == 0:
                coords = None
                while coords is None:
                    coords = surface_point(
                        random_rational(rng, nonzero=True),
                        random_rational(rng, nonzero=True),
                        random_rational(rng, nonzero=True),
                    )
            else:
                coords = tuple(random_rational(rng) for _ in range(4))
            p = point(Y, coords)
            curve = rational_curve_through(p, G)
            assert curve.exponents == (3, 1, 1, 5)
            assert gcd(*curve.exponents) == 1
            assert curve.at(0).support() == ()
            assert curve.at(1) == p
            if F.evaluate(list(coords)) == 0:
                tested_on_surface += 1
                assert curve.stays_on(SURFACE)
        assert tested_on_surface >= 10


def test_criterion_11_one_line_stratum(capsys, tmp_path):
    # one head of degree 1000 in two variables has 1000 same-degree tails,
    # each with its own coefficient variable, and no pairs to reduce
    with criterion(11, "one-line stratum x^1000", 1.0):
        path = tmp_path / "doc.gc"
        path.write_text("ring x y ; ideal J = x^1000 ;\n")
        code = main(["stratum", "--json", "--file", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(report["result"]["coefficients"]) == 1000
        assert report["result"]["generators"] == []


def test_criterion_12_full_stratum_with_78_coefficients(capsys, tmp_path):
    # the full tail scheme gives 78 coefficient variables graded in Z^4, so
    # the positivity LP runs the simplex on a 78-row tableau; the report's
    # digest was recorded with the Fraction tableau the integer one replaced
    with criterion(12, "full stratum, 78 coefficients", 1.0):
        path = tmp_path / "doc.gc"
        path.write_text("ring x y z w ; ideal J = w^2, y^2 z^3 ;\n")
        code = main(["stratum", "--mode", "full", "--json", "--file", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert len(json.loads(out)["result"]["coefficients"]) == 78
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "700de8e801b5820033ffc965a9c254bf5d6e6e403a894831bd0ce5ac53ac06cf"
        )


def test_criterion_13_long_ring_declaration():
    # a duplicate variable is looked up among the names already declared,
    # which must not cost a pass over them per name
    names = [f"v{i}" for i in range(50_000)]
    with criterion(13, "ring of 50000 variables", 1.0):
        session = parse_session("ring " + " ".join(names) + " ;")
        assert session.ring.nvars == 50_000
        text = "ring " + " ".join(names) + " v7 ;"
        with pytest.raises(ParseFailure) as info:
            parse_session(text)
        assert info.value.reason == "duplicate variable 'v7'"
        assert (info.value.line, info.value.column) == (1, text.rindex("v7") + 1)


def test_criterion_14_embedding_of_a_68_coefficient_stratum():
    # the stratum of x^3, x^2y, xy^2, x^2z, x^2w in x y z w under degrevlex
    # has 68 coefficient variables, of which the graded substitution
    # eliminates 57; the cone is built without homogeneous_ideal, whose
    # properness check would compute a Groebner basis of the stratum ideal
    ring = PolyRing(("x", "y", "z", "w"))
    heads = ((3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1))
    scheme = tail_scheme(MonomialIdealSpec(ring, heads, TermOrder.degrevlex()))
    ideal = stratum_ideal(scheme).stratum_ideal
    cone = stratum_cone(ideal, scheme.coefficient_grading)
    with criterion(14, "embedding of a 68-coefficient stratum", 1.5):
        emb = minimal_embedding(cone)
    assert scheme.coefficient_ring.nvars == 68
    assert (len(emb.kept), emb.tangent_dim) == (11, 11)
    assert emb.embedded.base.is_zero_ideal()
    for g in ideal.generators:
        assert emb.substitute(g).is_zero()


def test_criterion_15_singular_locus_with_too_many_minors(capsys, tmp_path):
    # twelve quadrics of codimension 6 in twelve variables have C(12, 6)^2
    # Jacobian minors of size 6; they are counted, not expanded
    with criterion(15, "singular locus past the minor limit", 1.0):
        path = tmp_path / "doc.gc"
        path.write_text(
            "ring a b c d e f g h i j k l ; "
            "grading [[1],[1],[1],[1],[1],[1],[1],[1],[1],[1],[1],[1]] ; "
            "ideal I = a^2, b^2, c^2, d^2, e^2, f^2, a*b, c*d, e*f, a*c, b*d, e*a ;\n"
        )
        code = main(["singular", "--json", "--file", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["diagnostics"] == {
            "error": "Rejection",
            "message": f"the singular locus needs {comb(12, 6) ** 2} Jacobian minors "
            f"of size 6, more than the limit of {MINOR_LIMIT}",
        }


def test_criterion_16_singular_locus_of_large_minors(capsys, tmp_path):
    # eight quadrics in ten variables have 45 Jacobian minors of size 8, and
    # twelve squares in twelve variables one of size 12: the budget holds
    # only if a minor costs about c*n products, not the c! of a cofactor
    # expansion
    path = tmp_path / "doc.gc"
    with criterion(16, "singular locus with minors of size 8 and 12", 1.0):
        path.write_text(
            "ring a b c d e f g h i j ; grading [[1],[1],[1],[1],[1],[1],[1],[1],[1],[1]] ; "
            "ideal I = a^2 + i j, b^2 + i^2, c^2 + j^2, d^2 + i j, e^2 + i^2, f^2 + j^2, "
            "g^2 + i j, h^2 + i^2 ;\n"
        )
        code = main(["singular", "--json", "--file", str(path)])
        quadrics = json.loads(capsys.readouterr().out)["result"]
        assert code == 0
        path.write_text(
            "ring a b c d e f g h i j k l ; "
            "grading [[1],[1],[1],[1],[1],[1],[1],[1],[1],[1],[1],[1]] ; "
            "ideal I = a^2, b^2, c^2, d^2, e^2, f^2, g^2, h^2, i^2, j^2, k^2, l^2 ;\n"
        )
        code = main(["singular", "--json", "--file", str(path)])
        squares = json.loads(capsys.readouterr().out)["result"]
        assert code == 0
    # 33 of the 45 minors are nonzero
    assert (quadrics["codimension"], len(quadrics["generators"])) == (8, 8 + 33)
    assert squares["codimension"] == 12 and squares["exact"] and not squares["empty"]
    assert squares["generators"] == [f"{v}^2" for v in "abcdefghijkl"] + [
        "4096*a*b*c*d*e*f*g*h*i*j*k*l"
    ]


WIDE_SUPPORT = (1, 7, 13, 19, 25)  # the nonzero coordinates of the wide rings' point


def wide_orbit_closure(capsys, tmp_path, n, number, budget=1.0):
    """orbit-closure through the CLI at a point with 5 nonzero coordinates in n variables.

    The grading has two positive rows; returns the report and the names of
    the vanishing coordinates.
    """
    coords = ["0"] * n
    for i, value in zip(WIDE_SUPPORT, ("1", "2", "-1", "1/2", "3")):
        coords[i - 1] = value
    path = tmp_path / "doc.gc"
    path.write_text(
        "ring " + " ".join(f"y{i}" for i in range(1, n + 1)) + " ;\n"
        "grading [" + ",".join(f"[{1 + i % 5},{1 + i % 7}]" for i in range(n)) + "] ;\n"
        "point P = (" + ", ".join(coords) + ") ;\n"
    )
    with criterion(number, f"orbit closure in a {n}-variable ring", budget):
        code = main(["orbit-closure", "--point", "P", "--json", "--file", str(path)])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 0
    return result, [f"y{i}" for i in range(1, n + 1) if i not in WIDE_SUPPORT]


def test_criterion_17_orbit_closure_in_a_300_variable_ring(capsys, tmp_path):
    # a point with 5 nonzero coordinates in 300 variables: the 295 vanishing
    # coordinates are lone-variable generators, which go straight into each
    # reduced basis instead of through the pair loop (35 s before)
    result, vanishing = wide_orbit_closure(capsys, tmp_path, 300, 17)
    generators = result["generators"]
    assert result["dimension"] == 2
    assert sorted(g for g in generators if g in vanishing) == sorted(vanishing)
    assert [g for g in generators if g not in vanishing] == [
        "3*y1^9 - 2*y19*y25",
        "y7*y19 - y13^2",
        "y7*y25 + 12*y13*y19",
        "y13*y25 + 12*y19^2",
    ]


def test_criterion_18_orbit_closure_in_a_1000_variable_ring(capsys, tmp_path):
    # every vanishing coordinate is a one-variable leading term, which the
    # Krull dimension takes as a forced choice instead of one recursion
    # level each (a RecursionError before)
    result, vanishing = wide_orbit_closure(capsys, tmp_path, 1000, 18)
    generators = result["generators"]
    assert len(vanishing) == 995
    assert result["dimension"] == 2
    assert sorted(g for g in generators if g in vanishing) == sorted(vanishing)
    assert len(generators) == 995 + 4


def test_criterion_19_stratum_past_the_tail_limit(capsys, tmp_path):
    # a head of degree 1000 in ten variables has C(1009, 9) monomials of its
    # degree, counted before any is enumerated; in full mode the search
    # stops at the first tail past the limit
    path = tmp_path / "doc.gc"
    with criterion(19, "stratum past the tail limit", 1.0):
        reports = []
        for doc, mode in (
            ("ring a b c d e f g h i j ; ideal J = a^1000 ;\n", "homogeneous"),
            ("ring x y ; ideal J = x^70, y^70 ;\n", "full"),
        ):
            path.write_text(doc)
            code = main(["stratum", "--mode", mode, "--json", "--file", str(path)])
            reports.append(json.loads(capsys.readouterr().out))
            assert code == 1
    assert [r["diagnostics"] for r in reports] == [
        {
            "error": "Rejection",
            "message": f"the tail scan reaches {comb(1009, 9)} monomials, "
            f"more than the limit of {TAIL_LIMIT}",
        },
        {
            "error": "Rejection",
            "message": f"the tail scan reaches {TAIL_LIMIT + 1} monomials, "
            f"more than the limit of {TAIL_LIMIT}",
        },
    ]


def test_criterion_20_long_grading_and_point():
    # the degree vectors and the coordinates are each read in one loop, and
    # an error's line and column come from one more scan up to its token:
    # neither may cost a pass over the document per entry
    n = 50_000
    text = (
        "ring " + " ".join(f"v{i}" for i in range(n)) + " ;\n"
        "grading [" + ",".join(f"[{1 + i % 3},-{i % 5}]" for i in range(n)) + "] ;\n"
        "point P = (" + ", ".join(f"{i % 7}/{1 + i % 4}" for i in range(n)) + ") ;\n"
    )
    with criterion(20, "grading and point of 50000 entries", 1.0):
        session = parse_session(text)
        assert session.grading.columns[-1] == (1 + (n - 1) % 3, -((n - 1) % 5))
        assert session.points["P"][-1] == Fraction((n - 1) % 7, 1 + (n - 1) % 4)
    head, tail = text.rsplit("/", 1)
    bad = f"{head}/0) ;\n"
    with criterion(20, "zero denominator in the 50000th coordinate", 1.0):
        with pytest.raises(ParseFailure) as info:
            parse_session(bad)
        assert info.value.reason == "zero denominator"
        assert (info.value.line, info.value.column) == (3, len(head) + 1 - head.rindex("\n"))


def test_criterion_21_orbit_closure_in_a_4000_variable_ring(capsys, tmp_path):
    # the toric part is computed in the ring of the 5 support variables, and
    # each vanishing coordinate joins its lex basis as it is, before the
    # first support variable of every later lead (4.3 s before)
    result, vanishing = wide_orbit_closure(capsys, tmp_path, 4000, 21, budget=2.5)
    toric = {
        1: ["3*y1^9 - 2*y19*y25"],
        7: ["y7*y19 - y13^2", "y7*y25 + 12*y13*y19"],
        13: ["y13*y25 + 12*y19^2"],
    }
    assert result["dimension"] == 2
    assert len(vanishing) == 3995
    assert result["generators"] == [
        g for i in range(1, 4001) for g in (toric.get(i, []) if i in WIDE_SUPPORT else [f"y{i}"])
    ]


def test_criterion_22_one_dim_orbit_over_free_coordinates(capsys, tmp_path):
    # y1, y2, y4, y5 and y6 occur in no equation, so each is fixed at the
    # first free value alone; trying all eight values at each of the six
    # coordinates before y7, which -4/3 y3^2 = y7^2 makes irrational, ran
    # 299593 eliminations (211 s before, on a 2-core x86-64 machine)
    path = tmp_path / "doc.gc"
    path.write_text(
        "ring y1 y2 y3 y4 y5 y6 y7 ; grading [[2],[3],[3],[3],[1],[1],[3]] ;\n"
        "ideal F = -4/3 y3^3 - y3 y7^2 ;\n"
    )
    with criterion(22, "one-dimensional orbit over free coordinates", 1.0):
        code = main(["one-dim-orbit", "--json", "--file", str(path)])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 0
    assert result["point"] == "(1, 1, 0, 0, 0, 0, 0)"
    assert result["support"] == ["y1", "y2"]


def test_criterion_23_orbit_closure_of_a_wide_lattice(capsys, tmp_path):
    # eight support coordinates and four grading rows: saturating the
    # binomials of the Hermite kernel basis took 27.5 s (on a 2-core x86-64
    # machine); those of the LLL-reduced basis give the same reduced lex
    # basis, whose report's digest was recorded from the Hermite basis
    path = tmp_path / "doc.gc"
    path.write_text(
        "ring y0 y1 y2 y3 y4 y5 y6 y7 ;\n"
        "grading [[3,0,3,3],[3,0,1,3],[2,2,1,0],[3,3,2,0],[1,2,0,3],[1,2,3,3],[2,2,3,1],[3,2,2,1]] ;\n"
        "point P = (-2, -1, -2, 3, -2, 1, 3, 1) ;\n"
    )
    with criterion(23, "orbit closure of an 8-coordinate support, 4 rows", 1.0):
        code = main(["orbit-closure", "--point", "P", "--file", str(path)])
        out = capsys.readouterr().out
        assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "96b681cfa2872b9a472d3981ea935f608d1d53a81fb9b71a7bd35691facf0849"
    )
