"""The elimination-basis minimal embedding that cones.py replaced, kept as a reference.

The reference computes the reduced basis of the whole cone ideal under a
block order (eliminated variables first, ties by degrevlex) and reads the
substitution and the embedded generators off it; its linear part is a
Gauss-Jordan elimination on coefficient rows.  `tests/test_cones.py` runs
`mismatches` on seeded cones, with and without a kept set, and on stratum
cones: the linear parts, the kept and eliminated variables, the
substitutions, the embedded rings, generators and gradings, the tangent
dimensions, or the rejection messages, must agree.

The `smooth` stream (`smooth_mismatches`) holds `cones.smooth_at_origin`,
which decides by the embedded ideal, to the dimension criterion it
replaced: a cone is smooth at the origin exactly when its Krull dimension
is its tangent dimension.  Graph cones make most of its cones smooth with
a linear part.

Run this file directly to do either check without pytest:

    PYTHONPATH=src python3 tests/reference_embedding.py [count] [seed] [smooth]
"""

from __future__ import annotations

import random
from fractions import Fraction

from gradedcones.cones import (
    EmbeddingResult,
    HomogeneousIdeal,
    LinearPartBasis,
    SmoothnessReport,
    homogeneous_ideal,
    linear_part,
    minimal_embedding,
    smooth_at_origin,
)
from gradedcones.errors import Rejection
from gradedcones.grading import GradingMap, PositivityWitness
from gradedcones.ideals import krull_dimension
from gradedcones.orders import TermOrder
from gradedcones.rings import PolyRing, Polynomial
from gradedcones.strata import MonomialIdealSpec, stratum_ideal, tail_scheme

from helpers import (
    exponents_up_to,
    random_homogeneous_generators,
    random_positive_grading,
    stratum_cone,
)


def reference_linear_part(cone: HomogeneousIdeal) -> LinearPartBasis:
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
        forms.append(Polynomial(ring, terms))
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


def reference_minimal_embedding(cone: HomogeneousIdeal, kept=None) -> EmbeddingResult:
    ring = cone.ring
    n = ring.nvars
    lin = reference_linear_part(cone)
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
    moved = [_into_kept(g, sub_grading.ring, kept_list) for g in embedded_gens]
    embedded = homogeneous_ideal(moved, sub_grading)
    return EmbeddingResult(
        source=cone,
        kept=tuple(kept_list),
        eliminated=tuple(eliminated),
        substitution=substitution,
        embedded=embedded,
        tangent_dim=tangent,
    )


def _into_kept(g: Polynomial, kept_ring: PolyRing, kept_list) -> Polynomial:
    """g, free of eliminated variables, renamed into the ring on the kept ones."""
    where = {i: pos for pos, i in enumerate(kept_list)}
    terms = {}
    for e, c in g.terms.items():
        moved = [0] * kept_ring.nvars
        for i, k in enumerate(e):
            if k:
                moved[where[i]] = k
        terms[tuple(moved)] = c
    return Polynomial(kept_ring, terms)


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


# -- the comparison -------------------------------------------------------------


def embedding_view(embed, refusal, cone, kept=None):
    """Everything a report reads off an embedding, or the message of its refusal.

    refusal is the exception type embed refuses a kept set with: Rejection
    for cones.minimal_embedding, ValueError for the reference.  Any other
    exception escapes.
    """
    try:
        emb = embed(cone, kept=kept)
    except refusal as err:
        return ("rejected", str(err))
    return (
        emb.kept,
        emb.eliminated,
        list(emb.substitution.items()),
        emb.embedded.ring,
        emb.embedded.base.generators,
        emb.embedded.grading.columns,
        emb.tangent_dim,
    )


def random_cone(rng: random.Random) -> HomogeneousIdeal:
    """A cone in 2-5 variables whose generators mostly carry a linear term.

    Four generators in five take the degree of a random variable and hold
    that variable plus up to two other monomials of its degree; the rest
    take the degree of a random monomial of standard degree 2 or 3 and hold
    up to three monomials of that degree.
    """
    n = rng.randint(2, 5)
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    grading = _positive_grading(rng, ring)
    exponents = [e for e in exponents_up_to(n, 3) if any(e)]
    by_degree = _by_degree(grading, exponents)
    gens = []
    for _ in range(rng.randint(1, n)):
        if rng.random() < 0.8:
            j = rng.randrange(n)
            unit = tuple(int(i == j) for i in range(n))
            same = [e for e in by_degree[grading.degree(unit)] if e != unit]
            chosen = [unit] + rng.sample(same, k=min(len(same), rng.randint(0, 2)))
        else:
            exps = by_degree[grading.degree(rng.choice([e for e in exponents if sum(e) >= 2]))]
            chosen = rng.sample(exps, k=min(len(exps), rng.randint(1, 3)))
        gens.append(Polynomial(ring, {e: _rational(rng) for e in chosen}))
    return homogeneous_ideal(gens, grading)


def _positive_grading(rng: random.Random, ring: PolyRing) -> GradingMap:
    """1 or 2 rows of entries -1..3, drawn until the grading is positive."""
    m = rng.randint(1, 2)
    while True:
        grading = GradingMap(
            ring, [tuple(rng.randint(-1, 3) for _ in range(m)) for _ in range(ring.nvars)]
        )
        if isinstance(grading.positivity(), PositivityWitness):
            return grading


def _by_degree(grading: GradingMap, exponents) -> dict:
    """The exponents grouped by their degree, each group in the given order."""
    out: dict = {}
    for e in exponents:
        out.setdefault(grading.degree(e), []).append(e)
    return out


def random_graph_cone(rng: random.Random) -> HomogeneousIdeal:
    """A smooth cone in 2-5 variables: the graph of a map to some of the coordinates.

    For each p of a random nonempty set of variables the generator is
    x_p - f_p, with f_p up to three monomials of x_p's degree and of
    standard degree 2 or 3 (none of them holds x_p: the rest of it would
    have degree zero), so the cone is smooth with tangent space the other
    coordinates.  One time in three x_q g_p + x_p g_q, for two of these
    generators g_p and g_q, is added: a generator of the ideal with no
    linear part.
    """
    n = rng.randint(2, 5)
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    grading = _positive_grading(rng, ring)
    by_degree = _by_degree(grading, [e for e in exponents_up_to(n, 3) if sum(e) >= 2])
    graph = {}
    for p in sorted(rng.sample(range(n), k=rng.randint(1, n))):
        same = by_degree.get(grading.columns[p], [])
        chosen = rng.sample(same, k=min(len(same), rng.randint(0, 3)))
        graph[p] = ring.variable(p) - Polynomial(ring, {e: _rational(rng) for e in chosen})
    gens = list(graph.values())
    if len(graph) >= 2 and rng.random() < 1 / 3:
        p, q = rng.sample(sorted(graph), k=2)
        gens.append(ring.variable(q) * graph[p] + ring.variable(p) * graph[q])
    return homogeneous_ideal(gens, grading)


def random_generic_cone(rng: random.Random) -> HomogeneousIdeal:
    """A cone in 2-5 variables on up to three random homogeneous generators of
    standard degree at most 3, drawn by `helpers.random_homogeneous_generators`."""
    ring = PolyRing(tuple(f"x{i}" for i in range(rng.randint(2, 5))))
    grading = random_positive_grading(rng, ring, rng.randint(1, 2))
    return homogeneous_ideal(random_homogeneous_generators(rng, grading, 3, 3), grading)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


def random_stratum_cone(rng: random.Random) -> HomogeneousIdeal:
    """The stratum cone of a random monomial ideal in 2-3 variables.

    Exponents run from 0 to 2: with 3, some strata take the reference's
    elimination basis over a minute, where the substitution takes 0.01 s.
    """
    n = rng.randint(2, 3)
    ring = PolyRing(("x", "y", "z")[:n])
    order = rng.choice([TermOrder.lex(), TermOrder.degrevlex()])
    while True:
        gens = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))}
        gens = [e for e in gens if any(e)]
        minimal = [
            e for e in gens if not any(f != e and all(map(int.__le__, f, e)) for f in gens)
        ]
        if minimal:
            break
    scheme = tail_scheme(MonomialIdealSpec(ring, tuple(minimal), order))
    return stratum_cone(stratum_ideal(scheme).stratum_ideal, scheme.coefficient_grading)


def mismatches(count: int, seed: int) -> list[str]:
    """Descriptions of the cones on which the two embeddings disagree.

    count random cones, each embedded minimally and, two times in five,
    with a random kept set, then count // 10 stratum cones embedded
    minimally.
    """
    rng = random.Random(seed)
    bad = []
    cases = []
    for _ in range(count):
        cone = random_cone(rng)
        cases.append((cone, None))
        if rng.random() < 0.4:
            n = cone.ring.nvars
            cases.append((cone, rng.sample(range(n), k=rng.randint(0, n))))
    for _ in range(count // 10):
        cases.append((random_stratum_cone(rng), None))
    for cone, kept in cases:
        if linear_part(cone) != reference_linear_part(cone):
            bad.append(f"linear part of {cone!r}")
        ours = embedding_view(minimal_embedding, Rejection, cone, kept)
        theirs = embedding_view(reference_minimal_embedding, ValueError, cone, kept)
        if ours != theirs:
            bad.append(f"{cone!r} kept={kept}: {ours} != {theirs}")
    return bad


def smooth_mismatches(count: int, seed: int) -> tuple[list[str], int]:
    """The cones whose smoothness report disagrees with the dimension
    criterion, and how many cones were smooth with a linear part.

    count cones, three in five `random_graph_cone`s and the rest
    `random_generic_cone`s.  The report must read the ambient, linear-part
    and tangent dimensions off the reference linear part, cone_dim must be
    the Krull dimension of the cone's ideal, and the cone is smooth
    exactly when that dimension is the tangent dimension.
    """
    rng = random.Random(seed)
    bad = []
    smooth_linear = 0
    for _ in range(count):
        cone = random_graph_cone(rng) if rng.random() < 0.6 else random_generic_cone(rng)
        report = smooth_at_origin(cone)
        n = cone.ring.nvars
        e = reference_linear_part(cone).dimension()
        dim = krull_dimension(cone.base)
        want = SmoothnessReport(
            ambient=n, cone_dim=dim, linear_dim=e, tangent_dim=n - e, smooth=dim == n - e
        )
        if report != want:
            bad.append(f"{cone!r}: {report} != {want}")
        smooth_linear += report.smooth and e > 0
    return bad, smooth_linear


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20090120
    if sys.argv[3:] == ["smooth"]:
        bad, smooth_linear = smooth_mismatches(count, seed)
        print(
            f"{count} cones, seed {seed}, smooth: {smooth_linear} smooth with a linear part, "
            f"{len(bad)} mismatches"
        )
    else:
        bad = mismatches(count, seed)
        print(f"{count} cones, seed {seed}: {len(bad)} mismatches")
    for line in bad[:10]:
        print(line)
    sys.exit(1 if bad else 0)
