"""The operations each workload runs: one CLI argv plus one input document.

Every workload draws from a fixed pool.  The pool is generated from its own
constant seed (POOL_SEEDS), so it is the same in every checkout, and
reference.json holds a digest of every report in it.  The --seed of a run
only sets the order in which each pass visits the pool (run.draw), so the
inputs of every seed have recorded references and every run measures the
same work.

Nothing here imports gradedcones: documents are plain text, and the program
under test receives nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

POOL_SEEDS = {"docs": 20090118, "strata": 20090119, "orbits": 20090120}

PAPER_SURFACE = (
    "ring y1 y2 y3 y4 ;\n"
    "grading [[1,2],[1,0],[0,1],[2,3]] ;\n"
    "ideal F = y1^2 y2 y3 + y1 y4 + y2 y3^2 y4 ;\n"
    "point P = (1, 1, 1, -1/2) ;\n"
)

ORDERS = ("lex", "degrevlex", "weighted")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `gradedcones <argv>` with `text` on stdin."""

    workload: str
    doc: str  # document id inside the workload's pool
    argv: tuple[str, ...]
    text: str

    @property
    def id(self) -> str:
        return f"{self.workload}/{self.doc}: {' '.join(self.argv)}"

    @property
    def command(self) -> str:
        return self.argv[0]


# -- document text ------------------------------------------------------------------


def _rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _monomial(names, e) -> str:
    parts = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
    return " ".join(parts) if parts else "1"


def _polynomial(names, terms) -> str:
    out = []
    for e, c in terms:
        mono = _monomial(names, e)
        if c == 1:
            body = mono
        elif c == -1:
            body = "-" + mono
        else:
            body = f"{_rational(c)} {mono}"
        out.append(body)
    return " + ".join(out).replace("+ -", "- ")


def _document(names, columns=None, ideals=(), points=()) -> str:
    lines = [f"ring {' '.join(names)} ;"]
    if columns is not None:
        lines.append("grading [" + ",".join("[" + ",".join(map(str, c)) + "]" for c in columns) + "] ;")
    for name, gens in ideals:
        lines.append(f"ideal {name} = " + ", ".join(_polynomial(names, g) for g in gens) + " ;")
    for name, coords in points:
        lines.append(f"point {name} = (" + ", ".join(_rational(c) for c in coords) + ") ;")
    return "\n".join(lines) + "\n"


def _exponents(nvars: int, total: int):
    """Exponent tuples with entry sum exactly total."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponents(nvars - 1, total - first):
            yield (first,) + rest


def _degree(columns, e):
    return tuple(sum(c[t] * k for c, k in zip(columns, e)) for t in range(len(columns[0])))


_COEFFS = tuple(Fraction(v) for v in (1, -1, 2, -2, 3, "1/2", "-4/3"))
_COORDS = tuple(Fraction(v) for v in (1, -1, 2, -2, "1/2", 3))


def _homogeneous(rng, columns, top: int):
    """A homogeneous polynomial: a random monomial of total degree 2..top plus
    up to two more monomials of total degree at most top sharing its degree."""
    n = len(columns)
    lead = rng.choice(list(_exponents(n, rng.randint(2, top))))
    d = _degree(columns, lead)
    mates = [
        e
        for t in range(1, top + 1)
        for e in _exponents(n, t)
        if e != lead and _degree(columns, e) == d
    ]
    chosen = [lead] + rng.sample(mates, k=min(len(mates), rng.randint(0, 2)))
    return [(e, rng.choice(_COEFFS)) for e in sorted(chosen, reverse=True)]


# -- docs ---------------------------------------------------------------------------


def _docs_argvs(rng, names, m):
    order = rng.choice(ORDERS)
    chosen = ",".join(rng.sample(names, k=min(m, len(names))))
    return [
        ("check",),
        ("decompose",),
        ("embed",),
        ("smooth",),
        ("singular",),
        ("gb", "--order", order),
        ("dim", "--order", rng.choice(ORDERS)),
        ("orbit-dim",),
        ("orbit-closure",),
        ("stratum-mu", "--mu", str(rng.randint(0, m))),
        ("cross-section", "--vars", chosen),
        ("curve",),
        ("one-dim-orbit",),
        ("stratum", "--order", order),
    ]


def docs_pool(size: int = 48) -> list[Op]:
    """Small graded documents, each under all 14 subcommands.

    3-5 variables, 1-2 grading rows (one column in ten carries a negative
    entry, so some gradings are not positive), 1-2 homogeneous generators of
    total degree 2-3, one point with one coordinate in four zero.  Document 0
    is the paper's surface verbatim.
    """
    rng = random.Random(POOL_SEEDS["docs"])
    ops = [
        Op("docs", "d00", argv, PAPER_SURFACE)
        for argv in _docs_argvs(random.Random(0), ["y1", "y2", "y3", "y4"], 2)
    ]
    for k in range(1, size):
        n = rng.randint(3, 5)
        m = rng.randint(1, 2)
        names = [f"y{i + 1}" for i in range(n)]
        columns = []
        for _ in range(n):
            col = [rng.randint(0, 3) for _ in range(m)]
            if not any(col):
                col[0] = 1
            if rng.random() < 0.1:
                col[rng.randrange(m)] *= -1
            columns.append(col)
        gens = [_homogeneous(rng, columns, 3) for _ in range(rng.randint(1, 2))]
        coords = [Fraction(0) if rng.random() < 0.25 else rng.choice(_COORDS) for _ in range(n)]
        text = _document(names, columns, [("F", gens)], [("P", coords)])
        for argv in _docs_argvs(rng, names, m):
            ops.append(Op("docs", f"d{k:02d}", argv, text))
    return ops


# -- strata -------------------------------------------------------------------------

# The size ladder: each step adds a head.  The last one runs for more than ten
# minutes at the commit that defined this benchmark (its properness check
# computes a hard degrevlex basis), so it is recorded as a timeout there.
LADDER = (
    ("x y", ((2, 0), (1, 1)), "lex"),
    ("x y z", ((2, 0, 0), (1, 1, 0), (1, 0, 1)), "lex"),
    ("x y z w", ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)), "lex"),
    ("x y z", ((3, 0, 0), (2, 1, 0), (2, 0, 1)), "degrevlex"),
    ("x y z", ((3, 0, 0), (2, 1, 0), (1, 2, 0), (2, 0, 1)), "degrevlex"),
)


def _strata_doc(names, gens, weights) -> str:
    return _document(
        names, [[w] for w in weights], [("J", [[(g, Fraction(1))] for g in gens])]
    )


def strata_pool(size: int = 100) -> list[Op]:
    """`stratum` on the LADDER and on dense monomial ideals.

    A dense ideal is generated by all monomials of one degree (2 or 3, in 2-4
    variables) but one to three; the order is lex, degrevlex or the weighted
    order of a random positive grading.  Each head has at most as many tails
    as there are missing monomials.  Draws where that bound exceeds 12
    (head, tail) pairs are skipped: larger strata are the ladder's job, and
    at the defining commit random ones took from milliseconds to more than
    20 s.
    """
    ops = []
    for k, (ring, gens, order) in enumerate(LADDER):
        names = ring.split()
        text = _strata_doc(names, gens, [1] * len(names))
        ops.append(Op("strata", f"ladder{k}", ("stratum", "--order", order), text))
    rng = random.Random(POOL_SEEDS["strata"])
    while len(ops) < len(LADDER) + size:
        n = rng.randint(2, 4)
        names = ["x", "y", "z", "w"][:n]
        monos = list(_exponents(n, rng.randint(2, 3)))
        missing = rng.sample(monos, k=rng.randint(1, min(3, len(monos) - 1)))
        gens = [e for e in monos if e not in missing]
        if len(gens) * len(missing) > 12:
            continue
        weights = [rng.randint(1, 3) for _ in range(n)]
        order = rng.choice(ORDERS)
        text = _strata_doc(names, gens, weights)
        ops.append(Op("strata", f"s{len(ops) - len(LADDER):02d}", ("stratum", "--order", order), text))
    return ops


# -- orbits -------------------------------------------------------------------------


def orbits_pool(size: int = 13) -> list[Op]:
    """Documents in 8-16 variables under orbit-closure, stratum-mu, orbit-dim,
    curve and cross-section.

    The grading has 2-3 rows of entries 0..3 (every column nonzero, so it is
    positive).  Point P's support has m+1 to m+3 coordinates, m the number
    of rows, so its orbit closure is cut out by a few binomials; points Q, R
    and S keep the first m+1, m and 1 of them.  The ideal is one or two
    homogeneous binomials, which is what cross-section slices.  The cheap
    commands at four points keep op_s.p50 inside their cluster of times
    rather than on its edge.
    """
    rng = random.Random(POOL_SEEDS["orbits"])
    ops = []
    for k in range(size):
        n = 8 + (k % 9)
        m = rng.randint(2, 3)
        names = [f"y{i + 1}" for i in range(n)]
        columns = []
        for _ in range(n):
            col = [rng.randint(0, 3) for _ in range(m)]
            if not any(col):
                col[rng.randrange(m)] = 1
            columns.append(col)
        gens = []
        for _ in range(rng.randint(1, 2)):
            a = rng.choice(list(_exponents(n, 2)))
            d = _degree(columns, a)
            mates = [e for t in (2, 3) for e in _exponents(n, t) if e != a and _degree(columns, e) == d]
            gens.append([(a, Fraction(1))])
            if mates:
                gens[-1].append((rng.choice(mates), -rng.choice(_COORDS)))
        support = set(rng.sample(range(n), k=m + rng.randint(1, 3)))
        coords = [rng.choice(_COORDS) if i in support else Fraction(0) for i in range(n)]
        points = [("P", coords)]
        for name, size in (("Q", m + 1), ("R", m), ("S", 1)):
            kept = sorted(support)[:size]
            points.append((name, [c if i in kept else Fraction(0) for i, c in enumerate(coords)]))
        text = _document(names, columns, [("F", gens)], points)
        chosen = ",".join(sorted(rng.sample(names, k=m), key=names.index))
        doc = f"o{k:02d}"
        for argv in (
            ("orbit-closure", "--point", "P"),
            ("stratum-mu", "--mu", str(rng.randint(1, m))),
            ("orbit-dim", "--point", "P"),
            ("curve", "--point", "P"),
            ("cross-section", "--vars", chosen),
        ) + tuple(
            (command, "--point", name)
            for name in "QRS"
            for command in ("orbit-closure", "orbit-dim", "curve")
        ):
            ops.append(Op("orbits", doc, argv, text))
    return ops


POOLS = {"docs": docs_pool, "strata": strata_pool, "orbits": orbits_pool}
