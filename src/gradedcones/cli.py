"""Batch command line interface.

Reads one declaration document (ring, grading, ideals, points) from stdin or
a file, runs a single subcommand against it, and prints one report.  Reports
are deterministic: the same document and command produce byte-identical
output, with all numbers printed as exact rationals.  Timing goes to stderr
so it never perturbs the report.

Exit codes: 0 success, 1 mathematical rejection or resource cap, 2 parse
error or command line usage error.

The command line grammar is the `COMMANDS` table.  A plain command line is
read from the table directly; argparse, always with every subcommand, is
built only for help and usage errors, which it words and prints.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, NamedTuple

from .cones import (
    homogeneous_ideal,
    minimal_embedding,
    singular_locus,
    smooth_at_origin,
)
from .errors import (
    GradedConesError,
    NonPositiveGradingError,
    NoRationalPointError,
    NotHomogeneousError,
    ParseFailure,
    Rejection,
    ResourceLimitError,
)
from .grading import GradingMap, PositivityWitness
from .ideals import IdealPresentation, krull_dimension
from .orders import TermOrder
from .orbits import (
    RationalPoint,
    cross_section,
    find_one_dim_orbit,
    low_orbit_stratum,
    orbit_closure_ideal,
    orbit_dimension,
    rational_curve_through,
)
from .session import SessionInput, format_monomial, format_polynomial, parse_session
from .strata import MonomialIdealSpec, reduced_stratum as compute_reduced_stratum


def main(argv=None) -> int:
    """Run one subcommand; argv defaults to sys.argv[1:].

    A plain command line is read from the table by `parse_plain`: building
    an argparse parser costs more than most commands take.  Only when that
    declines is the full parser built, for help and usage errors.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        session = parse_session(_read_input(args))
        report = {
            "command": args.command,
            "status": "ok",
            "result": COMMANDS[args.command].handler(session, args),
        }
        code = 0
    except ParseFailure as err:
        report = {
            "command": args.command,
            "status": "parse-error",
            "diagnostics": {
                "error": type(err).__name__,
                "message": str(err),
                "line": err.line,
                "column": err.column,
            },
        }
        code = 2
    except GradedConesError as err:
        report = {
            "command": args.command,
            "status": "rejected",
            "diagnostics": _diagnostics(err),
        }
        code = 1
    _emit(report, args.json)
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def _read_input(args) -> str:
    # surrogateescape, as stdin reads: bytes that are not UTF-8 become a
    # parse error at their line and column, whichever way they came
    if args.file is None:
        return sys.stdin.read()
    try:
        with open(args.file, encoding="utf-8", errors="surrogateescape") as handle:
            return handle.read()
    except OSError as err:
        parser = argparse.ArgumentParser(prog=f"{PROG} {args.command}")
        _add_options(parser, args.command)
        parser.error(f"argument --file: can't open {args.file!r}: {err.strerror}")


def _diagnostics(err: GradedConesError) -> dict:
    out = {"error": type(err).__name__, "message": str(err)}
    if isinstance(err, NotHomogeneousError):
        out["component_degrees"] = [list(d) for d in err.degrees]
    if isinstance(err, NonPositiveGradingError):
        out["certificate"] = list(err.certificate)
    if isinstance(err, NoRationalPointError):
        out["supports"] = [list(s) for s in err.supports]
    if isinstance(err, ResourceLimitError):
        for name in ("processed", "pending", "basis_size", "limit"):
            out[name] = getattr(err, name)
    return out


# -- report rendering -------------------------------------------------------------


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_lines(report, 0)))


def _inline(value) -> str | None:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, list) and all(
        v is None or isinstance(v, (bool, int, str)) for v in value
    ):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    return None


def _lines(value, indent: int) -> list[str]:
    pad = "  " * indent
    out: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            short = _inline(v)
            if short is not None:
                out.append(f"{pad}{k}: {short}")
            else:
                out.append(f"{pad}{k}:")
                out.extend(_lines(v, indent + 1))
        return out
    if isinstance(value, list):
        for item in value:
            short = _inline(item)
            if short is not None:
                out.append(f"{pad}- {short}")
            else:
                body = _lines(item, indent + 1)
                out.append(pad + "- " + body[0][len(pad) + 2 :])
                out.extend(body[1:])
        return out
    return [pad + str(_inline(value))]


# -- session plumbing -------------------------------------------------------------


def _need_ring(session: SessionInput):
    if session.ring is None:
        raise Rejection("no ring declared in the input document")
    return session.ring


def _need_grading(session: SessionInput) -> GradingMap:
    if session.grading is None:
        raise Rejection("no grading declared in the input document")
    return session.grading


def _ideal_name(session: SessionInput, args) -> str | None:
    """The ideal named by --ideal, else the sole declared one, else None."""
    name = session.sole_ideal_name() if args.ideal is None else args.ideal
    if name is not None and name not in session.ideals:
        raise Rejection(f"ideal {name!r} is not declared")
    return name


def _pick_ideal(session: SessionInput, args):
    name = _ideal_name(session, args)
    if name is None:
        raise Rejection("no ideal selected: declare exactly one or pass --ideal")
    return name, session.ideals[name]


def _pick_point(session: SessionInput, args) -> tuple[str, RationalPoint]:
    name = args.point
    if name is None:
        name = session.sole_point_name()
    if name is None:
        raise Rejection("no point selected: declare exactly one or pass --point")
    if name not in session.points:
        raise Rejection(f"point {name!r} is not declared")
    return name, RationalPoint(_need_ring(session), session.points[name])


def _pick_order(session: SessionInput, args) -> TermOrder:
    if args.order == "lex":
        return TermOrder.lex()
    if args.order == "degrevlex":
        return TermOrder.degrevlex()
    return _need_grading(session).induced_order()


def _cone(session: SessionInput, args):
    name, gens = _pick_ideal(session, args)
    return name, homogeneous_ideal(gens, _need_grading(session))


def _variable_indices(session: SessionInput, spec: str):
    ring = _need_ring(session)
    out = []
    for piece in spec.split(","):
        name = piece.strip()
        if name not in ring.index:
            raise Rejection(f"unknown variable {name!r}")
        out.append(ring.index[name])
    return tuple(out)


def _names(ring, indices) -> list[str]:
    return [ring.names[i] for i in indices]


def _substitution(emb) -> list[dict]:
    names = emb.source.ring.names
    subs = sorted(emb.substitution.items())
    return [{"variable": names[i], "value": format_polynomial(s)} for i, s in subs]


def _positivity_report(w: PositivityWitness) -> dict:
    return {"positive": True, "omega": list(w.omega), "dots": list(w.dots)}


# -- subcommands -------------------------------------------------------------------


def _cmd_check(session, args) -> dict:
    _need_ring(session)
    grading = _need_grading(session)
    w = grading.require_positive("the grading admits no positive weight vector")
    report = {"grading": _positivity_report(w)}
    ideals = []
    for name in session.ideals:
        cone = homogeneous_ideal(session.ideals[name], grading)
        ideals.append(
            {
                "name": name,
                "homogeneous": True,
                "generators": [
                    {"text": format_polynomial(g), "degree": list(d)}
                    for g, d in zip(cone.base.generators, cone.degrees)
                ],
            }
        )
    report["ideals"] = ideals
    return report


def _cmd_decompose(session, args) -> dict:
    grading = _need_grading(session)
    name, gens = _pick_ideal(session, args)
    out = []
    for g in gens:
        parts = grading.homogeneous_components(g)
        out.append(
            {
                "text": format_polynomial(g),
                "components": [
                    {"degree": list(d), "text": format_polynomial(parts[d])}
                    for d in sorted(parts)
                ],
            }
        )
    return {"ideal": name, "generators": out}


def _cmd_embed(session, args) -> dict:
    name, cone = _cone(session, args)
    kept = None
    if args.keep is not None:
        kept = _variable_indices(session, args.keep)
    emb = minimal_embedding(cone, kept=kept)
    ring = cone.ring
    return {
        "ideal": name,
        "kept": _names(ring, emb.kept),
        "eliminated": _names(ring, emb.eliminated),
        "substitution": _substitution(emb),
        "embedded_ring": list(emb.embedded.ring.names),
        "embedded_generators": [format_polynomial(g) for g in emb.embedded.base.generators],
        "embedded_grading": [list(c) for c in emb.embedded.grading.columns],
        "tangent_dimension": emb.tangent_dim,
    }


def _cmd_smooth(session, args) -> dict:
    name, cone = _cone(session, args)
    rep = smooth_at_origin(cone)
    return {
        "ideal": name,
        "ambient_dimension": rep.ambient,
        "cone_dimension": rep.cone_dim,
        "linear_part_dimension": rep.linear_dim,
        "tangent_dimension": rep.tangent_dim,
        "smooth": rep.smooth,
    }


def _cmd_singular(session, args) -> dict:
    name, cone = _cone(session, args)
    loc = singular_locus(cone)
    return {
        "ideal": name,
        "codimension": loc.codimension,
        "exact": loc.exact,
        "empty": loc.empty,
        "generators": [format_polynomial(g) for g in loc.presentation.generators],
    }


def _cmd_gb(session, args) -> dict:
    ring = _need_ring(session)
    name, gens = _pick_ideal(session, args)
    order = _pick_order(session, args)
    basis = IdealPresentation(ring, gens).groebner(order)
    return {
        "ideal": name,
        "order": args.order,
        "basis": [format_polynomial(g, order) for g in basis.elements],
    }


def _cmd_dim(session, args) -> dict:
    ring = _need_ring(session)
    name, gens = _pick_ideal(session, args)
    order = _pick_order(session, args)
    return {
        "ideal": name,
        "dimension": krull_dimension(IdealPresentation(ring, gens), order),
    }


def _cmd_orbit_dim(session, args) -> dict:
    grading = _need_grading(session)
    name, p = _pick_point(session, args)
    info = orbit_dimension(p, grading)
    return {
        "point": name,
        "coordinates": repr(p),
        "support": _names(p.ring, info.support),
        "dimension": info.dimension,
    }


def _cmd_orbit_closure(session, args) -> dict:
    grading = _need_grading(session)
    name, p = _pick_point(session, args)
    closure = orbit_closure_ideal(p, grading)
    return {
        "point": name,
        "coordinates": repr(p),
        "dimension": orbit_dimension(p, grading).dimension,
        "generators": [format_polynomial(g) for g in closure.base.generators],
    }


def _cmd_stratum_mu(session, args) -> dict:
    ring = _need_ring(session)
    grading = _need_grading(session)
    union = low_orbit_stratum(grading, args.mu)
    return {
        "bound": union.bound,
        "components": [_names(ring, c) for c in union.components],
    }


def _cmd_cross_section(session, args) -> dict:
    name, cone = _cone(session, args)
    chosen = _variable_indices(session, args.vars)
    chart = cross_section(cone, chosen)
    return {
        "ideal": name,
        "chosen": _names(cone.ring, chart.chosen),
        "index": chart.index_r,
        "unique": chart.unique,
        "slice_generators": [format_polynomial(g) for g in chart.slice_ideal.generators],
    }


def _cmd_curve(session, args) -> dict:
    grading = _need_grading(session)
    name, p = _pick_point(session, args)
    curve = rational_curve_through(p, grading)
    out = {
        "point": name,
        "coordinates": repr(p),
        "omega": list(grading.require_positive().omega),
        "exponents": list(curve.exponents),
        "at_zero": repr(curve.at(0)),
        "ideal": None,
        "stays_on_cone": None,
    }
    ideal_name = _ideal_name(session, args)
    if ideal_name is not None:
        cone = homogeneous_ideal(session.ideals[ideal_name], grading)
        out["ideal"] = ideal_name
        out["stays_on_cone"] = curve.stays_on(cone)
    return out


def _cmd_one_dim_orbit(session, args) -> dict:
    name, cone = _cone(session, args)
    p = find_one_dim_orbit(cone)
    return {
        "ideal": name,
        "point": repr(p),
        "support": _names(cone.ring, p.support()),
        "dimension": 1,
    }


def _cmd_stratum(session, args) -> dict:
    ring = _need_ring(session)
    name, gens = _pick_ideal(session, args)
    exponents = []
    for g in gens:
        if len(g.terms) != 1:
            raise Rejection(f"stratum needs a monomial ideal; {format_polynomial(g)} is not a monomial")
        exponents.append(next(iter(g.terms)))
    order = _pick_order(session, args)
    spec = MonomialIdealSpec(ring, tuple(exponents), order)
    result = compute_reduced_stratum(spec, args.mode)
    scheme = result.scheme
    cring = scheme.coefficient_ring
    emb = result.reduced
    return {
        "ideal": name,
        "order": args.order,
        "mode": args.mode,
        "heads": [format_monomial(ring, h) for h in scheme.heads],
        "coefficients": [
            {"name": cname, "head": head, "tail": tail, "degree": list(col)}
            for (cname, head, tail), col in zip(
                scheme.legend(), scheme.coefficient_grading.columns
            )
        ],
        "generators": [format_polynomial(g) for g in result.stratum_ideal.generators],
        "positivity": _positivity_report(scheme.coefficient_grading.require_positive()),
        "reduced": {
            "eliminated": _names(cring, emb.eliminated),
            "kept": _names(cring, emb.kept),
            "substitution": _substitution(emb),
            "embedded_ring": list(emb.embedded.ring.names),
            "embedded_generators": [
                format_polynomial(g) for g in emb.embedded.base.generators
            ],
        },
    }


class Command(NamedTuple):
    help: str
    handler: Callable[[SessionInput, argparse.Namespace], dict]
    options: tuple  # (flag, add_argument keywords), in help order


PROG = "gradedcones"
# taken by every command, ahead of its own options; the keywords used here
# and in COMMANDS are the ones parse_plain reads
SHARED_OPTIONS = (
    ("--file", {"help": "input document (defaults to stdin)"}),
    ("--json", {"action": "store_true", "help": "machine-readable output"}),
)
_IDEAL = ("--ideal", {})
_POINT = ("--point", {})
_ORDER = ("--order", {"choices": ("lex", "degrevlex", "weighted"), "default": "degrevlex"})

COMMANDS = {
    "check": Command("validate grading positivity and ideal homogeneity", _cmd_check, ()),
    "decompose": Command("split generators into homogeneous components", _cmd_decompose, (_IDEAL,)),
    "embed": Command(
        "minimal embedding into the tangent space at the origin",
        _cmd_embed,
        (_IDEAL, ("--keep", {"help": "comma-separated variables to keep instead"})),
    ),
    "smooth": Command("smoothness at the origin", _cmd_smooth, (_IDEAL,)),
    "singular": Command("singular locus ideal (exact or upper bound)", _cmd_singular, (_IDEAL,)),
    "gb": Command("reduced Groebner basis", _cmd_gb, (_IDEAL, _ORDER)),
    "dim": Command("Krull dimension", _cmd_dim, (_IDEAL, _ORDER)),
    "orbit-dim": Command("dimension of the torus orbit through a point", _cmd_orbit_dim, (_POINT,)),
    "orbit-closure": Command("defining ideal of an orbit closure", _cmd_orbit_closure, (_POINT,)),
    "stratum-mu": Command(
        "locus of orbits of dimension at most a bound",
        _cmd_stratum_mu,
        (("--mu", {"type": int, "required": True}),),
    ),
    "cross-section": Command(
        "slice meeting maximal orbits in r points",
        _cmd_cross_section,
        (_IDEAL, ("--vars", {"required": True, "help": "comma-separated chosen variables"})),
    ),
    "curve": Command("rational curve from the origin through a point", _cmd_curve, (_POINT, _IDEAL)),
    "one-dim-orbit": Command(
        "rational point with a one-dimensional orbit", _cmd_one_dim_orbit, (_IDEAL,)
    ),
    "stratum": Command(
        "Groebner stratum of a monomial ideal",
        _cmd_stratum,
        (_IDEAL, _ORDER, ("--mode", {"choices": ("homogeneous", "full"), "default": "homogeneous"})),
    ),
}


def parse_plain(argv) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, read from `COMMANDS`.

    Returns None, leaving argv to argparse, when argv is empty or does not
    start with a command; when a token is not exactly one of that command's
    long flags (an abbreviation, `--flag=value`, `-h`, `--`, a positional);
    when an option's value is missing or starts with `-`; when its `type`
    raises ValueError or it is not one of its `choices`; and when a required
    option is absent.  A repeated option keeps its last value, as in
    argparse.  Of the `add_argument` keywords, it reads `default`, `choices`,
    `type`, `required` and `action="store_true"`.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = dict(SHARED_OPTIONS + COMMANDS[argv[0]].options)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0])
    for flag, keywords in options.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        setattr(args, flag[2:], value)
    return args


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, with a subparser for every command."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact computations with multigraded ideals, cones, "
        "torus orbits, and Groebner strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_options(sub.add_parser(name, help=COMMANDS[name].help), name)
    return parser


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    for flag, keywords in SHARED_OPTIONS + COMMANDS[name].options:
        parser.add_argument(flag, **keywords)


if __name__ == "__main__":
    sys.exit(main())
