"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        yield run.import_program()
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def refs():
    return run.load_references()


def _sample():
    """A few of each workload's operations, none near a budget."""
    docs = [op for op in corpus.docs_pool() if op.doc in ("d00", "d01", "d02", "d03", "d04")]
    strata = corpus.strata_pool()[:3] + corpus.strata_pool()[5:15]
    orbits = [op for op in corpus.orbits_pool() if op.doc in ("o00", "o01")]
    return docs + strata + orbits


def test_every_pool_operation_has_a_reference(refs):
    for ops in (pool() for pool in corpus.POOLS.values()):
        for op in ops:
            assert op.id in refs, op.id
            assert refs[op.id]["doc"] == run.digest(op.text)[:16], op.id


def test_the_draw_depends_on_the_seed_only():
    assert [op.id for op in run.draw("strata", 7)] == [op.id for op in run.draw("strata", 7)]
    assert [op.id for op in run.draw("strata", 7)] != [op.id for op in run.draw("strata", 8)]
    assert sorted(op.id for op in run.draw("docs", 1)) == sorted(op.id for op in corpus.docs_pool())


def test_reports_match_their_references(cli, refs):
    rows = run.run_pass(cli, _sample(), refs, budget=30.0)
    assert [verdict for _, verdict, _, _ in rows] == ["ok"] * len(rows)


def test_a_stopped_operation_is_a_charged_timeout(cli, refs):
    (cliff,) = [op for op in corpus.strata_pool() if op.doc == "ladder4"]
    ((op, verdict, seconds, module),) = run.run_pass(cli, [cliff], refs, budget=0.3)
    assert verdict == "timeout" and seconds == 0.3
    assert module in run.TIMEOUT_MODULES


def test_a_changed_report_is_a_mismatch(cli, refs):
    op = corpus.docs_pool()[0]
    result = run.invoke(cli, op, 30.0)
    assert run.check(op, refs, result) == "ok"
    status, code, stdout, module = result
    assert run.check(op, refs, (status, code, stdout + " ", module)) == "mismatch"


COUNTS = ("groebner.pairs_processed", "groebner.basis_size.max")


def sample_counts() -> dict:
    """Every count of one traced pass over the sample, in a fresh program."""
    signal.signal(signal.SIGALRM, run._alarm)
    cli = run.import_program()
    tracer = spans.Tracer()
    tracer.install()
    try:
        rows = run.run_pass(cli, _sample(), run.load_references(), 30.0, tracer)
    finally:
        tracer.uninstall()
    assert all(verdict == "ok" for _, verdict, _, _ in rows)
    values = spans.layer_metrics(tracer, set(range(len(rows))), 1)
    return {k: v for k, v in values.items() if k.endswith(".calls") or k in COUNTS}


def test_counts_repeat_exactly_across_hash_seeds():
    """Two traced runs, each its own process with its own string hashing."""
    counts = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", "import json, test_perfbench; print(json.dumps(test_perfbench.sample_counts()))"],
            cwd=Path(__file__).resolve().parent,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        counts.append(json.loads(done.stdout.splitlines()[-1]))
    assert counts[0] == counts[1]
    for key in (
        "groebner.buchberger.calls",
        "groebner.normal_form.calls",
        "groebner.pairs_processed",
        "orders.key.calls",
        "intlinalg.rank.calls",
        "grading.positivity_witness.calls",
    ):
        assert counts[0][key] > 0, key


def test_each_pass_runs_a_fresh_program(refs, monkeypatch):
    """A module-level cache filled in one pass is gone in the next."""
    seen = []
    real_pass = run.run_pass

    def run_pass(cli, *args, **kwargs):
        groebner = sys.modules["gradedcones.groebner"]
        seen.append(hasattr(groebner, "memo"))
        groebner.memo = {}
        return real_pass(cli, *args, **kwargs)

    monkeypatch.setattr(run, "run_pass", run_pass)
    saved = {k: v for k, v in sys.modules.items() if k.startswith("gradedcones")}
    try:
        run.run_passes(corpus.docs_pool()[:1], refs, 30.0, seconds=0)
    finally:
        for name in [k for k in sys.modules if k.startswith("gradedcones")]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert seen == [False] * run.MIN_PASSES


def test_a_stopped_operation_leaves_no_span_open():
    tracer = spans.Tracer()
    tracer.begin()
    tracer.spans.append(["groebner.buchberger", 0.0, None, None, 0])  # never on the stack
    tracer.abort()
    assert tracer.spans[0][2] is not None
    assert len(spans.self_times(tracer.spans)) == 1


def test_tracing_leaves_the_reports_and_the_program_alone(cli, refs):
    from gradedcones import groebner, ideals

    original = groebner.buchberger
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ideals.buchberger is not original
        rows = run.run_pass(cli, corpus.docs_pool()[:14], refs, 30.0, tracer)
    finally:
        tracer.uninstall()
    assert ideals.buchberger is original
    assert all(verdict == "ok" for _, verdict, _, _ in rows)
    own = spans.self_times(tracer.spans)
    assert all(t >= -1e-6 for t in own)


# -- cross-check against sympy ---------------------------------------------------------


def _parse(sympy, gens, strings):
    from sympy.parsing.sympy_parser import (
        convert_xor,
        implicit_multiplication_application,
        parse_expr,
        standard_transformations,
    )

    table = {str(g): g for g in gens}
    transforms = standard_transformations + (implicit_multiplication_application, convert_xor)
    return [parse_expr(p, local_dict=table, transformations=transforms) for p in strings]


def _sympy_ideal(sympy, text):
    """The ring's variables and the ideal's generators of a document."""
    lines = {line.split()[0]: line for line in text.splitlines()}
    gens = sympy.symbols(lines["ring"].split()[1:-1])
    body = lines["ideal"].split("=", 1)[1].rstrip(" ;")
    return gens, _parse(sympy, gens, body.split(","))


def _monic(sympy, polys, gens, order):
    out = set()
    for p in polys:
        poly = sympy.Poly(p, *gens, domain="QQ")
        out.add((poly * (1 / poly.LC(order=order))).as_expr())
    return out


def _report(cli, op):
    status, code, stdout, _ = run.invoke(cli, corpus.Op(op.workload, op.doc, op.argv + ("--json",), op.text), 60.0)
    assert status == "done" and code == 0, op.id
    return json.loads(stdout)["result"]


def _gb_dim_ops(command):
    return [
        op
        for op in corpus.docs_pool()
        if op.command == command and op.argv[2] in ("lex", "degrevlex")
    ][:16]


def test_gb_reports_agree_with_sympy(cli, refs):
    sympy = pytest.importorskip("sympy")
    checked = 0
    for op in _gb_dim_ops("gb"):
        if refs[op.id]["exit"] != 0:
            continue
        order = {"lex": "lex", "degrevlex": "grevlex"}[op.argv[2]]
        gens, polys = _sympy_ideal(sympy, op.text)
        expected = sympy.groebner(polys, *gens, order=order, domain="QQ").exprs
        ours = _parse(sympy, gens, _report(cli, op)["basis"])
        assert _monic(sympy, ours, gens, order) == _monic(sympy, expected, gens, order), op.id
        checked += 1
    assert checked >= 8


def test_dim_reports_agree_with_sympy(cli, refs):
    sympy = pytest.importorskip("sympy")
    checked = 0
    for op in _gb_dim_ops("dim"):
        if refs[op.id]["exit"] != 0:
            continue
        gens, polys = _sympy_ideal(sympy, op.text)
        basis = sympy.groebner(polys, *gens, order="grevlex", domain="QQ")
        leads = [
            {i for i, k in enumerate(sympy.Poly(g, *gens).monoms(order="grevlex")[0]) if k}
            for g in basis.exprs
        ]
        # dimension: the largest variable set containing no leading term's support
        dimension = max(
            len(s)
            for r in range(len(gens) + 1)
            for s in map(set, combinations(range(len(gens)), r))
            if not any(lead <= s for lead in leads)
        )
        assert _report(cli, op)["dimension"] == dimension, op.id
        checked += 1
    assert checked >= 8


def test_benchmark_json_names_what_the_run_prints():
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == sorted(corpus.POOLS, key=list(corpus.POOLS).index)
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
