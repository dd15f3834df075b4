"""gradedcones benchmark: workloads of CLI invocations, run in process.

    python3 perfbench/run.py --workload docs --seed 1 --seconds 35 --trace 0

One client runs a closed loop: each operation is `gradedcones.cli.main(argv)`
with its document on stdin, and the next starts when it returns.  A run
repeats whole passes over the workload's pool (in an order set by --seed)
until another pass would overrun --seconds, and runs at least MIN_PASSES,
so every run measures the same mix of operations.  Each pass imports
gradedcones afresh, as a new CLI process would, so no state the program
keeps at module level carries from one pass into the next.  An operation stopped at
its budget is charged the budget in every pass, but after the first stop it
is run again only in traced passes.

Every report is checked byte for byte against reference.json.  An
operation fails when it is stopped at its budget, raises outside the CLI's
typed exits, prints a report that differs from its reference, or has no
reference to check against.  A mismatch or a raise also makes the run
incorrect.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics, plus the tracing overhead as traced minus untraced.
Spans and stopped operations are written under .perfbench/ in the working
directory.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import corpus  # beside this file
import spans

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = Path(".perfbench")

# Per-operation budgets, well clear of both the slowest operation of each
# workload that completes (about 1.1 s, 2.0 s and 2.9 s on a 2-core x86-64
# machine) and the fastest one stopped (over 30 s), so no case flips between
# completing and being stopped.
BUDGET_S = {"docs": 5.0, "strata": 10.0, "orbits": 8.0}
MIN_PASSES = 2
SETUPS = 7

# A stopped operation is attributed to the innermost module on its stack,
# skipping the polynomial arithmetic and term comparisons every layer uses.
LEAF_MODULES = {"gradedcones.rings", "gradedcones.orders"}
TIMEOUT_MODULES = (
    "cli", "session", "grading", "ratlp", "intlinalg",
    "groebner", "ideals", "cones", "orbits", "strata",
)


class Stopped(BaseException):
    """Raised by the budget alarm; a BaseException so no handler in the
    program under test can swallow it."""


def _alarm(signum, frame):
    raise Stopped


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


# -- set-up ---------------------------------------------------------------------------


def import_program():
    """Import gradedcones afresh from the checkout's src/; returns its cli module."""
    for name in [m for m in sys.modules if m == "gradedcones" or m.startswith("gradedcones.")]:
        del sys.modules[name]
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    from gradedcones import cli

    return cli


def load_references() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)["reports"]


def draw(workload: str, seed: int) -> list:
    """The whole pool, in the order the seed gives."""
    ops = corpus.POOLS[workload]()
    random.Random(seed).shuffle(ops)
    return ops


def setup(workload: str, seed: int):
    """Import, generate the documents, load the references and warm up."""
    cli = import_program()
    ops = draw(workload, seed)
    refs = load_references()
    for op in corpus.docs_pool(1):  # the paper's surface under the 14 commands
        invoke(cli, op, BUDGET_S["docs"])
    return ops, refs


# -- one operation --------------------------------------------------------------------


def invoke(cli, op, budget: float):
    """Run one CLI invocation; returns (status, exit code, stdout, detail).

    detail is the module a stopped operation was in, or the exception that
    escaped main.
    """
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.text)
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "done", code, out.getvalue(), None
    except Stopped as stop:
        return "timeout", None, None, _innermost_module(stop.__traceback__)
    except (Exception, SystemExit) as err:
        return "error", None, None, f"{type(err).__name__}: {err}"
    finally:
        sys.stdin = saved_stdin


def _innermost_module(tb) -> str:
    found = "benchmark"
    for frame, _ in traceback.walk_tb(tb):
        name = frame.f_globals.get("__name__", "")
        if name.startswith("gradedcones.") and name not in LEAF_MODULES:
            found = name.split(".", 1)[1]
    return found


def check(op, refs, result) -> str:
    """ok, timeout, error, mismatch or unverified."""
    status, code, stdout, _ = result
    if status != "done":
        return status
    ref = refs.get(op.id)
    if ref is None or ref["doc"] != digest(op.text)[:16]:
        return "unverified"
    if ref["exit"] != code or ref["report"] != digest(stdout):
        return "mismatch"
    return "ok"


# -- passes ---------------------------------------------------------------------------


def run_pass(cli, ops, refs, budget: float, tracer=None, stopped=None) -> list:
    """One pass over ops; returns (op, verdict, seconds charged, detail) per op.

    An operation in `stopped` (op id -> module) is charged its budget again
    without being run: budgets sit well clear of every completing case, so it
    would be stopped again.
    """
    gc.collect()
    rows = []
    for op in ops:
        if stopped is not None and op.id in stopped:
            rows.append((op, "timeout", budget, stopped[op.id]))
            continue
        if tracer is not None:
            tracer.begin()
        started = time.perf_counter()
        result = invoke(cli, op, budget)
        seconds = time.perf_counter() - started
        if tracer is not None and result[0] == "timeout":
            tracer.abort()
        verdict = check(op, refs, result)
        rows.append((op, verdict, budget if verdict == "timeout" else seconds, result[3]))
    return rows


def run_passes(ops, refs, budget, seconds, tracer=None):
    """Whole passes until the next would overrun `seconds`; at least MIN_PASSES.

    Each pass runs a freshly imported program.  With a tracer, odd passes are traced and the pass count is even.  A
    traced pass runs every operation, so its spans show where the time of a
    stopped one went; an untraced pass skips those already stopped.
    Returns [(rows, traced)] per pass.
    """
    passes = []
    stopped: dict[str, str] = {}
    begun = time.perf_counter()
    while True:
        cli = import_program()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            rows = run_pass(cli, ops, refs, budget, tracer if traced else None, None if traced else stopped)
        finally:
            if traced:
                tracer.uninstall()
        stopped.update((op.id, detail) for op, verdict, _, detail in rows if verdict == "timeout")
        passes.append((rows, traced))
        now = time.perf_counter()
        done = len(passes) >= MIN_PASSES and now - begun + (now - started) > seconds
        if done and (tracer is None or traced):
            return passes


def end_to_end(passes) -> dict:
    """Metrics over the operations of a pass.

    Each operation's time is the least it was charged in any pass: the
    machine's speed drifts by tens of percent over seconds, and only ever
    slows an operation down, so the least of several passes is the steadiest
    estimate of what the operation costs.  An operation fails if it failed in
    any pass.
    """
    best: dict[str, float] = {}
    failed: set[str] = set()
    for rows, _ in passes:
        for op, verdict, seconds, _ in rows:
            best[op.id] = min(seconds, best.get(op.id, seconds))
            if verdict != "ok":
                failed.add(op.id)
    times = list(best.values())
    return {
        "ops_per_s": (len(times) - len(failed)) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[8],
        # rule of succession: never 0, and one more failed operation raises it
        "failed_ratio": (len(failed) + 1) / (len(times) + 2),
    }


# -- reporting ------------------------------------------------------------------------


UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "failed_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(tracer, passes) -> dict:
    traced = [p for p in passes if p[1]]
    rows = [row for pass_rows, _ in traced for row in pass_rows]
    completed = {i for i, row in enumerate(rows) if row[1] != "timeout"}
    values = spans.layer_metrics(tracer, completed, len(traced))
    for module in TIMEOUT_MODULES:
        stopped = sum(row[1] == "timeout" and row[3] == module for row in rows)
        values[f"timeout.{module}"] = stopped / len(traced)
    on, off = end_to_end(traced), end_to_end([p for p in passes if not p[1]])
    for key in OVERHEAD:
        values[f"trace.overhead.{key}"] = on[key] - off[key]
    return {name: _metric(values.get(name, 0), unit) for name, unit, _ in PER_LAYER}


OVERHEAD = ("ops_per_s", "op_s.p50", "op_s.p90")
PER_LAYER = (
    [(f"{spans.span_name(m, a)}.self_s", "s", "lower") for m, a in spans.SPANNED]
    + [
        ("groebner.buchberger.calls", "count", "lower"),
        ("groebner.normal_form.calls", "count", "lower"),
        ("grading.positivity_witness.calls", "count", "lower"),
        ("groebner.pairs_processed", "count", "lower"),
        ("groebner.basis_size.max", "count", "lower"),
        ("groebner.normal_form.zero_ratio", "ratio", "lower"),
        ("ideals.is_proper.gb_s", "s", "lower"),
    ]
    + [(f"{spans.span_name(m, a)}.calls", "count", "lower") for m, a in spans.COUNTED]
    + [(f"timeout.{m}", "count", "lower") for m in TIMEOUT_MODULES]
    + [(f"trace.overhead.{k}", UNITS[k], "higher" if k == "ops_per_s" else "lower") for k in OVERHEAD]
)


def write_out(workload, seed, tracer, passes) -> None:
    """Stopped operations, and spans of traced passes, under .perfbench/."""
    OUT.mkdir(exist_ok=True)
    stopped = {}
    for rows, _ in passes:
        for op, verdict, _, module in rows:
            if verdict == "timeout":
                stopped[op.id] = {
                    "workload": op.workload,
                    "document": op.doc,
                    "command": " ".join(op.argv),
                    "module": module,
                }
    record = {"workload": workload, "seed": seed, "timeouts": list(stopped.values())}
    if tracer is not None:
        record["spans"] = tracer.spans
    traced = int(tracer is not None)
    with open(OUT / f"{workload}-seed{seed}-trace{traced}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    for item in stopped.values():
        print(
            "timeout: workload={workload} document={document} command={command} "
            "module={module}".format(**item),
            file=sys.stderr,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.POOLS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "gradedcones" / "cli.py").is_file():
        print(f"perfbench: no gradedcones sources under {SOURCE}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    budget = BUDGET_S[args.workload]

    setup_times = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        ops, refs = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - started)

    tracer = spans.Tracer() if args.trace else None
    passes = run_passes(ops, refs, budget, args.seconds, tracer)
    write_out(args.workload, args.seed, tracer, passes)

    rows = [row for pass_rows, _ in passes for row in pass_rows]
    verdicts = [row[1] for row in rows]
    correct = not any(v in ("mismatch", "error") for v in verdicts)
    for op, verdict, _, detail in rows:
        if verdict in ("mismatch", "error", "unverified"):
            print(f"{verdict}: {op.id} {detail or ''}", file=sys.stderr)

    if tracer is not None:
        metrics = per_layer(tracer, passes)
    else:
        values = end_to_end(passes)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: _metric(values[name], unit) for name, unit in UNITS.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(rows),
                "failed": sum(v != "ok" for v in verdicts),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
