"""Record reference.json: the digest of every report in every pool.

    python3 perfbench/make_reference.py

Run it at the commit whose reports are the reference (the one that defined
the benchmark); later commits must reproduce these bytes.  It re-records
every pool.  Each operation gets BUDGET_S seconds.  A `stratum` operation
that needs longer is run again with the cone properness check done
structurally: under a positive grading a homogeneous generator with a
constant term is a nonzero constant, so the ideal is proper exactly when no
generator is constant.  That replaces a Groebner basis the answer does not
need and leaves the report's bytes unchanged.  An operation that still does
not finish stops the recording: every operation must have a report.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import corpus
import run

BUDGET_S = 300.0


def structural_properness():
    """Patch cones.homogeneous_ideal to decide properness without a basis."""
    cones = sys.modules["gradedcones.cones"]
    ideals = sys.modules["gradedcones.ideals"]
    original = cones.homogeneous_ideal

    def homogeneous_ideal(generators, grading):
        saved = ideals.IdealPresentation.is_proper
        ideals.IdealPresentation.is_proper = lambda self: not any(
            g.is_constant() for g in self.generators
        )
        try:
            return original(generators, grading)
        finally:
            ideals.IdealPresentation.is_proper = saved

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("gradedcones"):
            if getattr(module, "homogeneous_ideal", None) is original:
                module.homogeneous_ideal = homogeneous_ideal


def record(cli, op):
    """The op's reference entry, or None if it did not finish in BUDGET_S."""
    started = time.perf_counter()
    status, code, stdout, detail = run.invoke(cli, op, BUDGET_S)
    print(f"{time.perf_counter() - started:8.3f} {status:8s} {op.id}", file=sys.stderr, flush=True)
    if status != "done":
        return None
    return {"doc": run.digest(op.text)[:16], "exit": code, "report": run.digest(stdout)}


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    reports = {}
    for workload in corpus.POOLS:
        cli = run.import_program()
        ops = corpus.POOLS[workload]()
        for op in ops:
            reports[op.id] = record(cli, op)
        stalled = [op for op in ops if reports[op.id] is None]
        if any(op.command != "stratum" for op in stalled):
            sys.exit(f"no report within {BUDGET_S:g} s: {[op.id for op in stalled]}")
        if stalled:
            structural_properness()
            for op in stalled:
                entry = record(cli, op)
                if entry is None:
                    sys.exit(f"no report within {BUDGET_S:g} s: {op.id}")
                entry["note"] = "recorded with the properness check done structurally"
                reports[op.id] = entry
    write(run.HERE / "reference.json", reports)
    return 0


def write(path, reports) -> None:
    """One report per line, so a changed reference shows as a one-line diff."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reports.items())]
    path.write_text('{"reports": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
