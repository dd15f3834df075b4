"""Per-layer tracing of gradedcones from outside the package.

Tracer.install() replaces selected public functions and methods with
wrappers, leaving the package's source untouched:

  * a module-level function is rebound under every name, in every loaded
    gradedcones module, that refers to it (so `from .groebner import
    buchberger` in another module is caught too);
  * a method is replaced on its class (TermOrder, IdealPresentation).

SPANNED functions record a span (name, start, end, parent, operation);
COUNTED functions only bump a per-operation counter, because they run
millions of times (TermOrder.key) or are leaves whose time belongs to their
caller (intlinalg.rank inside low_orbit_stratum).  Spans stay in memory;
the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import sys
import time

SPANNED = (
    ("cli", "main"),
    ("session", "parse_session"),
    ("grading", "positivity_witness"),
    ("ratlp", "feasible_or_farkas"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("ideals", "IdealPresentation.is_proper"),
    ("ideals", "eliminate"),
    ("ideals", "saturate"),
    ("ideals", "krull_dimension"),
    ("cones", "homogeneous_ideal"),
    ("cones", "minimal_embedding"),
    ("cones", "singular_locus"),
    ("strata", "stratum_ideal"),
    ("orbits", "low_orbit_stratum"),
    ("orbits", "orbit_closure_ideal"),
    ("orbits", "find_one_dim_orbit"),
)
COUNTED = (
    ("orders", "TermOrder.key"),
    ("intlinalg", "rank"),
)


def span_name(module: str, attr: str) -> str:
    """`ideals.IdealPresentation.is_proper` is reported as `ideals.is_proper`."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and counts of one benchmark run, grouped by operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self.counts: list[dict] = []  # per operation
        self.groebner: list[list] = []  # per operation: (pairs_processed, basis_size)
        self.nf_under_buchberger: list[list[int]] = []  # per operation: [calls, zero]
        self._stack: list[int] = []
        self._op = -1
        self._first = 0  # index of the current operation's first span
        self._undo: list = []

    # -- operation boundaries ---------------------------------------------------

    def begin(self) -> int:
        self._op += 1
        self._first = len(self.spans)
        self._stack.clear()
        self.counts.append({})
        self.groebner.append([])
        self.nf_under_buchberger.append([0, 0])
        return self._op

    def abort(self) -> None:
        """Close the spans a stopped operation left open.

        The alarm can land between a wrapper appending its span and pushing
        it on the stack, so every open span of the operation is closed, not
        only those on the stack.
        """
        now = time.perf_counter()
        for record in self.spans[self._first :]:
            if record[2] is None:
                record[2] = now
        self._stack.clear()

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, time.perf_counter(), None, parent, tracer._op]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                if stack and stack[-1] == index:
                    stack.pop()
            tracer._observe(name, parent, result)
            return result

        return wrapper

    def _observe(self, name: str, parent, result) -> None:
        if name == "groebner.buchberger":
            stats = result.stats
            self.groebner[self._op].append((stats["pairs_processed"], stats["basis_size"]))
        elif (
            name == "groebner.normal_form"
            and parent is not None
            and self.spans[parent][0] == "groebner.buchberger"
        ):
            tally = self.nf_under_buchberger[self._op]
            tally[0] += 1
            tally[1] += result.is_zero()

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer._op]
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attr in table:
                module = sys.modules[f"gradedcones.{module_name}"]
                name = span_name(module_name, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, make(name, original))
                    self._undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapped = make(name, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("gradedcones"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)
                            self._undo.append((loaded, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# -- reduction to per-layer metrics -----------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, completed: set[int], passes: int) -> dict[str, float]:
    """Per-layer values per pass of the workload.

    Times cover every operation, stopped ones too, since a stopped operation
    spent them.  Counts cover completed operations only: how far a stopped
    one got depends on the machine, and counts must repeat exactly.
    """
    spans = tracer.spans
    own = self_times(spans)
    values: dict[str, float] = {}

    def add(key, amount):
        values[key] = values.get(key, 0) + amount

    for index, (name, start, end, parent, op) in enumerate(spans):
        add(f"{name}.self_s", own[index])
        if op in completed:
            add(f"{name}.calls", 1)
        if name == "groebner.buchberger":
            up = parent
            while up is not None and spans[up][0] != "ideals.is_proper":
                up = spans[up][3]
            if up is not None:
                add("ideals.is_proper.gb_s", end - start)
    largest = calls = zero = 0
    for op in completed:
        for key, n in tracer.counts[op].items():
            add(f"{key}.calls", n)
        for pairs, size in tracer.groebner[op]:
            add("groebner.pairs_processed", pairs)
            largest = max(largest, size)
        calls += tracer.nf_under_buchberger[op][0]
        zero += tracer.nf_under_buchberger[op][1]
    values = {key: value / passes for key, value in values.items()}
    values["groebner.basis_size.max"] = largest
    values["groebner.normal_form.zero_ratio"] = zero / calls if calls else 0.0
    return values
