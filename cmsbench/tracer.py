"""Outside-in per-layer tracing of the cifc_cms package.

Every public function of the layer modules is replaced, at module
attribute level, by a timing wrapper while a traced pass runs.  Calls
that go through a module attribute are therefore caught, including
calls within one module (``additive_gap_certificate -> dpc_rates``,
``rank -> row_echelon``).  Private names are never wrapped, so rewriting
a private helper cannot break the trace.

Spans are aggregated in memory per function and per (parent, child)
edge; ``self`` time is the span's duration minus the time its traced
children cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import types

LAYERS = ("gf2", "ldc", "gaussian", "gdof", "cli")


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


# Counts recorded at a layer boundary from a call's arguments or result.
def _verify_counts(fn, args, kwargs, result):
    return {"tuples": result.tuples_checked,
            "exhaustive": int(result.mode == "exhaustive")}


def _write_csv_counts(fn, args, kwargs, result):
    return {"rows": len(_bound(fn, args, kwargs)["rows"])}


def _inner_counts(fn, args, kwargs, result):
    return {"budget": _bound(fn, args, kwargs)["budget"]}


COUNTERS = {
    "ldc.verify_scheme": _verify_counts,
    "cli.write_csv": _write_csv_counts,
    "gaussian.optimize_inner": _inner_counts,
}


class Tracer:
    """Installs wrappers on entry and restores the originals on exit."""

    def __init__(self, package):
        self._modules = [getattr(package, name) for name in LAYERS]
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self.funcs: dict[str, list] = {}   # name -> [calls, busy, self]
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, busy]
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[list] = []       # [name, child_time]

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        funcs, edges, stack = self.funcs, self.edges, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += dur
                f = funcs.get(name)
                if f is None:
                    f = funcs[name] = [0, 0.0, 0.0]
                f[0] += 1
                f[1] += dur
                f[2] += dur - frame[1]
                e = edges.get((parent, name))
                if e is None:
                    e = edges[(parent, name)] = [0, 0.0]
                e[0] += 1
                e[1] += dur
            if counter is not None:
                c = self.counts.setdefault(name, {})
                for key, v in counter(fn, args, kwargs, result).items():
                    c[key] = c.get(key, 0) + v
            return result

        return wrapper

    def __enter__(self):
        for mod in self._modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", obj))
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()
        return False

    def record(self) -> dict:
        """Aggregates as plain data, for the run record."""
        return {
            "functions": {n: {"calls": c, "busy_s": b, "self_s": s}
                          for n, (c, b, s) in sorted(self.funcs.items())},
            "edges": [{"parent": p, "child": ch, "calls": c, "busy_s": b}
                      for (p, ch), (c, b) in sorted(self.edges.items())],
            "counts": self.counts,
        }


def layer_metrics(rec: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from Tracer.record()."""
    funcs, counts = rec["functions"], rec["counts"]

    def get(name, key):
        return funcs.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def under(parent, child):
        return sum(e["calls"] for e in rec["edges"]
                   if e["parent"] == parent and e["child"] == child)

    vs = counts.get("ldc.verify_scheme", {})
    m = {}
    n = "ldc.verify_scheme"
    m[n + ".calls"] = get(n, "calls")
    m[n + ".self_s"] = get(n, "self_s")
    m[n + ".tuples"] = vs.get("tuples", 0)
    m[n + ".us_per_tuple"] = ratio(get(n, "busy_s"), vs.get("tuples", 0), 1e6)
    m[n + ".full_coverage_share"] = ratio(vs.get("exhaustive", 0),
                                         get(n, "calls"))
    n = "ldc.outer_bound_dominance_check"
    m[n + ".calls"] = get(n, "calls")
    m[n + ".self_s"] = get(n, "self_s")
    m[n + ".ms_per_channel"] = ratio(get(n, "busy_s"), get(n, "calls"), 1e3)
    builds = ("ldc.build_sym_scheme", "ldc.build_generic3_scheme")
    m["ldc.build.calls"] = sum(get(b, "calls") for b in builds)
    m["ldc.build.self_s"] = sum(get(b, "self_s") for b in builds)
    gf2 = [f for f in funcs if f.startswith("gf2.")]
    m["gf2.calls"] = sum(get(f, "calls") for f in gf2)
    m["gf2.self_s"] = sum(get(f, "self_s") for f in gf2)
    m["gf2.solve.calls"] = get("gf2.solve", "calls")
    m["gf2.solve.self_s"] = get("gf2.solve", "self_s")
    m["gf2.basis_complete.self_s"] = get("gf2.basis_complete", "self_s")
    m["gf2.nullspace.self_s"] = get("gf2.nullspace", "self_s")
    n = "gaussian.optimize_outer"
    m[n + ".calls"] = get(n, "calls")
    m[n + ".self_s"] = get(n, "self_s")
    m[n + ".s_per_point"] = ratio(get(n, "busy_s"), get(n, "calls"))
    n = "gaussian.optimize_inner"
    m[n + ".calls"] = get(n, "calls")
    m[n + ".self_s"] = get(n, "self_s")
    m[n + ".evals_per_budget"] = ratio(
        under(n, "gaussian.dpc_rates"),
        counts.get(n, {}).get("budget", 0))
    m["gaussian.dpc_rates.calls"] = get("gaussian.dpc_rates", "calls")
    m["gaussian.dpc_rates.self_s"] = get("gaussian.dpc_rates", "self_s")
    n = "gaussian.additive_gap_certificate"
    m[n + ".calls"] = get(n, "calls")
    m[n + ".self_s"] = get(n, "self_s")
    m[n + ".us_per_call"] = ratio(get(n, "busy_s"), get(n, "calls"), 1e6)
    m["gaussian.closed_form.self_s"] = (
        get("gaussian.closed_form_params", "self_s")
        + get("gaussian.outer_sum", "self_s"))
    m["gdof.empirical_gdof.calls"] = get("gdof.empirical_gdof", "calls")
    m["gdof.empirical_gdof.self_s"] = get("gdof.empirical_gdof", "self_s")
    m["gdof.curve_sweep.self_s"] = get("gdof.curve_sweep", "self_s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    m["cli.write_csv.self_s"] = get("cli.write_csv", "self_s")
    m["cli.write_csv.rows"] = counts.get("cli.write_csv", {}).get("rows", 0)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass)
            for k in per_pass[0]}
