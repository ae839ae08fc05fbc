"""One workload measurement in a fresh interpreter (started by run.py).

Builds the workload's inputs from the seed, reports when it is ready
for the first timed call, then repeats passes over the fixed input set
for the given number of seconds.  Result checks and output digests run
after each pass, outside its timed region.  Prints one JSON object as
its last line of standard output.

    python3 cmsbench/workloads.py --workload ldc-sweep --seed 1 \
        --seconds 30 --trace 0 [--setup-only]
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((HERE / "spec.json").read_text())["workloads"]


def _digest(values) -> str:
    """SHA-256 of the values, independent of numpy versus Python scalar
    types."""
    text = json.dumps(values, default=lambda v: v.item())
    return hashlib.sha256(text.encode()).hexdigest()


def _failure(item, reason: str, known: bool, items: int = 1) -> dict:
    """A failing item, named by its inputs.  ``known`` marks a defect
    that spec.json documents as present in the package; ``items`` is
    the number of workload items the failure covers."""
    return {"item": item, "reason": reason, "known": known, "items": items}


def _sym_bits(nd: int, ni: int, k: int) -> int:
    """Message bits of the symmetric scheme (see build_sym_scheme)."""
    return nd if nd == ni else (k - 1) * max(nd, ni) + max(nd - ni, 0)


class LdcSweep:
    def __init__(self, pkg, seed: int):
        import numpy as np
        ldc = self.ldc = pkg.ldc
        spec = SPEC["ldc-sweep"]
        self.seed = seed
        sym = spec["sym"]
        self.sym = []
        for k in sym["k"]:
            for nd in sym["nd"]:
                for ni in sym["ni"]:
                    if _sym_bits(nd, ni, k) in sym["skip_bits"]:
                        continue
                    self.sym.append(((k, nd, ni),
                                     ldc.LdcGains.symmetric(nd, ni, k)))
        self.mode = sym["mode"]
        rng = np.random.default_rng(seed)
        gen, aud = spec["generic"], spec["audit"]
        self.generic = self._stratified(
            rng, gen["max_gain"], gen["per_capacity"],
            lambda g: ldc.ldc3_sum_outer(g).value)
        self.audit = self._stratified(rng, aud["max_gain"], aud["per_m"],
                                      lambda g: g.m)
        self.trials = aud["trials"]
        self.items = len(self.sym) + len(self.generic) + len(self.audit)

    def _stratified(self, rng, max_gain, quotas, key):
        """Uniform random 3x3 gain matrices, kept until every key level
        has its quota; returned in level order."""
        want = {int(level): n for level, n in quotas.items()}
        got = {level: [] for level in want}
        while any(len(got[lv]) < n for lv, n in want.items()):
            g = self.ldc.LdcGains.from_matrix(
                rng.integers(0, max_gain + 1, size=(3, 3)))
            lv = key(g)
            if lv in got and len(got[lv]) < want[lv]:
                got[lv].append(g)
        return [g for lv in sorted(got) for g in got[lv]]

    def run_pass(self):
        ldc, seed = self.ldc, self.seed
        sym = []
        for key, g in self.sym:
            s = ldc.build_sym_scheme(key[1], key[2], key[0])
            sym.append((s, ldc.verify_scheme(g, s, mode=self.mode,
                                             seed=seed)))
        generic = []
        for g in self.generic:
            try:
                s = ldc.build_generic3_scheme(g, seed=seed)
            except ldc.SchemeSearchFailed:
                generic.append((None, None))
                continue
            generic.append((s, ldc.verify_scheme(g, s, mode=self.mode,
                                                 seed=seed)))
        audit = [ldc.outer_bound_dominance_check(g, trials=self.trials,
                                                 seed=seed)
                 for g in self.audit]
        return sym, generic, audit

    def check(self, res):
        ldc = self.ldc
        sym, generic, audit = res
        failures, values = [], []
        verified = exhaustive = 0

        def scheme_item(item, s, r, bound, known_if_over):
            nonlocal verified, exhaustive
            if s is None:
                failures.append(_failure(item, "SchemeSearchFailed", False))
                values.append((item, None))
                return
            verified += 1
            exhaustive += r.mode == "exhaustive"
            values.append((item, s.rates, r.passed, r.mode,
                           r.tuples_checked, r.counterexample))
            if not r.passed:
                failures.append(_failure(
                    item, f"verification failed: {r.counterexample}", False))
            elif not s.respects_cms():
                failures.append(_failure(item, "encoder uses messages of "
                                        "later users", False))
            elif s.total_bits != bound:
                failures.append(_failure(
                    item, f"total_bits {s.total_bits} != stated capacity "
                    f"{bound}", known_if_over and s.total_bits > bound))

        for ((k, nd, ni), _), (s, r) in zip(self.sym, sym):
            scheme_item({"kind": "sym", "k": k, "nd": nd, "ni": ni}, s, r,
                        ldc.ldc_k_sym_sum_capacity(nd, ni, k).value,
                        nd == 0 and k >= 4)
        for g, (s, r) in zip(self.generic, generic):
            scheme_item({"kind": "generic", "gains": g.n}, s, r,
                        ldc.ldc3_sum_outer(g).value, False)
        for g, rep in zip(self.audit, audit):
            item = {"kind": "audit", "gains": g.n}
            values.append((item, rep.max_observed, rep.uniform_value,
                           rep.all_within))
            if not rep.all_within:
                failures.append(_failure(
                    item, f"max_observed {rep.max_observed!r} > closed form "
                    f"{rep.closed_form}", False))
        extra = {"full_coverage_share": exhaustive / verified if verified
                 else 0.0}
        return failures, _digest(values), extra


class GaussOptimize:
    def __init__(self, pkg, seed: int):
        g = self.gaussian = pkg.gaussian
        spec = SPEC["gauss-optimize"]
        self.seed, self.budget, self.tol = seed, spec["budget"], spec["tol"]
        self.points = []   # (item, channel, optimize_outer too)
        real = spec["k3_real"]
        for a in real["alpha"]:
            self.points.append(({"k": 3, "snr_db": real["snr_db"],
                                 "alpha": a, "phase": 0.0},
                                g.GaussianSymChannel.from_snr_alpha(
                                    real["snr_db"], a, 3), True))
        for p in spec["k3_complex"]:
            ch = g.GaussianSymChannel.from_snr_alpha(p["snr_db"], p["alpha"],
                                                     3)
            ch = g.GaussianSymChannel(ch.hd, cmath.rect(abs(ch.hi),
                                                        p["phase"]), 3)
            self.points.append(({"k": 3, **p}, ch, True))
        only = spec["inner_only"]
        for k in only["k"]:
            for a in only["alpha"]:
                self.points.append(({"k": k, "snr_db": only["snr_db"],
                                     "alpha": a},
                                    g.GaussianSymChannel.from_snr_alpha(
                                        only["snr_db"], a, k), False))
        self.items = len(self.points)

    def run_pass(self):
        g, budget, seed = self.gaussian, self.budget, self.seed
        out = []
        for _, ch, with_outer in self.points:
            params, inner = g.optimize_inner(ch, budget=budget, seed=seed)
            outer = (g.optimize_outer(ch, budget=budget, seed=seed,
                                      inner_hint=params)
                     if with_outer else None)
            out.append((inner, outer))
        return out

    def check(self, res):
        res = [(float(i), None if o is None else float(o)) for i, o in res]
        g, tol = self.gaussian, self.tol
        failures, gaps = [], []
        for (item, ch, with_outer), (inner, outer) in zip(self.points, res):
            if with_outer:
                hi = g.outer_sum(ch)
                if item["phase"] == 0.0:
                    gaps.append(outer - inner)
                if outer < inner - tol:
                    failures.append(_failure(
                        item, f"outer_opt {outer!r} < inner_opt {inner!r}",
                        item["phase"] != 0.0))
                elif outer > hi + tol:
                    failures.append(_failure(
                        item, f"outer_opt {outer!r} > outer_sum {hi!r}",
                        False))
            else:
                cert = g.additive_gap_certificate(ch)
                if not cert.inner - tol <= inner <= cert.outer + tol:
                    failures.append(_failure(
                        item, f"inner_opt {inner!r} outside certificate "
                        f"[{cert.inner!r}, {cert.outer!r}]", False))
        extra = {"numeric_gap_bits": statistics.fmean(gaps)}
        return failures, _digest(res), extra


class GaussDense:
    def __init__(self, pkg, seed: int):
        import numpy as np
        self.cli = pkg.cli
        spec = SPEC["gauss-dense"]
        d = int(np.random.default_rng(seed).integers(100)) / 100
        gap, gd = spec["gaussian_gap"], spec["gdof_curves"]
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.calls = [
            (["gaussian-gap", "--k", gap["k"],
              "--snr-db", f"{d!r}:{60 + d!r}:1", "--alpha", gap["alpha"],
              "--out", str(self.tmp / "gap.csv")], gap["rows"]),
            (["gdof-curves", "--models", gd["models"], "--k", gd["k"],
              "--alpha", gd["alpha"], "--snr-db", f"{40 + d!r}:{80 + d!r}:1",
              "--out", str(self.tmp / "gdof.csv")], gd["rows"]),
        ]
        self.items = sum(rows for _, rows in self.calls)

    def run_pass(self):
        self.tmp.mkdir(parents=True, exist_ok=True)
        return [self.cli.main(argv) for argv, _ in self.calls]

    def check(self, res):
        failures, h = [], hashlib.sha256()
        for (argv, rows), rc in zip(self.calls, res):
            path = Path(argv[-1])
            data = path.read_bytes() if path.exists() else b""
            path.unlink(missing_ok=True)
            h.update(data)
            got = data.count(b"\n") - 1
            if rc != 0 or got != rows:
                failures.append(_failure(
                    {"argv": argv[:-2]},
                    f"exit code {rc}, {got} rows for {rows} expected",
                    False, rows))
        self.tmp.rmdir()
        return failures, h.hexdigest(), {}


WORKLOADS = {"ldc-sweep": LdcSweep, "gauss-optimize": GaussOptimize,
             "gauss-dense": GaussDense}


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import cifc_cms
    import cifc_cms.cli  # not imported by the package itself
    if Path(cifc_cms.__file__).resolve().parent != ROOT / "src" / "cifc_cms":
        raise ImportError(f"cifc_cms imported from {cifc_cms.__file__}, "
                          f"not from {ROOT / 'src'}")
    return cifc_cms


def _passes(wl, pkg, seconds: float, trace: bool) -> dict:
    """Repeat passes until the next one would end after ``seconds``.
    With ``trace``, untraced and traced passes alternate, so that both
    see the same host conditions; at least one of each runs."""
    from tracer import Tracer, layer_metrics
    runs = {kind: {"times": [], "digests": [], "failures": [],
                   "attempted": 0, "failed": 0, "extra": {},
                   "layer_metrics": [], "trace_record": None}
            for kind in (("untraced", "traced") if trace else ("untraced",))}
    start = time.perf_counter()
    for i in itertools.count():
        traced = trace and i % 2 == 1
        run = runs["traced" if traced else "untraced"]
        if traced:
            with Tracer(pkg) as tr:
                t0 = time.perf_counter()
                res = wl.run_pass()
                dt = time.perf_counter() - t0
            run["trace_record"] = tr.record()
            run["layer_metrics"].append(layer_metrics(run["trace_record"]))
        else:
            t0 = time.perf_counter()
            res = wl.run_pass()
            dt = time.perf_counter() - t0
        fails, digest, run["extra"] = wl.check(res)
        run["times"].append(dt)
        run["digests"].append(digest)
        run["attempted"] += wl.items
        run["failed"] += sum(f["items"] for f in fails)
        run["failures"] = run["failures"] or fails
        longest = max(t for r in runs.values() for t in r["times"])
        if (time.perf_counter() - start + longest > seconds
                and all(r["times"] for r in runs.values())):
            break
    gap = runs["untraced"]["extra"].get("numeric_gap_bits", 0.0)
    for m in runs.get("traced", {}).get("layer_metrics", []):
        m["gaussian.optimize_outer.numeric_gap_bits"] = gap
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pkg = _import_package()
    wl = WORKLOADS[args.workload](pkg, args.seed)
    ready = time.monotonic()
    out = {"ready": ready, "items": wl.items}
    if not args.setup_only:
        out.update(_passes(wl, pkg, args.seconds, bool(args.trace)))
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
