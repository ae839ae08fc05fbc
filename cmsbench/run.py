"""cmsbench: the cifc_cms benchmark.

    python3 cmsbench/run.py --workload ldc-sweep --seed 1 --seconds 30 --trace 0

Runs one workload (see spec.json) in fresh interpreters, one after
another, with BLAS pinned to one thread.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics from a traced run.  It prints a readable summary, writes the
full run record to cmsbench/out/, and prints one JSON result object as
the last line of standard output.  It exits with code 2, printing no
result, when the checkout holds no cifc_cms sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "workloads.py"
WORKLOADS = ("ldc-sweep", "gauss-optimize", "gauss-dense")
RUN_LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one child interpreter, killing it at the monotonic
    ``deadline``; returns (spawn time, its result)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), *args],
                          env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(deadline - t0, 0.001))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n"
                           f"{proc.stderr.strip()}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def _result(args, spec: dict, contract: dict) -> tuple[dict, dict]:
    """Returns (contract result, full run record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []

    def setup_samples(n: int) -> None:
        for _ in range(n):
            t0, r = _spawn(base + ["--setup-only"], deadline)
            setup.append(r["ready"] - t0)

    # Setup samples before and after the measured child, so that they
    # see the host over the whole run and not only over its first
    # seconds.
    extra = 0 if args.trace else spec["process"]["setup_samples"] - 1
    setup_samples(extra // 2)
    t0, child = _spawn(base + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], deadline)
    setup.append(child["ready"] - t0)
    setup_samples(extra - extra // 2)

    untraced = child["untraced"]
    wall = statistics.median(untraced["times"])
    runs = [untraced] + ([child["traced"]] if args.trace else [])
    digests = {d for r in runs for d in r["digests"]}
    failures = untraced["failures"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    unexpected = [f for r in runs for f in r["failures"] if not f["known"]]

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": child["items"] / wall,
        "peak_rss_mb": child["peak_rss_mb"],
        "fail_ratio": failed / attempted,
        **untraced["extra"],
    }
    if args.trace:
        from tracer import median_metrics
        traced = child["traced"]
        layer = median_metrics(traced["layer_metrics"])
        layer["trace.overhead_s"] = statistics.median(traced["times"]) - wall
        metrics.update(layer)

    names = contract["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": len(digests) == 1 and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in names},
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "items_per_pass": child["items"],
        "pass_times_s": {"untraced": untraced["times"],
                         **({"traced": child["traced"]["times"]}
                            if args.trace else {})},
        "setup_samples_s": setup,
        "metrics": metrics,
        "digests": sorted(digests),
        "digest_consistent": len(digests) == 1,
        "failures": failures,
        "unexpected_failures": unexpected,
        "trace_record": child["traced"]["trace_record"] if args.trace
        else None,
        "result": result,
    }
    return result, record


def _summary(record: dict, spec: dict, contract: dict) -> str:
    units = {name: doc["unit"] for name, doc in spec["end_to_end"].items()}
    units.update((m["name"], m["unit"]) for m in contract["per_layer"])
    lines = [f"# cmsbench {record['workload']} seed={record['seed']} "
             f"trace={record['trace']} items/pass={record['items_per_pass']}"
             f" passes={record['pass_times_s']}"]
    for name, value in record["metrics"].items():
        lines.append(f"{name:48s} {value:.6g} {units.get(name, '')}")
    lines.append(f"digest {','.join(record['digests'])}")
    for f in record["failures"]:
        tag = "known" if f["known"] else "UNEXPECTED"
        lines.append(f"fail[{tag}] {json.dumps(f['item'])}: {f['reason']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cifc_cms" / "__init__.py").is_file():
        print(f"cmsbench: no cifc_cms sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result, record = _result(args, spec, contract)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            ValueError) as exc:
        print(f"cmsbench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"BENCH_{args.workload}_seed{args.seed}"
                  f"_trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(_summary(record, spec, contract))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
