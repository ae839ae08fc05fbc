"""Batch front end: sweeps over the library modules, CSV artifacts out.

Four subcommands: ldc-verify, ldc-outer, gaussian-gap, gdof-curves.
Config may come from flags or a plain key=value file (flags win).  Exit
codes: 0 success, 1 invariant violation on the sweep, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import gaussian, gdof, ldc


class ConfigError(Exception):
    pass


def parse_grid(spec: str, integer: bool = False) -> list:
    """Parse 'start:stop:step', a comma list, or a single value.

    Range endpoints are inclusive (up to a 1e-9 tolerance on the stop).
    """
    conv = int if integer else float
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = [float(p) for p in spec.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1.0
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError(spec)
            if step <= 0 or stop < start:
                raise ValueError(spec)
            n = int(round((stop - start) / step))
            vals = [start + i * step for i in range(n + 1)]
            vals = [v for v in vals if v <= stop + 1e-9]
            return [conv(round(v, 12)) for v in vals]
        return [conv(p) for p in spec.split(",") if p.strip() != ""]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid spec {spec!r}") from exc


def load_config_file(path: str) -> dict[str, str]:
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def load_gains_file(path: str) -> ldc.LdcGains:
    """Whitespace-separated K x K integer block."""
    try:
        rows = [[int(v) for v in line.split()]
                for line in Path(path).read_text().splitlines()
                if line.strip()]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad gains file {path}: {exc}") from exc
    try:
        return ldc.LdcGains.from_matrix(rows)
    except ValueError as exc:
        raise ConfigError(f"bad gains file {path}: {exc}") from exc


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Cells must be str, int or Python float: csv writes a float as its
    repr and anything else as str, so a numpy scalar or a bool would
    leak its repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ldc_verify(opts) -> int:
    header = ["nd", "ni", "k", "sum_rate", "outer_bound", "verified", "mode"]
    rows: list[list] = []
    violated = False

    def run_scheme(g, scheme, nd, ni, outer_value):
        nonlocal violated
        report = ldc.verify_scheme(g, scheme)
        total = scheme.total_bits
        rows.append([nd, ni, g.k, total, outer_value,
                     "true" if report.passed else "false", report.mode])
        # A verified scheme above the stated capacity refutes the bound.
        if not report.passed or total != outer_value:
            violated = True

    if opts.gains_file:
        g = load_gains_file(opts.gains_file)
        if g.k != 3:
            raise ConfigError("explicit gain matrices must be 3x3")
        outer = ldc.ldc3_sum_outer(g).value
        scheme = ldc.build_generic3_scheme(g, seed=opts.seed)
        run_scheme(g, scheme, "", "", outer)
    else:
        for k in opts.k:
            for nd in opts.nd:
                for ni in opts.ni:
                    g = ldc.LdcGains.symmetric(nd, ni, k)
                    outer = ldc.ldc_k_sym_sum_capacity(nd, ni, k).value
                    scheme = ldc.build_sym_scheme(nd, ni, k)
                    run_scheme(g, scheme, nd, ni, outer)

    write_csv(opts.out, header, rows)
    return 1 if violated else 0


def cmd_ldc_outer(opts) -> int:
    header = (["n11", "n12", "n13", "n21", "n22", "n23", "n31", "n32", "n33"]
              + ["outer", "term1", "term2", "term3", "case_label",
                 "rank_bound"])
    rows: list[list] = []
    violated = False

    if opts.gains_file:
        gains_list = [load_gains_file(opts.gains_file)]
    else:
        rng = np.random.default_rng(opts.seed)
        gains_list = [
            ldc.LdcGains.from_matrix(
                rng.integers(0, opts.max_gain + 1, size=(3, 3)))
            for _ in range(opts.samples)
        ]

    for g in gains_list:
        if g.k != 3:
            raise ConfigError("ldc-outer requires 3x3 gain matrices")
        bound = ldc.ldc3_sum_outer(g)
        terms = dict(bound.terms)
        case = "r3>0" if terms["rx3_private"] > 0 else "r3=0"
        # The rank certificate is the largest entropy sum any input
        # reaches; above the closed form it refutes the bound.
        rank = ldc.chain_rank_bound(g)
        if rank > bound.value:
            violated = True
        rows.append([*(g.n[l][i] for l in range(3) for i in range(3)),
                     bound.value, terms["rx1_full"],
                     terms["rx2_conditional"], terms["rx3_private"],
                     case, rank])

    write_csv(opts.out, header, rows)
    return 1 if violated else 0


def cmd_gaussian_gap(opts) -> int:
    header = ["k", "snr_db", "alpha", "outer_analytic", "inner_closed",
              "gap_analytic_observed", "gap_bound", "inner_opt",
              "outer_opt", "gap_numeric", "mult_ratio"]
    rows: list[list] = []

    for k in opts.k:
        for snr_db in opts.snr_db:
            for alpha in opts.alpha:
                ch = gaussian.GaussianSymChannel.from_snr_alpha(
                    snr_db, alpha, k)
                cert = gaussian.additive_gap_certificate(ch)
                inner_opt = outer_opt = gap_numeric = ""
                if opts.budget > 0:
                    params, val = gaussian.optimize_inner(
                        ch, budget=opts.budget, seed=opts.seed)
                    inner_opt = val
                    if k == 3:
                        outer_opt = gaussian.optimize_outer(
                            ch, budget=opts.budget, seed=opts.seed,
                            inner_hint=params)
                        gap_numeric = outer_opt - inner_opt
                rows.append([k, snr_db, alpha, cert.outer, cert.inner,
                             cert.additive_gap, cert.analytic_gap_bound,
                             inner_opt, outer_opt, gap_numeric,
                             cert.multiplicative_ratio])

    write_csv(opts.out, header, rows)
    return 0


def cmd_gdof_curves(opts) -> int:
    header = ["model", "k", "alpha", "d", "d_normalized",
              "d_emp_inner", "d_emp_outer"]
    rows: list[list] = []

    for model in opts.models:
        for k in opts.k:
            curve = gdof.curve_sweep(model, k, opts.alpha,
                                     discontinuity=opts.discontinuity)
            for alpha, d in curve.samples:
                emp_in = emp_out = ""
                if (opts.snr_db and model == "cms"
                        and abs(alpha - 1.0) >= gdof.FIT_EXCLUSION):
                    est = gdof.empirical_gdof(k, alpha, opts.snr_db)
                    emp_in, emp_out = est.inner_slope, est.outer_slope
                rows.append([model, k, alpha, d, d / k, emp_in, emp_out])

    write_csv(opts.out, header, rows)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cifc-cms",
        description="Sum-capacity bounds for the cognitive interference "
                    "channel with cumulative message sharing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ldc-verify",
                       help="build deterministic-channel schemes and "
                            "prove decodability for every message")
    _add_common(p)
    p.add_argument("--nd", help="direct-gain grid (default 0:4)")
    p.add_argument("--ni", help="interfering-gain grid (default 0:4)")
    p.add_argument("--k", help="user-count list (default 3)")
    p.add_argument("--gains-file", help="explicit 3x3 gain matrix file")

    p = sub.add_parser("ldc-outer",
                       help="evaluate the 3-user sum-rate outer bound "
                            "and certify it by a rank count")
    _add_common(p)
    p.add_argument("--gains-file", help="explicit 3x3 gain matrix file")
    p.add_argument("--samples", type=int,
                   help="number of random gain matrices (default 10)")
    p.add_argument("--max-gain", type=int,
                   help="largest random gain (default 3)")

    p = sub.add_parser("gaussian-gap",
                       help="additive/multiplicative gap certificates "
                            "over an (SNR, alpha, K) grid")
    _add_common(p)
    p.add_argument("--k", help="user-count list (default 3)")
    p.add_argument("--snr-db", help="SNR list in dB (default 20)")
    p.add_argument("--alpha", help="alpha grid (default 0:3:0.25)")
    p.add_argument("--budget", type=int,
                   help="numeric-optimization evaluations per point "
                        "(default 0 = analytic only)")

    p = sub.add_parser("gdof-curves",
                       help="gDoF model-comparison curves, optionally "
                            "with empirical slope fits")
    _add_common(p)
    p.add_argument("--models", help="comma list from cms,ifc,bc")
    p.add_argument("--k", help="user-count list (default 3)")
    p.add_argument("--alpha", help="alpha grid (default 0:3:0.25)")
    p.add_argument("--snr-db",
                   help="SNR list for the empirical slope columns")
    p.add_argument("--discontinuity", action="store_true", default=None,
                   help="report the alpha=1 discontinuity value")

    return parser


_DEFAULTS = {
    "ldc-verify": {"nd": "0:4", "ni": "0:4", "k": "3", "gains_file": None,
                   "seed": 0, "out": "ldc_verify.csv"},
    "ldc-outer": {"gains_file": None, "samples": 10, "max_gain": 3,
                  "seed": 0, "out": "ldc_outer.csv"},
    "gaussian-gap": {"k": "3", "snr_db": "20", "alpha": "0:3:0.25",
                     "budget": 0, "seed": 0, "out": "gaussian_gap.csv"},
    "gdof-curves": {"models": "cms,ifc,bc", "k": "3", "alpha": "0:3:0.25",
                    "snr_db": None, "discontinuity": False, "seed": 0,
                    "out": "gdof_curves.csv"},
}

_INT_KEYS = {"seed", "samples", "max_gain", "budget"}
_BOOL_KEYS = {"discontinuity"}


def _merge_config(opts: argparse.Namespace) -> argparse.Namespace:
    """Layer flag values over config-file values over defaults."""
    defaults = dict(_DEFAULTS[opts.command])
    if opts.config:
        for key, value in load_config_file(opts.config).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r} for "
                                  f"{opts.command}")
            if key in _INT_KEYS:
                try:
                    value = int(value)
                except ValueError as exc:
                    raise ConfigError(f"config key {key} needs an "
                                      f"integer, got {value!r}") from exc
            elif key in _BOOL_KEYS:
                value = value.lower() in ("1", "true", "yes")
            defaults[key] = value
    for key, value in defaults.items():
        if getattr(opts, key, None) is None:
            setattr(opts, key, value)
    return opts


# The Gaussian bounds square sums of gains, so K^2 times the largest
# gain power must stay well inside the float range (about 3082 dB).
_MAX_POWER_DB = 3000.0


def _check_gaussian_grid(ks: list, snr_db: list, alphas: list) -> None:
    """Reject SNR/alpha grids whose channels are not finite floats."""
    if not all(math.isfinite(v) for v in snr_db + alphas):
        raise ConfigError("snr-db and alpha values must be finite")
    if not (ks and snr_db and alphas):
        return
    if min(snr_db) < -_MAX_POWER_DB:  # the SNR itself would underflow to 0
        raise ConfigError(f"snr-db must be at least {-_MAX_POWER_DB:g}")
    # A gain power is SNR^a in dB, a = 1 (direct) or alpha (interfering);
    # snr_db * a is bilinear, so its maximum sits at a corner.
    peak = max(s * a for s in (min(snr_db), max(snr_db))
               for a in (1.0, min(alphas), max(alphas)))
    if peak + 20.0 * math.log10(max(ks)) > _MAX_POWER_DB:
        raise ConfigError(f"a gain power of {peak:g} dB (snr-db times 1 "
                          f"or alpha) with k = {max(ks)} overflows floats; "
                          f"keep it plus 20*log10(k) within "
                          f"{_MAX_POWER_DB:g} dB")


def _post_process(opts: argparse.Namespace) -> None:
    if opts.command == "ldc-verify":
        opts.nd = parse_grid(str(opts.nd), integer=True)
        opts.ni = parse_grid(str(opts.ni), integer=True)
        opts.k = parse_grid(str(opts.k), integer=True)
        if any(k < 2 for k in opts.k):
            raise ConfigError("k must be at least 2")
        if any(n < 0 for n in opts.nd + opts.ni):
            raise ConfigError("nd and ni must be non-negative")
    elif opts.command == "ldc-outer":
        if opts.samples < 0 or opts.max_gain < 0:
            raise ConfigError("samples and max-gain must be non-negative")
    elif opts.command == "gaussian-gap":
        opts.k = parse_grid(str(opts.k), integer=True)
        opts.snr_db = parse_grid(str(opts.snr_db))
        opts.alpha = parse_grid(str(opts.alpha))
        if any(k < 3 for k in opts.k):
            raise ConfigError("the gap certificate needs k of at least 3")
        if opts.budget < 0:
            raise ConfigError("budget must be non-negative")
        _check_gaussian_grid(opts.k, opts.snr_db, opts.alpha)
    elif opts.command == "gdof-curves":
        opts.models = [m.strip() for m in str(opts.models).split(",")
                       if m.strip()]
        for m in opts.models:
            if m not in gdof.MODELS:
                raise ConfigError(f"unknown model {m!r}")
        opts.k = parse_grid(str(opts.k), integer=True)
        opts.alpha = parse_grid(str(opts.alpha))
        opts.snr_db = (parse_grid(str(opts.snr_db))
                       if opts.snr_db not in (None, "") else [])
        if any(k < 2 for k in opts.k):
            raise ConfigError("k must be at least 2")
        if not opts.alpha:
            raise ConfigError("alpha grid must be non-empty")
        if opts.alpha[0] < 0 or any(
                b <= a for a, b in zip(opts.alpha, opts.alpha[1:])):
            raise ConfigError("alpha grid must be non-negative and "
                              "strictly increasing")
        if opts.snr_db and len(set(opts.snr_db)) < 2:
            raise ConfigError("slope fits need at least two distinct "
                              "snr-db values")
        _check_gaussian_grid(opts.k, opts.snr_db, opts.alpha)


_COMMANDS = {
    "ldc-verify": cmd_ldc_verify,
    "ldc-outer": cmd_ldc_outer,
    "gaussian-gap": cmd_gaussian_gap,
    "gdof-curves": cmd_gdof_curves,
}


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        opts = _merge_config(opts)
        _post_process(opts)
        return _COMMANDS[opts.command](opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (gaussian.GapExceeded, ldc.SchemeSearchFailed) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
