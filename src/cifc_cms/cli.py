"""Batch front end: sweeps over the library modules, CSV artifacts out.

Four subcommands: ldc-verify, ldc-outer, gaussian-gap, gdof-curves, each
with the options of one table (OPTIONS).  Config may come from flags or a
plain key=value file (flags win).  Exit codes: 0 success, 1 invariant
violation on the sweep, 2 config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import gaussian, gdof, ldc


class ConfigError(Exception):
    pass


# Points per range axis; a range is counted before any is built.
MAX_GRID_POINTS = 1_000_000
# How far past its stop a range's last point may fall (float steps).
GRID_STOP_SLACK = 1e-9
# Users times bit levels, K * max(m, 1), of one deterministic channel,
# the side of the matrices its schemes and proofs build (256: < 1 s).
MAX_LDC_SIZE = 256
# Users of one Gaussian channel: time and memory grow linearly in K
# (10^4 users: about 0.1 s for one gaussian-gap point).
MAX_GAUSSIAN_K = 10_000


def _check_ldc_size(k: int, m: int) -> None:
    if k * max(m, 1) > MAX_LDC_SIZE:
        raise ConfigError(f"k * max(gain, 1) = {k * max(m, 1)} for k = {k} "
                          f"exceeds {MAX_LDC_SIZE}")


def parse_grid(spec: str, integer: bool = False) -> list:
    """Parse 'start:stop:step', a comma list, or a single value.

    Range endpoints are inclusive (up to GRID_STOP_SLACK past the stop),
    a range may hold at most MAX_GRID_POINTS points, and every point of
    an integer range must be integral.
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
            if n >= MAX_GRID_POINTS:
                raise ConfigError(f"grid spec {spec!r} has {n + 1} points; "
                                  f"at most {MAX_GRID_POINTS} allowed")
            vals = [round(v, 12) for v in (start + i * step
                                           for i in range(n + 1))
                    if v <= stop + GRID_STOP_SLACK]
            if integer and not all(v.is_integer() for v in vals):
                raise ConfigError(f"grid spec {spec!r} has non-integral "
                                  f"points")
            return [conv(v) for v in vals]
        return [conv(p) for p in spec.split(",") if p.strip() != ""]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid spec {spec!r}") from exc


def load_config_file(path: str) -> dict[str, str]:
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
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
        g = ldc.LdcGains.from_matrix(rows)
    except ValueError as exc:
        raise ConfigError(f"bad gains file {path}: {exc}") from exc
    _check_ldc_size(g.k, g.m)
    return g


def _line(cells) -> str:
    """One CSV line, CRLF ended.  Cells are str, int or Python float,
    whose str is its repr; no cell the CLI writes needs quoting."""
    return ",".join(map(str, cells)) + "\r\n"


def write_csv(path: str, header: list[str], rows: list[str]) -> None:
    """Write the header line and ``rows``, the finished lines (`_line`),
    one per row."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(_line(header))
            fh.writelines(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write output CSV: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ldc_verify(opts) -> int:
    header = ["nd", "ni", "k", "sum_rate", "outer_bound", "verified", "mode"]
    rows: list[str] = []
    violated = False

    def run_scheme(g, scheme, nd, ni, outer_value):
        nonlocal violated
        report = ldc.verify_scheme(g, scheme)
        total = scheme.total_bits
        rows.append(_line([nd, ni, g.k, total, outer_value,
                           "true" if report.passed else "false",
                           report.mode]))
        # A verified scheme above the stated capacity refutes the bound.
        if not report.passed or total != outer_value:
            violated = True

    if opts.gains_file:
        g = load_gains_file(opts.gains_file)
        if g.k != 3:
            raise ConfigError("explicit gain matrices must be 3x3")
        outer = ldc.ldc3_sum_outer(g).value
        scheme = ldc.build_chain_scheme(g)
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
    rows: list[str] = []
    violated = False

    if opts.gains_file:
        gains_list = [load_gains_file(opts.gains_file)]
    else:
        rng = np.random.default_rng(opts.seed)
        gains_list = (
            ldc.LdcGains.from_matrix(
                rng.integers(0, opts.max_gain + 1, size=(3, 3)))
            for _ in range(opts.samples)
        )

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
        rows.append(_line([*(g.n[l][i] for l in range(3) for i in range(3)),
                           bound.value, terms["rx1_full"],
                           terms["rx2_conditional"], terms["rx3_private"],
                           case, rank]))

    write_csv(opts.out, header, rows)
    return 1 if violated else 0


def cmd_gaussian_gap(opts) -> int:
    header = ["k", "snr_db", "alpha", "outer_analytic", "inner_closed",
              "gap_analytic_observed", "gap_bound", "inner_opt",
              "outer_opt", "gap_numeric", "mult_ratio"]
    rows: list[str] = []
    alpha_cells = list(map(repr, opts.alpha))
    # One kernel call per (k, SNR) row, or per point when optimizing, so
    # that certificate and optimizer errors surface in sweep order.
    step = 1 if opts.budget > 0 else max(len(opts.alpha), 1)
    for k in opts.k:
        for snr_db in opts.snr_db:
            head = f"{k},{snr_db!r}"
            for lo in range(0, len(opts.alpha), step):
                alphas = opts.alpha[lo:lo + step]
                cert = gaussian.gap_certificate_grid(
                    gaussian.ChannelGrid.from_snr_alpha(snr_db, alphas, k))
                numeric = ("", "", "")
                if opts.budget > 0:
                    numeric = _optimized(k, snr_db, alphas[0], opts)
                # gap_bound to mult_ratio, mult_ratio as a format field
                tail = _line([cert.analytic_gap_bound, *numeric, "{!r}"])
                rows += map(",".join, zip(
                    repeat(head), alpha_cells[lo:lo + step],
                    map(repr, cert.outer.tolist()),
                    map(repr, cert.inner.tolist()),
                    map(repr, cert.additive_gap.tolist()),
                    map(tail.format, cert.multiplicative_ratio.tolist())))

    write_csv(opts.out, header, rows)
    return 0


def _optimized(k: int, snr_db: float, alpha: float, opts) -> tuple:
    """(inner_opt, outer_opt, gap_numeric); the outer bound is for k = 3
    only."""
    ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, k)
    params, inner_opt = gaussian.optimize_inner(ch, budget=opts.budget,
                                                seed=opts.seed)
    if k != 3:
        return inner_opt, "", ""
    outer_opt = gaussian.optimize_outer(ch, budget=opts.budget,
                                        seed=opts.seed, inner_hint=params)
    return inner_opt, outer_opt, outer_opt - inner_opt


def cmd_gdof_curves(opts) -> int:
    header = ["model", "k", "alpha", "d", "d_normalized",
              "d_emp_inner", "d_emp_outer"]
    rows: list[str] = []

    for model in opts.models:
        for k in opts.k:
            curve = gdof.curve_sweep(model, k, opts.alpha,
                                     discontinuity=opts.discontinuity)
            fits = {}
            if opts.snr_db and model == "cms":
                fit = [a for a, _ in curve.samples
                       if abs(a - 1.0) >= gdof.FIT_EXCLUSION]
                fits = dict(zip(fit, gdof.empirical_gdof_curve(
                    k, fit, opts.snr_db)))
            for alpha, d in curve.samples:
                est = fits.get(alpha)
                emp_in, emp_out = ((est.inner_slope, est.outer_slope)
                                   if est else ("", ""))
                rows.append(_line([model, k, alpha, d, d / k, emp_in,
                                   emp_out]))

    write_csv(opts.out, header, rows)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _at_least(lo, parse):
    """Converter: parse the text, then reject a value, or any value of a
    grid, below lo."""
    def convert(text: str):
        value = parse(text)
        if min(value if isinstance(value, list) else [value],
               default=lo) < lo:
            raise ConfigError(f"must be at least {lo}")
        return value
    return convert


_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def _bool(text: str) -> bool:
    if text.lower() not in _BOOL_WORDS:
        raise ConfigError("needs 1/0/true/false/yes/no")
    return _BOOL_WORDS[text.lower()]


def _models(text: str) -> list:
    models = [m.strip() for m in text.split(",") if m.strip()]
    for m in models:
        if m not in gdof.MODELS:
            raise ConfigError(f"unknown model {m!r}")
    return models


# Options shared by several subcommands.
_SEED = {"seed": ("0", _at_least(0, int), "RNG seed")}
_GAINS_FILE = {"gains_file": ("", str, "explicit 3x3 gain matrix file")}
_ALPHA = {"alpha": ("0:3:0.25", parse_grid, "alpha grid")}
_INT_GRID = partial(parse_grid, integer=True)
_LDC_GAIN_GRID = ("0:4", _at_least(0, _INT_GRID))


def _users(lo: int) -> dict:
    return {"k": ("3", _at_least(lo, _INT_GRID), "user-count list")}


# Each subcommand's summary and options, key -> (default, converter,
# help).  An option's value is its flag, else its config line, else its
# default, all text; it passes through the converter once.  Every
# subcommand also takes --config and --out (_options).
OPTIONS = {
    "ldc-verify": ("build deterministic-channel schemes and prove "
                   "decodability for every message", {
                       "nd": (*_LDC_GAIN_GRID, "direct-gain grid"),
                       "ni": (*_LDC_GAIN_GRID, "interfering-gain grid"),
                       **_users(2), **_GAINS_FILE}),
    "ldc-outer": ("evaluate the 3-user sum-rate outer bound and certify "
                  "it by a rank count", {
                      **_SEED, **_GAINS_FILE,
                      "samples": ("10", _at_least(0, int),
                                  "number of random gain matrices"),
                      "max_gain": ("3", _at_least(0, int),
                                   "largest random gain")}),
    "gaussian-gap": ("additive/multiplicative gap certificates over an "
                     "(SNR, alpha, K) grid", {
                         **_SEED, **_users(3),
                         "snr_db": ("20", parse_grid, "SNR list in dB"),
                         **_ALPHA,
                         "budget": ("0", _at_least(0, int),
                                    "numeric-optimization evaluations per "
                                    "point (0 = analytic only; at k = 3, "
                                    "outer_opt is outer_analytic below 350, "
                                    "or 300 where INR < 1)")}),
    "gdof-curves": ("gDoF model-comparison curves, optionally with "
                    "empirical slope fits", {
                        "models": (",".join(gdof.MODELS), _models,
                                   "comma list of models"),
                        **_users(2), **_ALPHA,
                        "snr_db": ("", parse_grid, "SNR list in dB for the "
                                   "empirical slope columns"),
                        "discontinuity": ("false", _bool, "report the "
                                          "alpha=1 discontinuity value")}),
}


def _options(command: str) -> dict:
    return {"out": (command.replace("-", "_") + ".csv", str,
                    "output CSV path"), **OPTIONS[command][1]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cifc-cms",
        description="Sum-capacity bounds for the cognitive interference "
                    "channel with cumulative message sharing")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in OPTIONS.items():
        p = sub.add_parser(command, help=summary, description=summary)
        p.add_argument("--config", help="key=value config file; flags "
                                        "override")
        for key, (default, convert, text) in _options(command).items():
            # A boolean flag stands for the config line key=true.
            flag = ({"action": "store_const", "const": "true"}
                    if convert is _bool else {})
            p.add_argument("--" + key.replace("_", "-"), **flag,
                           help=f"{text} (default: {default or 'none'})")
    return parser


def _merge_config(opts: argparse.Namespace) -> argparse.Namespace:
    """Set each option to its converted flag, config-file or default
    value, in that order of precedence."""
    options = _options(opts.command)
    cfg = load_config_file(opts.config) if opts.config else {}
    for key in cfg:
        if key not in options:
            raise ConfigError(f"unknown config key {key!r} for "
                              f"{opts.command}")
    for key, (default, convert, _) in options.items():
        text = getattr(opts, key)
        if text is None:
            text = cfg.get(key, default)
        try:
            setattr(opts, key, convert(text))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{key.replace('_', '-')} = {text!r}: "
                              f"{exc}") from exc
    return opts


# The Gaussian bounds square sums of gains, so K^2 times the largest
# gain power must stay well inside the float range (about 3082 dB).
_MAX_POWER_DB = 3000.0


def _check_gaussian_grid(ks: list, snr_db: list, alphas: list) -> None:
    """Reject SNR/alpha grids whose channels are not finite floats, and
    user counts above MAX_GAUSSIAN_K."""
    if ks and max(ks) > MAX_GAUSSIAN_K:
        raise ConfigError(f"k = {max(ks)} exceeds {MAX_GAUSSIAN_K}")
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
    """The checks that combine options or bound the work of a run."""
    # Fail before the sweep on a path open() cannot create ('' is '.').
    out = Path(opts.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"cannot write output CSV {opts.out!r}")
    if opts.command == "ldc-verify":
        _check_ldc_size(max(opts.k, default=0),
                        max(opts.nd + opts.ni, default=0))
    elif opts.command == "ldc-outer":
        if opts.samples > MAX_GRID_POINTS:
            raise ConfigError(f"at most {MAX_GRID_POINTS} samples allowed")
        if not opts.gains_file:
            _check_ldc_size(3, opts.max_gain)
    else:
        if opts.command == "gdof-curves":
            if not opts.alpha or opts.alpha[0] < 0 or any(
                    b <= a for a, b in zip(opts.alpha, opts.alpha[1:])):
                raise ConfigError("alpha grid must be non-empty, "
                                  "non-negative and strictly increasing")
            if opts.snr_db and len(set(opts.snr_db)) < 2:
                raise ConfigError("slope fits need at least two distinct "
                                  "snr-db values")
        _check_gaussian_grid(opts.k, opts.snr_db, opts.alpha)


# Looked up when main runs, so that a wrapper set on cli.cmd_* is called.
_COMMANDS = {c: "cmd_" + c.replace("-", "_") for c in OPTIONS}


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        opts = _merge_config(opts)
        _post_process(opts)
        return globals()[_COMMANDS[opts.command]](opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except gaussian.GapExceeded as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
