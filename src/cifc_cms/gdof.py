"""Generalized degrees-of-freedom curves for the cumulative-sharing
cognitive channel and the two reference models (classical interference
channel, MIMO broadcast), plus empirical slope-fit validation against
the Gaussian bounds.

Every closed form has a discontinuity at alpha = 1 where the channel
collapses to a MAC; the discontinuity value is returned only when
explicitly requested via the flag, otherwise the two-sided limit is
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian

MODELS = ("cms", "ifc", "bc")

# Slope fits are ill-posed within this distance of the alpha = 1
# discontinuity.
FIT_EXCLUSION = 0.1


@dataclass(frozen=True)
class GdofCurve:
    model: str
    k: int
    samples: tuple[tuple[float, float], ...]  # (alpha, d)

    def __post_init__(self):
        alphas = [a for a, _ in self.samples]
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError("alpha grid must be strictly increasing")
        if any(d < 0 for _, d in self.samples):
            raise ValueError("gDoF values must be non-negative")


@dataclass(frozen=True)
class SlopeEstimate:
    inner_slope: float
    outer_slope: float


def _check(alpha: float, k: int) -> None:
    if alpha < 0 or k < 2:
        raise ValueError("need alpha >= 0 and k >= 2")


def gdof_cms(alpha: float, k: int, discontinuity: bool = False) -> float:
    """Sum gDoF of the cumulative-sharing cognitive channel:
    K*max{1,alpha} - alpha, dropping to 1 exactly at alpha = 1."""
    _check(alpha, k)
    if alpha == 1.0:
        return 1.0 if discontinuity else float(k - 1)
    return k * max(1.0, alpha) - alpha


def gdof_bc(alpha: float, k: int, discontinuity: bool = False) -> float:
    """Sum gDoF of the K-antenna broadcast channel: K*max{1,alpha}."""
    _check(alpha, k)
    if alpha == 1.0 and discontinuity:
        return 1.0
    return k * max(1.0, alpha)


def _w_curve_2user(alpha: float) -> float:
    """The 2-user sum W-curve of the non-cognitive interference channel."""
    if alpha <= 0.5:
        return 2.0 * (1.0 - alpha)
    if alpha <= 2.0 / 3.0:
        return 2.0 * alpha
    if alpha <= 1.0:
        return 2.0 - alpha
    if alpha <= 2.0:
        return alpha
    return 2.0


def gdof_ifc(alpha: float, k: int, discontinuity: bool = False) -> float:
    """Sum gDoF of the classical K-user interference channel:
    (K/2) times the 2-user W-curve, with value 1 at alpha = 1."""
    _check(alpha, k)
    if alpha == 1.0 and discontinuity:
        return 1.0
    return (k / 2.0) * _w_curve_2user(alpha)


_MODEL_FUNCS = {"cms": gdof_cms, "ifc": gdof_ifc, "bc": gdof_bc}


def curve_sweep(model: str, k: int, alpha_grid,
                discontinuity: bool = False) -> GdofCurve:
    """Sample a model's closed form over an increasing alpha grid."""
    if model not in _MODEL_FUNCS:
        raise ValueError(f"unknown model {model!r}; pick one of {MODELS}")
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be non-empty")
    fn = _MODEL_FUNCS[model]
    samples = tuple((a, fn(a, k, discontinuity)) for a in alphas)
    return GdofCurve(model=model, k=k, samples=samples)


def empirical_gdof(k: int, alpha: float, snr_db_list) -> SlopeEstimate:
    """Least-squares slope of the Gaussian bounds vs. log2(1+SNR).

    Sets |hd|^2 = SNR and |hi|^2 = SNR^alpha at each listed SNR and fits
    both the analytic outer bound and the closed-form inner bound.
    """
    return empirical_gdof_curve(k, [alpha], snr_db_list)[0]


def empirical_gdof_curve(k: int, alphas,
                         snr_db_list) -> list[SlopeEstimate]:
    """empirical_gdof at each alpha, from one evaluation of the bounds
    over the (alpha, SNR) grid.  Each alpha is its own fit: one fit
    with every alpha as a right-hand side rounds differently."""
    snr_dbs = [float(s) for s in snr_db_list]
    if len(snr_dbs) < 2:
        raise ValueError("need at least two SNR points for a slope fit")
    if any(abs(alpha - 1.0) < FIT_EXCLUSION for alpha in alphas):
        raise ValueError("slope fit is ill-posed in the alpha = 1 "
                         "discontinuity neighborhood")
    n = len(snr_dbs)
    g = gaussian.ChannelGrid.from_snr_alpha(
        np.tile(snr_dbs, len(alphas)), np.repeat(alphas, n), k)
    xs = list(map(math.log2, (1.0 + g.hd2[:n]).tolist()))
    inner = gaussian.closed_form_inner(g).reshape(-1, n)
    outer = gaussian.outer_grid(g)[0].reshape(-1, n)
    return [SlopeEstimate(inner_slope=float(np.polyfit(xs, i, 1)[0]),
                          outer_slope=float(np.polyfit(xs, o, 1)[0]))
            for i, o in zip(inner, outer)]
