"""Generalized degrees-of-freedom curves for the cumulative-sharing
cognitive channel and the two reference models (classical interference
channel, MIMO broadcast), plus empirical slope-fit validation against
the Gaussian bounds.

Every closed form has a discontinuity at alpha = 1 where the channel
collapses to a MAC of sum gDoF 1; the model functions give the two-sided
limit there, and curve_sweep gives 1 when asked (discontinuity=True).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import gaussian

MODELS = ("cms", "ifc", "bc")

# Slope fits are ill-posed within this distance of the alpha = 1
# discontinuity.
FIT_EXCLUSION = 0.1


@dataclass(frozen=True)
class SlopeEstimate:
    inner_slope: float
    outer_slope: float


def _check(alpha: float, k: int) -> None:
    """A finite alpha >= 0 and an integral k >= 2, so NaN fails."""
    try:
        k = operator.index(k)
    except TypeError:
        k = 0
    if not (0 <= alpha < math.inf) or k < 2:
        raise ValueError("need a finite alpha >= 0 and an integer k >= 2")


def gdof_cms(alpha: float, k: int) -> float:
    """Sum gDoF of the cumulative-sharing cognitive channel:
    K*max{1,alpha} - alpha."""
    _check(alpha, k)
    return k * max(1.0, alpha) - alpha


def gdof_bc(alpha: float, k: int) -> float:
    """Sum gDoF of the K-antenna broadcast channel: K*max{1,alpha}."""
    _check(alpha, k)
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


def gdof_ifc(alpha: float, k: int) -> float:
    """Sum gDoF of the classical K-user interference channel:
    (K/2) times the 2-user W-curve."""
    _check(alpha, k)
    return (k / 2.0) * _w_curve_2user(alpha)


_MODEL_FUNCS = {"cms": gdof_cms, "ifc": gdof_ifc, "bc": gdof_bc}


def curve_sweep(model: str, k: int, alpha_grid,
                discontinuity: bool = False) -> tuple:
    """((alpha, d), ...): a model's closed form over a strictly increasing
    alpha grid, with d = 1 exactly at alpha = 1 if discontinuity."""
    if model not in _MODEL_FUNCS:
        raise ValueError(f"unknown model {model!r}; pick one of {MODELS}")
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be non-empty")
    ds = [_MODEL_FUNCS[model](a, k) for a in alphas]
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be strictly increasing")
    return tuple((a, 1.0 if discontinuity and a == 1.0 else d)
                 for a, d in zip(alphas, ds))


def empirical_gdof_curve(k: int, alphas, snr_db_list) -> list[SlopeEstimate]:
    """Least-squares slopes of the analytic outer and the closed-form
    inner bound vs. log2(1+SNR), at |hd|^2 = SNR and |hi|^2 = SNR^alpha:
    one evaluation over the (alpha, SNR) grid, then one fit per alpha
    (one fit with every alpha as a right-hand side rounds differently)."""
    snr_dbs = [float(s) for s in snr_db_list]
    if len(set(snr_dbs)) < 2:
        raise ValueError("need two distinct SNR points for a slope fit")
    for alpha in alphas:
        _check(alpha, k)
    if any(abs(alpha - 1.0) < FIT_EXCLUSION for alpha in alphas):
        raise ValueError("slope fit is ill-posed in the alpha = 1 "
                         "discontinuity neighborhood")
    n = len(snr_dbs)
    g = gaussian.ChannelGrid.from_snr_alpha(
        np.tile(snr_dbs, len(alphas)), np.repeat(alphas, n), k)
    xs = list(map(math.log2, (1.0 + g.hd2[:n]).tolist()))
    inner = gaussian.closed_form_inner(g).reshape(-1, n)
    outer = gaussian.outer_grid(g).reshape(-1, n)
    return [SlopeEstimate(inner_slope=float(np.polyfit(xs, i, 1)[0]),
                          outer_slope=float(np.polyfit(xs, o, 1)[0]))
            for i, o in zip(inner, outer)]
