"""Symmetric Gaussian channel rate arithmetic: outer bound, DPC-based
achievable rates under cumulative-message-sharing covariance
constraints, closed-form parameter choices, gap certificates, and
numerical optimization of both bounds.

All rates are in bits (log base 2).  Direct gains are real and
non-negative; interfering gains may be complex.  The degenerate branch
where the interfering gain equals the direct gain exactly (a K-user
MAC) is selected by exact complex equality: the discontinuity is a
genuine feature of the channel, not numerical noise.

The optimized outer bound is the chain bound sum_l h(Y_l | X_<l, Y_<l)
minus the noise terms, at inputs X = l W (W white, l the triangular
factor of a correlation matrix: full power loses nothing).  It is the
log-diagonal at the Y rows of one triangular factorization of the stack
V = (Y_1, X_1, ..., Y_K, X_K), for any K; ldc.chain_rank_bound counts
the pivots at the Y rows of the same stack over GF(2).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    eq: float = 1e-9          # inner <= outer comparisons
    convergence: float = 1e-7  # optimizer stopping improvement, bits
    gap_slack: float = 1e-6    # additive-gap certificate slack
    power_slack: float = 1e-9  # power-constraint feasibility slack


TOL = Tolerances()

_LN2 = math.log(2.0)


class PowerConstraintViolated(ValueError):
    pass


class GapExceeded(RuntimeError):
    """The observed additive gap exceeded the analytic bound, or the
    inner bound exceeded the outer bound; this signals an implementation
    bug, since both bounds are theorems."""


def _log2p1(x: float) -> float:
    return math.log1p(x) / _LN2


def _users(k) -> int:
    try:
        return operator.index(k)
    except TypeError:
        return 0                 # a float or a string is no user count


def _check_channel(k, hd, hi) -> None:
    """The checks of both channel types, on scalar or array gains: hd >= 0,
    an integral k >= 2 and finite gains with hd + (k - 1)|hi| <= 2**511,
    whose square bounds every square the evaluators take, with room for
    rounding below the float maximum; the test forms no overflowing product."""
    if (np.asarray(hd, float) < 0).any():
        raise ValueError("direct gain must be non-negative")
    if _users(k) < 2:
        raise ValueError("need an integer k of at least 2 users")
    try:
        fits = (_abs_each(np.ravel(hi)) <= (2.0 ** 511 - hd) / (k - 1)).all()
    except OverflowError:        # |hi| or k past the float range
        fits = False
    if not fits:
        raise ValueError("gains must be finite, hd + (k - 1)|hi| <= 2**511")


@dataclass(frozen=True)
class GaussianSymChannel:
    """Symmetric channel: direct gain hd >= 0 (real), interfering gain
    hi (complex), k users."""

    hd: float
    hi: complex
    k: int

    def __post_init__(self):
        _check_channel(self.k, self.hd, self.hi)

    @classmethod
    def from_snr_alpha(cls, snr_db: float, alpha: float,
                       k: int) -> "GaussianSymChannel":
        """ChannelGrid.from_snr_alpha at one point."""
        g = ChannelGrid.from_snr_alpha([snr_db], [alpha], k)
        return cls(hd=g.hd.item(), hi=complex(g.hi.item()), k=k)

    @property
    def inr(self) -> float:
        return abs(self.hi) ** 2


@dataclass(frozen=True)
class DpcParams:
    """DPC coefficients: alpha[j] beamforms the primary message from
    transmitter j+1, beta is the common zero-forcing coefficient, and
    gamma[j] carries the private stream of user j+2."""

    alpha: tuple[complex, ...]   # length K (alpha[0] for transmitter 1)
    beta: complex
    gamma: tuple[complex, ...]   # length K-1 (users 2..K)

    def validate(self, k: int) -> None:
        if len(self.alpha) != k or len(self.gamma) != k - 1:
            raise PowerConstraintViolated(
                f"parameter vectors do not match k={k}")
        _check_powers(_zf_copies(k), abs(self.alpha[0]) ** 2, self.beta,
                      self.gamma, self.alpha[1:])


def _check_powers(copies, a1_power, beta, gamma, alpha) -> None:
    """validate's comparisons; gamma and alpha start at transmitter 2."""
    limit = 1 + TOL.power_slack
    if not a1_power <= limit:    # written so that NaN fails
        raise PowerConstraintViolated("transmitter 1 power exceeded")
    for j, (c, g, a) in enumerate(zip(copies, gamma, alpha), start=2):
        used = abs(g) ** 2 + c * abs(beta) ** 2 + abs(a) ** 2
        if not used <= limit:
            raise PowerConstraintViolated(
                f"transmitter {j} power {used:.12f} > 1")


@dataclass(frozen=True)
class RateVector:
    rates: tuple[float, ...]

    def __post_init__(self):
        if not all(r >= 0 for r in self.rates):   # NaN fails
            raise ValueError("rates must be non-negative")

    @property
    def total(self) -> float:
        return _add(self.rates)


@dataclass(frozen=True)
class GapCertificate:
    """The five numbers of a gaussian-gap row for one channel; arrays of
    them over a ChannelGrid (gap_certificate_grid)."""
    inner: float
    outer: float
    additive_gap: float
    analytic_gap_bound: float
    multiplicative_ratio: float  # outer over the all-beamform rate


def dpc_rates(ch: GaussianSymChannel, p: DpcParams) -> RateVector:
    """Achievable per-user rates of the DPC scheme (encoding order
    1 -> 2 -> ... -> K).  Raises PowerConstraintViolated on infeasible
    parameters."""
    p.validate(ch.k)
    rates = _rates(ch)(p.alpha[1:], p.beta, p.gamma)
    if p.alpha[0] != _primary_phase(ch.hi):  # _rates assumes this alpha_1
        den1 = 1.0 + ch.inr * _add(abs(g) ** 2 for g in p.gamma)
        rates[0] = _log2p1(abs(ch.hd * p.alpha[0]
                               + ch.hi * _add(p.alpha[1:], 0j)) ** 2 / den1)
    return RateVector(tuple(rates))


def _add(terms, start=0.0):
    """Left to right, as sum() of floats did before Python 3.12."""
    return functools.reduce(operator.add, terms, start)


def _rates(ch: GaussianSymChannel):
    """rates(alpha, beta, gamma): the per-user rates of dpc_rates on ch for
    alpha_2..alpha_K, beta and gamma_2..gamma_K (complex, or magnitudes)."""
    hd, hi_mag = ch.hd, abs(ch.hi)
    hi2, zf2, hd2 = hi_mag ** 2, abs(hd - ch.hi) ** 2, hd ** 2
    def rates(alpha, beta, gamma) -> list[float]:
        g2, b2 = [abs(g) ** 2 for g in gamma], abs(beta) ** 2
        den1 = 1.0 + hi2 * _add(g2)
        out = [_log2p1(abs(hd + hi_mag * _add(alpha, 0j)) ** 2 / den1)]
        for j in range(len(g2) - 1):  # users 2..K-1
            out.append(_log2p1((zf2 * b2 + hd2 * g2[j])
                               / (1.0 + hi2 * _add(g2[j + 1:]))))
        out.append(_log2p1(hd2 * g2[-1]))
        return out
    return rates


def _primary_phase(hi: complex) -> complex:
    return cmath.exp(1j * math.atan2(hi.imag, hi.real)) if hi else 1.0 + 0j


def successive_params(ch: GaussianSymChannel) -> DpcParams:
    """Successive-cancellation choice: no zero-forcing, no beamforming
    help, full private power everywhere (the weak-interference branch)."""
    k = ch.k
    return DpcParams(
        alpha=(_primary_phase(ch.hi),) + (0j,) * (k - 1),
        beta=0j,
        gamma=(1.0 + 0j,) * (k - 1),
    )


def closed_form_params(ch: GaussianSymChannel) -> DpcParams:
    """Closed-form parameter choice behind the additive-gap theorem.

    Strong interference (|hi|^2 >= 1): the most cognitive user keeps a
    1/(1+(K-1)|hi|^2) power fraction for itself, middle users split
    between zero-forcing and beamforming.  Weak interference: the
    successive branch.
    """
    k, hi2 = ch.k, ch.inr
    if hi2 < 1.0:
        return successive_params(ch)
    gk2, beta2, aj2, ak2 = _strong_powers(k, hi2)
    alpha = [_primary_phase(ch.hi)]
    alpha += [complex(math.sqrt(aj2))] * (k - 2)
    alpha.append(complex(math.sqrt(ak2)))
    gamma = [0j] * (k - 2) + [complex(math.sqrt(gk2))]
    return DpcParams(alpha=tuple(alpha), beta=complex(math.sqrt(beta2)),
                     gamma=tuple(gamma))


def _strong_powers(k: int, hi2):
    """Squared closed-form coefficients for |hi|^2 >= 1: (gamma_K,
    beta, alpha of the middle transmitters, alpha_K), elementwise for
    an array hi2."""
    gk2 = 1.0 / (1.0 + (k - 1) * hi2)
    if k == 2:
        beta2 = 0.0
        ak2 = 1.0 - gk2
    elif k == 3:
        beta2 = (1.0 + 3.0 * hi2) / (2.0 * (1.0 + 2.0 * hi2))
        ak2 = (-1.0 + hi2) / (2.0 * (1.0 + 2.0 * hi2))
    else:
        beta2 = (1.0 - gk2) / (k - 2)
        ak2 = 0.0
    aj2 = 1.0 - beta2  # middle transmitters put the rest on beamforming
    return gk2, beta2, aj2, np.where(ak2 > 0.0, ak2, 0.0)  # max(0.0, ak2)


def analytic_gap_bound(k: int) -> float:
    """Additive gap guaranteed by the closed-form scheme, in bits."""
    if _users(k) < 3:
        raise ValueError("gap bound stated for an integer k >= 3")
    if k == 3:
        return 6.0
    return (k - 2) * math.log2(k - 2) + math.log2(2.0 * math.e ** 2)


def analytic_gap_curve(ch: GaussianSymChannel) -> float:
    """The 3-user analytical gap-chain curve, which converges to 6 bits
    in strong interference (the plotted 'analytic gap')."""
    if ch.k != 3:
        raise ValueError("gap curve stated for k == 3")
    hd, him = ch.hd, abs(ch.hi)
    return (1.0 + _log2p1((hd + 2.0 * him) ** 2)
            - _log2p1((hd + him / 2.0) ** 2 / 2.0))


def induced_covariances(p: DpcParams, k: int) -> list[np.ndarray]:
    """Per-message transmit covariances Sigma_l across the K
    transmitters; message l > 1 can only be carried by transmitters
    l..K, so rows/columns below l are zero."""
    p.validate(k)
    a = np.array(p.alpha, dtype=complex).reshape(-1, 1)
    covs = [a @ a.conj().T]
    eye = np.eye(k, dtype=complex)
    for j in range(2, k + 1):
        e_j, e_k = eye[:, j - 1:j], eye[:, k - 1:]
        sig = abs(p.gamma[j - 2]) ** 2 * (e_j @ e_j.conj().T)
        if j < k:
            d = e_j - e_k
            sig = sig + abs(p.beta) ** 2 * (d @ d.conj().T)
        covs.append(sig)
    return covs


def input_covariance(p: DpcParams, k: int) -> np.ndarray:
    return sum(induced_covariances(p, k))


# ---------------------------------------------------------------------------
# the closed forms over arrays of channels
# ---------------------------------------------------------------------------
# Bit for bit the scalar arithmetic: numpy's +, -, *, /, sqrt and abs of
# reals are correctly rounded, as Python's are; every log1p and power
# runs in libm on Python floats (numpy's SIMD versions differ in the
# last bit, and x ** 2 is pow, not x * x); sums add left to right, as
# sum() of floats did before Python 3.12.

def _pow_each(base: np.ndarray, exp) -> np.ndarray:
    """base ** exp for an array exp or one float exp."""
    e = exp.tolist() if isinstance(exp, np.ndarray) else itertools.repeat(exp)
    return np.fromiter(map(pow, base.tolist(), e), float, base.size)


def _log2p1_each(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log1p, x.tolist()), float, x.size) / _LN2


def _abs_each(z: np.ndarray) -> np.ndarray:
    """numpy's abs is exact for reals; complex values take Python's."""
    if z.dtype.kind != "c":
        return np.abs(z)
    return np.fromiter(map(abs, z.tolist()), float, z.size)


class ChannelGrid:
    """Symmetric channels of one user count k as arrays of direct gains
    hd (real) and interfering gains hi (real or complex), with the
    quantities every closed form shares."""

    def __init__(self, k: int, hd, hi):
        self.k, self.hd, self.hi = k, np.asarray(hd, float), np.asarray(hi)
        _check_channel(k, self.hd, self.hi)
        self.hi_mag = _abs_each(self.hi)
        self.hd2 = _pow_each(self.hd, 2.0)
        self.hi2 = _pow_each(self.hi_mag, 2.0)
        self.zf2 = _pow_each(_abs_each(self.hd - self.hi), 2.0)
        self.is_mac = self.hi == self.hd  # exact: the K-user MAC
        # the all-beamform sum rate, also the first term of the outer bound
        self.beamforming = _log2p1_each(
            _pow_each(self.hd + (k - 1) * self.hi_mag, 2.0))

    @classmethod
    def from_snr_alpha(cls, snr_db, alpha, k: int) -> "ChannelGrid":
        """|hd|^2 = SNR, |hi|^2 = SNR^alpha with SNR in dB, on 1-D arrays."""
        snr_db, alpha = np.broadcast_arrays(np.asarray(snr_db, float),
                                            np.asarray(alpha, float))
        try:
            snr = _pow_each(np.full(snr_db.shape, 10.0), snr_db / 10.0)
            if snr.all():  # an SNR that underflows to 0 has no dB value
                hd, hi = _pow_each(snr, 0.5), _pow_each(snr, alpha / 2.0)
                return cls(k, hd, hi)
        except OverflowError:
            pass
        raise ValueError("SNR underflows or gain overflows floats")

    @classmethod
    def of(cls, ch: GaussianSymChannel) -> "ChannelGrid":
        return cls(ch.k, [ch.hd], [ch.hi])


def _successive(g: ChannelGrid, at) -> np.ndarray:
    """The successive sum rate at the points at: with gamma = 1, user j
    hears k - j private streams."""
    k, hd2, hi2 = g.k, g.hd2[at], g.hi2[at]
    return sum([_log2p1_each(hd2 / (1.0 + hi2 * (k - j)))
                for j in range(1, k)] + [_log2p1_each(hd2)])


def _coherent(g: ChannelGrid, at: np.ndarray) -> np.ndarray:
    """The strong-interference closed-form sum rate at the points of the
    mask at.  As in dpc_rates, coefficients are sqrts squared and each
    rate is its own term.  _strong_powers puts every transmitter at power
    1 up to a few ulps, so no power check is needed here."""
    idx = np.flatnonzero(at)
    k, hi2 = g.k, g.hi2[idx]
    gk2, beta2, aj2, ak2 = np.broadcast_arrays(*_strong_powers(k, hi2))
    b2 = _pow_each(np.sqrt(beta2), 2.0)
    g2 = _pow_each(np.sqrt(gk2), 2.0)
    den = 1.0 + hi2 * g2
    beam = sum([np.sqrt(aj2)] * (k - 2) + [np.sqrt(ak2)])
    rates = [_log2p1_each(
        _pow_each(np.abs(g.hd[idx] + g.hi_mag[idx] * beam), 2.0) / den)]
    rates += [_log2p1_each(g.zf2[idx] * b2 / den)] * (k - 2)
    rates.append(_log2p1_each(g.hd2[idx] * g2))
    return sum(rates)


def closed_form_inner(g: ChannelGrid) -> np.ndarray:
    """dpc_rates(ch, closed_form_params(ch)).total at every channel, bit
    for bit; the successive rate is evaluated only below |hi|^2 = 1,
    where it is the choice."""
    strong = g.hi2 >= 1.0
    inner = np.empty(strong.shape)
    inner[~strong] = _successive(g, ~strong)
    inner[strong] = _coherent(g, strong)
    return inner


def outer_grid(g: ChannelGrid) -> np.ndarray:
    """Analytic sum-rate upper bound at every channel, in bits: the MAC
    value where hi == hd exactly, the general one elsewhere."""
    k = g.k
    outer = (g.beamforming + float(k - 2)
             + (k - 2) * _log2p1_each(g.zf2 / 2.0)
             + _log2p1_each(g.hd2 / (1.0 + (k - 1) * g.hi2)))
    outer[g.is_mac] = _log2p1_each(_pow_each(k * g.hd[g.is_mac], 2.0))
    return outer


def gap_certificate_grid(g: ChannelGrid) -> GapCertificate:
    """additive_gap_certificate at every channel, as one GapCertificate
    of arrays; raises what a point-by-point sweep would raise first.

    The inner rate is the best of three achievable closed forms: the
    coherent DPC choice (the successive one below |hi|^2 = 1), the
    successive choice and all-beamform.  Ties keep the earlier one."""
    if g.k < 3:
        raise ValueError("certificate stated for k >= 3")
    strong = g.hi2 >= 1.0
    successive = _successive(g, slice(None))
    coherent = successive.copy()
    coherent[strong] = _coherent(g, strong)
    inner = np.stack([coherent, successive, g.beamforming]).max(axis=0)
    outer = outer_grid(g)
    gap = outer - inner
    bound = analytic_gap_bound(g.k)
    over_bound = gap > bound + TOL.gap_slack
    bad = np.flatnonzero(over_bound | (inner > outer + TOL.eq))
    if bad.size:
        i = bad[0]
        raise GapExceeded(
            f"observed gap {gap[i]:.6f} exceeds analytic bound {bound:.6f} "
            f"at hd={float(g.hd[i])}, hi={complex(g.hi[i])}, k={g.k}"
            if over_bound[i] else
            f"inner bound {inner[i]:.6f} exceeds outer bound {outer[i]:.6f}")
    bf = g.beamforming
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        ratio = np.divide(outer, bf, out=np.full(bf.shape, math.nan),
                          where=bf > 0)
    return GapCertificate(inner, outer, gap, bound, ratio)


# The scalar API: one-element calls of the kernel.

def outer_sum(ch: GaussianSymChannel) -> float:
    """Analytic sum-rate upper bound, in bits."""
    return outer_grid(ChannelGrid.of(ch))[0].item()


def additive_gap_certificate(ch: GaussianSymChannel) -> GapCertificate:
    """Best closed-form inner (coherent DPC, successive or all-beamform)
    vs. analytic outer, with the Th.-5 bound check."""
    c = gap_certificate_grid(ChannelGrid.of(ch))
    return GapCertificate(*(np.asarray(getattr(c, f.name)).item(0)
                            for f in fields(c)))


# ---------------------------------------------------------------------------
# numerical optimization of the inner bound
# ---------------------------------------------------------------------------

def _zf_copies(k: int) -> list[float]:
    """The zero-forcing power rule: transmitters 2..K send beta once at
    a middle transmitter and K - 2 times at transmitter K, so transmitter
    j has room 1 - copies[j - 2] * |beta|^2 for gamma_j and alpha_j."""
    return [1.0] * (k - 2) + [k - 2.0]


def _full_power(ch: GaussianSymChannel, x: np.ndarray) -> DpcParams:
    """Parameters for x = (|beta|, |gamma_2|, ..., |gamma_K|) with every
    transmitter at full power: alpha_j takes the room gamma_j leaves.
    Only R_1 depends on alpha_2..alpha_K, and it grows with each, so
    this loses nothing."""
    beta, gamma, alpha = _full_floats(_zf_copies(ch.k), x)
    return DpcParams(alpha=(_primary_phase(ch.hi), *map(complex, alpha)),
                     beta=complex(beta), gamma=tuple(map(complex, gamma)))


def _full_floats(copies: list[float], x: np.ndarray) -> tuple:
    beta, *gamma = x.tolist()
    return beta, gamma, [math.sqrt(max(1.0 - c * beta ** 2 - g ** 2, 0.0))
                         for c, g in zip(copies, gamma)]


def _full_power_rate(ch: GaussianSymChannel):
    """objective(x) = dpc_rates(ch, _full_power(ch, x)).total, bit for bit."""
    copies, rates = _zf_copies(ch.k), _rates(ch)
    a1_power = abs(_primary_phase(ch.hi)) ** 2
    def objective(x: np.ndarray) -> float:
        beta, gamma, alpha = _full_floats(copies, x)
        _check_powers(copies, a1_power, beta, gamma, alpha)
        return _add(rates(alpha, beta, gamma))
    return objective


def _random_feasible(copies: list[float],
                     rng: np.random.Generator) -> np.ndarray:
    beta = rng.uniform(0, 1.0 / math.sqrt(copies[-1]) if copies[-1] else 0.0)
    x = np.empty(len(copies) + 1)
    x[0] = beta
    for j, c in enumerate(copies, start=1):
        room = max(0.0, 1.0 - c * beta ** 2)
        t, s = rng.uniform(), rng.uniform()
        x[j] = math.sqrt(room * s * t)  # gamma_j; alpha_j takes the rest
    return x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return math.log(p / (1.0 - p))


def _free_to_x(copies: list[float], z: np.ndarray) -> np.ndarray:
    """Unconstrained R^K -> feasible x: z[0] sets |beta|^2 as a fraction
    of its cap, z[j - 1] sets |gamma_j|^2 as a fraction of transmitter
    j's room, so the power constraints hold by construction."""
    b_frac, *g_frac = _sigmoid(np.asarray(z, dtype=float)).tolist()
    b2 = b_frac / max(copies[-1], 1.0)
    return np.sqrt([b2] + [f * max(1.0 - c * b2, 0.0)
                           for f, c in zip(g_frac, copies)])


def _x_to_free(copies: list[float], x: np.ndarray) -> np.ndarray:
    """Inverse of _free_to_x, up to clipping (for warm starts)."""
    beta, *gamma = x.tolist()
    b2 = beta ** 2
    return np.array([_logit(b2 * max(copies[-1], 1.0))]
                    + [_logit(g ** 2 / max(1.0 - c * b2, 1e-12))
                       for g, c in zip(gamma, copies)])


class _Budget:
    def __init__(self, limit: int):
        try:
            self.limit = operator.index(limit)
        except TypeError:
            self.limit = 0       # NaN, 2.5 or "500" is no budget
        if self.limit < 1:
            raise ValueError("budget must be an integer >= 1")
        self.used = 0

    def spend(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True

    def charged(self, fun):
        """fun, spending one evaluation per call; a call past the limit
        raises StopIteration."""
        def call(x):
            if not self.spend():
                raise StopIteration
            return fun(x)
        return call


def _polish(fun, starts, best, best_x, maxfev, xatol, fatol):
    """Nelder-Mead on the charged fun from each start in turn, maxfev
    evaluations each: (best, best_x) raised to the largest -fun found
    and its point.  The budget running out ends the search."""
    from scipy.optimize import minimize  # 0.3 s; only the optimizers need it
    opts = {"maxfev": maxfev, "xatol": xatol, "fatol": fatol}
    try:
        for x0 in starts:
            res = minimize(fun, x0, method="Nelder-Mead", options=opts)
            if -res.fun > best:
                best, best_x = float(-res.fun), res.x
    except StopIteration:
        pass
    return best, best_x


def _warm_params(ch: GaussianSymChannel) -> list[DpcParams]:
    """The closed-form warm starts: the coherent choice where |hi|^2 >= 1,
    then the successive one."""
    return ([closed_form_params(ch)] if ch.inr >= 1.0 else []) + [
        successive_params(ch)]


def optimize_inner(ch: GaussianSymChannel, budget: int = 10_000,
                   seed: int = 0) -> tuple[DpcParams, float]:
    """Maximize the DPC sum rate by multi-start projected coordinate
    ascent over x = (|beta|, |gamma_2|, ..., |gamma_K|) with phases fixed
    coherent and every transmitter at full power (_full_power).

    The closed-form choices are always among the starts, so the result
    is never below the closed-form inner bound.  The 16 starts are
    evaluated before the budget counts, so a call makes budget + 16
    objective evaluations; optimize_outer charges its starts.
    """
    budget_ctr = _Budget(budget)
    k = ch.k
    copies = _zf_copies(k)
    rng = np.random.default_rng(seed)
    objective = _full_power_rate(ch)

    # The closed-form choices, then x = 0: all cognitive power beamforms.
    starts = [np.array([abs(p.beta), *map(abs, p.gamma)])
              for p in _warm_params(ch)] + [np.zeros(k)]
    while len(starts) < 16:
        starts.append(_random_feasible(copies, rng))

    evaluated = [(objective(x), i) for i, x in enumerate(starts)]
    best_val, best_i = max(evaluated)
    best_x = starts[best_i].copy()

    def coord_bound(x: np.ndarray, i: int) -> float:
        """Largest feasible value of coordinate i given the others."""
        if i > 0:
            return math.sqrt(max(0.0, 1.0 - copies[i - 1] * x[0] ** 2))
        if k == 2:
            return 0.0  # beta is sent by no one
        return math.sqrt(max(0.0, min((1.0 - x[1:] ** 2) / copies)))

    def line_max(x: np.ndarray, i: int, hi_val: float) -> tuple[float, float]:
        """Grid-then-zoom 1-D maximization of coordinate i on [0, hi]."""
        lo, hi = 0.0, hi_val
        best_v, best_t = -math.inf, x[i]
        for _ in range(3):
            ts = np.linspace(lo, hi, 13)
            for t in ts:
                if not budget_ctr.spend():
                    return best_v, best_t
                x[i] = t
                v = objective(x)
                if v > best_v:
                    best_v, best_t = v, t
            step = (hi - lo) / 12.0
            lo, hi = max(0.0, best_t - step), min(hi_val, best_t + step)
        return best_v, best_t

    # Phase 1: coordinate ascent on roughly half the budget.  Axis moves
    # stall where beta and a gamma sit jointly on a transmitter's power
    # boundary, so phase 2 polishes with a simplex search in coordinates
    # that can move along the boundary.
    ascent_budget = max(budget // 2, 1)
    x = best_x.copy()
    improved = True
    while improved and budget_ctr.used < ascent_budget:
        improved = False
        for i in range(k):
            ub = coord_bound(x, i)
            v, t = line_max(x.copy(), i, ub)
            if v > best_val + TOL.convergence:
                best_val = v
                x[i] = t
                best_x = x.copy()
                improved = True
            else:
                x[i] = best_x[i]
            if budget_ctr.used >= ascent_budget:
                break

    neg = budget_ctr.charged(lambda z: -objective(_free_to_x(copies, z)))
    zs = [_x_to_free(copies, x0) for x0 in [best_x] + starts[:3]]
    per_start = max((budget - budget_ctr.used) // (len(zs) + 1), 40)
    val, z = _polish(neg, zs, best_val, zs[0], per_start, 1e-8, 1e-11)
    if budget_ctr.used < budget:  # restart from the incumbent
        val, z = _polish(neg, [z], val, z, budget - budget_ctr.used,
                         1e-9, 1e-12)
    if val > best_val:
        best_val, best_x = val, _free_to_x(copies, z)
    return _full_power(ch, best_x), best_val


# ---------------------------------------------------------------------------
# the numerically optimized 3-user outer bound
# ---------------------------------------------------------------------------

def _channel_matrix(ch: GaussianSymChannel) -> np.ndarray:
    h = np.full((ch.k, ch.k), ch.hi, dtype=complex)
    np.fill_diagonal(h, ch.hd)
    return h


def _chain_bound(h: np.ndarray, noise: np.ndarray):
    """bound(l): sum_l I(Y_l; X_>=l | X_<l, Y_<l) in bits for channel h,
    noise covariance noise and inputs X = l W (W white), for a stack
    (..., K, K) of lower-triangular factors l.

    The interleaved stack V = (Y_1, X_1, ..., Y_K, X_K) is A (W, Z') for
    Z = chol(noise) Z', with Y-rows [h l, chol(noise)] and X-rows
    [e_l, 0]: X_<=l and W_<=l span the same space, and a zero diagonal
    entry of l gives the limit from non-singular factors.  In the QR of
    A^H, |R_ii|^2 is the variance of V_i given V_<i, so the bound is
    (sum of log|R_ii|^2 at the Y rows - log det noise) / ln 2.
    """
    k = h.shape[0]
    chol = np.linalg.cholesky(noise)
    template = np.zeros((2 * k, 2 * k), dtype=complex)
    template[:k, 1::2] = np.eye(k)
    template[k:, 0::2] = chol.conj().T
    log_chol = _add(np.log(np.diagonal(chol).real).tolist())

    def bound(l: np.ndarray) -> np.ndarray:
        a = np.tile(template, l.shape[:-2] + (1, 1))
        a[..., :k, 0::2] = np.swapaxes(h @ l, -1, -2).conj()
        raw = np.linalg.qr(a, mode="raw")[0]  # R's diagonal, no triu copy
        log_r = np.log(np.abs(np.diagonal(raw, 0, -2, -1)[..., 0::2]))
        return 2.0 * (_add(log_r[..., i] for i in range(k)) - log_chol) / _LN2
    return bound


def _noise_from_rho(rho: np.ndarray) -> np.ndarray | None:
    n = np.array([[1.0, rho[0], rho[1]],
                  [rho[0], 1.0, rho[2]],
                  [rho[1], rho[2], 1.0]])
    if np.linalg.eigvalsh(n).min() < 1e-9:
        return None
    return n


def _factor_from_vec(x: np.ndarray) -> np.ndarray:
    """Unconstrained 8-vector -> lower-triangular factor l of a complex
    correlation matrix l l^H: l[0, 0] = 1, complex entries below the
    diagonal, real diagonal, unit-norm rows (np.linalg.norm's row norm)."""
    x0, x1, x2, x3, x4, x5, x6, x7 = np.asarray(x).tolist()
    l = np.array([[1.0, 0.0, 0.0], [complex(x0, x1), x2, 0.0],
                  [complex(x3, x4), complex(x5, x6), x7]])
    return l / np.sqrt(np.add.reduce((l.conj() * l).real, 1, keepdims=True))


def _vec_from_sigma(sigma: np.ndarray) -> np.ndarray:
    """Inverse of _factor_from_vec at sigma + diag(1 - diag sigma), which
    dominates sigma (for warm starts).  A zero pivot leaves the column
    below it zero, so singular lifts (full beamforming) factor exactly."""
    s = np.array(sigma, dtype=complex)
    np.fill_diagonal(s, 1.0)
    l = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(i):
            if l[j, j] != 0:
                l[i, j] = (s[i, j] - l[i, :j] @ l[j, :j].conj()) / l[j, j]
        l[i, i] = math.sqrt(max(0.0, 1.0 - np.vdot(l[i, :i], l[i, :i]).real))
    return np.array([l[1, 0].real, l[1, 0].imag, l[1, 1].real,
                     l[2, 0].real, l[2, 0].imag, l[2, 1].real, l[2, 1].imag,
                     l[2, 2].real])


def optimize_outer(ch: GaussianSymChannel, inner_hint: DpcParams,
                   budget: int = 10_000, seed: int = 0) -> float:
    """Tightened 3-user outer bound: maximize the sum bound over
    Gaussian inputs, minimize over real marginal-preserving noise
    correlations (grid plus pattern search).

    Each term of the sum bound (_chain_bound: one QR of the interleaved
    stack) is the log of a conditional variance, a Schur complement of
    the input covariance, so the maximum over {Sigma >= 0, diag Sigma
    <= 1} is attained on complex correlation matrices, searched through
    their factor; warm starts (inner_hint, closed-form DPC) are lifted
    to unit diagonal, which can only raise the bound.  The maximum at
    each noise point is a budgeted Nelder-Mead search, not a
    certificate: a longer search can find more.  The noise screen costs
    one evaluation per start at each of its 49 points (343 where |hi|^2
    >= 1, 294 below); a noise point the budget cannot fully
    start counts as +inf, so at budget 500 (50 dB, alpha 0.75) only the
    screen's first pick is maximized, and the result is not monotone in
    the budget.  The result is capped at outer_sum.  Every noise point
    evaluates the lifted inner_hint (without it the search could end
    below an achievable rate), so a result below dpc_rates(ch,
    inner_hint).total is a bug and raises GapExceeded; an infeasible
    inner_hint raises PowerConstraintViolated.
    """
    if ch.k != 3:
        raise ValueError("optimize_outer implemented for k == 3 only")
    budget_ctr = _Budget(budget)
    rng = np.random.default_rng(seed)

    inner = dpc_rates(ch, inner_hint).total
    sigma_starts = [np.eye(3, dtype=complex),
                    np.full((3, 3), 0.999, dtype=complex) + 0.001 * np.eye(3)]
    sigma_starts += [input_covariance(p, 3)
                     for p in [inner_hint] + _warm_params(ch)]
    start_vecs = [_vec_from_sigma(s) for s in sigma_starts]
    start_vecs += [rng.normal(scale=0.5, size=8) for _ in range(2)]
    start_factors = np.array([_factor_from_vec(x0) for x0 in start_vecs])
    h = _channel_matrix(ch)

    def start_values(bound) -> list[float]:
        """The bound at the start factors, while the budget lasts."""
        paid = sum(1 for _ in itertools.takewhile(
            lambda _: budget_ctr.spend(), start_factors))
        return bound(start_factors[:paid]).tolist()

    def max_over_sigma(noise: np.ndarray, maxfev: int) -> float:
        bound = _chain_bound(h, noise)
        vals = start_values(bound)
        if len(vals) < len(start_vecs):
            # Budget-starved points are under-maximized; report +inf
            # so the outer min over noise never selects them.
            return math.inf
        neg = budget_ctr.charged(lambda x: -bound(_factor_from_vec(x)).item())
        best = max(vals)
        per_start = max(40, maxfev // (len(start_vecs) + 1))
        best, best_x = _polish(neg, start_vecs, best,
                               start_vecs[vals.index(best)], per_start,
                               1e-5, 1e-9)
        # Restart from the incumbent: Nelder-Mead shrinks its simplex,
        # and a fresh simplex around the best point often escapes it.
        return _polish(neg, [best_x], best, best_x, per_start,
                       1e-6, 1e-10)[0]

    # Coarse screen over noise correlations with cheap fixed-start
    # evaluation, keeping the independent-noise point.
    grid_vals = [-0.9, -0.45, 0.0, 0.45, 0.9]
    cheap = []
    for rho in itertools.product(grid_vals, repeat=3):
        noise = _noise_from_rho(rho)
        if noise is None:
            continue
        cheap.append((max(start_values(_chain_bound(h, noise)),
                          default=-math.inf), rho))
    cheap.sort()

    remaining = max(budget - budget_ctr.used, 1)
    top = [np.array(rho) for _, rho in cheap[:3]]
    if not any(np.allclose(rho, 0) for rho in top):
        top.append(np.zeros(3))
    best_outer = math.inf
    best_rho = np.zeros(3)
    per_rho = max(remaining // (2 * (len(top) + 6)), 100)
    for rho in top:
        val = max_over_sigma(_noise_from_rho(rho), per_rho)
        if val < best_outer:
            best_outer, best_rho = val, rho

    # Pattern search on the noise correlations: axis steps with a fully
    # re-maximized inner problem at each trial point, shrinking twice.
    # A cheaply evaluated trial must never displace the incumbent, so
    # every candidate gets the same maximization effort.
    step = 0.2
    for _ in range(2):
        moved = True
        while moved and budget_ctr.used < budget:
            moved = False
            for axis in range(3):
                for sgn in (1.0, -1.0):
                    trial = best_rho.copy()
                    trial[axis] = float(np.clip(trial[axis] + sgn * step,
                                                -0.99, 0.99))
                    noise = _noise_from_rho(trial)
                    if noise is None:
                        continue
                    val = max_over_sigma(noise, per_rho)
                    if val < best_outer - TOL.convergence:
                        best_outer, best_rho = val, trial
                        moved = True
                if budget_ctr.used >= budget:
                    break
        step /= 2.0

    # Spend whatever is left re-maximizing at the chosen correlation;
    # reporting the strongest available maximization keeps the bound on
    # the valid side.
    if budget_ctr.used < budget:
        val = max_over_sigma(_noise_from_rho(best_rho),
                             budget - budget_ctr.used)
        if math.isfinite(val):
            best_outer = max(best_outer, val)
    outer = min(best_outer, outer_sum(ch))
    if outer < inner - TOL.eq:
        raise GapExceeded(f"optimized outer bound {outer:.6f} is below "
                          f"the inner_hint rate {inner:.6f}")
    return float(outer)  # not a numpy scalar, which csv writes by repr
