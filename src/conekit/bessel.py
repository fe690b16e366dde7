"""Modified Bessel functions I_nu, K_nu of real order nu >= 0.

The resolvent series multiplies I_mu(a) by K_mu(b) for orders mu up to
tens of thousands and arguments from 1e-6 to several hundred.  In that
range the factors individually overflow or underflow double precision
(I_mu(r) ~ (r/2)^mu / Gamma(mu+1), K_mu(r) ~ Gamma(mu) (2/r)^mu / 2 near
zero) long before their product does.  The engine therefore works in log
space: :func:`log_scaled` returns log(I_nu(x) e^{-x}) or log(K_nu(x) e^{x})
for a whole array of orders at once.  The public scalar evaluations wrap
it and carry an explicit binary exponent: the result is
``value * 2**exp2``, with ``exp2 == 0`` whenever the plain float is
comfortably representable (see :func:`split_log`).

Algorithm, the same rule at every order, one vector pass per kind:

* scipy's exponentially scaled ``ive`` / ``kve`` wherever the scaled value
  is a normal finite double.  From order ``DEFAULTS.olver_nu_min`` = 30
  on, Olver's leading term predicts each log to within 0.01, and in
  arrays with at least 64 such orders the ones it puts beyond double
  range by a factor e or more skip scipy, whose large-order path is slow.
* The other entries fall back, all of a kind at once.  ``ive`` underflows
  only at x << nu (at nu = 30 below about x = 2e-9, at nu = 200 below
  x = 4.6); there ``I`` comes from the ascending power series, an array
  sum of at most 20 terms, where q = (x/2)^2 <= nu + 1, and from Olver's
  uniform expansion (DLMF 10.41.3) past that.  ``kve`` overflows at small x;
  there ``K`` comes from its leading term Gamma(nu) (2/x)^nu / 2 (DLMF
  10.30.2) below order 30, whose relative correction (x/2)^2 / (nu - 1)
  is then far below rounding (below order 1, where x is subnormal, with
  the second term kept), and from Olver's expansion (DLMF 10.41.4) from
  it on.  Olver's sums run over the order array as one
  ``np.polynomial`` evaluation, keeping the terms above rounding.

Derivatives use ``I'_nu = I_{nu+1} + (nu/x) I_nu`` and
``K'_nu = -(K_{|nu-1|} + K_{nu+1})/2``.  Both are sums of positive terms,
combined with ``logaddexp``, so no cancellation occurs; each partner order
is dispatched by the rule above on its own.

scipy's ufuncs (``ive``, ``kve``, ``gammaln``) are bound on the first
evaluation, not at import: ``scipy.special`` costs about 0.33 s to load,
and spectra, thresholds and off-diagonal Riesz values need no Bessel
value.  Olver's ``U_k`` table is likewise built on its first use.

Accuracy: validated against 40-digit reference values at 1e-12 relative
over nu <= 200, r in [1e-6, 500], and up to order 60000 with x from
1e-6 to 2 nu at 1e-12 times the size of the log (see the test suite).
``abs_error_est`` is a running estimate of rounding plus truncation, not a
certified enclosure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as _poly

from .config import DEFAULTS
from .errors import DomainError

__all__ = [
    "BesselEval",
    "bessel_i",
    "bessel_k",
    "bessel_i_with_dr",
    "bessel_k_with_dr",
    "log_scaled",
    "split_log",
    "wronskian_residual",
    "BoundFit",
    "BoundReport",
    "check_uniform_bounds",
]

_EPS = 2.220446049250313e-16
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01  # Cody-Waite split of log 2
_LN2_LO = 1.90821492927058770002e-10
_TINY = 2.2250738585072014e-308  # smallest normal double
# scipy.special's ufuncs, bound by _bind_special on the first evaluation.
gammaln = ive = kve = None


def _bind_special():
    global gammaln, ive, kve
    from scipy.special import gammaln, ive, kve


@dataclass(frozen=True)
class BesselEval:
    """One function evaluation: the result is ``value * 2**exp2``.

    ``exp2`` is zero unless the plain value would run out of float range;
    ``abs_error_est`` is expressed on the same scale as ``value``.
    """

    value: float
    abs_error_est: float
    method: str
    exp2: int = 0

    def float_value(self) -> float:
        """Plain float; deliberately over/underflows outside float range."""
        return math.ldexp(self.value, self.exp2)

    @property
    def log_abs(self) -> float:
        """Natural log of the absolute value (-inf for an exact zero)."""
        if self.value == 0.0:
            return -math.inf
        return math.log(abs(self.value)) + self.exp2 * _LN2

    @property
    def rel_error_est(self) -> float:
        if self.value == 0.0:
            return 0.0
        return abs(self.abs_error_est / self.value)


def split_log(ln_x: float) -> tuple[float, int]:
    """(m, e) with m * 2**e = exp(ln_x), for any ln_x including far outside float range.

    ``e`` is zero while the plain float is comfortably representable
    (|log2| <= ``DEFAULTS.fold_exp2``); otherwise m lies in [1, 2).  The
    log 2 is split (Cody-Waite), so the folding stays accurate to about an
    ulp even for |ln_x| in the thousands.
    """
    if ln_x == -math.inf:
        return 0.0, 0
    e = math.floor(ln_x / _LN2)
    if abs(e) <= DEFAULTS.fold_exp2:
        return math.exp(ln_x), 0
    m, shift = math.frexp(math.exp((ln_x - e * _LN2_HI) - e * _LN2_LO))
    return 2.0 * m, e + shift - 1


def _validate(nu: float, r: float) -> tuple[float, float]:
    nu, r = float(nu), float(r)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"order must be finite and >= 0, got {nu!r}")
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError(f"argument must be finite and > 0, got {r!r}")
    return nu, r


# ----------------------------------------------------------------------
# Fallbacks, vector over the entries scipy could not give: each returns
# (log of the unscaled value, rel error).
# ----------------------------------------------------------------------

def _gen_olver_polys(kmax: int) -> list[list[float]]:
    """U_k polynomials (ascending coefficients in p), exact recurrence.

    U_0 = 1,  U_{k+1}(p) = p^2(1-p^2)/2 * U_k'(p)
                           + (1/8) * Integral_0^p (1 - 5 t^2) U_k(t) dt.
    Done in Fraction arithmetic; degree of U_k is 3k.
    """
    polys = [[Fraction(1)]]
    for _ in range(kmax):
        u = polys[-1]
        du = [i * c for i, c in enumerate(u)][1:]
        nxt = [Fraction(0)] * (len(u) + 3)
        for i, c in enumerate(du):  # p^2/2 * u' - p^4/2 * u'
            nxt[i + 2] += c / 2
            nxt[i + 4] -= c / 2
        for i, c in enumerate(u):  # (1/8) int (1 - 5 t^2) u
            nxt[i + 1] += c / (8 * (i + 1))
            nxt[i + 3] -= 5 * c / (8 * (i + 3))
        while nxt and nxt[-1] == 0:
            nxt.pop()
        polys.append(nxt)
    return [[float(c) for c in poly] for poly in polys]


@functools.cache
def _olver_table():
    """(grid, sup) for U_0 .. U_12, built on the first call of :func:`_olver`.

    U_k(p) = p^k V_k(p^2): row k of ``grid`` holds V_k's coefficients, so
    that sum_{k<n} (+-1)^k U_k(p) / nu^k = polyval2d(+-p/nu, p^2, grid[:n, :n]).
    ``sup[k]`` is max |U_k(p)| over 0 <= p <= 1 (sampled), which bounds
    term k by sup[k] / nu^k.
    """
    polys = _gen_olver_polys(12)
    grid = np.array([[poly[k + 2 * j] if k + 2 * j < len(poly) else 0.0 for j in range(len(polys))]
                     for k, poly in enumerate(polys)])
    sup = np.array([np.abs(_poly.polyval(np.linspace(0.0, 1.0, 1001), poly)).max() for poly in polys])
    return grid, sup


_SERIES_TERMS = 20  # the I series runs where q = (x/2)^2 <= nu + 1: term k is then at most 1/k!
_LOG_TINY, _LOG_HUGE = math.log(_TINY), math.log(1.7976931348623157e308)
_SKIP_MIN = 64


def _i_series(nu, x):
    """log I_nu(x) by the all-positive ascending series, where q = (x/2)^2 <= nu + 1.

    Term k is q^k / (k! (nu+1)_k) <= t^k / k! with t the largest q/(nu+1),
    so the sum keeps the terms before the first whose bound is below
    rounding (at most _SERIES_TERMS).
    """
    if gammaln is None:
        _bind_special()
    q = 0.25 * x * x
    t = float((q / (nu + 1.0)).max())
    n = next(k for k in range(_SERIES_TERMS) if t ** (k + 1) / math.factorial(k + 1) <= 0.25 * _EPS)
    k = np.arange(1.0, n + 1.0)[:, None]
    total = 1.0 + np.cumprod(q / (k * (nu + k)), axis=0).sum(axis=0)
    ln_pref = nu * np.log(0.5 * x) - gammaln(nu + 1.0)
    return ln_pref + np.log(total), (n + 4) * _EPS + 2.0 * np.abs(ln_pref) * _EPS


def _olver_leading(kind: str, nu, x):
    """(log of the leading term of Olver's expansion, w, eta) at z = x/nu.

    With w = sqrt(1 + z^2) and eta = w + log(z/(1+w)), the leading terms
    are e^{nu eta} / sqrt(2 pi nu w) for I and pi e^{-nu eta} / sqrt(2 pi nu w)
    for K (DLMF 10.41.3, 10.41.4).
    """
    z = x / nu
    w = np.hypot(1.0, z)
    eta = w + np.log(z / (1.0 + w))
    ln = (nu * eta if kind == "i" else -nu * eta) - 0.5 * np.log(2.0 * np.pi * nu) - 0.5 * np.log(w)
    return (ln if kind == "i" else ln + math.log(math.pi)), w, eta


def _olver(kind: str, nu, x):
    """log I_nu(x) or log K_nu(x) by Olver's uniform large-order expansions.

    The leading term times sum_k (+-1)^k U_k(p)/nu^k, p = 1/w, keeping
    the terms k < n, n the first index whose bound sup[n] / nu^n is
    below rounding at the smallest order (at most 13 terms).
    """
    ln_lead, w, eta = _olver_leading(kind, nu, x)
    p = 1.0 / w
    u_grid, u_sup = _olver_table()
    bound = u_sup / nu.min() ** np.arange(len(u_sup))
    n = next((k for k in range(1, len(bound)) if bound[k] <= 0.25 * _EPS), len(bound))
    total = _poly.polyval2d((p if kind == "i" else -p) / nu, p * p, u_grid[:n, :n])
    last = min(n, len(u_sup) - 1)  # the first term left out, or the last one kept
    return ln_lead + np.log(total), u_sup[last] / nu ** last / total + (np.abs(nu * eta) + 16.0) * _EPS


def _k_leading(nu, x):
    """log K_nu(x) by its small-argument leading terms (nu < olver_nu_min).

    kve overflows only where nu > 0.95, and (x/2)^2/(nu-1) bounds the next
    term for nu > 1.  For nu < 1, x is subnormal, and the second term,
    of relative size -Gamma(1-nu)/Gamma(1+nu) (x/2)^{2 nu} = -e^L, is kept
    (DLMF 10.27.4 with 10.25.2).  With L = nu M,

        K_nu(x) = Gamma(1+nu)/2 (x/2)^{-nu} (e^L - 1)/L (-M),

    whose nu -> 0 limit is -log(x/2) - Euler's gamma.  M/2 - log(x/2) =
    (log Gamma(1-nu) - log Gamma(1+nu)) / (2 nu) comes from its odd Taylor
    series below nu = 1e-3, where the two logs would cancel.
    """
    if gammaln is None:
        _bind_special()
    ln_val = gammaln(nu) + (nu - 1.0) * _LN2 - nu * np.log(x)
    trunc = np.where(nu > 1.0, 0.25 * x * x / np.maximum(nu - 1.0, _EPS), 0.0)
    rel = (4.0 + 2.0 * np.abs(ln_val)) * _EPS + trunc
    low = nu < 1.0
    if low.any():
        nu_l, ln_half_x = nu[low], np.log(x[low]) - _LN2
        wide, sq = np.maximum(nu_l, 1e-3), nu_l * nu_l  # series: 2 (gamma + zeta(3)/3 nu^2 + zeta(5)/5 nu^4)
        gap = np.where(nu_l < 1e-3, 2.0 * (np.euler_gamma + sq * (0.40068563438653143 + sq * 0.207385551028674)),
                       (gammaln(1.0 - wide) - gammaln(1.0 + wide)) / wide)
        m = gap + 2.0 * ln_half_x
        with np.errstate(invalid="ignore"):  # nu = 0, where (e^L - 1)/L is 1
            exprel = np.where(nu_l > 0.0, np.expm1(nu_l * m) / (nu_l * m), 1.0)
        ln_val[low] = gammaln(1.0 + nu_l) - _LN2 - nu_l * ln_half_x + np.log(exprel) + np.log(-m)
        rel[low] = (16.0 + 2.0 * np.abs(ln_val[low])) * _EPS
    return ln_val, rel


# ----------------------------------------------------------------------
# Whole arrays of orders.
# ----------------------------------------------------------------------

METHODS = ("scipy", "power-series", "small-argument", "uniform-asymptotic")
_SERIES, _LEADING, _OLVER = 1, 2, 3  # indices into METHODS


def _log_scaled_values(kind: str, nu: np.ndarray, x):
    """(log scaled value, rel error, method index) for one kind, no derivative."""
    shift = x if kind == "i" else -x  # log of the unscaled value = ln + shift
    if ive is None:
        _bind_special()
    scipy_fn = ive if kind == "i" else kve
    # From olver_nu_min on, Olver's leading term gives each log to within
    # 0.01; the orders it puts beyond double range by a factor e or more
    # cannot come out of scipy as normal doubles, so they skip it and fall
    # back below, through the inf that marks them.  That spares scipy's
    # slow large-order path in grown tables; below _SKIP_MIN such orders
    # (a base table) the check costs more than it saves.
    skip = nu >= DEFAULTS.olver_nu_min if nu.size >= _SKIP_MIN else None
    if skip is not None and np.count_nonzero(skip) >= _SKIP_MIN:
        x_b, shift_b = np.broadcast_to(x, nu.shape), np.broadcast_to(shift, nu.shape)
        lead = _olver_leading(kind, nu[skip], x_b[skip])[0] - shift_b[skip]
        skip[skip] = (lead < _LOG_TINY - 1.0) if kind == "i" else (lead > _LOG_HUGE + 1.0)
        scaled = np.full(nu.shape, np.inf)
        scaled[~skip] = scipy_fn(nu[~skip], x_b[~skip])
    else:
        scaled = scipy_fn(nu, x)
    fell = ~(np.isfinite(scaled) & (scaled >= _TINY))
    ln = np.log(np.maximum(scaled, _TINY))  # fallen-back entries are replaced below
    # Models scipy's measured error, which grows with the order and with
    # the log of the value (power-series prefactors at small x).
    rel = 16.0 * _EPS * (1.0 + nu + np.abs(ln + shift))
    method = fell.view(np.int8)  # 0 where scipy gave the value; the others are set below
    if fell.any():
        nu_f, x_f = nu[fell], np.broadcast_to(x, nu.shape)[fell]
        # I: the series where q = (x/2)^2 <= nu + 1, else Olver.  K: the
        # leading term below olver_nu_min, else Olver.
        cheap = (0.25 * x_f * x_f <= nu_f + 1.0) if kind == "i" else (nu_f < DEFAULTS.olver_nu_min)
        ln_f, rel_f = np.empty((2,) + nu_f.shape)
        if cheap.any():
            ln_f[cheap], rel_f[cheap] = (_i_series if kind == "i" else _k_leading)(nu_f[cheap], x_f[cheap])
        if not cheap.all():
            ln_f[~cheap], rel_f[~cheap] = _olver(kind, nu_f[~cheap], x_f[~cheap])
        ln[fell] = ln_f - np.broadcast_to(shift, nu.shape)[fell]
        rel[fell] = rel_f
        method[fell] = np.where(cheap, _SERIES if kind == "i" else _LEADING, _OLVER)
    return ln, rel, method


def log_scaled(kind: str, nu, x, with_dr: bool = False):
    """Logs of I_nu(x) e^{-x} (``kind="i"``) or K_nu(x) e^{x} (``"k"``) over arrays of orders.

    ``x`` is a float or an array that broadcasts against ``nu``.  Returns
    ``(ln, ln_dr, rel, method)``, arrays of the broadcast shape:

    * ``ln`` -- the log of the scaled function;
    * ``ln_dr`` -- with ``with_dr``, the log of |d/dx| of the function on
      the same e^{-+x} scale (I' > 0 and K' < 0 throughout), else None;
    * ``rel`` -- relative error estimate, covering the derivative
      partners' too;
    * ``method`` -- each entry's index into :data:`METHODS` (0 where the
      order came from scipy).
    """
    nu = np.asarray(nu, dtype=float)
    if not isinstance(x, float) and np.ndim(x):
        x = np.asarray(x, dtype=float)
        nu = np.broadcast_to(nu, np.broadcast_shapes(nu.shape, x.shape))
    if not with_dr:
        ln, rel, method = _log_scaled_values(kind, nu, x)
        return ln, None, rel, method
    if kind == "i":
        ln, rel, method = _log_scaled_values("i", np.stack((nu, nu + 1.0)), x)
        # nu = 0 drops the second term; nu / x overflows only at x below
        # nu * 5.6e-309, and those entries take the two logs apart.
        with np.errstate(divide="ignore", over="ignore"):
            ln_dr = np.logaddexp(ln[1], np.log(nu / x) + ln[0])
            if ln_dr.max() == np.inf:
                ln_dr = np.where(ln_dr == np.inf, np.logaddexp(ln[1], np.log(nu) - np.log(x) + ln[0]), ln_dr)
    else:
        ln, rel, method = _log_scaled_values("k", np.stack((nu, np.abs(nu - 1.0), nu + 1.0)), x)
        ln_dr = np.logaddexp(ln[1], ln[2]) - _LN2
    return ln[0], ln_dr, rel.max(axis=0), method[0]


# ----------------------------------------------------------------------
# Public scalar evaluations.
# ----------------------------------------------------------------------

def _scalar(kind: str, nu: float, r: float, with_dr: bool):
    nu, r = _validate(nu, r)
    ln, ln_dr, rel, method = log_scaled(kind, [nu], r, with_dr)
    method = METHODS[method[0]]
    shift = r if kind == "i" else -r
    m, e = split_log(float(ln[0]) + shift)
    value = BesselEval(m, m * float(rel[0]), method, e)
    if not with_dr:
        return value
    m, e = split_log(float(ln_dr[0]) + shift)
    sign = 1.0 if kind == "i" else -1.0
    return value, BesselEval(sign * m, m * (float(rel[0]) + 4.0 * _EPS), method, e)


def bessel_i(nu: float, r: float) -> BesselEval:
    """Modified Bessel function of the first kind, scaled on overflow."""
    return _scalar("i", nu, r, False)


def bessel_k(nu: float, r: float) -> BesselEval:
    """Modified Bessel function of the second kind, scaled on overflow."""
    return _scalar("k", nu, r, False)


def bessel_i_with_dr(nu: float, r: float) -> tuple[BesselEval, BesselEval]:
    """(I_nu(r), d/dr I_nu(r)); the derivative is I_{nu+1} + (nu/r) I_nu."""
    return _scalar("i", nu, r, True)


def bessel_k_with_dr(nu: float, r: float) -> tuple[BesselEval, BesselEval]:
    """(K_nu(r), d/dr K_nu(r)); the derivative is -(K_{|nu-1|} + K_{nu+1})/2."""
    return _scalar("k", nu, r, True)


def wronskian_residual(nu, r):
    """r * |I_nu(r) K'_nu(r) - I'_nu(r) K_nu(r) + 1/r| (should be ~0).

    The exact Wronskian is I K' - I' K = -1/r; the residual is scaled by r
    so it is a relative-size quantity across the whole range.  On the
    scaled logs the e^{-+r} factors cancel in both products.  ``nu`` and
    ``r`` may be arrays that broadcast together, for one vector pass; the
    result is then an array.
    """
    nu, r = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(r, dtype=float))
    bad = ~(np.isfinite(nu) & (nu >= 0.0) & np.isfinite(r) & (r > 0.0))
    if bad.any():
        _validate(nu[bad][0], r[bad][0])  # raises, naming the first bad entry
    li, ldi, _, _ = log_scaled("i", nu, r, True)
    lk, ldk, _, _ = log_scaled("k", nu, r, True)
    log_r = np.log(r)
    res = np.abs(1.0 - np.exp(li + ldk + log_r) - np.exp(ldi + lk + log_r))
    return float(res) if res.ndim == 0 else res


# ----------------------------------------------------------------------
# The lambda-integral of I_mu(lambda a) K_mu(lambda b), in closed form.
# ----------------------------------------------------------------------

_TAU_STEP = 0.1  # the tau rule's step: its error is about e^{-4.6/step}, below 1e-18


def log_ik_integrals(mu, s: float):
    """Logs of f_mu(s) = b * int_0^inf I_mu(lam a) K_mu(lam b) dlam, s = a/b < 1, and of s f'_mu - mu f_mu.

    Over an array of orders mu > 0 at once; returns ``(log_f, log_e, rel)``
    with e_mu = s f'_mu(s) - mu f_mu(s) >= 0 and ``rel`` a relative error
    estimate covering both.  By Gradshteyn-Ryzhik 6.576.5,

        f_mu(s) = sqrt(pi)/2 Gamma(mu+1/2)/Gamma(mu+1) s^mu 2F1(mu+1/2, 1/2; mu+1; s^2)
                = Q_{mu-1/2}(cosh eta) / (2 sqrt(s)),   eta = -log s,

    the Legendre form in which H.-Q. Li writes the cone's H^{-1/2} kernel.
    Neither series serves every order: the 2F1 series in s^2 needs about
    40/(1 - s^2) terms, and the connection formula about s = 1 (DLMF
    15.8.10) cancels like s^{-2 mu} (at mu = 40, s = 0.72 it loses six
    digits).  So both come from the integral Q_{mu-1/2}(cosh eta) =
    e^{-mu eta} int_0^inf e^{-2 mu u} (sinh u sinh(eta+u))^{-1/2} du (DLMF
    14.12.4 with t = eta + 2u), differentiated in eta under the integral;
    with q = 1 - e^{-2(eta+u)},

        f_mu = s^mu / sqrt(2) int_0^inf e^{-(2 mu + 1/2) u} (q sinh u)^{-1/2} du,
        e_mu = s^{mu+2} / sqrt(2) int_0^inf e^{-(2 mu + 5/2) u} (q sinh u)^{-1/2} / q du,

    both integrands positive and free of overflow at any s.  With
    u = c sinh(tau)^2, c = eta/(1 + 2 mu eta), each is an even, analytic
    function of tau whose width is about 1 whatever mu and eta, and the
    midpoint rule of step 0.1 converges like e^{-4.6/step}.  Against
    30-digit values of the 2F1 series the error is below 5e-16 times
    1 + |log f| for s from 1e-300 to 0.99 and mu from 0.1 to 65536.
    """
    mu = np.asarray(mu, dtype=float)[:, None]
    eta = -math.log(s)
    c = eta / (1.0 + 2.0 * mu * eta)
    # Past u (2 mu + 1) = 45 both integrands are below e^{-45} of their
    # peak; the order with the smallest c (2 mu + 1) sets the range (the
    # lowest for s > 1/e, where it rises with mu, the highest below).
    n = int(math.asinh(math.sqrt(45.0 / float((c * (2.0 * mu + 1.0)).min()))) / _TAU_STEP) + 1
    tau = (np.arange(n) + 0.5) * _TAU_STEP
    u = c * np.sinh(tau) ** 2
    q = -np.expm1(-2.0 * (eta + u))
    w = (c * np.sinh(2.0 * tau)) * np.exp(-(2.0 * mu + 0.5) * u) / np.sqrt(q * np.sinh(u))
    log_p = math.log(_TAU_STEP / math.sqrt(2.0)) - eta * mu[:, 0]
    log_f = log_p + np.log(w.sum(axis=1))
    log_e = log_p - 2.0 * eta + np.log((w * np.exp(-2.0 * u) / q).sum(axis=1))
    return log_f, log_e, 16.0 * _EPS * (1.0 + n + np.abs(log_f))


# ----------------------------------------------------------------------
# Uniform-bound verification report.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundFit:
    """Fit of one bound family: smallest admissible constant on a grid."""

    bound_id: str
    c_fit: float
    max_violation_ratio: float  # refined-grid C / base-grid C (stability)
    grid: str

    @property
    def passed(self) -> bool:
        return math.isfinite(self.c_fit) and self.max_violation_ratio <= 1.25


@dataclass(frozen=True)
class BoundReport:
    fits: tuple[BoundFit, ...]

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.fits)


def _log_model(bound_id: str, mu: float, r: float, rp: float = 0.0) -> float:
    """log of the model right-hand side for each bound family."""
    lg = math.lgamma
    if bound_id == "i-small-arg":  # I <= C 2^-mu r^mu / Gamma(mu+1/2)
        return -mu * _LN2 + mu * math.log(r) - lg(mu + 0.5)
    if bound_id == "i-large-arg":  # I <= C 2^-mu r^(mu-1) e^r / Gamma(mu+1/2)
        return -mu * _LN2 + (mu - 1.0) * math.log(r) + r - lg(mu + 0.5)
    if bound_id == "k-small-arg":  # K <= C 2^-mu r^-mu Gamma(2mu)/Gamma(mu+1/2)
        return -mu * _LN2 - mu * math.log(r) + lg(2.0 * mu) - lg(mu + 0.5)
    if bound_id == "k-large-arg":  # K <= C e^(-r/2) r^-mu 2^(2mu) Gamma(mu)
        return -0.5 * r - mu * math.log(r) + 2.0 * mu * _LN2 + lg(mu)
    if bound_id == "ik-far-product":
        s = r / rp
        if rp <= 1.0:
            return mu * math.log(s)
        if r <= 1.0:
            return mu * math.log(2.0 * s) - 0.5 * rp
        return mu * math.log(2.0 * s) - 0.25 * rp
    raise DomainError(f"unknown bound id {bound_id!r}")


def _geom(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]


def _log_values(kind: str, mus, r: float) -> np.ndarray:
    """log I_mu(r) (``kind="i"``) or log K_mu(r) (``"k"``) over a list of orders."""
    return log_scaled(kind, mus, r)[0] + (r if kind == "i" else -r)


def _fit_single(bound_id: str, mus, rs) -> float:
    """Largest log-space ratio observed / model over the grid, exponentiated."""
    worst = -math.inf
    for r in rs:
        got = _log_values(bound_id[0], mus, r)
        worst = max(worst, *(g - _log_model(bound_id, mu, r) for g, mu in zip(got, mus)))
    return math.exp(worst)


def _fit_product(mus, rps) -> float:
    worst = -math.inf
    for rp in rps:
        log_k = _log_values("k", mus, rp)
        for ratio in (4.0, 8.0, 16.0):
            r = rp / ratio
            lhs = _log_values("i", mus, r) + log_k
            worst = max(worst, *(v - _log_model("ik-far-product", mu, r, rp) for v, mu in zip(lhs, mus)))
    return math.exp(worst)


def _gamma_identity_residual(mus) -> float:
    """max relative residual of Gamma(2mu) = 2^(2mu-1)/sqrt(pi) Gamma(mu) Gamma(mu+1/2)."""
    worst = 0.0
    for mu in mus:
        lhs = math.lgamma(2.0 * mu)
        rhs = (2.0 * mu - 1.0) * _LN2 - 0.5 * math.log(math.pi) \
            + math.lgamma(mu) + math.lgamma(mu + 0.5)
        worst = max(worst, abs(math.expm1(rhs - lhs)))
    return worst


def check_uniform_bounds(mu_grid=None, r_grid=None) -> BoundReport:
    """Fit the smallest constant for each uniform bound family on a grid.

    Families (mu >= 1/2 throughout; each C is a grid supremum, refined on a
    doubled grid to report stability):

    * ``i-small-arg``:    I_mu(r)  <= C 2^-mu r^mu / Gamma(mu+1/2), r <= 1
    * ``i-large-arg``:    I_mu(r)  <= C 2^-mu r^(mu-1) e^r / Gamma(mu+1/2), r >= 1
    * ``k-small-arg``:    K_mu(r)  <= C 2^-mu r^-mu Gamma(2mu)/Gamma(mu+1/2), r <= 1
    * ``k-large-arg``:    K_mu(r)  <= C e^(-r/2) r^-mu 2^(2mu) Gamma(mu), r >= 1
    * ``ik-far-product``: I_mu(r) K_mu(r') <= C * three-branch model for r' >= 4r
    * ``gamma-duplication``: relative residual of the Gamma duplication
      identity (c_fit is the max residual; passes when < 1e-12).
    """
    mus = list(mu_grid) if mu_grid is not None else _geom(0.5, 50.0, 28)
    if any(m < 0.5 for m in mus):
        raise DomainError("bound checks require mu >= 1/2")
    small = list(r_grid) if r_grid is not None else _geom(1e-4, 1.0, 25)
    large = _geom(1.0, 300.0, 25)

    def refine(grid):
        out = []
        for a, b in zip(grid, grid[1:]):
            out += [a, math.sqrt(a * b)]
        out.append(grid[-1])
        return out

    fits = []
    for bound_id, rs in (
        ("i-small-arg", small),
        ("i-large-arg", large),
        ("k-small-arg", small),
        ("k-large-arg", large),
    ):
        base = _fit_single(bound_id, mus, rs)
        fine = _fit_single(bound_id, refine(mus), refine(rs))
        fits.append(BoundFit(bound_id, fine, fine / base,
                             f"mu[{mus[0]:g},{mus[-1]:g}]x{len(mus)} r[{rs[0]:g},{rs[-1]:g}]x{len(rs)}"))
    rps = _geom(0.05, 40.0, 25)
    base = _fit_product(mus, rps)
    fine = _fit_product(refine(mus), refine(rps))
    fits.append(BoundFit("ik-far-product", fine, fine / base,
                         f"mu[{mus[0]:g},{mus[-1]:g}]x{len(mus)} rp[{rps[0]:g},{rps[-1]:g}]x{len(rps)} ratios(4,8,16)"))
    resid = _gamma_identity_residual(mus + refine(mus))
    fits.append(BoundFit("gamma-duplication", resid,
                         1.0 if resid < 1e-12 else math.inf,
                         f"mu[{mus[0]:g},{mus[-1]:g}]x{len(mus)}"))
    return BoundReport(tuple(fits))
