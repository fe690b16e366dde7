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

Algorithm: numpy only, one vector pass per method over the entries it
takes (:func:`_blocks`), with nu_min = ``_OLVER_NU_MIN`` = 40:

* ``uniform-asymptotic``: Olver's expansions (DLMF 10.41.3, 10.41.4),
  20 terms, written in W = sqrt(nu^2 + x^2) so that they hold down to
  nu = 0, where they are Hankel's large-argument expansions.  I takes
  them past (x/2)^2 = nu + 1 from order nu_min on, and at every order
  past x = 20; K from order nu_min on, and past x = 20, above x = 1e-10.
  Their last term, kept as the truncation estimate, is below 1e-16 of
  the sum from order 15 on and below 6e-15 from x = 20 on.  nu_min is
  higher than accuracy needs: it is the floor of the default base
  table's cutoff (see :mod:`conekit.spectrum`), so that table takes no
  Olver pass (end to end this beat nu_min = 15).
* ``power-series``: I's ascending series (DLMF 10.25.2), all terms
  positive: at most 19 of them where (x/2)^2 <= nu + 1, at most 41 below
  order nu_min up to x = 20.
* ``integral``: K below order nu_min for 1e-10 < x <= 20, by the
  trapezoid rule on K_nu(x) e^x = 1/2 Int exp(nu t - x (cosh t - 1)) dt
  (DLMF 10.32.9) about its peak, written so that no term cancels; the
  step is sized from the integrand's strip of analyticity.
* ``small-argument``: K at x <= 1e-10, by its leading terms (DLMF
  10.30.2; two of them below order 0.999, DLMF 10.27.4), whose next term
  is then below 3e-18 relative.

The engine computes no derivative.  A caller that needs one takes an
order-shifted partner from the same call (DLMF 10.29.2):
``I'_nu = I_{nu+1} + (nu/x) I_nu`` and
``K'_nu = -K_{|nu-1|} - (nu/x) K_nu`` (K_{-nu} = K_nu), each a sum of
terms of one sign, so no cancellation occurs; every order takes its own
method.  Olver's ``U_k`` table is built on its first use, by the exact
recurrence in floating point.

Accuracy: within 1e-12 relative of 40-digit reference values over
nu <= 200, x in [1e-300, 500], on both sides of every switch above, and
up to order 60000 with x from 1e-6 to 2 nu at 1e-12 times the size of
the log (see the test suite); measured errors are a few 1e-15 times
max(1, |log|).  ``rel`` (and ``abs_error_est`` built from it) estimates
each method's error in the scaled value: the rounding of the log's large
terms (2 eps per unit of their size), of sums (eps per term), and
Olver's last term.  It is an estimate, not a certified enclosure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BesselEval",
    "bessel_i",
    "bessel_k",
    "log_scaled",
    "split_log",
    "wronskian_residual",
]

_EPS = 2.220446049250313e-16
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01  # Cody-Waite split of log 2
_LN2_LO = 1.90821492927058770002e-10
_FOLD_EXP2 = 600  # split_log keeps a plain float while |log2| <= this
_NO_DIGIT = 2.0**52  # from here on a float's ulp is 1 or more: as a log, or as lambda r, it leaves no digit


def _ldexp(m: float, e: int) -> float:
    """m * 2**e as a plain float: +-inf past float range, 0 below it."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


class _Scaled:
    """A result ``value * 2**exp2``: its plain float and its log, for any exp2."""

    def float_value(self) -> float:
        """Plain float; +-inf past float range, 0 below it."""
        return _ldexp(self.value, self.exp2)

    @property
    def log_abs(self) -> float:
        """Natural log of the absolute value (-inf for an exact zero)."""
        if self.value == 0.0:
            return -math.inf
        return math.log(abs(self.value)) + self.exp2 * _LN2


@dataclass(frozen=True)
class BesselEval(_Scaled):
    """One function evaluation: the result is ``value * 2**exp2``.

    ``exp2`` is zero unless the plain value would run out of float range;
    ``abs_error_est`` is expressed on the same scale as ``value``.
    """

    value: float
    abs_error_est: float
    method: str
    exp2: int = 0


def split_log(ln_x: float) -> tuple[float, int]:
    """(m, e) with m * 2**e = exp(ln_x), for any ln_x including far outside float range.

    ``e`` is zero while the plain float is comfortably representable
    (|log2| <= ``_FOLD_EXP2``); otherwise m lies in [1, 2).  The
    log 2 is split (Cody-Waite), so the folding stays accurate to about an
    ulp even for |ln_x| in the thousands.  From |ln_x| = 2**52 on, the
    log's own ulp is 1 or more, so m would carry no digit: a DomainError,
    as for lambda r in :class:`conekit.resolvent.ResolventRequest`.
    """
    if ln_x == -math.inf:
        return 0.0, 0
    if abs(ln_x) >= _NO_DIGIT:
        raise DomainError(f"log {float(ln_x)!r} lies past 2**52 in magnitude: its ulp is a factor of e or more, "
                          "so no digit of the value is known")
    e = math.floor(ln_x / _LN2)
    if abs(e) <= _FOLD_EXP2:
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
# The four methods, each one vector pass over the entries dispatched to
# it; each returns (log of the scaled value, rel error).
# ----------------------------------------------------------------------

def _lgamma(z):
    """log Gamma over a 1-D array of positive arguments, by ``math.lgamma``."""
    return np.fromiter(map(math.lgamma, z.tolist()), float, z.size)


def _gen_olver_polys(kmax: int) -> list[np.ndarray]:
    """U_0 .. U_kmax, each an array of its ascending coefficients in p (U_k has degree 3k).

    U_0 = 1,  U_{k+1}(p) = p^2(1-p^2)/2 * U_k'(p)
                           + (1/8) * Integral_0^p (1 - 5 t^2) U_k(t) dt,
    coefficient by coefficient: p^{i+1} gains (i/2 + 1/(8(i+1))) u_i and
    p^{i+3} loses (i/2 + 5/(8(i+3))) u_i.
    """
    polys = [np.ones(1)]
    for _ in range(kmax):
        u = polys[-1]
        i = np.arange(u.size)
        nxt = np.zeros(u.size + 3)
        nxt[1:-2] += (0.5 * i + 1.0 / (8.0 * (i + 1))) * u
        nxt[3:] -= (0.5 * i + 5.0 / (8.0 * (i + 3))) * u
        polys.append(nxt)
    return polys


_OLVER_TERMS = 20  # U_0 .. U_19: the last is below 1e-16 of the sum from order 15 on, 6e-15 from x = 20


@functools.cache
def _olver_grid(kind: str) -> np.ndarray:
    """Row k: (+-1)^k times V_k's ascending coefficients, where U_k(p) = p^k V_k(p^2).

    Built on the first call of :func:`_olver`; the sign is + for I, - for K,
    whose grid is I's with the odd rows negated.
    """
    if kind == "k":
        return _olver_grid("i") * (-1.0) ** np.arange(_OLVER_TERMS)[:, None]
    grid = np.zeros((_OLVER_TERMS, _OLVER_TERMS))
    for k, u in enumerate(_gen_olver_polys(_OLVER_TERMS - 1)):
        grid[k, :k + 1] = u[k::2]
    return grid


# OpenBLAS runs a product of fewer multiply-adds than 262144 on one thread;
# larger ones it splits across threads, which on a busy host has cost 30 ms
# where one thread takes 3.  Blocks of rows this size also bound the K
# rule's (entry, node) array.
_ONE_THREAD_MADDS = 200_000


def _row_blocks(rows: int, size: int) -> list[slice]:
    """Slices of ``rows`` rows, each of whose product with a matrix of ``size`` entries BLAS keeps on one thread."""
    step = max(1, _ONE_THREAD_MADDS // size)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _olver(kind: str, nu, x):
    """Olver's uniform expansions (DLMF 10.41.3, 10.41.4), in W = sqrt(nu^2 + x^2).

    With z = x/nu and p = 1/sqrt(1 + z^2) = nu/W, the series
    sum_k (+-1)^k U_k(p)/nu^k is sum_k (+-1)^k V_k(p^2)/W^k, finite at
    nu = 0, where it is Hankel's large-argument expansion (DLMF 10.40.1,
    10.40.2).  All _OLVER_TERMS terms are summed: the powers of p^2 times
    the V_k table, one matrix product, times the powers of 1/W.  The last
    term is the truncation estimate.  The leading factor's exponent,
    nu eta -+ x, is nu^2/(W + x) + nu log(x/(nu + W)): no term cancels.
    """
    w = np.hypot(nu, x)
    powers = np.empty((_OLVER_TERMS, 2, w.size))  # row k: p^2k and W^-k
    powers[0] = 1.0
    powers[1:, 0], powers[1:, 1] = (nu / w) ** 2, 1.0 / w
    for k in range(2, _OLVER_TERMS):  # numpy's cumprod runs one short loop per column
        powers[k] *= powers[k - 1]
    grid, v = _olver_grid(kind), np.empty((w.size, _OLVER_TERMS))
    for rows in _row_blocks(w.size, grid.size):
        np.matmul(powers[:, 0, rows].T, grid.T, out=v[rows])
    terms = v.T * powers[:, 1]
    total = terms.sum(axis=0)
    exponent = nu * (nu / (w + x) + np.log(x / (nu + w)))  # nu eta - x
    if kind == "k":
        exponent = -exponent
    ln = exponent + np.log(total) + 0.5 * (math.log(0.5 / math.pi if kind == "i" else 0.5 * math.pi) - np.log(w))
    return ln, np.abs(terms[-1] / total) + (16.0 + 2.0 * np.abs(exponent)) * _EPS


_SERIES_K = np.arange(1.0, 101.0)  # term indices of the I series


def _i_series(nu, x):
    """log I_nu(x) e^{-x} by the all-positive ascending series (DLMF 10.25.2).

    Term k is q^k / (k! (nu+1)_k), q = (x/2)^2.  Term k / term k-1 is at
    most t/k, t the largest q/(nu+1), and at most q_max / (k (nu_min + k)),
    so the sum keeps the terms before the first whose bound from the
    smaller of the two ratios is below rounding.
    """
    q = 0.25 * x * x
    nu_min, q_max, t = float(nu.min()), float(np.max(q)), float(np.max(q / (nu + 1.0)))
    n, bound = 0, 1.0
    while bound > 0.25 * _EPS:
        n += 1
        bound *= min(t / n, q_max / (n * (nu_min + n)))
    k = _SERIES_K[:n, None]
    total = 1.0 + np.cumprod(q / (k * (nu + k)), axis=0).sum(axis=0)
    ln_power, ln_gamma = nu * (np.log(x) - _LN2), _lgamma(nu + 1.0)
    return (ln_power - ln_gamma + np.log(total) - x,
            (n + 4.0) * _EPS + 2.0 * _EPS * (np.abs(ln_power) + np.abs(ln_gamma)))


_K_CUT = 40.0  # the K rule's nodes reach where the integrand is e^{-40} of its peak
_K_STEP = 0.22  # its step at nu = x = 0


def _k_integral(nu, x):
    """log K_nu(x) e^x from K_nu(x) e^x = 1/2 Integral exp(nu t - x (cosh t - 1)) dt (DLMF 10.32.9).

    About the peak t0 = asinh(nu/x), with W = sqrt(nu^2 + x^2) and
    t = t0 + u, the exponent is

        nu t0 - nu^2/(W + x) - [x^2/(W + nu) (cosh u - 1) + nu (e^u - 1 - u)],

    both bracketed terms positive; W (cosh u - 1) + nu (sinh u - u), the
    same sum, cancels at x << nu.  The trapezoid rule of step
    h = 0.22 / sqrt(1 + nu/5 + a/9), a = x^2/(W + nu), runs out to where
    the bracket passes 40.  The integrand is entire; on the line Im u = d
    it grows by at most (cos d)^{-nu} e^{a (1 - cos d)}, so the rule's
    error is about the least over d of e^{-2 pi d / h} times that, which
    this step keeps below e^{-44} for every nu >= 0 and a >= 0: its
    largest, e^{-44.5}, is at nu = 0.4, a = 0 (on a grid up to nu = 1e5,
    a = 1e6; as a grows at nu = 0 it tends to e^{-45.3}).  All entries
    share the nodes: the smallest step any needs over the widest range.
    """
    w = np.hypot(nu, x)
    a = x * x / (w + nu)
    h = _K_STEP / math.sqrt(1.0 + 0.2 * nu.max() + a.max() / 9.0)
    left = np.minimum(np.arccosh(1.0 + _K_CUT / a), 1.0 + _K_CUT / np.maximum(nu, 1e-300)).max()
    right = math.acosh(1.0 + _K_CUT / w.min())
    u = h * np.arange(-math.ceil(left / h), math.ceil(right / h) + 1.0)
    coefs, nodes, total = np.stack((a, nu), axis=1), np.stack((1.0 - np.cosh(u), u - np.expm1(u))), np.empty(nu.size)
    for rows in _row_blocks(nu.size, nodes.size):
        bracket = coefs[rows] @ nodes  # minus the bracket at every (entry, node)
        # e^{-700} is nothing beside the peak's 1; numpy's exp is several
        # times slower where its result underflows.
        total[rows] = np.exp(np.maximum(bracket, -700.0, out=bracket), out=bracket).sum(axis=1)
    peak = nu * np.arcsinh(nu / x) - nu * nu / (w + x)
    return peak + np.log(0.5 * h * total), (16.0 + 2.0 * np.abs(peak)) * _EPS


def _k_leading(nu, x):
    """log K_nu(x) e^x by its small-argument leading terms, x <= _X_TINY.

    The leading term Gamma(nu) (2/x)^nu / 2 (DLMF 10.30.2) serves from
    nu = 0.999 on: the next terms, (x/2)^2 / (1 - nu) and
    Gamma(-nu)/Gamma(nu) (x/2)^{2 nu} relative, are each below 3e-18 there
    and cancel each other's poles at nu = 1.  Below, the second term, of
    relative size -Gamma(1-nu)/Gamma(1+nu) (x/2)^{2 nu} = -e^L, is kept
    (DLMF 10.27.4 with 10.25.2).  With L = nu M,

        K_nu(x) = Gamma(1+nu)/2 (x/2)^{-nu} (e^L - 1)/L (-M),

    whose nu -> 0 limit is -log(x/2) - Euler's gamma.  M/2 - log(x/2) =
    (log Gamma(1-nu) - log Gamma(1+nu)) / (2 nu) comes from its odd Taylor
    series below nu = 1e-3, where the two logs would cancel.
    """
    ln_val = _lgamma(np.maximum(nu, 0.5)) + (nu - 1.0) * _LN2 - nu * np.log(x)
    rel = (4.0 + 2.0 * np.abs(ln_val)) * _EPS
    low = nu < 0.999
    if low.any():
        nu_l, ln_half_x = nu[low], np.log(np.broadcast_to(x, nu.shape)[low]) - _LN2
        wide, sq = np.maximum(nu_l, 1e-3), nu_l * nu_l  # series: 2 (gamma + zeta(3)/3 nu^2 + zeta(5)/5 nu^4)
        gap = np.where(nu_l < 1e-3, 2.0 * (np.euler_gamma + sq * (0.40068563438653143 + sq * 0.207385551028674)),
                       (_lgamma(1.0 - wide) - _lgamma(1.0 + wide)) / wide)
        m = gap + 2.0 * ln_half_x
        with np.errstate(invalid="ignore"):  # nu = 0, where (e^L - 1)/L is 1
            exprel = np.where(nu_l > 0.0, np.expm1(nu_l * m) / (nu_l * m), 1.0)
        ln_val[low] = _lgamma(1.0 + nu_l) - _LN2 - nu_l * ln_half_x + np.log(exprel) + np.log(-m)
        rel[low] = (16.0 + 2.0 * np.abs(ln_val[low])) * _EPS
    return ln_val + x, rel


# ----------------------------------------------------------------------
# Whole arrays of orders.
# ----------------------------------------------------------------------

METHODS = ("integral", "power-series", "small-argument", "uniform-asymptotic")
_INTEGRAL, _SERIES, _LEADING, _OLVER = range(4)  # indices into METHODS
_OLVER_NU_MIN = 40.0  # Olver's expansions from this order on (see the module docstring)
_X_TINY = 1e-10  # K takes its leading terms at x <= this
_X_LARGE = 20.0  # below _OLVER_NU_MIN, Olver's 20 terms are within 6e-15 from here on


def _nonempty(blocks):
    """The blocks that take an entry; one that takes every entry needs no mask."""
    blocks = [(m, take) for m, take in blocks if take.any()]
    return [(blocks[0][0], None)] if len(blocks) == 1 else blocks


def _blocks(kind: str, nu: np.ndarray, x):
    """The (method, entries) pairs of one pass: entries is None for all, else a mask.

    I: Olver's expansion past (x/2)^2 = nu + 1, for orders from
    _OLVER_NU_MIN or at x > _X_LARGE; the series elsewhere.  K: the leading
    terms at x <= _X_TINY; Olver's expansion from _OLVER_NU_MIN, or at
    x > _X_LARGE; the integral elsewhere.  A float x, shared by every
    order, has float thresholds and needs one mask at most.  An array x
    (the heat kernel's, one per node) runs the series as two blocks: the
    low orders past (x/2)^2 = nu + 1 need up to 41 terms, the others at
    most 19.
    """
    if not isinstance(x, np.ndarray):
        lo = 0.0 if x > _X_LARGE else _OLVER_NU_MIN
        if kind == "i":
            hi = 0.25 * x * x - 1.0
            if hi <= lo:
                return [(_SERIES, None)]
            olver = (nu >= lo) & (nu < hi)
            return _nonempty([(_OLVER, olver), (_SERIES, ~olver)])
        if x <= _X_TINY or x > _X_LARGE:
            return [(_LEADING if x <= _X_TINY else _OLVER, None)]
        olver = nu >= lo
        return _nonempty([(_OLVER, olver), (_INTEGRAL, ~olver)])
    lo = np.where(x > _X_LARGE, 0.0, _OLVER_NU_MIN)
    if kind == "i":
        below = nu < 0.25 * x * x - 1.0
        olver = (nu >= lo) & below
        return _nonempty([(_OLVER, olver), (_SERIES, below & ~olver), (_SERIES, ~below)])
    tiny = x <= _X_TINY
    olver = (nu >= lo) & ~tiny
    return _nonempty([(_OLVER, olver), (_LEADING, tiny), (_INTEGRAL, ~(olver | tiny))])


_METHOD_FNS = {
    _SERIES: lambda kind, nu, x: _i_series(nu, x),
    _OLVER: _olver,
    _INTEGRAL: lambda kind, nu, x: _k_integral(nu, x),
    _LEADING: lambda kind, nu, x: _k_leading(nu, x),
}


def log_scaled(kind: str, nu, x):
    """Logs of I_nu(x) e^{-x} (``kind="i"``) or K_nu(x) e^{x} (``"k"``) over arrays of orders.

    ``x`` is a float or an array that broadcasts against ``nu``.  Returns
    ``(ln, rel, method)``, arrays of the broadcast shape:

    * ``ln`` -- the log of the scaled function;
    * ``rel`` -- relative error estimate;
    * ``method`` -- each entry's index into :data:`METHODS`.

    Each block of :func:`_blocks` runs as one vector pass over its
    entries, each taking its own order's method.
    """
    nu = np.asarray(nu, dtype=float)
    if np.ndim(x):
        nu, x = np.broadcast_arrays(nu, np.asarray(x, dtype=float))
        x = x.ravel()
    else:
        x = float(x)
    shape = nu.shape
    nu = nu.ravel()
    blocks = _blocks(kind, nu, x)
    if len(blocks) == 1:  # one method takes every entry
        m = blocks[0][0]
        ln, rel = _METHOD_FNS[m](kind, nu, x)
        return ln.reshape(shape), rel.reshape(shape), np.full(shape, m, dtype=np.int8)
    ln, rel = np.empty((2, nu.size))
    method = np.empty(nu.size, dtype=np.int8)
    x = np.broadcast_to(x, nu.shape)
    for m, take in blocks:
        ln[take], rel[take] = _METHOD_FNS[m](kind, nu[take], x[take])
        method[take] = m
    return ln.reshape(shape), rel.reshape(shape), method.reshape(shape)


# ----------------------------------------------------------------------
# Public scalar evaluations.
# ----------------------------------------------------------------------

def _scalar(kind: str, nu: float, r: float) -> BesselEval:
    nu, r = _validate(nu, r)
    ln, rel, method = log_scaled(kind, [nu], r)
    method = METHODS[method[0]]
    shift = r if kind == "i" else -r
    log_value = float(ln[0]) + shift
    rel = float(rel[0]) + _EPS * abs(log_value)  # the unscaling rounds the log
    m, e = split_log(log_value)
    return BesselEval(m, m * rel, method, e)


def bessel_i(nu: float, r: float) -> BesselEval:
    """Modified Bessel function of the first kind, scaled on overflow."""
    return _scalar("i", nu, r)


def bessel_k(nu: float, r: float) -> BesselEval:
    """Modified Bessel function of the second kind, scaled on overflow."""
    return _scalar("k", nu, r)


def wronskian_residual(nu, r):
    """r * |I_nu(r) K_{nu+1}(r) + I_{nu+1}(r) K_nu(r) - 1/r| (should be ~0).

    The exact Wronskian is I_nu K_{nu+1} + I_{nu+1} K_nu = 1/r (DLMF
    10.28.2), two positive terms, which the resolvent's tail bounds use;
    the residual is scaled by r so it is a relative-size quantity across
    the whole range.  On the scaled logs the e^{-+r} factors cancel in both
    products.  ``nu`` and ``r`` may be arrays that broadcast together, for
    one vector pass; the result is then an array.
    """
    nu, r = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(r, dtype=float))
    bad = ~(np.isfinite(nu) & (nu >= 0.0) & np.isfinite(r) & (r > 0.0))
    if bad.any():
        _validate(nu[bad][0], r[bad][0])  # raises, naming the first bad entry
    orders = np.stack((nu, nu + 1.0))
    (li, li1), _, _ = log_scaled("i", orders, r)
    (lk, lk1), _, _ = log_scaled("k", orders, r)
    log_r = np.log(r)
    res = np.abs(1.0 - np.exp(li + lk1 + log_r) - np.exp(li1 + lk + log_r))
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
    sums = np.empty((2, mu.shape[0]))
    rows = max((1 << 16) // n, 1)  # orders per pass: the node arrays stay small near s = 1
    for lo in range(0, mu.shape[0], rows):
        c_rows = c[lo:lo + rows]
        u = c_rows * np.sinh(tau) ** 2
        q = -np.expm1(-2.0 * (eta + u))
        w = (c_rows * np.sinh(2.0 * tau)) * np.exp(-(2.0 * mu[lo:lo + rows] + 0.5) * u) / np.sqrt(q * np.sinh(u))
        sums[:, lo:lo + rows] = w.sum(axis=1), (w * np.exp(-2.0 * u) / q).sum(axis=1)
    log_p = math.log(_TAU_STEP / math.sqrt(2.0)) - eta * mu[:, 0]
    log_f = log_p + np.log(sums[0])
    log_e = log_p - 2.0 * eta + np.log(sums[1])
    return log_f, log_e, 16.0 * _EPS * (1.0 + n + np.abs(log_f))

