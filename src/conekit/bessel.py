"""Modified Bessel functions I_nu, K_nu of real order nu >= 0.

The resolvent series multiplies I_mu(a) by K_mu(b) for orders mu up to a
few hundred and arguments from 1e-6 to several hundred.  In that range the
factors individually overflow or underflow double precision
(I_mu(r) ~ (r/2)^mu / Gamma(mu+1), K_mu(r) ~ Gamma(mu) (2/r)^mu / 2 near
zero) long before their product does.  Every evaluation therefore carries
an explicit binary exponent: the result is ``value * 2**exp2``, with
``exp2 == 0`` whenever the plain float is comfortably representable.

Algorithm selection (the order cutover is ``DEFAULTS.olver_nu_min`` = 30):

* nu < 30: scipy's exponentially scaled ``ive`` / ``kve``, with the
  e^{+-r} factor folded into the binary exponent.  Their scaled value
  leaves the normal doubles only at tiny r (at nu = 29.9, below about
  r = 1e-9); there ``I`` falls back to the ascending power series and
  ``K`` to its leading term Gamma(nu) (2/r)^nu / 2 (DLMF 10.30.2), whose
  relative correction (r/2)^2 / (nu - 1) is then far below rounding.
* nu >= 30: ``I`` by the ascending power series for r <= nu/2 and by
  Olver's uniform large-order asymptotics above; ``K`` by Olver.

Each order is dispatched on its own, so the order-(nu+1) partners used
by the derivatives may take a different branch from order nu.
Derivatives use ``I'_nu = I_{nu+1} + (nu/r) I_nu`` and
``K'_nu = -(K_{nu-1} + K_{nu+1})/2``, arranged so no cancellation-prone
downward step is ever taken.

Accuracy: validated against 40-digit reference values at 1e-12 relative
over nu <= 200, r in [1e-6, 500] (see the test suite).  ``abs_error_est``
is a running estimate of rounding plus truncation, not a certified
enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from scipy.special import ive, kve

from ._scaled import add2 as _add
from ._scaled import from_log as _from_log
from ._scaled import log_of as _log_of
from ._scaled import mul2 as _mul
from ._scaled import norm2 as _norm
from .config import DEFAULTS
from .errors import DomainError

__all__ = [
    "BesselEval",
    "bessel_i",
    "bessel_k",
    "bessel_i_with_dr",
    "bessel_k_with_dr",
    "wronskian_residual",
    "log_ik_bound",
    "BoundFit",
    "BoundReport",
    "check_uniform_bounds",
]

_EPS = 2.220446049250313e-16
_LN2 = math.log(2.0)
_TINY = 2.2250738585072014e-308  # smallest normal double


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


def _pack(pair: tuple[float, int], rel_err: float, method: str) -> BesselEval:
    m, e = _norm(*pair)
    if m == 0.0:
        return BesselEval(0.0, 0.0, method, 0)
    log2_total = math.log2(abs(m)) + e
    if abs(log2_total) <= DEFAULTS.fold_exp2:
        v = math.ldexp(m, e)
        return BesselEval(v, abs(v) * rel_err, method, 0)
    return BesselEval(m, abs(m) * rel_err, method, e)


def _validate(nu: float, r: float) -> tuple[float, float]:
    nu, r = float(nu), float(r)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"order must be finite and >= 0, got {nu!r}")
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError(f"argument must be finite and > 0, got {r!r}")
    return nu, r


# ----------------------------------------------------------------------
# I_nu: ascending power series.
# ----------------------------------------------------------------------

def _i_series(nu: float, r: float) -> tuple[tuple[float, int], float]:
    """All-positive ascending series; returns (scaled value, rel error)."""
    q = 0.25 * r * r
    term = 1.0
    total = 1.0
    shift = 0
    k = 0
    while True:
        k += 1
        term *= q / (k * (nu + k))
        total += term
        if total > 8.98846567431158e307 * 0.5:  # 2**1023 / 2: renormalize
            total = math.ldexp(total, -512)
            term = math.ldexp(term, -512)
            shift += 512
        ratio = q / ((k + 1) * (nu + k + 1))
        if ratio < 0.5 and term <= 0.25 * _EPS * total:
            break
        if k > 100000:  # pragma: no cover - unreachable for finite inputs
            raise ArithmeticError("I series failed to converge")
    ln_pref = nu * math.log(0.5 * r) - math.lgamma(nu + 1.0)
    m, e = _from_log(ln_pref)
    rel = (k + 4) * _EPS + 2.0 * abs(ln_pref) * _EPS
    return _norm(m * total, e + shift), rel


# ----------------------------------------------------------------------
# Olver's uniform large-order asymptotics.
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


_U_POLYS = _gen_olver_polys(12)


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _olver_series(nu: float, p: float, alternate: bool) -> tuple[float, float]:
    total = 0.0
    last = 0.0
    for k, poly in enumerate(_U_POLYS):
        term = _horner(poly, p) / nu**k
        if alternate and k % 2 == 1:
            term = -term
        total += term
        last = term
    return total, abs(last / total) if total != 0.0 else 0.0


def _olver_frame(nu: float, x: float) -> tuple[float, float]:
    z = x / nu
    w = math.hypot(1.0, z)
    p = 1.0 / w
    eta = w + math.log(z / (1.0 + w))
    return p, eta


def _olver_i(nu: float, x: float) -> tuple[tuple[float, int], float]:
    p, eta = _olver_frame(nu, x)
    s, trunc = _olver_series(nu, p, alternate=False)
    ln_val = nu * eta - 0.5 * math.log(2.0 * math.pi * nu) - 0.5 * math.log(1.0 / p) + math.log(s)
    rel = trunc + (abs(nu * eta) + 16.0) * _EPS
    return _from_log(ln_val), rel


def _olver_k(nu: float, x: float) -> tuple[tuple[float, int], float]:
    p, eta = _olver_frame(nu, x)
    s, trunc = _olver_series(nu, p, alternate=True)
    ln_val = -nu * eta + 0.5 * math.log(math.pi / (2.0 * nu)) - 0.5 * math.log(1.0 / p) + math.log(s)
    rel = trunc + (abs(nu * eta) + 16.0) * _EPS
    return _from_log(ln_val), rel


# ----------------------------------------------------------------------
# One order at a time.
# ----------------------------------------------------------------------

def _from_scipy(scaled: float, ln_factor: float, nu: float) -> tuple[tuple[float, int], float]:
    """Scaled pair for ``scaled * e^ln_factor`` and its relative error estimate.

    The estimate models scipy's measured error, which grows with the order
    and with the log of the value (power-series prefactors at small r).
    """
    pair = _mul(_norm(scaled, 0), _from_log(ln_factor))
    return pair, 16.0 * _EPS * (1.0 + nu + abs(_log_of(pair)))


def _i_one(nu: float, x: float) -> tuple[tuple[float, int], float, str]:
    """I_nu(x) as (scaled pair, rel error, method)."""
    if nu < DEFAULTS.olver_nu_min:
        v = float(ive(nu, x))
        if v >= _TINY:  # 0 or subnormal at tiny x
            return (*_from_scipy(v, x, nu), "scipy")
    elif x > 0.5 * nu:
        return (*_olver_i(nu, x), "uniform-asymptotic")
    return (*_i_series(nu, x), "power-series")


def _k_one(nu: float, x: float) -> tuple[tuple[float, int], float, str]:
    """K_nu(x) as (scaled pair, rel error, method)."""
    if nu >= DEFAULTS.olver_nu_min:
        return (*_olver_k(nu, x), "uniform-asymptotic")
    v = float(kve(nu, x))
    if math.isfinite(v):  # inf at tiny x
        return (*_from_scipy(v, -x, nu), "scipy")
    # Leading term; kve overflows only where nu > 0.95, and (x/2)^2/(nu-1)
    # bounds the next term for nu > 1 (for nu <= 1, x is subnormal).
    ln_val = math.lgamma(nu) + (nu - 1.0) * _LN2 - nu * math.log(x)
    trunc = 0.25 * x * x / (nu - 1.0) if nu > 1.0 else 0.0
    return _from_log(ln_val), (4.0 + 2.0 * abs(ln_val)) * _EPS + trunc, "small-argument"


# ----------------------------------------------------------------------
# Public evaluations.
# ----------------------------------------------------------------------

def bessel_i(nu: float, r: float) -> BesselEval:
    """Modified Bessel function of the first kind, scaled on overflow."""
    nu, r = _validate(nu, r)
    return _pack(*_i_one(nu, r))


def bessel_k(nu: float, r: float) -> BesselEval:
    """Modified Bessel function of the second kind, scaled on overflow."""
    nu, r = _validate(nu, r)
    return _pack(*_k_one(nu, r))


def bessel_i_with_dr(nu: float, r: float) -> tuple[BesselEval, BesselEval]:
    """(I_nu(r), d/dr I_nu(r)) sharing intermediate work.

    The derivative uses I'_nu = I_{nu+1} + (nu/r) I_nu, which involves only
    nonnegative terms (no cancellation) and is valid for every nu >= 0.
    """
    nu, r = _validate(nu, r)
    v0, r0, method = _i_one(nu, r)
    v1, r1, _ = _i_one(nu + 1.0, r)
    rel = max(r0, r1)
    deriv = _add(v1, _mul(_norm(nu / r, 0), v0))
    return _pack(v0, rel, method), _pack(deriv, rel + 4.0 * _EPS, method)


def bessel_k_with_dr(nu: float, r: float) -> tuple[BesselEval, BesselEval]:
    """(K_nu(r), d/dr K_nu(r)) sharing intermediate work.

    K'_nu = -(K_{nu-1} + K_{nu+1})/2 with K_{nu-1} = K_{|nu-1|}.  For
    nu >= 1, K_{nu+1} is recovered from (K_{nu-1}, K_nu) by one *forward*
    step, so no subtractive recurrence occurs.
    """
    nu, r = _validate(nu, r)
    kc, rel, method = _k_one(nu, r)
    km, rel_m, _ = _k_one(abs(nu - 1.0), r)
    rel = max(rel, rel_m)
    if nu >= 1.0:
        kp = _add(km, _mul(_norm(2.0 * nu / r, 0), kc))
    else:
        kp, rel_p, _ = _k_one(nu + 1.0, r)
        rel = max(rel, rel_p)
    deriv = _mul(_norm(-0.5, 0), _add(km, kp))
    return _pack(kc, rel, method), _pack(deriv, rel + 4.0 * _EPS, method)


def wronskian_residual(nu: float, r: float) -> float:
    """r * |I_nu(r) K'_nu(r) - I'_nu(r) K_nu(r) + 1/r| (should be ~0).

    The exact Wronskian is I K' - I' K = -1/r; the residual is scaled by r
    so it is a relative-size quantity across the whole range.
    """
    i0, i1 = bessel_i_with_dr(nu, r)
    k0, k1 = bessel_k_with_dr(nu, r)
    ik = _mul((i0.value, i0.exp2), (k1.value, k1.exp2))
    ki = _mul((i1.value, i1.exp2), (k0.value, k0.exp2))
    total = _add(_add(ik, (-ki[0], ki[1])), _norm(1.0 / r, 0))
    return abs(math.ldexp(total[0], total[1])) * r


# ----------------------------------------------------------------------
# Provable product bounds (used for certified series tails).
# ----------------------------------------------------------------------

def log_ik_bound(mu: float, a: float, b: float) -> float:
    """log of a proven bound: I_mu(a) K_mu(b) <= (a/b)^mu / (2 mu).

    Ingredients: I_mu(x)/x^mu is increasing (ascending series has positive
    coefficients), so I_mu(a) <= (a/b)^mu I_mu(b); and Nicholson's formula
    I_mu(x) K_mu(x) = Integral_0^inf J_0(2x sinh t) e^{-2 mu t} dt gives
    I_mu(b) K_mu(b) <= 1/(2 mu).  Valid for all 0 < a <= b, mu > 0.
    """
    if not 0.0 < a <= b or mu <= 0.0:
        raise DomainError("log_ik_bound needs 0 < a <= b and mu > 0")
    return mu * math.log(a / b) - math.log(2.0 * mu)


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


def _fit_single(bound_id: str, mus, rs) -> float:
    """Largest log-space ratio observed / model over the grid, exponentiated."""
    worst = -math.inf
    for mu in mus:
        for r in rs:
            if bound_id.startswith("i-"):
                val = bessel_i(mu, r)
            else:
                val = bessel_k(mu, r)
            worst = max(worst, val.log_abs - _log_model(bound_id, mu, r))
    return math.exp(worst)


def _fit_product(mus, rps) -> float:
    worst = -math.inf
    for mu in mus:
        for rp in rps:
            for ratio in (4.0, 8.0, 16.0):
                r = rp / ratio
                lhs = bessel_i(mu, r).log_abs + bessel_k(mu, rp).log_abs
                worst = max(worst, lhs - _log_model("ik-far-product", mu, r, rp))
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
