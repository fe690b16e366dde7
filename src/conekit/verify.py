"""Self-contained verification suites over closed-form references, and the probes they run.

The probes are the indicial (zero-front limit) kernel
:func:`indicial_kernel`, the zero-front compatibility check
:func:`zf_compatibility_check` and the boundary decay exponents
:func:`boundary_order_probe`; no kernel value runs them.  The indicial
kernel reads the spectrum's chunks to a proven tail, at any ratio s but 1.

Each suite runs a family of checks whose expected values come from
independent mathematics (flat-space closed forms, proven inequalities,
generating functions, exact Schur integrals), not from this package's
own machinery, and returns one :class:`CheckResult` per check.  The
command-line ``verify`` subcommand prints one PASS/FAIL line per result.

Suites
------
``euclid``
    The d = 3, V0 = 0 cone is flat R^3.  Resolvent values (at s <= 1/4 and
    at 1/4 < s <= 0.99, where the mode table grows), Riesz values, and at
    r = r' both and the gradient meet their closed forms by one honesty
    rule; off r = r' each is also certified or stops short of the table
    ceiling, at r = r' flagged "quadrature", uncertified and within rel_tol.
    The indicial kernel must match the Legendre generating function.
``bessel``
    The inequalities the certificates use, on one grid (the check named
    ``bessel.uniform-bounds``), the closed-form tail sums past a table
    against brute-force sums (``bessel.tail-sums``), Wronskian residuals,
    half-integer closed forms.
``compatibility``
    Zero-front limits against the indicial kernel, with convergence
    rates min(2, 2 mu0).
``boundary``
    Fitted decay exponents toward each boundary face.
``offdiag``
    Riesz kernel magnitudes against the off-diagonal models, walking
    r/r' (far right) or r'/r (far left) from 2^-3 to 2^-21 on R^3 with
    c = -0.24, where both models are sharp, and the zero-V leading model
    on flat R^3: the ratio must not grow toward the face.
``schur``
    Exact Schur norms, duality, and the model-interval identity.
``thresholds``
    Threshold spot values, ordering relations in the sign of c, and
    monotonicity/saturation in mu0.
``all``
    Every suite above.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .bessel import _EPS, bessel_i, bessel_k, log_ik_integrals, log_scaled, wronskian_residual
from .errors import DomainError
from .geometry import ConePoint, cone_distance
from .lpcheck import (
    HomogeneousKernelSpec,
    offdiag_bound_check,
    riesz_model_intervals,
    schur_norm,
    threshold_interval,
    threshold_interval_constant,
    threshold_interval_zero_v,
)
from .resolvent import ResolventRequest, _b_half, resolvent_gradient, resolvent_kernel
from .riesz import riesz_kernel
from .spectrum import TABLE_CEILING, CrossSectionSpectrum, TailProfile, _mu0_squared, sphere_spectrum, torus_spectrum

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "indicial_kernel",
    "ZfCompatibilityReport",
    "zf_compatibility_check",
    "boundary_order_probe",
    "BOUNDARY_FACES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _timed(name, fn):
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}", time.perf_counter() - t0)
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# probes: the indicial kernel, zero-front limits, boundary decay
# ----------------------------------------------------------------------

def indicial_kernel(spectrum: CrossSectionSpectrum, s: float, y, yp) -> float:
    """Zero-front limit kernel: (1/2) sum_j pair_j(y,y') t^{mu_j} / mu_j.

    ``t = min(s, 1/s)`` makes the expression symmetric under s -> 1/s,
    matching the two zero-boundary faces.  Singular at s = 1.  The sum reads
    :meth:`CrossSectionSpectrum.chunks` one whole chunk at a time, up to the
    first past whose top the tail profile's proven ``pair_over_2mu`` bound
    at t is at most eps |sum|; where the chunks end first, DomainError.
    """
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"radial ratio s must be finite and > 0, got {s!r}")
    if s == 1.0:
        raise DomainError("indicial kernel is singular at s = 1")
    t, total = min(s, 1.0 / s), 0.0
    for mu, pair, _, _ in spectrum.chunks(y, yp, spectrum.cross_section.distance(y, yp), False):
        total += float(np.sum(pair * np.exp(mu * math.log(t)) / (2.0 * mu)))
        if math.exp(spectrum.tail_profile.log_sum_beyond(t, float(mu[-1]))[0]) <= _EPS * abs(total):
            return total
    raise DomainError(f"indicial kernel at t = {t!r}: the table ends at its ceiling before the tail is below eps")


@dataclass(frozen=True)
class ZfCompatibilityReport:
    """Comparison of the b-half kernel against its zero-front limit.

    For fixed ratio s, the b-half kernel at (s r', y; r', y') is evaluated
    along r' -> 0 and divided by the indicial kernel.  ``deviations`` are
    |ratio - 1|; ``rate`` is the fitted slope of log-deviation against
    log r' (expected min(2, 2 mu0) for spectra whose bottom pair function
    does not vanish at (y, y')).
    """

    s: float
    indicial_value: float
    rprimes: tuple
    ratios: tuple
    deviations: tuple
    rate: float

    @property
    def final_deviation(self) -> float:
        return self.deviations[-1]


def zf_compatibility_check(spectrum: CrossSectionSpectrum, s: float, y, yp) -> ZfCompatibilityReport:
    """Check that the kernel's zero-front limit matches the indicial kernel at s, at 9 r' from 1e-1 to 1e-3."""
    s = float(s)
    rprimes = tuple(np.geomspace(1e-1, 1e-3, 9).tolist())
    ind = indicial_kernel(spectrum, s, y, yp)
    if ind == 0.0:
        raise DomainError("indicial kernel vanishes at this (s, y, y'); ratio undefined")
    ratios = []
    for rp_val in rprimes:
        kv = resolvent_kernel(ResolventRequest(spectrum, ConePoint(s * rp_val, y), ConePoint(rp_val, yp),
                                               lam=1.0, rel_tol=1e-10))
        ratios.append(_b_half(kv, spectrum.d, s * rp_val, rp_val).float_value() / ind)
    devs = [abs(q - 1.0) for q in ratios]
    xs = [math.log(rv) for rv, dv in zip(rprimes, devs) if dv > 1e-14]
    ys = [math.log(dv) for dv in devs if dv > 1e-14]
    rate = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else math.nan
    return ZfCompatibilityReport(
        s=s,
        indicial_value=ind,
        rprimes=rprimes,
        ratios=tuple(ratios),
        deviations=tuple(devs),
        rate=rate,
    )


# Each face's (r, r', abscissa) at grid parameter eps: the radii of the
# kernel's two points, and the log the slope is fitted against.
_FACES = {
    "zf": lambda e: (e * 0.1, e, math.log(e)),
    "lbz": lambda e: (e * 0.1, 1.0, math.log(e)),
    "rbz": lambda e: (1.0, e * 0.1, math.log(e)),
    "rbi": lambda e: (0.1, 1.0 / e, math.log(1.0 / e)),
}
BOUNDARY_FACES = tuple(_FACES)


def boundary_order_probe(spectrum: CrossSectionSpectrum, face: str) -> float:
    """Fitted decay exponent of the riemannian kernel toward one boundary face.

    The kernel G_1 (lambda = 1, rel_tol 1e-9) is taken at z = (r, y),
    z' = (r', y') with y, y' at cross-section separation 0.7.  Faces, as
    eps -> 0 over 7 geometric grid points from 1e-3 to 1e-6 (from 1e-1 to
    5e-3 for ``rbi``):

    * ``zf``  - both radii to zero at fixed ratio: r = 0.1 eps, r' = eps;
      slope against log(eps), expected 2 - d.
    * ``lbz`` - left radius to zero: r = 0.1 eps, r' = 1; slope against
      log(eps), expected 1 - d/2 + mu0.
    * ``rbz`` - right radius to zero: r = 1, r' = 0.1 eps; slope against
      log(eps), expected 1 - d/2 + mu0.
    * ``rbi`` - right radius to infinity: r = 0.1, r' = 1/eps; the slope
      against log(r') diverges to -infinity (exponential decay), so the
      fit returns a large negative number that keeps falling as the grid
      deepens.

    The slope is fitted on log|kernel| over the last four grid points.
    """
    if face not in BOUNDARY_FACES:
        raise DomainError(f"face must be one of {BOUNDARY_FACES}, got {face!r}")
    y, yp = spectrum.cross_section.points_at_separation(0.7)
    eps = np.geomspace(1e-1, 5e-3, 7) if face == "rbi" else np.geomspace(1e-3, 1e-6, 7)
    xs, ls = [], []
    for e in eps.tolist():
        r, rp, x = _FACES[face](e)
        req = ResolventRequest(spectrum, ConePoint(r, y), ConePoint(rp, yp), rel_tol=1e-9)
        ls.append(resolvent_kernel(req).log_abs)
        xs.append(x)
    return float(np.polyfit(xs[-4:], ls[-4:], 1)[0])


# ----------------------------------------------------------------------
# euclid: flat R^3 closed forms
# ----------------------------------------------------------------------

def _honest(error, estimate, certified, rel_tol, scale) -> bool:
    """The honesty rule: the estimate covers the error, and a certified value meets rel_tol, within 1e-12 of scale."""
    slack = 1e-12 * scale
    return error <= estimate + slack and (not certified or error <= rel_tol * scale + slack)


def _suite_euclid(seed: int):
    spec = sphere_spectrum(3)
    cs = spec.cross_section
    rng = random.Random(seed)

    def verdict(judged, what, diagonal=False):
        """(passed, detail) for [(error, estimate, certified, rel_tol, scale, tail_kind, modes_used)], one per value.

        Off r = r' an uncertified value below the table ceiling is one whose rounding alone kept rel_tol out of reach.
        """
        broken = sum(not _honest(err, est, cert, tol, scale) or not (
            kind == "quadrature" and not cert and err <= tol * scale if diagonal else cert or modes < TABLE_CEILING)
            for err, est, cert, tol, scale, kind, modes in judged)
        worst = max((err / scale for err, _, cert, _, scale, *_ in judged if cert or diagonal), default=0.0)
        return not broken, (f"{len(judged)} values vs {what}: worst rel err {worst:.2e} where held to rel_tol, "
                            f"certified {sum(cert for _, _, cert, *_ in judged)}, breaking the rule {broken}")

    def judge_kernel(kv, want, scale):
        return (abs(kv.float_value() - want), kv.float_tail_bound(), kv.certified, 1e-8, scale,
                kv.tail_kind, kv.modes_used)

    def kernel_points(s_lo, s_hi):
        judged = []
        for _ in range(50):
            rp = 10.0 ** rng.uniform(-1.5, 1.5)
            s = 10.0 ** rng.uniform(math.log10(s_lo), math.log10(s_hi))
            gam = rng.uniform(0.1, 3.0)
            lam = 10.0 ** rng.uniform(-0.5, 0.5)
            y, yp = cs.points_at_separation(gam)
            req = ResolventRequest(spec, ConePoint(s * rp, y), ConePoint(rp, yp), lam=lam, rel_tol=1e-8)
            kv = resolvent_kernel(req)
            big_r = cone_distance(s * rp, rp, gam)
            want = math.exp(-lam * big_r) / (4.0 * math.pi * big_r)
            judged.append(judge_kernel(kv, want, want))
        return verdict(judged, "e^-lR/4piR")

    def judge_riesz(pts):
        judged = []
        for r, rp, gam in pts:
            y, yp = cs.points_at_separation(gam)
            kv = riesz_kernel(spec, ConePoint(r, y), ConePoint(rp, yp), rel_tol=1e-6)
            big_r = cone_distance(r, rp, gam)
            want_dr = -((r - rp * math.cos(gam)) / big_r) / (math.pi ** 2 * big_r ** 3)
            want_ang = -(rp * math.sin(gam) / big_r) / (math.pi ** 2 * big_r ** 3)
            # The estimate bounds both components' summed error; the scale is |T|.
            judged.append((abs(kv.d_r - want_dr) + abs(kv.angular - want_ang), kv.quad_error_est, kv.certified,
                           1e-6, math.hypot(want_dr, want_ang), kv.tail_kind, kv.modes_used))
        return judged

    def riesz_points():
        # Five fixed points at s <= 1/4, and twelve at 1/4 < s <= 0.99, z inner
        # or outer: each mode's lambda-integral in closed form, with its rigorous tail.
        pts = [(0.2, 1.0, 1.0), (0.5, 4.0, 0.4), (2.0, 0.3, 2.2), (0.05, 1.0, 2.8), (1.0, 6.0, 0.9)]
        for _ in range(12):
            s, rp, gam = rng.uniform(0.25, 0.99), 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0)
            pts.append((s * rp, rp, gam) if rng.random() < 0.5 else (rp, s * rp, gam))
        return verdict(judge_riesz(pts), "-grad R/(pi^2 R^3)")

    def indicial_legendre():
        worst = 0.0
        for t in (0.1, 0.5, 0.9):
            for gam in (0.3, 1.2, 2.9):
                y, yp = cs.points_at_separation(gam)
                got = indicial_kernel(spec, t, y, yp)
                want = math.sqrt(t) / (4.0 * math.pi * math.sqrt(1.0 - 2.0 * t * math.cos(gam) + t * t))
                worst = max(worst, abs(got - want) / want)
        return worst < 1e-14, f"indicial vs Legendre generating function: worst rel err {worst:.2e}"

    def diagonal_points():
        # r = r' and lam R <= 6: past lam R ~ 10 the heat kernel's terms
        # outgrow the value too far for rel_tol 1e-8, and such values say so.
        judged = []
        for _ in range(10):
            r, gam, lam = 10.0 ** rng.uniform(-1.0, 0.5), rng.uniform(0.1, 3.0), 10.0 ** rng.uniform(-0.5, 0.0)
            y, yp = cs.points_at_separation(gam)
            req = ResolventRequest(spec, ConePoint(r, y), ConePoint(r, yp), lam=lam, rel_tol=1e-8)
            big_r = cone_distance(r, r, gam)
            value = math.exp(-lam * big_r) / (4.0 * math.pi * big_r)
            slope = value * (1.0 + lam * big_r) / big_r  # -dG/dR; dR/dr = R/2r, dR/(r dgamma) = cos(gamma/2)
            wants = ((value, value), (-slope * big_r / (2.0 * r), slope), (-slope * math.cos(0.5 * gam), slope))
            for kv, (want, scale) in zip((resolvent_kernel(req), *vars(resolvent_gradient(req)).values()), wants):
                judged.append(judge_kernel(kv, want, scale))
            judged += judge_riesz([(r, r, gam)])
        return verdict(judged, "closed forms at r = r'", diagonal=True)

    return [
        _timed("euclid.resolvent-yukawa", lambda: kernel_points(1e-3, 0.25)),
        # 1/4 < s <= 0.99, where the mode table grows past its base.
        _timed("euclid.resolvent-rigorous", lambda: kernel_points(0.25, 0.99)),
        _timed("euclid.riesz-closed-form", riesz_points),
        _timed("euclid.indicial-legendre", indicial_legendre),
        _timed("euclid.diagonal", diagonal_points),
    ]


# ----------------------------------------------------------------------
# bessel: the inequalities the certificates use, Wronskian, half-integer forms
# ----------------------------------------------------------------------

def _bessel_inequalities():
    """{inequality: (log value, log bound, rel)} over one grid, for each inequality the certificates use.

    These are the steps of the tail bounds in the ``conekit.resolvent``
    docstring (x = s^2, A = sqrt(pi)/2 (1-x)^{-1/2}), at orders mu from 1e-3
    to the table ceiling, arguments b from 1e-6 to 1e3 and a = s b, s up to
    0.9999.  ``rel`` sums the values' own error estimates (2 eps per unit of
    each log Gamma).
    """
    mu = np.geomspace(1e-3, TABLE_CEILING, 60)
    m = mu[:, None]  # orders down the rows of the Bessel grids
    b = np.geomspace(1e-6, 1e3, 40)
    s = np.array([1e-3, 0.3, 0.9, 0.999, 0.9999])[:, None, None]
    # On log_scaled's e^{-+b} scales, a product I(b) K(b) needs no unscaling.
    (i, i1), (ri, ri1), _ = log_scaled("i", np.stack((m, m + 1.0)), b)
    (k, k1), (rk, rk1), _ = log_scaled("k", np.stack((m, m + 1.0)), b)
    i_a, ri_a, _ = log_scaled("i", m, s * b)
    lg_half, lg_one = (np.array([math.lgamma(v + shift) for v in mu]) for shift in (0.5, 1.0))
    t = np.geomspace(1e-3, 0.9999, 40)
    f, e, rf = map(np.array, zip(*(log_ik_integrals(mu, v) for v in t)))  # one row per t
    x = (t * t)[:, None]
    log_f_bound = math.log(0.5 * math.sqrt(math.pi)) - 0.5 * np.log1p(-x) + mu * np.log(t)[:, None] - 0.5 * np.log(mu)
    return {
        "I_mu(b)K_mu(b)<=1/(2mu)": (i + k, -np.log(2.0 * m), ri + rk),
        "I_mu(sb)<=s^mu*I_mu(b)": (i_a - i - (1.0 - s) * b, m * np.log(s), ri_a + ri),
        "I_mu+1(b)K_mu(b)<=1/(2b)": (i1 + k, -np.log(2.0 * b), ri1 + rk),
        "I_mu(b)K_mu+1(b)<=1/b": (i + k1, -np.log(b), ri + rk1),
        "Gamma(mu+1/2)/Gamma(mu+1)<=mu^-1/2": (lg_half - lg_one, -0.5 * np.log(mu),
                                               2.0 * _EPS * (np.abs(lg_half) + np.abs(lg_one))),
        "f_mu(s)<=A*s^mu/sqrt(mu)": (f, log_f_bound, rf),
        "e_mu(s)<=x/(1-x)*A*s^mu/sqrt(mu)": (e, log_f_bound + np.log(x / (1.0 - x)), rf),
    }


def _tail_sums():
    """{name: (log brute, log bound, rel)}, rows the six tail kinds, columns s = 0.3, 0.9, 0.99 of each case.

    The bound is the tail profile's ``log_sum_beyond`` past a table's top
    mu.  Spheres of radius != 1, d = 3 .. 6 with c < 0, = 0 and > 0: the
    brute force sums each mode's weights (:meth:`TailProfile.weights`)
    times s^mu over a grown table, until s^mu is below e^{-100} of the
    first term's.  The (1, 1.3) torus: its modes past mu = 20 up to the
    grown table's top (part of the tail, so a lower bound too), and the
    shell series that its bound sums in closed form, shell by shell.
    ``rel`` allows for the brute force's rounding.
    """
    s = np.array([0.3, 0.9, 0.99])
    reach = 100.0 / -math.log(s.max())

    def case(spec, mu_from, log_weights, mu):
        """The terms e^{log_weights} s^mu summed, and the bound past mu_from."""
        return (np.logaddexp.reduce(log_weights[:, :, None] + mu[:, None] * np.log(s), axis=1),
                np.array([spec.tail_profile.log_sum_beyond(v, mu_from, slice(0, 6)) for v in s.tolist()]).T)

    def past(spec, table, mu_from):
        keep = table.mu > mu_from
        return case(spec, mu_from, table.log_weights[:, keep], table.mu[keep])

    spheres = []
    for d, c_neg in ((3, -0.15), (4, -0.6), (5, -1.2), (6, -2.4)):
        for c, radius in ((c_neg, 0.7), (0.0, 2.0), (1.0, 1.5)):
            spec = sphere_spectrum(d, radius=radius, c=c)
            mu_from = float(spec.table.mu[-1])
            spheres.append(past(spec, spec.grown(mu_from + reach), mu_from))
    torus = torus_spectrum(3, (1.0, 1.3), mu_cutoff=20.0)
    mu_from, vol = float(torus.table.mu[-1]), torus.cross_section.volume
    # Shell k holds at most box(top) = prod_i (2 a_i top + 3) modes, top = mu_from + k + 1, each at most
    # s^(mu_from + k) times its kind's weight at pair_sup = 1/vol, grad_sup = mu/vol: at mu = top for
    # the two kinds that rise with mu, at mu = mu_from for the others.
    top = mu_from + 1.0 + np.arange(0.0, reach)
    weights = np.where(np.arange(6)[:, None] >= 4, TailProfile.weights(top, np.full_like(top, 1.0 / vol), top / vol),
                       TailProfile.weights(mu_from, 1.0 / vol, mu_from / vol)[:, None])
    shells = np.log(weights * (2.0 * top + 3.0) * (2.6 * top + 3.0))
    cases = {"spheres": tuple(np.hstack(part) for part in zip(*spheres)),
             "torus (1, 1.3) modes": past(torus, torus.grown(1e12), mu_from),
             "torus (1, 1.3) shells": case(torus, mu_from, shells, top - 1.0)}
    return {name: (*pair, 1e-10) for name, pair in cases.items()}


def _bounds_check(cases, holds: str):
    """(passed, detail) for {name: (log value, log bound, rel)}: each value at most its bound times e^rel."""
    ratios, broken = [], []
    for name, (value, bound, rel) in cases.items():
        excess = value - bound
        ratios.append(f"{name} {math.exp(excess.max()):.6f}")
        if (excess > rel).any():
            broken.append(name)
    head = f"broken: {', '.join(broken)}" if broken else f"{len(ratios)} {holds}"
    return not broken, f"{head}; worst value/bound: " + ", ".join(ratios)


def _suite_bessel(seed: int):
    def wronskian():
        rng = random.Random(seed)
        nu, r = np.array([(10.0 ** rng.uniform(-1, math.log10(150)), 10.0 ** rng.uniform(-5, 2.5))
                          for _ in range(1000)]).T
        worst = float(wronskian_residual(nu, r).max())
        return worst < 1e-10, f"Wronskian residual at 1000 points: worst {worst:.2e}"

    def half_integer():
        worst = 0.0
        for r in (0.3, 1.0, 4.7, 20.0):
            i_want = math.sqrt(2.0 / (math.pi * r)) * math.sinh(r)
            k_want = math.sqrt(math.pi / (2.0 * r)) * math.exp(-r)
            worst = max(
                worst,
                abs(bessel_i(0.5, r).float_value() - i_want) / i_want,
                abs(bessel_k(0.5, r).float_value() - k_want) / k_want,
            )
        return worst < 1e-12, f"half-integer closed forms: worst rel err {worst:.2e}"

    return [
        _timed("bessel.uniform-bounds",
               lambda: _bounds_check(_bessel_inequalities(), "inequalities hold within rel on one grid")),
        _timed("bessel.tail-sums", lambda: _bounds_check(_tail_sums(), "tail sums within their closed-form bounds")),
        _timed("bessel.wronskian", wronskian),
        _timed("bessel.half-integer", half_integer),
    ]


# ----------------------------------------------------------------------
# compatibility: zero-front limits vs the indicial kernel
# ----------------------------------------------------------------------

def _suite_compatibility(seed: int):
    results = []
    for c in (0.0, -0.24, 1.0):
        def check(c=c):
            spec = sphere_spectrum(3, c=c)
            y, yp = spec.cross_section.points_at_separation(1.0)
            rep = zf_compatibility_check(spec, 0.2, y, yp)
            want_rate = min(2.0, 2.0 * spec.mu0)
            ok = abs(rep.rate - want_rate) <= 0.15
            return ok, (
                f"rate {rep.rate:.3f} vs min(2, 2 mu0) = {want_rate:.3f}; "
                f"|ratio-1| at r'=1e-3: {rep.final_deviation:.2e}"
            )
        results.append(_timed(f"compatibility.rate[c={c}]", check))
    return results


# ----------------------------------------------------------------------
# boundary: decay exponents toward each face
# ----------------------------------------------------------------------

def _suite_boundary(seed: int):
    results = []
    for c in (0.0, -0.24, 1.0):
        def check(c=c):
            spec = sphere_spectrum(3, c=c)
            zf = boundary_order_probe(spec, "zf")
            lbz = boundary_order_probe(spec, "lbz")
            rbz = boundary_order_probe(spec, "rbz")
            want_zf, want_b = 2.0 - 3.0, 1.0 - 1.5 + spec.mu0
            ok = (
                abs(zf - want_zf) <= 0.05
                and abs(lbz - want_b) <= 0.05
                and abs(rbz - want_b) <= 0.05
            )
            return ok, (
                f"zf {zf:.4f} (want {want_zf}); lbz {lbz:.4f}, rbz {rbz:.4f} "
                f"(want {want_b:.4f})"
            )
        results.append(_timed(f"boundary.faces[c={c}]", check))

    def infinity():
        spec = sphere_spectrum(3)
        sl = boundary_order_probe(spec, "rbi")
        return sl < -20.0, f"rbi slope {sl:.1f} (exponential decay, want < -20)"

    results.append(_timed("boundary.rbi", infinity))
    return results


# ----------------------------------------------------------------------
# offdiag: Riesz kernel vs model envelopes
# ----------------------------------------------------------------------

def _suite_offdiag(seed: int):
    def run(region, model="general", c=-0.24):
        rep = offdiag_bound_check(sphere_spectrum(3, c=c), region, model)
        return not rep.grows, f"c_sup {rep.c_sup:.4g}, growth at the face g - 1 = {rep.growth - 1.0:.1e}"

    return [
        _timed("offdiag.far-right", lambda: run("far-right")),
        _timed("offdiag.far-left", lambda: run("far-left")),
        _timed("offdiag.zero-v-leading", lambda: run("far-right", "zero-v-leading", c=0.0)),
    ]


# ----------------------------------------------------------------------
# schur: exact norms and the model-interval identity
# ----------------------------------------------------------------------

def _suite_schur(seed: int):
    def spot():
        n = schur_norm(HomogeneousKernelSpec(3, 1.0, "upper"), 2.0)
        return math.isclose(n, 2.0, rel_tol=1e-14), f"d=3 alpha=1 upper at p=2: norm {n} (exact 2)"

    def duality():
        rng = random.Random(seed)
        worst = 0.0
        for _ in range(50):
            d = rng.choice((3, 4, 5, 7))
            alpha = rng.uniform(-1.0, d + 1.0)
            p = rng.uniform(1.05, 20.0)
            up = schur_norm(HomogeneousKernelSpec(d, alpha, "upper"), p)
            lo = schur_norm(HomogeneousKernelSpec(d, d - alpha, "lower"), p / (p - 1.0))
            if math.isinf(up) != math.isinf(lo):
                return False, f"duality broken at d={d} alpha={alpha} p={p}"
            if math.isfinite(up):
                worst = max(worst, abs(up - lo) / up)
        return worst < 1e-10, f"adjoint symmetry over 50 random kernels: worst rel dev {worst:.2e}"

    def identity():
        rng = random.Random(seed + 1)
        for _ in range(100):
            d = rng.choice((3, 4, 5, 6, 9))
            mu0 = rng.uniform(0.0, d)
            if riesz_model_intervals(d, mu0) != threshold_interval(d, mu0):
                return False, f"mismatch at d={d} mu0={mu0}"
        return True, "model-implied intervals == threshold intervals at 100 random (d, mu0)"

    return [
        _timed("schur.spot-norm", spot),
        _timed("schur.duality", duality),
        _timed("schur.model-interval-identity", identity),
    ]


# ----------------------------------------------------------------------
# thresholds: spot values, sign ordering, monotonicity
# ----------------------------------------------------------------------

def _suite_thresholds(seed: int):
    def spots():
        a = threshold_interval_constant(4, -1)
        b = threshold_interval_zero_v(3, 1.5)
        c = threshold_interval_constant(3, -0.24)
        ok = (
            math.isclose(a.p_lo, 4.0 / 3.0) and a.p_hi == 2.0
            and b.p_lo == 1.0 and b.p_hi == math.inf
            and math.isclose(c.p_lo, 3.0 / 2.6) and math.isclose(c.p_hi, 3.0 / 1.4)
        )
        return ok, (
            f"(4,-1)->({a.p_lo:.6g},{a.p_hi:.6g}); zero-V d=3->(1,inf); "
            f"(3,-0.24)->({c.p_lo:.6g},{c.p_hi:.6g})"
        )

    def ordering():
        for d in (3, 4, 5, 8):
            q = _mu0_squared(d, 0.0)  # c > -q
            for c in np.linspace(-0.95 * q, -0.05 * q, 7):
                iv = threshold_interval_constant(d, float(c))
                if not (1.0 < iv.p_lo < 2.0 < iv.p_hi < d):
                    return False, f"c<0 ordering broken at d={d} c={c}: ({iv.p_lo}, {iv.p_hi})"
            for c in (0.3, 1.0, 4.0):
                iv = threshold_interval_constant(d, c)
                if not (iv.p_lo == 1.0 and iv.p_hi > d):
                    return False, f"c>0 ordering broken at d={d} c={c}: ({iv.p_lo}, {iv.p_hi})"
        return True, "c<0: 1<p_lo<2<p_hi<d; c>0: p_lo=1, p_hi>d (d in {3,4,5,8})"

    def monotone():
        d = 5
        mus = np.linspace(0.0, 0.5 * d, 41)
        ivs = [threshold_interval(d, float(m)) for m in mus]
        los = [iv.p_lo for iv in ivs]
        his = [iv.p_hi for iv in ivs]
        if any(b > a for a, b in zip(los, los[1:])):
            return False, "p_lo not non-increasing in mu0"
        if any(b < a for a, b in zip(his, his[1:])):
            return False, "p_hi not non-decreasing in mu0"
        sat = threshold_interval(d, 0.5 * d - 1.0)
        if sat.p_lo != 1.0:
            return False, f"p_lo saturation at mu0 = d/2-1 gives {sat.p_lo}"
        if threshold_interval(d, 0.5 * d).p_hi != math.inf:
            return False, "p_hi not infinite at mu0 = d/2"
        return True, "monotone endpoints; p_lo saturates to 1 exactly at mu0 = d/2 - 1"

    return [
        _timed("thresholds.spot-values", spots),
        _timed("thresholds.sign-ordering", ordering),
        _timed("thresholds.monotonicity", monotone),
    ]


SUITES = {
    "euclid": _suite_euclid,
    "bessel": _suite_bessel,
    "compatibility": _suite_compatibility,
    "boundary": _suite_boundary,
    "offdiag": _suite_offdiag,
    "schur": _suite_schur,
    "thresholds": _suite_thresholds,
}


def run_suite(name: str, seed: int = 1234) -> SuiteReport:
    """Run one named suite (or "all") and collect its check results."""
    if name != "all" and name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {('all', *SUITES)}")
    keys = SUITES if name == "all" else [name]
    return SuiteReport(name, tuple(result for key in keys for result in SUITES[key](seed)))
