"""Resolvent kernel (H + lambda^2)^{-1} on a metric cone, with certified tails.

For H = Delta + V0(y)/r^2 acting on the d-dimensional cone over a
cross-section Y, separation of variables gives the Schwartz kernel

    G_lambda(z, z') = (r r')^{1 - d/2} * sum_j pair_j(y, y')
                        * I_{mu_j}(lambda r_<) K_{mu_j}(lambda r_>),

where r_< = min(r, r'), r_> = max(r, r'), pair_j is the eigenprojection
pair function of the j-th cross-sectional mode, and mu_j > 0 are the
shifted square-rooted eigenvalues.  The lambda prefactors of the exact
scaling identity G_lambda(z, z') = lambda^{d-2} G_1(lambda z, lambda z')
cancel against the gauge factor, so the series above is valid verbatim
for every lambda > 0.

Density gauges
--------------
``riemannian``
    The kernel against the Riemannian density r'^{d-1} dr' dy'.
``b-half``
    The same series without the (r r')^{1 - d/2} prefactor.  In this
    gauge the kernel extends continuously to the boundary faces at
    r = 0, which is what the zero-front compatibility check compares
    against the indicial kernel.

Truncation control
------------------
Let s = r_</r_> = a/b < 1.  Three elementary inequalities bound every
discarded term:

    I_mu(a) K_mu(b)      <= s^mu / (2 mu),
    I'_mu(a) K_mu(b)     <= s^mu (1/(2a) + a/b^2),
    I_mu(a) |K'_mu(b)|   <= s^mu / b.

The first is :func:`conekit.bessel.log_ik_bound`: I_mu(x)/x^mu increases,
so I_mu(a) <= s^mu I_mu(b), and Nicholson's formula gives
I_mu(b) K_mu(b) <= 1/(2 mu).  The other two are written inline below.
For the second, I'_mu = I_{mu+1} + (mu/a) I_mu; the (mu/a) I_mu piece is
bounded by the first inequality, and the I_{mu+1} piece by order-(mu+1)
monotonicity plus the Wronskian I_mu K_{mu+1} + I_{mu+1} K_mu = 1/b,
whose terms are all positive, so I_{mu+1}(b) K_mu(b) <= 1/b.  For the
third, |K'_mu| = (K_{mu-1} + K_{mu+1})/2 <= K_{mu+1}, since K increases
in |order| and |mu-1| <= mu+1; then I_mu(b) K_{mu+1}(b) <= 1/b by the
same Wronskian.

Summed against the mode-norm bounds ``pair_sup`` / ``grad_sup`` and the
spectrum's beyond-cutoff tail profile, they give a rigorous remainder
after any number of terms.  A result is *certified* when s <= 1/4 (so
the cutoff margin built into the mode table guarantees the target is
reachable) and the remainder fell below ``rel_tol * |value|``; the
``tail_bound`` field then satisfies that inequality by construction.
For 1/4 < s < 1 the same rigorous remainder is reported but the result
is not certified; at s = 1, or when the spectrum carries no sup bounds,
a Cauchy heuristic stops the sum and ``tail_bound`` is an extrapolation,
not a guarantee (``tail_kind == "cauchy"``).

``tail_bound`` covers series truncation only; the floating-point error
of the summed terms (~1e-13 relative, see the Bessel module) is not
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scaled import add2, from_log, log_of, mul2, norm2, to_float
from .bessel import bessel_i, bessel_i_with_dr, bessel_k, bessel_k_with_dr
from .config import DEFAULTS
from .errors import DomainError, NormsOnlyError
from .geometry import ConePoint
from .spectrum import CrossSectionSpectrum

__all__ = [
    "ResolventRequest",
    "KernelValue",
    "GradientValue",
    "resolvent_kernel",
    "resolvent_gradient",
    "gauge_log_factor",
    "indicial_kernel",
    "ZfCompatibilityReport",
    "zf_compatibility_check",
    "boundary_order_probe",
    "BOUNDARY_FACES",
]

_GAUGES = ("riemannian", "b-half")
_ZERO = (0.0, 0)


@dataclass(frozen=True)
class ResolventRequest:
    """One kernel evaluation: spectrum, endpoints, spectral parameter.

    ``lam`` is the lambda in (H + lambda^2)^{-1}; ``rel_tol`` the target
    relative truncation error (must lie in (0, 0.1]); ``density_gauge``
    selects the output density (see module docstring).
    """

    spectrum: CrossSectionSpectrum
    z: ConePoint
    zp: ConePoint
    lam: float = 1.0
    rel_tol: float = DEFAULTS.kernel_rel_tol
    density_gauge: str = "riemannian"

    def __post_init__(self):
        lam = float(self.lam)
        if not math.isfinite(lam) or lam <= 0.0:
            raise DomainError(f"spectral parameter lambda must be finite and > 0, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)
        rt = float(self.rel_tol)
        if not (0.0 < rt <= 0.1):
            raise DomainError(f"rel_tol must lie in (0, 0.1], got {self.rel_tol!r}")
        object.__setattr__(self, "rel_tol", rt)
        if self.density_gauge not in _GAUGES:
            raise DomainError(
                f"density_gauge must be one of {_GAUGES}, got {self.density_gauge!r}"
            )


@dataclass(frozen=True)
class KernelValue:
    """Result of one kernel (or kernel-component) evaluation.

    The numeric result is ``value * 2**exp2``; ``exp2`` is nonzero only
    when the plain float would leave double range.  ``tail_bound`` is an
    absolute truncation bound on the same ``2**exp2`` scale as ``value``.
    ``certified`` means the bound is rigorous and met the requested
    ``rel_tol``; ``tail_kind`` records how it was obtained ("rigorous",
    "cauchy", or "exact" for identically-zero components).
    """

    value: float
    tail_bound: float
    modes_used: int
    exp2: int = 0
    certified: bool = False
    gauge: str = "riemannian"
    tail_kind: str = "rigorous"

    def float_value(self) -> float:
        """Plain float (may over/underflow when exp2 is extreme)."""
        return math.ldexp(self.value, self.exp2)

    def float_tail_bound(self) -> float:
        return math.ldexp(self.tail_bound, self.exp2)

    @property
    def log_abs(self) -> float:
        """log |value * 2**exp2|, safe at any scale."""
        if self.value == 0.0:
            return -math.inf
        return math.log(abs(self.value)) + self.exp2 * math.log(2.0)

    @property
    def rel_tail(self) -> float:
        if self.tail_bound == 0.0:
            return 0.0
        if self.value == 0.0:
            return math.inf
        return self.tail_bound / abs(self.value)


@dataclass(frozen=True)
class GradientValue:
    """Gradient components of the kernel in the first argument z.

    ``d_r`` is the radial derivative; ``angular`` is (1/r) times the
    derivative per unit cross-sectional arc length at y, taken in the
    direction of increasing separation from y'.  Together they give the
    full gradient magnitude |grad_z G|^2 = d_r^2 + angular^2.
    """

    d_r: KernelValue
    angular: KernelValue

    @property
    def modes_used(self) -> int:
        return self.d_r.modes_used


def gauge_log_factor(d: int, r: float, rp: float, density_gauge: str) -> float:
    """log of the density-gauge prefactor multiplying the mode series."""
    if density_gauge == "riemannian":
        return (1.0 - 0.5 * d) * (math.log(r) + math.log(rp))
    if density_gauge == "b-half":
        return 0.0
    raise DomainError(f"unknown density gauge {density_gauge!r}")


def _suffix_tables(spectrum, s, kinds):
    """Scaled-pair suffix sums of per-mode tail bounds, one list per kind.

    ``table[kind][j]`` bounds the contribution of modes j, j+1, ... plus
    everything beyond the table cutoff.  Kind weights:

    * ``pair_over_2mu``: pair_sup * s^mu / (2 mu)   (kernel terms)
    * ``pair``:          pair_sup * s^mu            (radial-derivative terms)
    * ``grad_over_2mu``: grad_sup * s^mu / (2 mu)   (angular terms)
    """
    modes = spectrum.modes
    n = len(modes)
    log_s = math.log(s)
    out = {}
    for kind in kinds:
        suf = [_ZERO] * (n + 1)
        beyond = spectrum.tail_profile.sum_beyond(s, modes[-1].mu, kind)
        suf[n] = norm2(beyond, 0)
        for j in range(n - 1, -1, -1):
            m = modes[j]
            sup = m.pair_sup if kind != "grad_over_2mu" else m.grad_sup
            if sup is not None and sup > 0.0:
                lt = math.log(sup) + m.mu * log_s
                if kind != "pair":
                    lt -= math.log(2.0 * m.mu)
                suf[j] = add2(suf[j + 1], from_log(lt))
            else:
                suf[j] = suf[j + 1]
        out[kind] = suf
    return out


def _below(tail, acc, log_rel_tol) -> bool:
    """tail <= rel_tol * |acc| in scaled arithmetic (0 <= 0 counts)."""
    return log_of(tail) <= log_rel_tol + log_of(acc)


def _pack(acc, tail, modes_used, certified, gauge, tail_kind) -> KernelValue:
    """Fold a scaled accumulator and its tail into a KernelValue."""
    m, e = acc
    tm, te = tail
    if m == 0.0:
        tail_f = to_float((tm, te)) if tm != 0.0 else 0.0
        return KernelValue(0.0, tail_f, modes_used, 0, certified, gauge, tail_kind)
    if abs(e) <= DEFAULTS.fold_exp2:
        val = math.ldexp(m, e)
        tail_f = math.ldexp(tm, te) if tm != 0.0 else 0.0
        return KernelValue(val, tail_f, modes_used, 0, certified, gauge, tail_kind)
    tail_f = math.ldexp(tm, te - e) if tm != 0.0 else 0.0
    return KernelValue(m, tail_f, modes_used, e, certified, gauge, tail_kind)


def _eval_series(request: ResolventRequest, need_grad: bool):
    """Shared evaluation core for the kernel and its gradient."""
    spec = request.spectrum
    if spec.norms_only:
        raise NormsOnlyError(
            "spectrum carries mode norms only (no pair functions); "
            "kernel evaluation is impossible"
        )
    cs = spec.cross_section
    if cs is None:
        raise DomainError("spectrum carries no cross-section; kernel evaluation needs one")
    z, zp, lam, rel_tol = request.z, request.zp, request.lam, request.rel_tol
    gamma = cs.distance(z.y, zp.y)
    r, rp = z.r, zp.r
    z_small = r <= rp  # at r == r' the radial derivative is one-sided (z inner)
    a_r, b_r = (r, rp) if z_small else (rp, r)
    s = a_r / b_r
    if s == 1.0 and gamma == 0.0:
        raise DomainError("resolvent kernel is singular on the diagonal z = z'")
    a, b = lam * a_r, lam * b_r

    rigorous = (
        s < 1.0
        and spec.certifiable
        and (spec.grad_certifiable if need_grad else True)
    )
    ang_exact_zero = need_grad and gamma == 0.0  # parity: every mode is even at zero separation

    if rigorous:
        kinds = ["pair_over_2mu"]
        if need_grad:
            kinds.append("pair")
            if not ang_exact_zero:
                kinds.append("grad_over_2mu")
        suf = _suffix_tables(spec, s, kinds)
        suf_k = suf["pair_over_2mu"]
        suf_p = suf.get("pair")
        suf_g = suf.get("grad_over_2mu")
        # radial tail = |1-d/2|/r * suf_k + lam * deriv_factor * suf_p
        deriv_factor = (1.0 / (2.0 * a) + a / (b * b)) if z_small else 1.0 / b

    log_rel_tol = math.log(rel_tol)
    beta_r = (1.0 - 0.5 * spec.d) / z.r
    acc_k = acc_r = acc_a = _ZERO
    tail_k = tail_r = tail_a = None
    recent: list[tuple] = []  # |term| pairs for the Cauchy heuristic
    small_run = 0
    used = 0
    stopped = False

    for j, mode in enumerate(spec.modes):
        pe = mode.pair_eval(z.y, zp.y)
        if need_grad:
            ie, ide = bessel_i_with_dr(mode.mu, a)
            ke, kde = bessel_k_with_dr(mode.mu, b)
        else:
            ie, ke = bessel_i(mode.mu, a), bessel_k(mode.mu, b)
        ik = mul2((ie.value, ie.exp2), (ke.value, ke.exp2))
        t_k = mul2(norm2(pe, 0), ik)
        acc_k = add2(acc_k, t_k)
        mags = [norm2(abs(t_k[0]), t_k[1])]
        if need_grad:
            if z_small:
                d_core = mul2((ide.value, ide.exp2), (ke.value, ke.exp2))
            else:
                d_core = mul2((ie.value, ie.exp2), (kde.value, kde.exp2))
            t_r = add2(mul2(norm2(beta_r * pe, 0), ik), mul2(norm2(lam * pe, 0), d_core))
            acc_r = add2(acc_r, t_r)
            mags.append(norm2(abs(t_r[0]), t_r[1]))
            if not ang_exact_zero:
                ge = (
                    mode.grad_pair_eval(z.y, zp.y)
                    if mode.grad_pair_eval is not None
                    else 0.0
                )
                t_a = mul2(norm2(ge / z.r, 0), ik)
                acc_a = add2(acc_a, t_a)
                mags.append(norm2(abs(t_a[0]), t_a[1]))
        used = j + 1

        if rigorous:
            tail_k = suf_k[used]
            ok = _below(tail_k, acc_k, log_rel_tol)
            if need_grad:
                tail_r = add2(
                    mul2(norm2(abs(beta_r), 0), suf_k[used]),
                    mul2(norm2(lam * deriv_factor, 0), suf_p[used]),
                )
                ok = ok and _below(tail_r, acc_r, log_rel_tol)
                if not ang_exact_zero:
                    tail_a = mul2(norm2(1.0 / z.r, 0), suf_g[used])
                    ok = ok and _below(tail_a, acc_a, log_rel_tol)
            if ok:
                stopped = True
                break
        else:
            recent.append(mags)
            if len(recent) > DEFAULTS.heuristic_run:
                recent.pop(0)
            gate = log_rel_tol - math.log(10.0)
            term_small = all(
                log_of(mg) <= gate + log_of(acc)
                for mg, acc in zip(mags, (acc_k, acc_r, acc_a))
            )
            small_run = small_run + 1 if term_small else 0
            if small_run >= DEFAULTS.heuristic_run and used >= 2:
                stopped = True
                break

    if not rigorous:
        # Cauchy extrapolation: three times the sum of the last few |terms|.
        by_comp = list(zip(*recent)) if recent else []

        def _cauchy(idx):
            t = _ZERO
            for mg in by_comp[idx] if idx < len(by_comp) else ():
                t = add2(t, mg)
            return mul2(norm2(3.0, 0), t)

        tail_k = _cauchy(0)
        if need_grad:
            tail_r = _cauchy(1)
            tail_a = _cauchy(2)

    certified = (
        rigorous
        and stopped
        and s <= DEFAULTS.certified_ratio
    )
    tail_kind = "rigorous" if rigorous else "cauchy"
    log_gauge = gauge_log_factor(spec.d, r, rp, request.density_gauge)
    gfac = from_log(log_gauge)

    out_k = _pack(
        mul2(gfac, acc_k), mul2(gfac, tail_k), used, certified,
        request.density_gauge, tail_kind,
    )
    if not need_grad:
        return out_k

    out_r = _pack(
        mul2(gfac, acc_r), mul2(gfac, tail_r), used, certified,
        request.density_gauge, tail_kind,
    )
    if ang_exact_zero:
        out_a = KernelValue(0.0, 0.0, used, 0, True, request.density_gauge, "exact")
    else:
        out_a = _pack(
            mul2(gfac, acc_a), mul2(gfac, tail_a), used, certified,
            request.density_gauge, tail_kind,
        )
    return out_k, out_r, out_a


def resolvent_kernel(request: ResolventRequest) -> KernelValue:
    """Evaluate G_lambda(z, z') with a truncation-error bound.

    Certified results satisfy tail_bound <= rel_tol * |value| with a
    rigorous bound; see the module docstring for the regime map.
    """
    return _eval_series(request, need_grad=False)


def resolvent_gradient(request: ResolventRequest) -> GradientValue:
    """Gradient of G_lambda in the first argument z, componentwise.

    Defined in the riemannian gauge only: the b-half gauge removes the
    radial prefactor whose derivative the radial component tracks, so a
    b-half gradient would mix gauge and kernel variation.
    """
    if request.density_gauge != "riemannian":
        raise DomainError(
            "resolvent_gradient is defined for density_gauge='riemannian' only"
        )
    _, out_r, out_a = _eval_series(request, need_grad=True)
    return GradientValue(d_r=out_r, angular=out_a)


def indicial_kernel(spectrum: CrossSectionSpectrum, s: float, y, yp) -> float:
    """Zero-front limit kernel: (1/2) sum_j pair_j(y,y') t^{mu_j} / mu_j.

    ``t = min(s, 1/s)`` makes the expression symmetric under s -> 1/s,
    matching the two zero-boundary faces.  Singular at s = 1.  Accuracy
    is set by the mode-table cutoff: the neglected remainder is of order
    t^{mu_cutoff}, negligible for t <= 1/4 and degrading as t -> 1
    (build the spectrum with a larger ``mu_cutoff`` if needed there).
    """
    if spectrum.norms_only:
        raise NormsOnlyError("indicial kernel needs pair functions, not just norms")
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"radial ratio s must be finite and > 0, got {s!r}")
    if s == 1.0:
        raise DomainError("indicial kernel is singular at s = 1")
    t = min(s, 1.0 / s)
    log_t = math.log(t)
    total = 0.0
    for m in spectrum.modes:
        total += m.pair_eval(y, yp) * math.exp(m.mu * log_t) / (2.0 * m.mu)
    return total


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


def zf_compatibility_check(
    spectrum: CrossSectionSpectrum,
    s: float,
    y,
    yp,
    rprimes=None,
) -> ZfCompatibilityReport:
    """Check that the kernel's zero-front limit matches the indicial kernel."""
    s = float(s)
    if not (0.0 < s <= DEFAULTS.certified_ratio):
        raise DomainError(
            f"compatibility check runs in the certified region 0 < s <= "
            f"{DEFAULTS.certified_ratio}, got {s!r}"
        )
    if rprimes is None:
        rprimes = np.geomspace(1e-1, 1e-3, 9)
    rprimes = tuple(float(v) for v in rprimes)
    ind = indicial_kernel(spectrum, s, y, yp)
    if ind == 0.0:
        raise DomainError("indicial kernel vanishes at this (s, y, y'); ratio undefined")
    ratios = []
    for rp_val in rprimes:
        req = ResolventRequest(
            spectrum,
            ConePoint(s * rp_val, y),
            ConePoint(rp_val, yp),
            lam=1.0,
            rel_tol=1e-10,
            density_gauge="b-half",
        )
        ratios.append(resolvent_kernel(req).float_value() / ind)
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


BOUNDARY_FACES = ("zf", "lbz", "rbz", "rbi")


def boundary_order_probe(
    spectrum: CrossSectionSpectrum,
    face: str,
    s0: float = 0.1,
    separation: float = 0.7,
    r_base: float = 1.0,
    epsilons=None,
    lam: float = 1.0,
) -> float:
    """Fitted decay exponent of the riemannian kernel toward one boundary face.

    Faces (eps -> 0 along the probe grid):

    * ``zf``  - both radii to zero at fixed ratio: z = (eps s0 r_base, y),
      z' = (eps r_base, y'); expected slope 2 - d.
    * ``lbz`` - left radius to zero: z = (eps s0 r_base, y),
      z' = (r_base, y'); expected slope 1 - d/2 + mu0.
    * ``rbz`` - right radius to zero: z = (r_base, y),
      z' = (eps s0 r_base, y'); expected slope 1 - d/2 + mu0.
    * ``rbi`` - right radius to infinity: z = (s0 r_base, y),
      z' = (r_base / eps, y'); the slope against log(r') diverges to
      -infinity (exponential decay), so the fit returns a large negative
      number that keeps falling as the grid deepens.

    The slope is fitted on log|kernel| over the last four grid points.
    """
    if face not in BOUNDARY_FACES:
        raise DomainError(f"face must be one of {BOUNDARY_FACES}, got {face!r}")
    cs = spectrum.cross_section
    if cs is None:
        raise DomainError("spectrum carries no cross-section; probe needs one")
    y, yp = cs.points_at_separation(separation)
    if epsilons is None:
        epsilons = np.geomspace(1e-3, 1e-6, 7) if face != "rbi" else np.geomspace(1e-1, 5e-3, 7)
    eps = [float(v) for v in epsilons]

    xs, ls = [], []
    for e in eps:
        if face == "zf":
            z, zp_ = ConePoint(e * s0 * r_base, y), ConePoint(e * r_base, yp)
            x = math.log(e)
        elif face == "lbz":
            z, zp_ = ConePoint(e * s0 * r_base, y), ConePoint(r_base, yp)
            x = math.log(e)
        elif face == "rbz":
            z, zp_ = ConePoint(r_base, y), ConePoint(e * s0 * r_base, yp)
            x = math.log(e)
        else:  # rbi
            big = r_base / e
            z, zp_ = ConePoint(s0 * r_base, y), ConePoint(big, yp)
            x = math.log(big)
        req = ResolventRequest(spectrum, z, zp_, lam=lam, rel_tol=1e-9)
        ls.append(resolvent_kernel(req).log_abs)
        xs.append(x)
    return float(np.polyfit(xs[-4:], ls[-4:], 1)[0])
