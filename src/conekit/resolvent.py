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
after any number of terms: a reversed ``np.logaddexp.accumulate`` of the
log weights, seeded with ``tail_profile.sum_beyond``, one row per tail
kind in use.  A result is *certified* when s <= 1/4 (so
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

Evaluation
----------
One numpy pass covers the whole mode table.  The spectrum's
``pair_values`` gives every pair_j (and its derivative) from one
cross-section distance; :func:`conekit.bessel.log_scaled` gives
L_j = log(I_mu(a) e^{-a}) + log(K_mu(b) e^{b}) for every order.  Each
term is pair_j * exp(L_j - max L), a signed log-sum-exp whose common
factor e^{max L + a - b} and gauge factor are applied once, when the
result is packed.  Partial sums are one ``np.cumsum``.  The stop index is
the first at which the remainder is below ``rel_tol`` times the partial
sum in every component (rigorous), or which ends ``heuristic_run``
consecutive terms below ``rel_tol/10`` of their partial sums (Cauchy);
the value is the partial sum there.  The radial derivative with z inner
uses beta I_mu + lam I'_mu = lam I_{mu+1} + ((mu - (d-2)/2)/r) I_mu,
so the two 1/r parts cancel in closed form, not in rounding at tiny r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import log_scaled, split_log
from .config import DEFAULTS
from .errors import DomainError
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
_LN2 = math.log(2.0)


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


def _suffix_logs(spectrum, s, n_kinds):
    """log of the suffix sums of per-mode tail bounds, one row per tail kind.

    Rows are the first ``n_kinds`` kinds in ``_TAIL_KINDS`` order (kernel,
    radial-derivative and angular terms), each weight
    :meth:`TailProfile.weights` times s^mu.  Entry j of a row bounds the
    contribution of modes j, j+1, ... plus everything beyond the table
    cutoff (the last entry is that beyond-cutoff sum alone, from one
    ``sum_beyond`` call for every kind).
    """
    mu, log_weights = spectrum.mode_table
    log_w = np.empty((n_kinds, mu.size + 1))
    log_w[:, :-1] = log_weights[:n_kinds] + mu * math.log(s)
    log_w[:, -1] = [math.log(b) if b > 0.0 else -math.inf
                    for b in spectrum.tail_profile.sum_beyond(s, mu[-1])[:n_kinds]]
    return np.logaddexp.accumulate(log_w[:, ::-1], axis=1)[:, ::-1]


def _pack(total, log_scale, log_tail, modes_used, certified, gauge, tail_kind) -> KernelValue:
    """KernelValue for the sum ``total * e^log_scale`` with the tail e^log_tail."""
    if total == 0.0:
        return KernelValue(0.0, math.exp(log_tail), modes_used, 0, certified, gauge, tail_kind)
    m, e = split_log(math.log(abs(total)) + log_scale)
    return KernelValue(math.copysign(m, total), math.exp(log_tail - e * _LN2), modes_used, e,
                       certified, gauge, tail_kind)


def _prepare_series(spec: CrossSectionSpectrum, z: ConePoint, zp: ConePoint, need_grad: bool):
    """Do the lambda-independent half of the series at (z, z') once; return its evaluator.

    That half is the cross-section distance, the pair values, s and the
    rigorous tail tables.  ``evaluate(lam, rel_tol, gauge)`` returns the
    kernel's KernelValue, or with ``need_grad`` the list [kernel, d_r, angular].
    """
    cs = spec.cross_section
    if cs is None:
        raise DomainError("spectrum carries no cross-section; kernel evaluation needs one")
    gamma = cs.distance(z.y, zp.y)
    pair, grad = spec.pair_values(z.y, zp.y, gamma)
    r, rp = z.r, zp.r
    z_small = r <= rp  # at r == r' the radial derivative is one-sided (z inner)
    a_r, b_r = (r, rp) if z_small else (rp, r)
    s = a_r / b_r
    if s == 1.0 and gamma == 0.0:
        raise DomainError("resolvent kernel is singular on the diagonal z = z'")
    ang_exact_zero = need_grad and gamma == 0.0  # parity: every mode is even at zero separation
    beta_r = (1.0 - 0.5 * spec.d) / r
    mu = spec.mode_table[0]
    n = len(mu)

    rigorous = s < 1.0 and (spec.grad_certifiable if need_grad else spec.certifiable)
    if rigorous:  # the suffix tables of the tail kinds in use: kernel, radial, angular
        suf = _suffix_logs(spec, s, 3 if need_grad else 1)
        suf_k = suf[0]
        if need_grad:
            suf_p, suf_g = suf[1], suf[2] - math.log(r)

    def evaluate(lam: float, rel_tol: float, gauge: str):
        a, b = lam * a_r, lam * b_r
        # Each component is (terms, log scale): term j times e^scale is the
        # j-th series term.  The scale is the max shift plus the factor e^{a-b}
        # that the exponentially scaled Bessel logs leave out.
        log_i = log_scaled("i", mu, a)[0]
        log_k, log_dk, _, _ = log_scaled("k", mu, b, need_grad and not z_small)
        log_ik = log_i + log_k
        shift = log_ik.max()
        ik = np.exp(log_ik - shift)
        comps = [(pair * ik, shift + a - b)]
        if need_grad:
            # Radial factor coef_ik * I K + coef_1 * e^{log_1}.  With z inner,
            # beta_r I + lam I' = lam I_{mu+1} + ((mu - (d-2)/2)/r) I_mu: the two
            # 1/r parts cancel in closed form instead of in rounding.  With z
            # outer, beta_r K and lam K' have the same sign.
            if z_small:
                log_1 = log_scaled("i", mu + 1.0, a)[0] + log_k
                coef_ik, coef_1 = (mu - 0.5 * (spec.d - 2)) / r, lam
            else:
                log_1 = log_i + log_dk
                coef_ik, coef_1 = beta_r, -lam
            shift_r = max(shift, log_1.max())
            d_terms = coef_ik * np.exp(log_ik - shift_r) + coef_1 * np.exp(log_1 - shift_r)
            comps.append((pair * d_terms, shift_r + a - b))
            if not ang_exact_zero:
                comps.append((grad / r * ik, shift + a - b))
        sums = [np.cumsum(terms) for terms, _ in comps]

        if rigorous:
            tails = [suf_k]
            if need_grad:
                # radial tail = |1-d/2|/r * suf_k + lam * deriv_factor * suf_p
                deriv_factor = (1.0 / (2.0 * a) + a / (b * b)) if z_small else 1.0 / b
                tails.append(np.logaddexp(math.log(abs(beta_r)) + suf_k,
                                          math.log(lam * deriv_factor) + suf_p))
                if not ang_exact_zero:
                    tails.append(suf_g)
            # Stop at the first j whose remainder is below rel_tol * |partial sum|
            # in every component (0 <= 0 counts).
            log_rel_tol = math.log(rel_tol)
            with np.errstate(divide="ignore"):
                ok = np.logical_and.reduce([
                    tail[1:] <= log_rel_tol + np.log(np.abs(total)) + scale
                    for tail, total, (_, scale) in zip(tails, sums, comps)
                ])
            stopped = bool(ok.any())
            used = int(ok.argmax()) + 1 if stopped else n
            log_tails = [tail[used] for tail in tails]
        else:
            # Cauchy heuristic: stop after heuristic_run consecutive terms below
            # rel_tol/10 of their partial sums, in every component, and after at
            # least two terms.
            run = DEFAULTS.heuristic_run
            small = np.logical_and.reduce([
                np.abs(terms) <= 0.1 * rel_tol * np.abs(total)
                for (terms, _), total in zip(comps, sums)
            ])
            hit = np.convolve(small.astype(int), np.ones(run, dtype=int))[:n] >= run
            hit[0] = False
            stopped = bool(hit.any())
            used = int(hit.argmax()) + 1 if stopped else n
            # Extrapolation: three times the sum of the last few |terms|.
            with np.errstate(divide="ignore"):
                log_tails = [float(np.log(3.0 * np.abs(terms[max(0, used - run):used]).sum())) + scale
                             for terms, scale in comps]

        certified = rigorous and stopped and s <= DEFAULTS.certified_ratio
        tail_kind = "rigorous" if rigorous else "cauchy"
        log_gauge = gauge_log_factor(spec.d, r, rp, gauge)
        outs = [
            _pack(float(total[used - 1]), scale + log_gauge, float(log_tail) + log_gauge, used,
                  certified, gauge, tail_kind)
            for total, (_, scale), log_tail in zip(sums, comps, log_tails)
        ]
        if not need_grad:
            return outs[0]
        if ang_exact_zero:
            outs.append(KernelValue(0.0, 0.0, used, 0, True, gauge, "exact"))
        return outs

    return evaluate


def resolvent_kernel(request: ResolventRequest) -> KernelValue:
    """Evaluate G_lambda(z, z') with a truncation-error bound.

    Certified results satisfy tail_bound <= rel_tol * |value| with a
    rigorous bound; see the module docstring for the regime map.
    """
    return _prepare_series(request.spectrum, request.z, request.zp, need_grad=False)(
        request.lam, request.rel_tol, request.density_gauge)


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
    _, out_r, out_a = _prepare_series(request.spectrum, request.z, request.zp, need_grad=True)(
        request.lam, request.rel_tol, request.density_gauge)
    return GradientValue(d_r=out_r, angular=out_a)


def indicial_kernel(spectrum: CrossSectionSpectrum, s: float, y, yp) -> float:
    """Zero-front limit kernel: (1/2) sum_j pair_j(y,y') t^{mu_j} / mu_j.

    ``t = min(s, 1/s)`` makes the expression symmetric under s -> 1/s,
    matching the two zero-boundary faces.  Singular at s = 1.  Accuracy
    is set by the mode-table cutoff: the neglected remainder is of order
    t^{mu_cutoff}, negligible for t <= 1/4 and degrading as t -> 1
    (build the spectrum with a larger ``mu_cutoff`` if needed there).
    """
    pair, _ = spectrum.pair_values(y, yp)
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"radial ratio s must be finite and > 0, got {s!r}")
    if s == 1.0:
        raise DomainError("indicial kernel is singular at s = 1")
    mu = spectrum.mode_table[0]
    return float(np.sum(pair * np.exp(mu * math.log(min(s, 1.0 / s))) / (2.0 * mu)))


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
