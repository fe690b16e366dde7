"""Riesz transform kernel and L^p boundedness thresholds on metric cones.

The Riesz transform of H = Delta + V0/r^2 is realized through the
spectral identity

    T = grad H^{-1/2} = (2/pi) * integral_0^inf grad_z G_lambda dlambda,

evaluated componentwise (radial, angular).  For r != r' each mode is
integrated over lambda exactly: with s = r_</r_> < 1,

    int_0^inf I_mu(lam r_<) K_mu(lam r_>) dlam
        = sqrt(pi) Gamma(mu+1/2) / (2 r_> Gamma(mu+1)) s^mu 2F1(mu+1/2, 1/2; mu+1; s^2)
        = Q_{mu-1/2}((r^2 + r'^2) / (2 r r')) / (2 sqrt(r r'))

(Gradshteyn-Ryzhik 6.576.5; the Legendre form is the one in which
H.-Q. Li, J. Funct. Anal. 168 (1999), writes the cone's H^{-1/2} kernel).
So T is (2/pi) times the gradient of (r r')^{1-d/2} sum_j pair_j
F_{mu_j}(r_<, r_>), one chunked log-space pass over the modes
(:func:`conekit.bessel.log_ik_integrals`, summed by the resolvent's
series pass with its rigorous tails and stop rule).  At r = r' each
mode's integral diverges like log(1 - s^2).  There the lambda-integral is
taken inside the cone heat kernel instead, H^{-1/2} = pi^{-1/2}
int_0^inf tau^{-1/2} e^{-tau H} dtau, by the same trapezoid rule in
log tau as the resolvent at r = r' (see "On the diagonal" in
:mod:`conekit.resolvent`): the radial component is -(d-1)/(2r) times the
H^{-1/2} kernel, which is homogeneous of degree 1 - d, and the angular one
that kernel's derivative along the cross-section.

The exact L^p boundedness interval of T is determined by the bottom of
the cross-sectional spectrum.  With mu0 = sqrt(lambda_0(V0) + (d-2)^2/4)
(and mu1 its analogue for the second mode when V0 == 0):

    general V0:   ( d / min(d/2 + 1 + mu0, d),  d / max(d/2 - mu0, 0) )
    V0 == 0:      ( 1,                          d / max(d/2 - mu1, 0) )

with d/0 read as infinity.  Both endpoints are excluded: boundedness
fails at p_lo and p_hi themselves.  For constant V0 = c the general
formula applies with mu0 = sqrt(c + (d-2)^2/4), and when c and d make
that a rational number the endpoints are returned as exact fractions.

Off-diagonal decay of the kernel is checked against the model bounds

    |T(z, z')| <= C (r/r')^{mu0 - d/2} r'^{-d}        (r <= r'/4)
    |T(z, z')| <= C (r'/r)^{mu0 - d/2 + 1} r^{-d}     (r' <= r/4)

whose exponents are exactly what the threshold formulas integrate; the
L^p check module turns them into the same interval by Schur tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bessel import _ldexp
from .config import DEFAULTS
from .errors import DomainError, PositivityError, UnsupportedError
from .geometry import ConePoint, check_dimension
from .resolvent import _check_rel_tol, _prepare_series
from .spectrum import CrossSectionSpectrum, _mu0_squared, leading_modes

__all__ = [
    "PInterval",
    "threshold_interval",
    "threshold_interval_zero_v",
    "threshold_interval_constant",
    "L2Bound",
    "l2_bound_constant",
    "RieszKernelValue",
    "riesz_kernel",
    "OffdiagReport",
    "offdiag_envelope",
    "offdiag_bound_check",
]

_BASES = ("general-V", "zero-V", "constant-c")


@dataclass(frozen=True)
class PInterval:
    """Open interval (p_lo, p_hi) of L^p boundedness.

    Both endpoints are excluded.  ``basis`` records which threshold
    formula produced it.  When the endpoints are exactly rational the
    ``*_exact`` fields carry them as fractions (p_hi_exact is None when
    the upper endpoint is infinite or irrational).
    """

    p_lo: float
    p_hi: float
    basis: str
    p_lo_exact: Fraction | None = None
    p_hi_exact: Fraction | None = None

    def __post_init__(self):
        if self.basis not in _BASES:
            raise DomainError(f"basis must be one of {_BASES}, got {self.basis!r}")
        if not (1.0 <= self.p_lo < 2.0 <= self.p_hi):
            raise DomainError(
                f"threshold interval must satisfy 1 <= p_lo < 2 <= p_hi "
                f"(p_hi = 2 only in the critical case mu0 = 0), "
                f"got ({self.p_lo}, {self.p_hi})"
            )

    def contains(self, p: float) -> bool:
        """Open-interval membership: boundedness fails at the endpoints."""
        return self.p_lo < p < self.p_hi


def _endpoints(d: int, mu):
    """(d / min(d/2 + 1 + mu, d), d / (d/2 - mu)) in mu's number type, Fraction or float.

    The upper endpoint is None when d/2 - mu <= 0, where it is infinite.
    """
    d = Fraction(d) if isinstance(mu, Fraction) else float(d)
    half = d / 2
    return d / min(half + 1 + mu, d), (d / (half - mu) if half - mu > 0 else None)


def _interval_from_mu(d: int, mu: float, basis: str, mu_exact: Fraction | None = None):
    """Endpoints from one bottom-mode exponent; exact fractions too when mu is rational."""
    p_lo, p_hi = _endpoints(d, mu if mu_exact is None else mu_exact)
    exact = (None, None) if mu_exact is None else (p_lo, p_hi)
    return PInterval(float(p_lo), math.inf if p_hi is None else float(p_hi), basis, *exact)


def threshold_interval(d: int, mu0: float) -> PInterval:
    """Exact L^p interval of the Riesz transform for a general potential.

    ``mu0`` is the bottom exponent sqrt(lambda_0(L_Y)) of the shifted
    cross-sectional operator.  Operator positivity means mu0 > 0; the
    critical value mu0 = 0 is accepted as the continuous limit of the
    formula (the interval degenerates to upper endpoint 2) even though
    kernel evaluation is impossible there.
    """
    d = check_dimension(d)
    mu0 = float(mu0)
    if not math.isfinite(mu0) or mu0 < 0.0:
        raise PositivityError(f"bottom exponent mu0 must be >= 0, got {mu0!r}")
    return _interval_from_mu(d, mu0, "general-V")


def threshold_interval_zero_v(d: int, mu1: float) -> PInterval:
    """Exact L^p interval when V0 == 0: lower endpoint 1, upper set by mu1.

    ``mu1`` is the exponent of the *second* cross-sectional mode (the
    first is the constant eigenfunction with mu = d/2 - 1).
    """
    d = check_dimension(d)
    mu1 = float(mu1)
    if not math.isfinite(mu1) or mu1 <= 0.5 * d - 1.0:
        raise DomainError(
            f"second exponent mu1 must exceed d/2 - 1 = {0.5 * d - 1.0}, got {mu1!r}"
        )
    p_hi = _endpoints(d, mu1)[1]
    return PInterval(1.0, math.inf if p_hi is None else p_hi, "zero-V", Fraction(1), None)


def _exact_mu(d: int, c) -> Fraction | None:
    """sqrt(c + (d-2)^2/4) as an exact Fraction, when it is one."""
    if isinstance(c, float):
        if not c.is_integer():
            return None
        c = int(c)
    try:
        c_frac = Fraction(c)
    except (TypeError, ValueError):
        return None
    val = _mu0_squared(d, c_frac)
    if val < 0:
        return None
    num, den = val.numerator, val.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def threshold_interval_constant(d: int, c) -> PInterval:
    """Exact L^p interval for constant potential V0 = c (c != 0).

    Applies the general formula at mu0 = sqrt(c + (d-2)^2/4); when that
    is rational the endpoints come out as exact fractions.  c = 0 is the
    zero-potential case, which obeys the better zero-V formula: use
    :func:`threshold_interval_zero_v` for it.
    """
    d = check_dimension(d)
    c_float = float(c)
    if not math.isfinite(c_float):
        raise DomainError(f"constant potential c must be finite, got {c!r}")
    if c_float == 0.0:
        raise DomainError(
            "c = 0 is the zero-potential case; use threshold_interval_zero_v"
        )
    shifted = _mu0_squared(d, c_float)
    if shifted < 0.0:
        raise PositivityError(
            f"c + (d-2)^2/4 = {shifted} must be >= 0 (operator positivity; "
            f"= 0 is the critical case)"
        )
    return _interval_from_mu(d, math.sqrt(shifted), "constant-c", _exact_mu(d, c))


@dataclass(frozen=True)
class L2Bound:
    """Operator bound ||grad H^{-1/2}||_{L^2} <= bound via Hardy absorption.

    For constant V0 = c < 0, epsilon is the largest number with
    c/(1 - epsilon) + (d-2)^2/4 >= 0, i.e. epsilon = mu0^2 / (mu0^2 - c),
    and the bound is epsilon^{-1/2}.  For c >= 0 no absorption is needed
    and the bound is 1.
    """

    epsilon: float
    bound: float
    c: float
    mu0: float


def l2_bound_constant(spectrum: CrossSectionSpectrum) -> L2Bound:
    """L^2 norm bound of the Riesz transform for a constant potential.

    Spectra without a recorded constant potential are rejected.
    """
    if spectrum.v0_constant is None:
        raise UnsupportedError(
            "L^2 bound requires a constant potential; this spectrum does not record one"
        )
    c = float(spectrum.v0_constant)
    d = spectrum.d
    mu0_sq = _mu0_squared(d, c)
    if mu0_sq <= 0.0:
        raise PositivityError(f"c + (d-2)^2/4 = {mu0_sq} must be > 0")
    mu0 = math.sqrt(mu0_sq)
    if c >= 0.0:
        return L2Bound(epsilon=1.0, bound=1.0, c=c, mu0=mu0)
    eps = mu0_sq / (mu0_sq - c)
    return L2Bound(epsilon=eps, bound=eps ** -0.5, c=c, mu0=mu0)


@dataclass(frozen=True)
class RieszKernelValue:
    """One Riesz kernel evaluation T(z, z') = (2/pi) int grad_z G_lambda.

    ``d_r`` and ``angular`` are the two gradient components (see
    :class:`conekit.resolvent.GradientValue`).  ``quad_error_est`` bounds
    the summed error |d_r error| + |angular error|:

    * r != r' (``tail_kind`` "rigorous"): the rigorous remainder of both
      mode series, plus their rounding estimate where it matters (as a
      resolvent value's ``tail_bound``).  The stop rule reads these two
      components alone: it fires once each remainder is below rel_tol / 2
      of |T|.  ``certified`` means it fired, and then
      ``quad_error_est <= rel_tol * magnitude``.
    * r = r' (``"quadrature"``, never certified): the heat kernel's tau
      rule, refined until its two finest grids agree to rel_tol / 2 of |T|
      in each component (or within what no finer grid reduces); the
      estimate adds their difference, rounding, and the flat heat
      kernel's bound where nodes need modes past the table.  It is not a
      proof.

    ``modes_used`` counts the modes summed (at r = r', the most any tau
    node summed).
    """

    d_r: float
    angular: float
    quad_error_est: float
    certified: bool
    tail_kind: str
    modes_used: int

    @property
    def magnitude(self) -> float:
        return math.hypot(self.d_r, self.angular)


def riesz_kernel(
    spectrum: CrossSectionSpectrum,
    z: ConePoint,
    zp: ConePoint,
    rel_tol: float = DEFAULTS.riesz_rel_tol,
) -> RieszKernelValue:
    """Evaluate the Riesz transform kernel at (z, z'), componentwise.

    For r != r' each mode's lambda-integral is summed in closed form (see
    the module docstring), stopping where the rigorous remainders of the
    radial and angular components are each below rel_tol / 2 of |T|; the
    scalar H^{-1/2} series is not summed.  At r = r' the value comes from
    the cone heat kernel, its tau rule refined until two grids agree to
    rel_tol / 2 of |T| in each component.
    """
    d_r, angular = _prepare_series(spectrum, z, zp, True, None, 0.5 * _check_rel_tol(rel_tol), "riemannian")
    # 2/pi scales each mantissa before its 2**exp2, since it may bring a
    # value just past float range back into it.
    scale = 2.0 / math.pi
    return RieszKernelValue(
        d_r=_ldexp(scale * d_r.value, d_r.exp2),
        angular=_ldexp(scale * angular.value, angular.exp2),
        quad_error_est=scale * (d_r.float_tail_bound() + angular.float_tail_bound()),
        certified=d_r.certified and angular.certified,
        tail_kind=d_r.tail_kind,
        modes_used=d_r.modes_used,
    )


_REGIONS = ("far-right", "far-left")
_MODELS = ("general", "zero-v-leading")


def offdiag_envelope(d: int, mu0: float, region: str, r: float, rp: float,
                     model: str = "general") -> float:
    """Model envelope of |T(z, z')| in one off-diagonal region.

    The ``general`` envelopes are the two model bounds in the module
    docstring; ``zero-v-leading`` is the far-right envelope r * r'^{-1-d}
    of a zero-potential cone's bottom-mode subkernel.
    """
    if model == "zero-v-leading":
        return r * rp ** (-1.0 - d)
    if region == "far-right":
        return (r / rp) ** (mu0 - 0.5 * d) * rp ** (-float(d))
    return (rp / r) ** (mu0 - 0.5 * d + 1.0) * r ** (-float(d))


@dataclass(frozen=True)
class OffdiagReport:
    """Riesz kernel magnitudes against an off-diagonal model bound.

    ``ratios[i] = magnitudes[i] / model_values[i]``; the check passes
    when the ratios stay bounded (``c_sup`` finite) and stable under
    grid refinement.  ``region`` says which side of the diagonal was
    probed and ``model`` which envelope was used.
    """

    region: str
    model: str
    rprimes: tuple
    r_values: tuple
    magnitudes: tuple
    model_values: tuple
    ratios: tuple

    @property
    def c_sup(self) -> float:
        return max(self.ratios)

    @property
    def c_min(self) -> float:
        return min(self.ratios)


def offdiag_bound_check(
    spectrum: CrossSectionSpectrum,
    region: str = "far-right",
    model: str = "general",
    rprimes=None,
) -> OffdiagReport:
    """Probe the Riesz kernel against its off-diagonal model envelope.

    ``far-right`` walks r' over a grid (by default 7 points from 1 to 8)
    with r = r'/8 (kernel point far inside); ``far-left`` mirrors it with
    r = 8 r'.  The kernel is taken at cross-section separation 0.7 with
    rel_tol 1e-4.  The ``zero-v-leading`` model applies to the bottom-mode
    subkernel of a zero-potential cone, whose leading term cancels in the
    gradient and improves the far-right envelope to r * r'^{-1-d}.
    """
    if region not in _REGIONS:
        raise DomainError(f"region must be one of {_REGIONS}, got {region!r}")
    if model not in _MODELS:
        raise DomainError(f"model must be one of {_MODELS}, got {model!r}")
    if rprimes is None:
        rprimes = np.geomspace(1.0, 8.0, 7)
    rprimes = tuple(float(v) for v in rprimes)
    d, mu0 = spectrum.d, spectrum.mu0

    if model == "zero-v-leading":
        if region != "far-right":
            raise DomainError("the zero-v-leading model applies to the far-right region only")
        if abs(mu0 - (0.5 * d - 1.0)) > 1e-12:
            raise DomainError(
                "the zero-v-leading model needs the constant bottom mode mu0 = d/2 - 1 "
                f"(zero potential); this spectrum has mu0 = {mu0}"
            )
        spectrum = leading_modes(spectrum, 1)

    y, yp = spectrum.cross_section.points_at_separation(0.7)
    r_values, mags, models = [], [], []
    for rp_val in rprimes:
        r_val = 0.125 * rp_val if region == "far-right" else rp_val / 0.125
        z, zp_ = ConePoint(r_val, y), ConePoint(rp_val, yp)
        env = offdiag_envelope(d, mu0, region, r_val, rp_val, model)
        kv = riesz_kernel(spectrum, z, zp_, rel_tol=1e-4)
        r_values.append(r_val)
        mags.append(kv.magnitude)
        models.append(env)
    ratios = tuple(m / e for m, e in zip(mags, models))
    return OffdiagReport(
        region=region,
        model=model,
        rprimes=rprimes,
        r_values=tuple(r_values),
        magnitudes=tuple(mags),
        model_values=tuple(models),
        ratios=ratios,
    )
