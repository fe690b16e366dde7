"""L^p boundedness of the Riesz transform: thresholds, model kernels, Schur norms and probes.

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
(:func:`offdiag_bound_check`)

    |T(z, z')| <= C (r/r')^{mu0 - d/2} r'^{-d}        (far right, r <= r'/4)
    |T(z, z')| <= C (r'/r)^{mu0 - d/2 + 1} r^{-d}     (far left, r' <= r/4)

whose exponents are exactly what the threshold formulas integrate.  Both
are homogeneous triangle kernels on the half-line with the cone measure
r^{d-1} dr:

    k(r, r') = r^{-alpha} r'^{alpha - d}   supported on one side of r = r',

with alpha = d/2 - mu0 on the upper triangle (far right) and
alpha = d/2 + 1 + mu0 on the lower one (far left).  For these the L^p
operator norm is an exact one-line integral (power functions are
approximate eigenfunctions of scale-invariant operators):

    upper triangle (r <= r'):  norm = 1/(d/p - alpha)  iff d/p > alpha,
    lower triangle (r >= r'):  norm = 1/(alpha - d/p)  iff d/p < alpha,

and unbounded otherwise.  Feeding the two Riesz model exponents through
these conditions reproduces the threshold interval exactly
(:func:`riesz_model_intervals`), which is the structural cross-check
between the kernel estimates and the L^p thresholds.

:func:`lp_norm_probe` estimates operator norms numerically on nested
log grids [2^-k, 2^k] by power iteration for matrix p-norms, and turns
the trend across k into a verdict: ``stable`` (norms level off: bounded),
``growing`` (norms keep climbing monotonically: unbounded), or
``inconclusive``.  Near-threshold growth is logarithmically slow, so
detecting it needs deeper grids than the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, PositivityError, UnsupportedError
from .geometry import ConePoint, check_dimension
from .riesz import riesz_kernel
from .spectrum import CrossSectionSpectrum, _check_positivity, _mu0_squared, leading_modes

if TYPE_CHECKING:  # the exact endpoints import fractions where they are built
    from fractions import Fraction

__all__ = [
    "PInterval",
    "threshold_interval",
    "threshold_interval_zero_v",
    "threshold_interval_constant",
    "L2Bound",
    "l2_bound_constant",
    "HomogeneousKernelSpec",
    "schur_norm",
    "riesz_model_intervals",
    "OffdiagReport",
    "offdiag_envelope",
    "offdiag_bound_check",
    "NormProbeResult",
    "lp_norm_probe",
    "riesz_probe_kernel",
]

_BASES = ("general-V", "zero-V", "constant-c")
_REGIONS = ("upper", "lower")
_OFFDIAG_REGIONS = ("far-right", "far-left")  # the Riesz models' regions, upper and lower
_MODELS = ("general", "zero-v-leading")
_POWER_TOL, _POWER_ITER_CAP = 1e-6, 200  # power iteration: relative step tolerance, step cap
_PROBE_STABLE_RATIO, _PROBE_GROWTH_RATIO = 1.5, 4.0  # the verdict ratios (see NormProbeResult)


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
    d = type(mu)(d)
    half = d / 2
    return d / min(half + 1 + mu, d), (d / (half - mu) if half - mu > 0 else None)


def _interval_from_mu(d: int, mu: float, basis: str, mu_exact: Fraction | None = None):
    """Endpoints from one bottom-mode exponent; exact fractions too when mu is rational."""
    p_lo, p_hi = _endpoints(d, mu if mu_exact is None else mu_exact)
    exact = (None, None) if mu_exact is None else (p_lo, p_hi)
    return PInterval(float(p_lo), math.inf if p_hi is None else float(p_hi), basis, *exact)


def _check_mu0(mu0) -> float:
    """mu0 as a float; a PositivityError unless it is finite and >= 0."""
    mu0 = float(mu0)
    if not math.isfinite(mu0) or mu0 < 0.0:
        raise PositivityError(f"bottom exponent mu0 must be >= 0, got {mu0!r}")
    return mu0


def threshold_interval(d: int, mu0: float) -> PInterval:
    """Exact L^p interval of the Riesz transform for a general potential.

    ``mu0`` is the bottom exponent sqrt(lambda_0(L_Y)) of the shifted
    cross-sectional operator.  Operator positivity means mu0 > 0; the
    critical value mu0 = 0 is accepted as the continuous limit of the
    formula (the interval degenerates to upper endpoint 2) even though
    kernel evaluation is impossible there.
    """
    d = check_dimension(d)
    return _interval_from_mu(d, _check_mu0(mu0), "general-V")


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
    from fractions import Fraction

    p_hi = _endpoints(d, mu1)[1]
    return PInterval(1.0, math.inf if p_hi is None else p_hi, "zero-V", Fraction(1), None)


def _exact_mu(d: int, c) -> Fraction | None:
    """sqrt(c + (d-2)^2/4) as an exact Fraction, when it is one."""
    from fractions import Fraction

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
    mu0_sq = _check_positivity(d, c)
    mu0 = math.sqrt(mu0_sq)
    if c >= 0.0:
        return L2Bound(epsilon=1.0, bound=1.0, c=c, mu0=mu0)
    eps = mu0_sq / (mu0_sq - c)
    return L2Bound(epsilon=eps, bound=eps ** -0.5, c=c, mu0=mu0)


@dataclass(frozen=True)
class HomogeneousKernelSpec:
    """Triangle kernel r^{-alpha} r'^{alpha-d} on one side of the diagonal.

    ``region`` is "upper" for support {r <= r'} (matrix upper triangle,
    the far-right Riesz model shape) or "lower" for {r >= r'} (far-left
    shape).  Homogeneous of degree -d, so the induced operator commutes
    with dilations on L^p(r^{d-1} dr).
    """

    d: int
    alpha: float
    region: str

    def __post_init__(self):
        object.__setattr__(self, "d", check_dimension(self.d))
        if self.region not in _REGIONS:
            raise DomainError(f"region must be one of {_REGIONS}, got {self.region!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    def kernel(self, r: float, rp: float) -> float:
        """Pointwise kernel value (zero off the supporting triangle)."""
        if self.region == "upper":
            if r > rp:
                return 0.0
        elif r < rp:
            return 0.0
        return r ** (-self.alpha) * rp ** (self.alpha - self.d)


def schur_norm(spec: HomogeneousKernelSpec, p: float) -> float:
    """Exact L^p(r^{d-1} dr) operator norm; inf when unbounded.

    Substituting the scale-covariant family f(r) = r^{-d/p} reduces the
    operator to multiplication by the integral over the ratio t = r/r',
    which evaluates in closed form on either triangle.
    """
    p = float(p)
    if not (1.0 < p < math.inf):
        raise DomainError(f"p must lie in (1, inf), got {p!r}")
    gap = spec.d / p - spec.alpha
    if spec.region == "upper":
        return 1.0 / gap if gap > 0.0 else math.inf
    return -1.0 / gap if gap < 0.0 else math.inf


def _riesz_models(d: int, mu0: float) -> tuple[HomogeneousKernelSpec, HomogeneousKernelSpec]:
    """The far-right (upper, alpha = d/2 - mu0) and far-left (lower, alpha = d/2 + 1 + mu0) Riesz models."""
    return HomogeneousKernelSpec(d, 0.5 * d - mu0, "upper"), HomogeneousKernelSpec(d, 0.5 * d + 1.0 + mu0, "lower")


def riesz_model_intervals(d: int, mu0: float) -> PInterval:
    """L^p interval implied by the two off-diagonal Riesz model bounds.

    The far-right model is an upper-triangle kernel with
    alpha = d/2 - mu0 (bounded iff p < d/alpha), the far-left model a
    lower-triangle kernel with alpha = d/2 + 1 + mu0 (bounded iff
    p > d/alpha, clamped at 1).  The result coincides exactly with the
    threshold interval of :func:`threshold_interval`.
    """
    d = check_dimension(d)
    right, left = _riesz_models(d, _check_mu0(mu0))
    p_hi = math.inf if right.alpha <= 0.0 else d / right.alpha
    p_lo = max(1.0, d / left.alpha)
    return PInterval(p_lo, p_hi, "general-V")


def _offdiag_region(r: float, rp: float) -> str:
    """The off-diagonal region of (r, r'): far-right (r <= r'/4), far-left (r' <= r/4), else mid."""
    if r <= 0.25 * rp:
        return "far-right"
    if rp <= 0.25 * r:
        return "far-left"
    return "mid"


def offdiag_envelope(d: int, mu0: float, region: str, r: float, rp: float,
                     model: str = "general") -> float:
    """Model envelope of |T(z, z')| in one off-diagonal region.

    The ``general`` envelopes are the far-right and far-left Riesz model
    kernels of the module docstring; ``zero-v-leading`` is the far-right
    envelope r * r'^{-1-d} (alpha = -1) of a zero-potential cone's
    bottom-mode subkernel.
    """
    if region not in _OFFDIAG_REGIONS:
        raise DomainError(f"region must be one of {_OFFDIAG_REGIONS}, got {region!r}")
    if model == "zero-v-leading":
        return HomogeneousKernelSpec(d, -1.0, "upper").kernel(r, rp)
    return _riesz_models(d, mu0)[_OFFDIAG_REGIONS.index(region)].kernel(r, rp)


@dataclass(frozen=True)
class OffdiagReport:
    """Riesz kernel magnitudes against an off-diagonal model bound.

    ``ratios[i] = magnitudes[i] / model_values[i]``.  ``region`` says
    which side of the diagonal was probed and ``model`` which envelope
    was used.  |T| and the envelopes are homogeneous of degree -d, and
    every grid point has the same r/r', so the ratios agree to about 10
    digits: ``c_sup`` is the ratio at that one r/r', and a finer r' grid
    repeats it.  How the ratio moves toward the face is not measured
    here (on R^3 with c = -0.24, far-right, it rises to 22% above
    ``c_sup``).
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
    """The Riesz kernel against its off-diagonal model envelope at r/r' = 1/8 or 8.

    ``far-right`` walks r' over a grid (by default 7 points from 1 to 8)
    with r = r'/8 (kernel point far inside); ``far-left`` mirrors it with
    r = 8 r'.  By homogeneity every point gives the same ratio, so the
    walk along r' checks scaling, not the limit r/r' -> 0 or infinity
    (see :class:`OffdiagReport`).  The kernel is
    :func:`riesz_probe_kernel`'s, at its default separation and rel_tol.
    The ``zero-v-leading`` model applies to the bottom-mode subkernel of
    a zero-potential cone, whose leading term cancels in the gradient and
    improves the far-right envelope to r * r'^{-1-d}.
    """
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

    r_values = tuple(0.125 * rp if region == "far-right" else rp / 0.125 for rp in rprimes)
    envelopes = tuple(offdiag_envelope(d, mu0, region, r, rp, model) for r, rp in zip(r_values, rprimes))
    kernel = riesz_probe_kernel(spectrum)
    mags = tuple(kernel(r, rp) for r, rp in zip(r_values, rprimes))
    ratios = tuple(m / e for m, e in zip(mags, envelopes))
    return OffdiagReport(region, model, rprimes, r_values, mags, envelopes, ratios)


@dataclass(frozen=True)
class NormProbeResult:
    """Numerical operator norms across nested grids and the trend verdict.

    ``norms[i]`` estimates the L^p norm of |kernel| restricted to the
    radial window [2^-k, 2^k] for k = k_values[i]; ``iterations`` counts
    power-iteration steps per grid.  Verdicts: ``stable`` when the norms
    spread by at most the stability ratio, ``growing`` when they climb
    monotonically past the growth ratio, ``inconclusive`` otherwise.
    """

    p: float
    k_values: tuple
    norms: tuple
    verdict: str
    iterations: tuple


def _matrix_p_norm(B: np.ndarray, p: float):
    """Power iteration for the p-norm of a nonnegative matrix, to ``_POWER_TOL``."""
    q = p / (p - 1.0)
    n = B.shape[1]
    x = np.full(n, n ** (-1.0 / p))
    lam_prev = 0.0
    for it in range(1, _POWER_ITER_CAP + 1):
        y = B @ x
        lam = float(np.linalg.norm(y, p))
        if lam == 0.0:
            return 0.0, it
        z = B.T @ (y / lam) ** (p - 1.0)
        x = z ** (q - 1.0)
        x /= np.linalg.norm(x, p)
        if abs(lam - lam_prev) <= _POWER_TOL * lam:
            return lam, it
        lam_prev = lam
    return lam, _POWER_ITER_CAP


def lp_norm_probe(
    kernel,
    d: int,
    p: float,
    k_values=(4, 10, 16),
    points_per_octave: int = 4,
    homogeneous_degree: float | None = None,
) -> NormProbeResult:
    """Estimate L^p(r^{d-1} dr) norms of |kernel| on nested log grids.

    ``kernel`` is a callable (r, r') -> value; its absolute value is
    probed.  It must be homogeneous, of degree ``homogeneous_degree``
    (-d when None, the degree of every scale-invariant kernel on
    L^p(r^{d-1} dr), the triangle models and the Riesz kernel alike):
    evaluations collapse onto the ratio line kernel(t, 1), evaluated once
    for every grid, which matters when each evaluation is itself a mode
    sum (the Riesz kernel).
    """
    d = check_dimension(d)
    p = float(p)
    if not (1.0 < p < math.inf):
        raise DomainError(f"p must lie in (1, inf), got {p!r}")
    k_values = tuple(int(k) for k in k_values)
    if not k_values or any(k <= 0 for k in k_values) or list(k_values) != sorted(set(k_values)):
        raise DomainError("k_values must be strictly increasing positive integers")
    m = int(points_per_octave)
    if m <= 0:
        raise DomainError("points_per_octave must be positive")

    degree = -float(d) if homogeneous_degree is None else float(homogeneous_degree)
    # |kernel(2^(j/m), 1)| for j in [-2Km, 2Km], K the deepest window: every grid's ratios.
    reach = 2 * k_values[-1] * m
    ratio_line = np.array([abs(kernel(2.0 ** (j / m), 1.0)) for j in range(-reach, reach + 1)])

    norms, iters = [], []
    for k in k_values:
        n = 2 * k * m + 1
        exps = np.arange(n) - k * m                      # grid r_i = 2^(exps/m)
        r = np.exp2(exps / m)
        w = r ** d * (math.log(2.0) / m)                 # r^{d-1} * (r dlog r)
        kappa = ratio_line[exps[:, None] - exps[None, :] + reach]
        kmat = kappa * (r[None, :] ** degree)
        B = (w ** (1.0 / p))[:, None] * kmat * (w ** (1.0 - 1.0 / p))[None, :]
        lam, it = _matrix_p_norm(B, p)
        norms.append(lam)
        iters.append(it)

    verdict = "inconclusive"
    if norms[0] > 0.0:
        monotone_up = all(b > a for a, b in zip(norms, norms[1:]))
        if max(norms) <= _PROBE_STABLE_RATIO * min(norms):
            verdict = "stable"
        elif monotone_up and norms[-1] >= _PROBE_GROWTH_RATIO * norms[0]:
            verdict = "growing"
    return NormProbeResult(
        p=p,
        k_values=k_values,
        norms=tuple(norms),
        verdict=verdict,
        iterations=tuple(iters),
    )


def riesz_probe_kernel(
    spectrum: CrossSectionSpectrum,
    separation: float = 0.7,
    rel_tol: float = 1e-4,
):
    """Callable (r, r') -> |T(z, z')| at fixed cross-sectional separation.

    Homogeneous of degree -spectrum.d, the default ``homogeneous_degree``
    of :func:`lp_norm_probe`.
    """
    y, yp = spectrum.cross_section.points_at_separation(separation)

    def kern(r: float, rp: float) -> float:
        return riesz_kernel(
            spectrum, ConePoint(r, y), ConePoint(rp, yp), rel_tol=rel_tol
        ).magnitude

    return kern
