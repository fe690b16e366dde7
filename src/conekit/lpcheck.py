"""L^p boundedness checks: exact Schur norms and numerical norm probes.

The off-diagonal model bounds of the Riesz kernel are homogeneous
triangle kernels on the half-line with the cone measure r^{d-1} dr:

    k(r, r') = r^{-alpha} r'^{alpha - d}   supported on one side of r = r'.

For these the L^p operator norm is an exact one-line integral (power
functions are approximate eigenfunctions of scale-invariant operators):

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

import numpy as np

from .config import DEFAULTS
from .errors import DomainError
from .geometry import ConePoint, check_dimension
from .riesz import PInterval, riesz_kernel
from .spectrum import CrossSectionSpectrum

__all__ = [
    "HomogeneousKernelSpec",
    "schur_norm",
    "riesz_model_intervals",
    "NormProbeResult",
    "lp_norm_probe",
    "riesz_probe_kernel",
]

_REGIONS = ("upper", "lower")


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

    @property
    def beta(self) -> float:
        return self.d - self.alpha


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
    threshold interval of :func:`conekit.riesz.threshold_interval`.
    """
    d = check_dimension(d)
    mu0 = float(mu0)
    if not math.isfinite(mu0) or mu0 < 0.0:
        raise DomainError(f"mu0 must be >= 0, got {mu0!r}")
    right, left = _riesz_models(d, mu0)
    p_hi = math.inf if right.alpha <= 0.0 else d / right.alpha
    p_lo = max(1.0, d / left.alpha)
    return PInterval(p_lo, p_hi, "general-V")


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
    """Power iteration for the p-norm of a nonnegative matrix, to ``DEFAULTS.probe_tol``."""
    q = p / (p - 1.0)
    n = B.shape[1]
    x = np.full(n, n ** (-1.0 / p))
    lam_prev = 0.0
    for it in range(1, DEFAULTS.probe_iter_cap + 1):
        y = B @ x
        lam = float(np.linalg.norm(y, p))
        if lam == 0.0:
            return 0.0, it
        z = B.T @ (y / lam) ** (p - 1.0)
        x = z ** (q - 1.0)
        x /= np.linalg.norm(x, p)
        if abs(lam - lam_prev) <= DEFAULTS.probe_tol * lam:
            return lam, it
        lam_prev = lam
    return lam, DEFAULTS.probe_iter_cap


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
    evaluations collapse onto the ratio line kernel(t, 1) and are cached
    across grids, which matters when each evaluation is itself a mode
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
    ratio_cache: dict[int, float] = {}

    def ratio_val(diff: int) -> float:
        if diff not in ratio_cache:
            t = 2.0 ** (diff / m)
            ratio_cache[diff] = abs(kernel(t, 1.0))
        return ratio_cache[diff]

    norms, iters = [], []
    for k in k_values:
        n = 2 * k * m + 1
        exps = np.arange(n) - k * m                      # grid r_i = 2^(exps/m)
        r = np.exp2(exps / m)
        w = r ** d * (math.log(2.0) / m)                 # r^{d-1} * (r dlog r)
        kappa = np.vectorize(ratio_val)(exps[:, None] - exps[None, :])
        kmat = kappa * (r[None, :] ** degree)
        B = (w ** (1.0 / p))[:, None] * kmat * (w ** (1.0 - 1.0 / p))[None, :]
        lam, it = _matrix_p_norm(B, p)
        norms.append(lam)
        iters.append(it)

    verdict = "inconclusive"
    if norms[0] > 0.0:
        monotone_up = all(b > a for a, b in zip(norms, norms[1:]))
        if max(norms) <= DEFAULTS.probe_stable_ratio * min(norms):
            verdict = "stable"
        elif monotone_up and norms[-1] >= DEFAULTS.probe_growth_ratio * norms[0]:
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
