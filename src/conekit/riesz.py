"""Riesz transform kernel on metric cones.

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

The L^p side of the theory (threshold intervals, the L^2 bound, the
off-diagonal model kernels and the norm probes) is :mod:`conekit.lpcheck`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import _ldexp
from .errors import DomainError
from .geometry import ConePoint
from .resolvent import _check_rel_tol, _prepare_series
from .spectrum import CrossSectionSpectrum

__all__ = ["RieszKernelValue", "riesz_kernel"]

_RIESZ_REL_TOL = 1e-6  # riesz_kernel's default relative tolerance


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
    rel_tol: float = _RIESZ_REL_TOL,
) -> RieszKernelValue:
    """Evaluate the Riesz transform kernel at (z, z'), componentwise.

    For r != r' each mode's lambda-integral is summed in closed form (see
    the module docstring), stopping where the rigorous remainders of the
    radial and angular components are each below rel_tol / 2 of |T|; the
    scalar H^{-1/2} series is not summed.  At r = r' the value comes from
    the cone heat kernel, its tau rule refined until two grids agree to
    rel_tol / 2 of |T| in each component.  A complete table (a finite mode
    sum) diverges there, and raises ``DomainError``, as does a component
    or an estimate past float range (on R^3 at r, r' = 1e-110, 3e-110).
    """
    d_r, angular = _prepare_series(spectrum, z, zp, True, None, 0.5 * _check_rel_tol(rel_tol))
    # 2/pi scales each mantissa before its 2**exp2, since it may bring a
    # value just past float range back into it.
    scale = 2.0 / math.pi
    values = [_ldexp(scale * kv.value, kv.exp2) for kv in (d_r, angular)]
    est = scale * (d_r.float_tail_bound() + angular.float_tail_bound())
    # An infinite tail_bound says no digit is known; an infinite value or estimate from finite ones overflowed.
    if any(map(math.isinf, values)) or (est == math.inf and max(d_r.tail_bound, angular.tail_bound) < math.inf):
        raise DomainError(f"the Riesz kernel at r = {z.r!r}, r' = {zp.r!r} passes float range")
    return RieszKernelValue(
        d_r=values[0],
        angular=values[1],
        quad_error_est=est,
        certified=d_r.certified and angular.certified,
        tail_kind=d_r.tail_kind,
        modes_used=d_r.modes_used,
    )
