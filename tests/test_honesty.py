"""Honesty in every regime: certified values meet rel_tol, and every estimate covers its error.

About 280 seeded points on flat R^3 and R^5, where closed forms give the
exact kernel (``oracles.yukawa_flat`` and ``oracles.riesz_flat``):
resolvent values, gradients and Riesz values, with s = r_</r_> log-uniform
in [1e-4, 1), 1 - s log-uniform in [1e-12, 1e-2] and s = 1; then the
far regimes: r_> over 100 decades, tiny separations, 1 - s in
[1e-15, 1e-12], and large lam R off and on the diagonal.  The rule
allows each value 1e-12 of its magnitude for rounding, the slack of
criterion 7, since ``tail_bound`` leaves rounding out below a tenth of
the target.
"""

import functools
import math
import random


from conekit import (
    ConePoint,
    DomainError,
    ResolventRequest,
    resolvent_gradient,
    resolvent_kernel,
    riesz_kernel,
    sphere_spectrum,
)
from conekit.resolvent import _KERNEL_REL_TOL
from conekit.riesz import _RIESZ_REL_TOL

import oracles

_ROUNDING = 1e-12
# Per cone and kind, the points of each s stratum.  Within 1e-2 of s = 1 a
# value sums up to the 2**16-degree ceiling (40-140 ms), so few points go there.
_STRATA = (("log-uniform", 26), ("near the diagonal", 3), ("r = r'", 5))
# The far regimes, drawn after every point above.  The lam R strata take
# no Riesz value (the Riesz kernel integrates over every lambda).
_FAR_STRATA = (("wide radii", 3), ("small separation", 3), ("a hair off the diagonal", 3),
               ("large lam R", 3), ("large lam R at r = r'", 3))
_SPECTRA = {d: sphere_spectrum(d) for d in (3, 5)}  # flat R^3 and R^5


def _draw(rng, stratum):
    """(r, r', gamma, lam R) of one point of ``stratum``.

    Off the diagonal s is log-uniform in [1e-4, 1), except near it, where
    1 - s is log-uniform in [1e-12, 1e-2] or (a hair off) [1e-15, 1e-12];
    gamma is log-uniform in [1e-3, pi] (in [1e-5, 1e-3] at small
    separation).  At r = r' gamma is uniform in [1e-3, pi], where the tau
    rule's cost grows as 1/gamma (0.3-0.8 s at 1e-3), or in [0.1, pi] at
    large lam R.  r_> is log-uniform in [0.1, 10] (in [1e-50, 1e50] for
    wide radii, where Riesz values stay plain floats for d <= 5), and
    lam R in [1e-2, 30] (uniform in [30, 60] at large lam R).
    """
    if stratum in ("r = r'", "large lam R at r = r'"):
        s, gamma = 1.0, rng.uniform(1e-3 if stratum == "r = r'" else 0.1, math.pi)
    else:
        if stratum == "near the diagonal":
            s = 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)
        elif stratum == "a hair off the diagonal":
            s = 1.0 - 10.0 ** rng.uniform(-15.0, -12.0)
        else:
            s = 10.0 ** rng.uniform(-4.0, 0.0)
        gamma = 10.0 ** (rng.uniform(-5.0, -3.0) if stratum == "small separation"
                         else rng.uniform(-3.0, math.log10(math.pi)))
    big = 10.0 ** (rng.uniform(-50.0, 50.0) if stratum == "wide radii" else rng.uniform(-1.0, 1.0))
    r, rp = (s * big, big) if rng.random() < 0.5 else (big, s * big)
    if stratum.startswith("large lam R"):
        return r, rp, gamma, rng.uniform(30.0, 60.0)
    return r, rp, gamma, 10.0 ** rng.uniform(-2.0, math.log10(30.0))


def _points(seed=31):
    """(d, kind, r, r', gamma, lam R, stratum): 34 per cone and kind, then 15 (9 Riesz) in the far regimes."""
    rng = random.Random(seed)
    for strata in (_STRATA, _FAR_STRATA):
        for d in (3, 5):
            for kind in ("kernel", "gradient", "riesz"):
                for stratum, count in strata:
                    if not (kind == "riesz" and stratum.startswith("large lam R")):
                        for _ in range(count):
                            yield (d, kind, *_draw(rng, stratum), stratum)


def _evaluate(d, kind, r, rp, gamma, lam_r):
    """[(error, estimate, certified, rel_tol, scale)] for one point: one entry per component judged.

    A Riesz value is judged as a whole (its estimate bounds the summed
    error of both components); a gradient component by component.
    ``scale`` is the magnitude of the exact value.
    """
    spec = _SPECTRA[d]
    y, yp = spec.cross_section.points_at_separation(gamma)
    z, zp = ConePoint(r, y), ConePoint(rp, yp)
    if kind == "riesz":
        got, want = riesz_kernel(spec, z, zp), oracles.riesz_flat(d, r, rp, gamma)
        error = abs(got.d_r - want[0]) + abs(got.angular - want[1])
        return [(error, got.quad_error_est, got.certified, _RIESZ_REL_TOL, math.hypot(*want))]
    lam = lam_r / oracles.euclid_distance(r, rp, gamma)
    exact = oracles.yukawa_flat(d, r, rp, gamma, lam)
    request = ResolventRequest(spec, z, zp, lam=lam)
    if kind == "kernel":
        comps, want = (resolvent_kernel(request),), exact[:1]
    else:
        got = resolvent_gradient(request)
        comps, want = (got.d_r, got.angular), exact[1:]
    scale = math.hypot(*want)
    return [(abs(c.float_value() - w), c.float_tail_bound(), c.certified, _KERNEL_REL_TOL, scale)
            for c, w in zip(comps, want)]


@functools.cache
def _sweep():
    """Every point's judged components, and the points refused with a DomainError."""
    judged, refused = [], []
    for point in _points():
        d, kind, r, rp, gamma, lam_r, stratum = point
        try:
            judged += [(point, *comp) for comp in _evaluate(d, kind, r, rp, gamma, lam_r)]
        except DomainError as exc:
            refused.append((point, str(exc)))
    return judged, refused


def _broken(estimate_scale=1.0):
    """The components that break the rule with every estimate scaled by ``estimate_scale``."""
    judged, _ = _sweep()
    return [(point, error, estimate, certified) for point, error, estimate, certified, rel_tol, scale in judged
            if error > estimate_scale * estimate + _ROUNDING * scale
            or certified and error > (rel_tol + _ROUNDING) * scale]


def test_every_estimate_covers_its_error():
    judged, refused = _sweep()
    assert len({p for p, *_ in judged}) + len(refused) == 282
    strata = {p[-1] for p, *_ in judged}
    assert strata == {name for name, _ in _STRATA + _FAR_STRATA}, strata
    # Both outcomes occur: certified values and uncertified ones are judged.
    assert {c for _, _, _, c, _, _ in judged} == {True, False}
    assert not _broken(), _broken()


def test_halved_estimates_break_the_rule():
    # The rule has teeth: some error exceeds half its estimate.
    assert _broken(0.5)
