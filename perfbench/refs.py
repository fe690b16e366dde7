"""Closed-form references and the failure rule, independent of conekit.

The cone of dimension d over the unit sphere with V0 = 0 is flat R^d, so
its kernels are elementary functions of the chordal distance R:

    R^3 resolvent   G = e^{-lam R} / (4 pi R)
    R^5 resolvent   G = e^{-lam R} (1 + lam R) / (8 pi^2 R^3)
    R^3 Riesz       T = -grad R / (pi^2 R^3)

Gradients are taken in the first point z = (r, y): the radial part is
dR/dr = (r - r' cos g) / R and the angular part, per unit arc length at y
in the direction of growing separation, is (1/r) dR/dg = r' sin g / R.
"""

from __future__ import annotations

import math

# A reported error bound covers truncation only; allow this much
# floating-point error (relative to the kernel's magnitude) on top.
FP_SLACK = 1e-10


def chord(r: float, rp: float, gamma: float) -> float:
    """Distance in R^d between (r, y) and (r', y') at angle gamma <= pi."""
    return math.sqrt((r - rp) ** 2 + 4.0 * r * rp * math.sin(0.5 * gamma) ** 2)


def yukawa(d: int, r: float, rp: float, gamma: float, lam: float) -> float:
    """Resolvent kernel of flat R^d (d = 3 or 5) at spectral parameter lam."""
    R = chord(r, rp, gamma)
    if d == 3:
        return math.exp(-lam * R) / (4.0 * math.pi * R)
    if d == 5:
        return math.exp(-lam * R) * (1.0 + lam * R) / (8.0 * math.pi ** 2 * R ** 3)
    raise ValueError(f"no closed form for d = {d}")


def _yukawa_dR(d: int, R: float, lam: float) -> float:
    """dG/dR of the flat resolvent kernel."""
    x = lam * R
    if d == 3:
        return -math.exp(-x) * (1.0 + x) / (4.0 * math.pi * R * R)
    if d == 5:
        return -math.exp(-x) * (x * x + 3.0 * x + 3.0) / (8.0 * math.pi ** 2 * R ** 4)
    raise ValueError(f"no closed form for d = {d}")


def yukawa_grad(d: int, r: float, rp: float, gamma: float, lam: float):
    """(radial, angular) gradient of the flat resolvent kernel in z."""
    R = chord(r, rp, gamma)
    g = _yukawa_dR(d, R, lam)
    return g * (r - rp * math.cos(gamma)) / R, g * rp * math.sin(gamma) / R


def riesz_r3(r: float, rp: float, gamma: float):
    """(radial, angular) components of the R^3 Riesz kernel."""
    R = chord(r, rp, gamma)
    scale = -1.0 / (math.pi ** 2 * R ** 3)
    return scale * (r - rp * math.cos(gamma)) / R, scale * rp * math.sin(gamma) / R


class Tally:
    """Counts operations, failures and tolerance hits under one rule.

    An operation fails when it raises, returns a non-finite number, or
    reports an error bound that does not cover its error against a
    reference.  A value whose bound honestly exceeds the requested
    tolerance is not a failure; it only lowers the share that met it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checked = 0  # values counted toward tol_met_frac
        self.tol_met = 0
        self.flagged_uncovered = 0
        self.notes: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def finite(self, what: str, *values) -> bool:
        """Fail the operation unless every value is a finite number."""
        if all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            return True
        self.fail(f"{what}: non-finite result {values}")
        return False

    def check(self, what: str, got, want, bounds, scale: float, rel_tol=None,
              rigorous: bool = True) -> bool:
        """Compare the components ``got`` with ``want`` and fail if uncovered.

        ``bounds`` is either one bound per component or a single number
        bounding the summed absolute error; ``scale`` is the magnitude
        of the kernel, the base of every relative error.  With a
        ``rel_tol`` the value also counts toward ``tol_met_frac``.  A
        bound the value itself labels heuristic (``rigorous=False``, the
        resolvent's "cauchy" tail) is flagged inexact: when it does not
        cover, that is counted in ``flagged_uncovered``, not as a failure.
        """
        errs = [abs(g - w) for g, w in zip(got, want)]
        if isinstance(bounds, (int, float)):
            errs, bounds = [sum(errs)], [bounds]
        if rel_tol is not None:
            self.checked += 1
            self.tol_met += sum(errs) <= rel_tol * scale
        for err, bound in zip(errs, bounds):
            if not err <= bound + FP_SLACK * scale:  # also catches NaN
                if not rigorous:
                    self.flagged_uncovered += 1
                    return True
                self.fail(f"{what}: error {err:.3g} exceeds reported bound {bound:.3g}")
                return False
        return True

    @property
    def tol_met_frac(self) -> float:
        return self.tol_met / self.checked if self.checked else math.nan
