"""Eigendata of the shifted cross-section operator.

For the cone of dimension d over a cross-section Y with potential
coefficient V0, the kernel series is driven by the eigenvalues mu_j^2 and
eigenfunctions u_j of

    L_Y = Delta_Y + V0 + ((d-2)/2)^2,

which must be strictly positive (mu_j > 0).  A spectrum here is the table
of modes (mu_j, multiplicity, exact sup bounds) plus one vector evaluator,
:meth:`CrossSectionSpectrum.pair_values`, which returns for every mode at
once the eigenspace sum  sum_m u_{j,m}(y) conj(u_{j,m}(y'))  and its
derivative along the cross-section.  The sup bounds plus a tail profile
(closed-form control of all modes beyond the table) are what make
certified kernel truncation possible.

Providers: round spheres (Gegenbauer addition theorem, exact
multiplicities), flat tori (lattice enumeration), and JSON files carrying
precomputed mode tables for abstract cross-sections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product as _iter_product
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.special import eval_gegenbauer

from .config import DEFAULTS
from .errors import (
    DomainError,
    InsufficientSpectrumError,
    NormsOnlyError,
    PositivityError,
    SpectrumFormatError,
)
from .geometry import (
    CrossSection,
    SeparationCrossSection,
    SphereCrossSection,
    TorusCrossSection,
)

__all__ = [
    "Mode",
    "CrossSectionSpectrum",
    "TailProfile",
    "CompleteTail",
    "SphereTail",
    "TorusTail",
    "sphere_spectrum",
    "torus_spectrum",
    "load_spectrum",
    "save_spectrum",
    "weyl_fit",
    "WeylFit",
    "leading_modes",
]

_TAIL_KINDS = ("pair_over_2mu", "pair", "grad_over_2mu")


@dataclass(frozen=True)
class Mode:
    """One eigenvalue cluster of the shifted cross-section operator.

    ``pair_sup`` and ``grad_sup`` are exact sup-norm bounds of the
    eigenspace kernel and of its derivative, used by certified tails; they
    are None for norms-only spectra.  ``addition_coeffs`` are the cosine
    coefficients a spectrum file gave the kernel (None for built-in
    providers).
    """

    mu: float
    multiplicity: int
    pair_sup: float | None = None
    grad_sup: float | None = None
    label: str = ""
    addition_coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise PositivityError(
                f"mode has mu = {self.mu!r}; the shifted operator must be positive"
            )
        if int(self.multiplicity) != self.multiplicity or self.multiplicity < 1:
            raise DomainError(f"multiplicity must be a positive integer, got {self.multiplicity!r}")


class TailProfile:
    """Rigorous control of every mode beyond the tabulated range.

    ``sum_beyond(s, mu_from, kind)`` returns a proven upper bound for the
    sum over all modes with mu > mu_from of coef(mode) * s**mu, where the
    coefficient depends on ``kind``:

    * ``"pair_over_2mu"``: sup|pair| / (2 mu)   (kernel tails),
    * ``"pair"``:          sup|pair|            (radial-derivative tails),
    * ``"grad_over_2mu"``: sup|grad pair|/(2 mu) (angular-derivative tails).
    """

    def sum_beyond(self, s: float, mu_from: float, kind: str) -> float:
        raise NotImplementedError


class CompleteTail(TailProfile):
    """A table that IS the whole spectrum (file-based operators)."""

    def sum_beyond(self, s, mu_from, kind):
        if kind not in _TAIL_KINDS:
            raise DomainError(f"unknown tail kind {kind!r}")
        return 0.0


class SphereTail(TailProfile):
    """Exact lazy enumeration of sphere modes past the table.

    Multiplicities and eigenvalues have closed forms for every l, so the
    tail is summed term by term; the loop stops once the remaining sum is
    provably below 1e-6 of the accumulated value, using the geometric
    majorant term(l+1) <= term(l) * rho(l) with

        rho(l) = (coefficient growth cap at l) * s**min(gap(l), 1/a).

    The multiplicity ratio N_{l+1}/N_l and the gradient-weight ratio are
    both decreasing in l, and the eigenvalue gap mu_{l+1}-mu_l is monotone
    toward its limit 1/a from one side (the side depends only on sign(c)),
    so rho(l) caps every later ratio.
    """

    def __init__(self, cross_section: SphereCrossSection, c: float):
        d = cross_section.dim + 1
        self.d = d
        self.radius = cross_section.radius
        self.c0 = c + ((d - 2) / 2.0) ** 2
        self.nu = (d - 2) / 2.0
        self.volume = cross_section.volume

    def _mu(self, l: int) -> float:
        return math.sqrt(l * (l + self.d - 2) / self.radius**2 + self.c0)

    def _mult(self, l: int) -> int:
        d = self.d
        if l == 0:
            return 1
        return (2 * l + d - 2) * math.comb(l + d - 3, d - 3) // (d - 2)

    def _coef(self, l: int, kind: str) -> float:
        mu_l = self._mu(l)
        p = self._mult(l) / self.volume
        if kind == "pair":
            return p
        if kind == "pair_over_2mu":
            return p / (2.0 * mu_l)
        if kind == "grad_over_2mu":
            q = p * l * (l + 2.0 * self.nu) / ((2.0 * self.nu + 1.0) * self.radius)
            return q / (2.0 * mu_l)
        raise DomainError(f"unknown tail kind {kind!r}")

    def _ratio_cap(self, l: int, kind: str) -> float:
        d = self.d
        cap = (2 * l + d) / (2 * l + d - 2) * (l + d - 2) / (l + 1)  # N_{l+1}/N_l
        if kind == "grad_over_2mu" and l >= 1:
            cap *= (l + 1) * (l + 1 + 2.0 * self.nu) / (l * (l + 2.0 * self.nu))
        return cap

    def sum_beyond(self, s, mu_from, kind):
        if kind not in _TAIL_KINDS:
            raise DomainError(f"unknown tail kind {kind!r}")
        if not 0.0 < s < 1.0:
            raise DomainError(f"tail bounds need 0 < s < 1, got {s!r}")
        l = 0
        while self._mu(l) <= mu_from * (1.0 + 1e-15):
            l += 1
        total = 0.0
        log_s = math.log(s)
        while True:
            coef = self._coef(l, kind)
            lt = self._mu(l) * log_s
            term = coef * math.exp(lt) if lt > -745.0 else 0.0
            total += term
            gap = self._mu(l + 1) - self._mu(l)
            rho = self._ratio_cap(l, kind) * s ** min(gap, 1.0 / self.radius)
            if term == 0.0 and coef > 0.0:
                # Underflowed terms: remaining sum is below float resolution
                # relative to anything the caller can represent.
                return total
            if rho < 1.0:
                rem = term * rho / (1.0 - rho)
                if rem <= 1e-6 * total or rem == 0.0:
                    return total + rem
            l += 1
            if l > 10_000_000:  # pragma: no cover
                raise ArithmeticError("sphere tail failed to converge")


class TorusTail(TailProfile):
    """Counting bound for torus modes past the table.

    Modes with mu in (M+m-1, M+m] are overcounted by the lattice box bound
    count(mu <= x) <= prod_i (2 a_i x + 3), each contributing at most
    s**(M+m-1); per-mode coefficient caps are 1/vol (pair), 1/(2 M vol)
    (pair/2mu) and 1/(2 vol) (grad/2mu, since sup|grad| <= sqrt(lambda)/vol
    <= mu/vol per mode).  Crude but rigorous, and negligible for s <= 1/4
    past any default cutoff.
    """

    def __init__(self, cross_section: TorusCrossSection):
        self.radii = cross_section.radii
        self.volume = cross_section.volume

    def _box(self, x: float) -> float:
        return math.prod(2.0 * a * x + 3.0 for a in self.radii)

    def sum_beyond(self, s, mu_from, kind):
        if kind not in _TAIL_KINDS:
            raise DomainError(f"unknown tail kind {kind!r}")
        if not 0.0 < s < 1.0:
            raise DomainError(f"tail bounds need 0 < s < 1, got {s!r}")
        if kind == "pair":
            per_mode = 1.0 / self.volume
        elif kind == "pair_over_2mu":
            per_mode = 1.0 / (2.0 * mu_from * self.volume)
        else:
            per_mode = 1.0 / (2.0 * self.volume)
        total = 0.0
        log_s = math.log(s)
        m = 1
        while True:
            lt = (mu_from + m - 1.0) * log_s
            term = per_mode * self._box(mu_from + m) * math.exp(lt) if lt > -745.0 else 0.0
            total += term
            rho = s * self._box(mu_from + m + 1.0) / self._box(mu_from + m)
            if term == 0.0:
                return total
            if rho < 1.0:
                rem = term * rho / (1.0 - rho)
                if rem <= 1e-6 * total or rem == 0.0:
                    return total + rem
            m += 1
            if m > 10_000_000:  # pragma: no cover
                raise ArithmeticError("torus tail failed to converge")


@dataclass(frozen=True)
class CrossSectionSpectrum:
    """Mode table of L_Y for one cone, sorted by mu ascending.

    The provider promises completeness: every eigenvalue with mu at or
    below ``mu_cutoff`` appears (equal-mu clusters merged).  When all modes
    carry sup bounds and a tail profile is attached, kernel evaluations on
    this spectrum can certify their truncation error.  ``pair_evaluator``
    is the provider's vector evaluator behind :meth:`pair_values`; without
    one the spectrum is norms-only.
    """

    d: int
    modes: tuple[Mode, ...]
    v0_descriptor: str
    cross_section: CrossSection | None = None
    v0_constant: float | None = None
    tail_profile: TailProfile | None = None
    mu_cutoff: float | None = None
    pair_evaluator: Callable | None = None

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 3:
            raise DomainError(f"cone dimension must be an integer >= 3, got {self.d!r}")
        if not self.modes:
            raise InsufficientSpectrumError("spectrum has no modes")
        mus = [m.mu for m in self.modes]
        if any(b <= a for a, b in zip(mus, mus[1:])):
            raise DomainError("modes must be sorted strictly ascending in mu")

    @property
    def mu0(self) -> float:
        """Smallest mu (square root of the bottom eigenvalue of L_Y)."""
        return self.modes[0].mu

    @property
    def mu1(self) -> float:
        """Smallest mu strictly greater than mu0."""
        if len(self.modes) < 2:
            raise InsufficientSpectrumError(
                "second distinct eigenvalue requested but the table has one mode; "
                "raise mu_cutoff or supply more modes"
            )
        return self.modes[1].mu

    @property
    def norms_only(self) -> bool:
        return self.pair_evaluator is None

    @cached_property
    def mode_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, pair_sup, grad_sup) as arrays aligned with ``modes`` (NaN for a missing sup)."""
        return tuple(np.array([getattr(m, f) for m in self.modes], dtype=float)
                     for f in ("mu", "pair_sup", "grad_sup"))

    def pair_values(self, y, yp, gamma: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Every mode's eigenspace kernel at (y, y'), and its derivative at y.

        Both arrays are aligned with ``modes``.  The derivative is per unit
        cross-section arc length, along the direction of increasing
        separation from y'.  ``gamma`` is the cross-section distance
        d_Y(y, y') when the caller already has it.
        """
        if self.pair_evaluator is None:
            raise NormsOnlyError(
                "spectrum carries mode norms only (no pair functions); "
                "kernel evaluation is impossible"
            )
        if gamma is None:
            gamma = self.cross_section.distance(y, yp)
        return self.pair_evaluator(y, yp, gamma)

    @property
    def certifiable(self) -> bool:
        return (
            self.tail_profile is not None
            and all(m.pair_sup is not None for m in self.modes)
        )

    @property
    def grad_certifiable(self) -> bool:
        return self.certifiable and all(m.grad_sup is not None for m in self.modes)

    def descriptor(self) -> str:
        cs = self.cross_section.descriptor() if self.cross_section is not None else "none"
        return (
            f"d={self.d} cross_section={cs} v0={self.v0_descriptor} "
            f"modes={len(self.modes)} mu0={self.mu0:.6g}"
        )


def _default_cutoff(mu_bottom: float) -> float:
    return max(DEFAULTS.mu_cutoff_floor, mu_bottom + DEFAULTS.mu_cutoff_margin)


def _check_positivity(d: int, c: float) -> float:
    threshold = ((d - 2) / 2.0) ** 2
    if not math.isfinite(c) or c <= -threshold:
        raise PositivityError(
            f"coupling c = {c!r} violates c > -((d-2)/2)^2 = {-threshold}"
        )
    return c + threshold


def sphere_spectrum(
    d: int,
    radius: float = 1.0,
    c: float = 0.0,
    mu_cutoff: float | None = None,
) -> CrossSectionSpectrum:
    """Spectrum for the round sphere of the given radius with constant V0 = c.

    Modes: mu_l = sqrt(l(l+d-2)/radius^2 + c + ((d-2)/2)^2), multiplicity
    the dimension of spherical harmonics of degree l; pair functions via
    the Gegenbauer addition theorem (functions of the separation angle
    alone, maximal at coincidence), evaluated over every l at once.
    """
    if int(d) != d or d < 3:
        raise DomainError(f"cone dimension must be an integer >= 3, got {d!r}")
    d = int(d)
    c0 = _check_positivity(d, float(c))
    cs = SphereCrossSection(d - 1, radius)
    a, vol = cs.radius, cs.volume
    nu = (d - 2) / 2.0
    cutoff = float(mu_cutoff) if mu_cutoff is not None else _default_cutoff(math.sqrt(c0))
    if cutoff <= 0.0:
        raise DomainError(f"mu_cutoff must be > 0, got {mu_cutoff!r}")
    tail = SphereTail(cs, float(c))

    def gegenbauer_at_one(l: int) -> float:
        return math.exp(math.lgamma(l + 2.0 * nu) - math.lgamma(2.0 * nu) - math.lgamma(l + 1.0))

    modes = []
    norms = []
    l = 0
    while True:
        mu_l = tail._mu(l)
        if mu_l > cutoff:
            break
        mult = tail._mult(l)
        norms.append(mult / (vol * gegenbauer_at_one(l)))
        grad_sup = mult / (vol * a) * l * (l + 2.0 * nu) / (2.0 * nu + 1.0)
        modes.append(Mode(mu_l, mult, mult / vol, grad_sup, label=f"l={l}"))
        l += 1
    if not modes:
        raise InsufficientSpectrumError(
            f"mu_cutoff = {cutoff} lies below the bottom mode mu0 = {tail._mu(0)}"
        )
    ls = np.arange(len(modes))
    norms = np.asarray(norms)

    def pairs(y, yp, gamma):
        x = math.cos(gamma / a)
        grad = np.zeros(len(ls))
        grad[1:] = (-2.0 * nu / a * math.sin(gamma / a)) * norms[1:] \
            * eval_gegenbauer(ls[1:] - 1, nu + 1.0, x)
        return norms * eval_gegenbauer(ls, nu, x), grad
    return CrossSectionSpectrum(
        d=d,
        modes=tuple(modes),
        v0_descriptor=f"constant:{float(c)!r}",
        cross_section=cs,
        v0_constant=float(c),
        tail_profile=tail,
        mu_cutoff=cutoff,
        pair_evaluator=pairs,
    )


def torus_spectrum(
    d: int,
    radii,
    c: float = 0.0,
    mu_cutoff: float | None = None,
) -> CrossSectionSpectrum:
    """Spectrum for a flat torus cross-section with constant V0 = c.

    Eigenvalues are lattice sums sum (k_i/a_i)^2; equal values (within
    1e-9 relative) are merged into one mode whose pair function sums the
    cluster's cosines.  The evaluator takes one product of every lattice
    frequency with the angle difference and sums each cluster with
    ``np.add.reduceat``.
    """
    if int(d) != d or d < 3:
        raise DomainError(f"cone dimension must be an integer >= 3, got {d!r}")
    d = int(d)
    cs = TorusCrossSection(radii)
    if cs.dim != d - 1:
        raise DomainError(f"{cs.dim} radii inconsistent with cone dimension {d}")
    c0 = _check_positivity(d, float(c))
    cutoff = float(mu_cutoff) if mu_cutoff is not None else _default_cutoff(math.sqrt(c0))
    if cutoff <= 0.0:
        raise DomainError(f"mu_cutoff must be > 0, got {mu_cutoff!r}")
    lam_max = cutoff**2 - c0
    vol = cs.volume
    entries = []  # (lambda, k vector)
    if lam_max >= 0.0:
        ranges = [range(-int(a * math.sqrt(lam_max)), int(a * math.sqrt(lam_max)) + 1)
                  for a in cs.radii]
        for k in _iter_product(*ranges):
            lam = sum((ki / ai) ** 2 for ki, ai in zip(k, cs.radii))
            if lam <= lam_max * (1.0 + 1e-12):
                entries.append((lam, k))
    entries.sort(key=lambda t: t[0])
    if not entries:
        raise InsufficientSpectrumError(
            f"mu_cutoff = {cutoff} lies below the bottom mode mu0 = {math.sqrt(c0)}"
        )
    groups: list[list] = []
    for lam, k in entries:
        if groups and abs(lam - groups[-1][0]) <= 1e-9 * (1.0 + lam):
            groups[-1][1].append(k)
        else:
            groups.append([lam, [k]])

    modes = []
    for lam, ks in groups:
        mult = len(ks)
        modes.append(Mode(math.sqrt(lam + c0), mult, mult / vol, mult * math.sqrt(lam) / vol,
                          label=f"lambda={lam:.6g}"))
    # One row per lattice vector, frequencies k_i/a_i, clusters contiguous.
    freqs = np.asarray([k for _, ks in groups for k in ks], dtype=float) / np.asarray(cs.radii)
    starts = np.cumsum([0] + [m.multiplicity for m in modes[:-1]])  # first row of each cluster

    def pairs(y, yp, gamma):
        delta = TorusCrossSection._wrap(cs._angles(y) - cs._angles(yp))
        phase = freqs @ delta
        pair = np.add.reduceat(np.cos(phase), starts) / vol
        if gamma == 0.0:
            return pair, np.zeros(len(starts))
        speed = freqs @ (delta / gamma)  # d(k.delta)/d arclength
        return pair, -np.add.reduceat(np.sin(phase) * speed, starts) / vol
    return CrossSectionSpectrum(
        d=d,
        modes=tuple(modes),
        v0_descriptor=f"constant:{float(c)!r}",
        cross_section=cs,
        v0_constant=float(c),
        tail_profile=TorusTail(cs),
        mu_cutoff=cutoff,
        pair_evaluator=pairs,
    )


# ----------------------------------------------------------------------
# File format: {"d": int, "v0": str, "modes": [{"mu", "multiplicity",
# "addition_coeffs"?}]}.  addition_coeffs c_k define
# pair(gamma) = sum_k c_k T_k(cos gamma) = sum_k c_k cos(k gamma) in the
# scalar separation coordinate gamma.
# ----------------------------------------------------------------------

def _file_mode(mu_val: float, mult: int, coeffs) -> Mode:
    if coeffs is None:
        return Mode(mu_val, mult)
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise SpectrumFormatError("addition_coeffs must be a nonempty list of finite numbers")
    pair_sup = float(np.abs(arr).sum())
    grad_sup = float((np.abs(arr) * np.arange(arr.size)).sum())
    return Mode(mu_val, mult, pair_sup, grad_sup, addition_coeffs=tuple(arr.tolist()))


def _cosine_series(modes):
    """Pair evaluator of file modes: pair_j(gamma) = sum_k c_jk cos(k gamma)."""
    coeffs = np.zeros((len(modes), max(len(m.addition_coeffs) for m in modes)))
    for j, m in enumerate(modes):
        coeffs[j, :len(m.addition_coeffs)] = m.addition_coeffs
    ks = np.arange(coeffs.shape[1], dtype=float)

    def pairs(y, yp, gamma):
        return coeffs @ np.cos(ks * gamma), -(coeffs @ (ks * np.sin(ks * gamma)))

    return pairs


def load_spectrum(path) -> CrossSectionSpectrum:
    """Read a spectrum file (schema above).

    Entries are sorted by mu; entries with equal mu (1e-12 relative) are
    merged.  Files are complete by definition: the table is the whole
    spectrum, so the tail beyond it is exactly zero.  Modes without
    addition coefficients make the spectrum norms-only.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpectrumFormatError(f"cannot read spectrum file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpectrumFormatError("spectrum file must hold a JSON object")
    try:
        d = raw["d"]
        mode_list = raw["modes"]
    except KeyError as exc:
        raise SpectrumFormatError(f"spectrum file missing key {exc}") from exc
    if not isinstance(d, int) or d < 3:
        raise SpectrumFormatError(f"d must be an integer >= 3, got {d!r}")
    if not isinstance(mode_list, list) or not mode_list:
        raise SpectrumFormatError("modes must be a nonempty list")
    v0 = raw.get("v0", "file")
    if not isinstance(v0, str):
        raise SpectrumFormatError("v0 must be a string")
    v0_constant = None
    if v0.startswith("constant:"):
        try:
            v0_constant = float(v0.split(":", 1)[1])
        except ValueError as exc:
            raise SpectrumFormatError(f"bad constant V0 descriptor {v0!r}") from exc

    entries = []
    for i, item in enumerate(mode_list):
        if not isinstance(item, dict):
            raise SpectrumFormatError(f"modes[{i}] must be an object")
        try:
            mu_val = float(item["mu"])
            mult = item["multiplicity"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpectrumFormatError(f"modes[{i}] malformed: {exc}") from exc
        if not (math.isfinite(mu_val) and mu_val > 0.0):
            raise PositivityError(f"modes[{i}] has mu = {mu_val!r} <= 0")
        if not isinstance(mult, int) or mult < 1:
            raise SpectrumFormatError(f"modes[{i}] multiplicity must be a positive integer")
        entries.append((mu_val, mult, item.get("addition_coeffs")))
    entries.sort(key=lambda t: t[0])

    merged = []
    for mu_val, mult, coeffs in entries:
        if merged and abs(mu_val - merged[-1][0]) <= 1e-12 * (1.0 + mu_val):
            prev_mu, prev_mult, prev_coeffs = merged[-1]
            if (prev_coeffs is None) != (coeffs is None):
                raise SpectrumFormatError(
                    "cannot merge equal-mu modes where only one has addition_coeffs"
                )
            if coeffs is not None:
                n = max(len(prev_coeffs), len(coeffs))
                summed = [0.0] * n
                for lst in (prev_coeffs, coeffs):
                    for k, v in enumerate(lst):
                        summed[k] += float(v)
                coeffs = summed
            merged[-1] = (prev_mu, prev_mult + mult, coeffs)
        else:
            merged.append((mu_val, mult, list(coeffs) if coeffs is not None else None))

    modes = tuple(_file_mode(*entry) for entry in merged)
    complete = all(m.pair_sup is not None for m in modes)
    return CrossSectionSpectrum(
        d=d,
        modes=modes,
        v0_descriptor=v0,
        cross_section=SeparationCrossSection(),
        v0_constant=v0_constant,
        tail_profile=CompleteTail() if complete else None,
        mu_cutoff=modes[-1].mu,
        pair_evaluator=_cosine_series(modes) if complete else None,
    )


def save_spectrum(spectrum: CrossSectionSpectrum, path) -> None:
    """Write a spectrum to the JSON file format.

    Sphere modes are saved with exact addition coefficients (Chebyshev
    interpolation of the degree-l Gegenbauer pair function is exact at
    degree l); modes loaded from a file write their coefficients back
    unchanged.  Pair functions that are not functions of the scalar
    separation alone (tori) are saved norms-only.
    """
    out_modes = []
    for m in spectrum.modes:
        entry = {"mu": m.mu, "multiplicity": int(m.multiplicity)}
        coeffs = _separation_coeffs(spectrum, m)
        if coeffs is not None:
            entry["addition_coeffs"] = coeffs
        out_modes.append(entry)
    payload = {"d": spectrum.d, "v0": spectrum.v0_descriptor, "modes": out_modes}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _separation_coeffs(spectrum: CrossSectionSpectrum, mode: Mode):
    """Cosine coefficients of pair(gamma), when exact: a file's own, or a unit sphere's."""
    if mode.addition_coeffs is not None:
        return list(mode.addition_coeffs)
    cs = spectrum.cross_section
    # The file's separation coordinate gamma feeds cos(gamma) directly; for
    # radius != 1 the pair depends on cos(gamma/a), which is not a
    # polynomial in cos(gamma), so such spheres are saved norms-only.
    if isinstance(cs, SphereCrossSection) and cs.radius == 1.0 and mode.label.startswith("l="):
        l = int(mode.label[2:])
        nu = (spectrum.d - 2) / 2.0
        norm = mode.pair_sup / float(eval_gegenbauer(l, nu, 1.0))

        # pair as a function of x = cos(d_Y); polynomial of degree l.
        def f(x):
            return norm * eval_gegenbauer(l, nu, x)

        return [float(c) for c in _cheb.chebinterpolate(f, max(l, 1))]
    return None


@dataclass(frozen=True)
class WeylFit:
    """Smallest C with mode-count(mu) <= C mu^(d-1) over the table."""

    c: float
    at_mu: float
    n_modes: int


def weyl_fit(spectrum: CrossSectionSpectrum) -> WeylFit:
    if len(spectrum.modes) < 10:
        raise InsufficientSpectrumError("weyl_fit needs at least 10 modes")
    count = 0
    best = -math.inf
    at = spectrum.mu0
    for m in spectrum.modes:
        count += m.multiplicity
        ratio = count / m.mu ** (spectrum.d - 1)
        if ratio > best:
            best, at = ratio, m.mu
    return WeylFit(best, at, len(spectrum.modes))


def leading_modes(spectrum: CrossSectionSpectrum, count: int = 1) -> CrossSectionSpectrum:
    """The sub-operator spanned by the first ``count`` modes.

    The result is exact for that sub-kernel (its tail is empty), which is
    what refined single-mode estimates evaluate.
    """
    if not 1 <= count <= len(spectrum.modes):
        raise DomainError(f"count must be in [1, {len(spectrum.modes)}], got {count}")
    full = spectrum.pair_evaluator

    def pairs(y, yp, gamma):
        pair, grad = full(y, yp, gamma)
        return pair[:count], grad[:count]

    return replace(
        spectrum,
        modes=spectrum.modes[:count],
        tail_profile=CompleteTail(),
        v0_descriptor=f"{spectrum.v0_descriptor}|leading:{count}",
        mu_cutoff=spectrum.modes[count - 1].mu,
        pair_evaluator=pairs if full is not None else None,
    )
