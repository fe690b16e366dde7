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

Each mode quantity has one vector formula: :func:`_sphere_modes` maps an
array of degrees to mu, multiplicity, sup bounds and Gegenbauer norms,
for the sphere's table and for its tail alike; the torus table is one
numpy enumeration of the lattice box, sorted and split into clusters;
:meth:`TailProfile.weights` defines the per-mode weight of each tail
kind, and ``sum_beyond`` sums every kind beyond the table in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
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
        object.__setattr__(self, "multiplicity", int(self.multiplicity))


class TailProfile:
    """Rigorous control of every mode beyond the tabulated range.

    ``sum_beyond(s, mu_from)`` returns, for each tail kind in
    ``_TAIL_KINDS`` order, a proven upper bound for the sum over all modes
    with mu > mu_from of weight(mode) * s**mu, where :meth:`weights` gives
    the weight of each kind:

    * ``"pair_over_2mu"``: sup|pair| / (2 mu)   (kernel tails),
    * ``"pair"``:          sup|pair|            (radial-derivative tails),
    * ``"grad_over_2mu"``: sup|grad pair|/(2 mu) (angular-derivative tails).
    """

    @staticmethod
    def weights(mu, pair_sup, grad_sup) -> np.ndarray:
        """The weights of the three tail kinds, stacked in ``_TAIL_KINDS`` order."""
        return np.array([pair_sup / (2.0 * mu), pair_sup, grad_sup / (2.0 * mu)])

    def sum_beyond(self, s: float, mu_from: float) -> tuple[float, float, float]:
        raise NotImplementedError


class CompleteTail(TailProfile):
    """A table that IS the whole spectrum (file-based operators)."""

    def sum_beyond(self, s, mu_from):
        return (0.0,) * len(_TAIL_KINDS)


class _MajorantTail(TailProfile):
    """Term-by-term tail sums, stopped by a geometric majorant.

    A subclass gives, for a block of n terms from index ``start`` past
    mu_from, each kind's weights, the exponents log(s**mu), and ratio caps
    rho with term(i+1) <= term(i) * rho(i) for every later i too.  A
    kind's sum stops at the first term with a positive weight whose
    majorant term * rho/(1 - rho) of all later terms is below 1e-6 of the
    running total (and is added to the bound), or which underflows to 0
    (the rest is then below float resolution).  Blocks double in length
    up to 2**15 terms, so memory stays bounded as s approaches 1.
    """

    def _terms(self, s, mu_from, start, n):
        """(weights, log s**mu, ratio caps) of terms start .. start+n-1, a row per tail kind."""
        raise NotImplementedError

    def sum_beyond(self, s, mu_from):
        if not 0.0 < s < 1.0:
            raise DomainError(f"tail bounds need 0 < s < 1, got {s!r}")
        bounds, carry, start, n = {}, 0.0, 0, 64
        while start < 10_000_000:
            coef, log_term, rho = self._terms(s, mu_from, start, n)
            term = coef * np.exp(log_term)
            total = np.cumsum(term, axis=-1) + carry
            # term * rho <= 1e-6 * total * (1 - rho) with term > 0 implies rho < 1.
            stop = (coef > 0.0) & ((term == 0.0) | (term * rho <= 1e-6 * total * (1.0 - rho)))
            for k, i in enumerate(stop.argmax(axis=-1).tolist()):
                if k not in bounds and stop[k, i]:  # total, plus the majorant unless it underflowed
                    t, r = term[k, i], rho[k, i]
                    bounds[k] = float(total[k, i] + (t * r / (1.0 - r) if t > 0.0 else 0.0))
            if len(bounds) == len(term):
                return tuple(bounds[k] for k in range(len(term)))
            carry, start, n = total[:, -1:], start + n, min(2 * n, 1 << 15)
        raise ArithmeticError("tail failed to converge")  # pragma: no cover


def _sphere_modes(cross_section: SphereCrossSection, c0: float, l: np.ndarray):
    """Eigendata of the degree-l harmonics, for an array of degrees l.

    Returns (mu_l, N_l, pair_sup, grad_sup, norm) with
    mu_l = sqrt(l(l+d-2)/a^2 + c0); N_l the dimension of the degree-l
    harmonics, as floats (exact while (2l+d-2) C(l+d-3, d-3) < 2^53);
    pair_sup = N_l/vol, the pair function at coincidence; grad_sup its
    derivative bound pair_sup * l(l+d-2)/((d-1) a); and the Gegenbauer
    norm N_l/(vol C_l^{(d-2)/2}(1)) = (2l+d-2)/((d-2) vol).
    """
    d, a, vol = cross_section.dim + 1, cross_section.radius, cross_section.volume
    l = np.asarray(l, dtype=float)
    mu = np.sqrt(l * (l + d - 2) / a**2 + c0)
    binom = np.ones_like(l)  # C(l+k, k) = C(l+k-1, k-1) (l+k)/k, exact integers
    for k in range(1, d - 2):
        binom = binom * (l + k) / k
    mult = (2 * l + d - 2) * binom / (d - 2)
    pair_sup = mult / vol
    return mu, mult, pair_sup, pair_sup * l * (l + d - 2) / ((d - 1) * a), (2 * l + d - 2) / ((d - 2) * vol)


def _degree_count(cross_section: SphereCrossSection, c0: float, mu: float) -> int:
    """A count of degrees from 0 that covers every l with mu_l <= mu (as mu_l^2 >= l^2/a^2 + c0)."""
    return int(cross_section.radius * math.sqrt(max(mu * mu - c0, 0.0))) + 1


class SphereTail(_MajorantTail):
    """Exact enumeration of sphere modes past the table.

    Multiplicities and eigenvalues have closed forms for every l
    (:func:`_sphere_modes`), so the tail is summed term by term with
    ratio caps

        rho(l) = (coefficient growth cap at l) * s**min(gap(l), 1/a).

    The cap is N_{l+1}/N_l, and for the gradient kind the growth of
    grad_sup.  Both ratios are decreasing in l, and the eigenvalue gap
    mu_{l+1}-mu_l is monotone toward its limit 1/a from one side (the side
    depends only on sign(c)), so rho(l) caps every later ratio.  The
    s-independent arrays are built once and extended on demand.
    """

    def __init__(self, cross_section: SphereCrossSection, c: float):
        self.cross_section = cross_section
        self.c0 = c + ((cross_section.dim - 1) / 2.0) ** 2
        self._table = None  # _build(0, n) for the lowest n <= 2**16 degrees asked for so far

    def _build(self, lo: int, hi: int) -> np.ndarray:
        """Rows mu, the 3 weights, the 3 ratio caps and the gap, for the degrees lo .. hi-1."""
        mu, mult, pair_sup, grad_sup, _ = _sphere_modes(self.cross_section, self.c0, np.arange(lo, hi + 1))
        growth = mult[1:] / mult[:-1]
        # Degree 0 has grad_sup = 0, so it never stops the gradient sum and needs no cap.
        grad_growth = np.divide(grad_sup[1:], grad_sup[:-1], out=growth.copy(), where=grad_sup[:-1] > 0.0)
        return np.vstack([mu[:-1], self.weights(mu, pair_sup, grad_sup)[:, :-1], growth, growth, grad_growth,
                          np.minimum(np.diff(mu), 1.0 / self.cross_section.radius)])

    def _degrees(self, lo: int, hi: int) -> np.ndarray:
        """_build(lo, hi), sliced from the kept table below 2**16 degrees."""
        if hi > 1 << 16:
            return self._build(lo, hi)
        if self._table is None or self._table.shape[1] < hi:
            self._table = self._build(0, 1 << (hi - 1).bit_length())  # each extension at least doubles
        return self._table[:, lo:hi]

    def _terms(self, s, mu_from, start, n):
        top = mu_from * (1.0 + 1e-15)
        mu = self._degrees(0, _degree_count(self.cross_section, self.c0, top) + 1)[0]
        l0 = int(np.searchsorted(mu, top, side="right")) + start  # the first degree past mu_from
        table = self._degrees(l0, l0 + n)
        return table[1:4], table[0] * math.log(s), table[4:7] * s ** table[7]


class TorusTail(_MajorantTail):
    """Counting bound for torus modes past the table.

    Modes with mu in (M+m-1, M+m] are overcounted by the lattice box bound
    count(mu <= x) <= prod_i (2 a_i x + 3), each contributing at most
    s**(M+m-1).  Per mode, pair_sup <= 1/vol and grad_sup <= sqrt(lambda)/vol
    <= mu/vol, and mu > M, so the kinds' weights are at most those of a
    mode with mu = M, pair_sup = 1/vol and grad_sup = M/vol; the shell
    ratio cap s * box(M+m+1)/box(M+m) is the same for every kind.  Crude
    but rigorous, and negligible for s <= 1/4 past any default cutoff.
    """

    def __init__(self, cross_section: TorusCrossSection):
        self.radii = np.asarray(cross_section.radii)[:, None]
        self.volume = cross_section.volume

    def _terms(self, s, mu_from, start, n):
        x = mu_from + np.arange(start + 1.0, start + n + 2.0)  # shell tops, one more for the last ratio
        box = np.prod(2.0 * self.radii * x + 3.0, axis=0)
        weights = self.weights(mu_from, 1.0 / self.volume, mu_from / self.volume)[:, None]
        rho = s * box[1:] / box[:-1]
        return weights * box[:-1], (x[:-1] - 1.0) * math.log(s), np.broadcast_to(rho, (len(weights), n))


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
    def mode_table(self) -> tuple[np.ndarray, np.ndarray]:
        """mu, and the log of every mode's tail weights (:meth:`TailProfile.weights`).

        Both are aligned with ``modes``; the weights have one row per tail
        kind, NaN where a sup bound is missing and -inf where it is 0.
        """
        mu, pair_sup, grad_sup = (np.array([getattr(m, f) for m in self.modes], dtype=float)
                                  for f in ("mu", "pair_sup", "grad_sup"))
        with np.errstate(divide="ignore"):
            return mu, np.log(TailProfile.weights(mu, pair_sup, grad_sup))

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
    a, nu = cs.radius, (d - 2) / 2.0
    cutoff = float(mu_cutoff) if mu_cutoff is not None else _default_cutoff(math.sqrt(c0))
    if cutoff <= 0.0:
        raise DomainError(f"mu_cutoff must be > 0, got {mu_cutoff!r}")
    table = _sphere_modes(cs, c0, np.arange(_degree_count(cs, c0, cutoff)))
    count = int(np.searchsorted(table[0], cutoff, side="right"))
    if count == 0:
        raise InsufficientSpectrumError(
            f"mu_cutoff = {cutoff} lies below the bottom mode mu0 = {math.sqrt(c0)}"
        )
    mu, mult, pair_sup, grad_sup, norms = (v[:count] for v in table)
    modes = tuple(Mode(m, n, p, g, label=f"l={l}") for l, (m, n, p, g) in enumerate(zip(
        mu.tolist(), mult.tolist(), pair_sup.tolist(), grad_sup.tolist())))
    ls = np.arange(count)

    def pairs(y, yp, gamma):
        x = math.cos(gamma / a)
        grad = np.zeros(count)
        grad[1:] = (-2.0 * nu / a * math.sin(gamma / a)) * norms[1:] \
            * eval_gegenbauer(ls[1:] - 1, nu + 1.0, x)
        return norms * eval_gegenbauer(ls, nu, x), grad
    return CrossSectionSpectrum(
        d=d,
        modes=modes,
        v0_descriptor=f"constant:{float(c)!r}",
        cross_section=cs,
        v0_constant=float(c),
        tail_profile=SphereTail(cs, float(c)),
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
    radii = np.asarray(cs.radii)
    # The lattice box, rows in itertools.product order, then stably sorted by lambda.
    kmax = (radii * math.sqrt(max(lam_max, 0.0))).astype(int)
    ks = np.stack(np.meshgrid(*[np.arange(-k, k + 1) for k in kmax], indexing="ij"), axis=-1)
    ks = ks.reshape(-1, len(radii))
    lam = sum((ks[:, i] / a) ** 2 for i, a in enumerate(cs.radii))
    keep = np.flatnonzero(lam <= lam_max * (1.0 + 1e-12))
    keep = keep[np.argsort(lam[keep], kind="stable")]
    ks, lam = ks[keep], lam[keep]
    if not lam.size:
        raise InsufficientSpectrumError(
            f"mu_cutoff = {cutoff} lies below the bottom mode mu0 = {math.sqrt(c0)}"
        )
    # A new cluster starts where lambda jumps by more than 1e-9 (1 + lambda);
    # its rows are contiguous, from starts[j] on.
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > 1e-9 * (1.0 + lam))
    mult, lam = np.diff(starts, append=lam.size), lam[starts]
    mu, pair_sup, grad_sup = np.sqrt(lam + c0), mult / vol, mult * np.sqrt(lam) / vol
    modes = tuple(Mode(m, n, p, g, label=f"lambda={l:.6g}") for l, m, n, p, g in zip(
        lam.tolist(), mu.tolist(), mult.tolist(), pair_sup.tolist(), grad_sup.tolist()))
    freqs = ks / radii  # one row per lattice vector: its frequencies k_i/a_i

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
        modes=modes,
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
        norm = float(_sphere_modes(cs, 0.0, l)[4])

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
    if not 1 <= count <= len(spectrum.modes) or int(count) != count:
        raise DomainError(f"count must be an integer in [1, {len(spectrum.modes)}], got {count!r}")
    count = int(count)
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
