"""Eigendata of the shifted cross-section operator.

For the cone of dimension d over a cross-section Y with potential
coefficient V0, the kernel series is driven by the eigenvalues mu_j^2 and
eigenfunctions u_j of

    L_Y = Delta_Y + V0 + ((d-2)/2)^2,

which must be strictly positive (mu_j > 0).  A spectrum here is one
table of modes, a :class:`ModeArrays` ``table``: mu_j, multiplicity and
exact sup bounds as arrays, and ``pairs``, which returns for a range of
modes at once the eigenspace sum  sum_m u_{j,m}(y) conj(u_{j,m}(y'))  and
its derivative along the cross-section.  The sup bounds plus a tail
profile (closed-form control of all modes beyond the table) are what make
certified kernel truncation possible.

Providers: round spheres (Gegenbauer addition theorem, exact
multiplicities) and flat tori (lattice enumeration).  JSON files carrying
precomputed mode tables for abstract cross-sections are read and written
by :mod:`conekit.specfile`.

Each mode quantity has one vector formula: :func:`_sphere_modes` maps an
array of degrees to mu, multiplicity, sup bounds and Gegenbauer norms,
for the sphere's table and for its tail alike; the torus table is one
numpy enumeration of the lattice box, sorted and split into clusters;
:meth:`TailProfile.weights` defines the per-mode weight of each tail
kind (three for the resolvent, three for its lambda-integral), and
``log_sum_beyond`` sums the kinds in use beyond the table in one pass.

Sphere and torus tables grow: the provider's table closure, which built
the base table ``table``, is kept as ``CrossSectionSpectrum.grow``, and
:meth:`CrossSectionSpectrum.grown` builds a deeper table on demand (kept
on the spectrum, up to ``TABLE_CEILING`` entries) whose ``pairs``
continue the base table's chunk by chunk; a sphere's stops at
``TABLE_CEILING`` degrees, a torus's at the complete clusters of the
largest lattice box of ``TABLE_CEILING`` vectors.  ``table`` and
everything read from it (mu0, mu1, the descriptor, files) stay the base
table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .bessel import _OLVER_NU_MIN
from .errors import (
    DomainError,
    InsufficientSpectrumError,
    NormsOnlyError,
    PositivityError,
)
from .geometry import (
    CrossSection,
    SphereCrossSection,
    TorusCrossSection,
    check_dimension,
)

__all__ = [
    "CrossSectionSpectrum",
    "TailProfile",
    "CompleteTail",
    "SphereTail",
    "TorusTail",
    "sphere_spectrum",
    "torus_spectrum",
    "leading_modes",
]

_TAIL_KINDS = ("pair_over_2mu", "pair", "grad_over_2mu", "pair_over_sqrt_mu", "pair_sqrt_mu", "grad_over_sqrt_mu")
# The kernel, radial and angular kinds of the series at one lambda, and of its lambda-integral.
_RESOLVENT_KINDS, _INTEGRAL_KINDS = slice(0, 3), slice(3, 6)
# The most entries a table grown past the base table enumerates: sphere
# degrees or torus lattice vectors.  SphereTail keeps its degree table up
# to the same size.
TABLE_CEILING = 1 << 16


class TailProfile:
    """Rigorous control of every mode beyond the tabulated range.

    ``log_sum_beyond(s, mu_from, kinds)`` returns, for each tail kind in
    the slice ``kinds`` of ``_TAIL_KINDS`` (by default the resolvent's
    three), the log of a proven upper bound for the sum over all modes with
    mu > mu_from of weight(mode) * s**mu, where :meth:`weights` gives the
    weight of each kind.  The logs stay finite where s**mu underflows.
    The kinds:

    * ``"pair_over_2mu"``: sup|pair| / (2 mu)   (kernel tails),
    * ``"pair"``:          sup|pair|            (radial-derivative tails),
    * ``"grad_over_2mu"``: sup|grad pair|/(2 mu) (angular-derivative tails),

    and for the lambda-integral of the resolvent (the H^{-1/2} kernel and
    the Riesz kernel; see :func:`conekit.bessel.log_ik_integrals`):

    * ``"pair_over_sqrt_mu"``: sup|pair| / sqrt(mu),
    * ``"pair_sqrt_mu"``:      sup|pair| sqrt(mu),
    * ``"grad_over_sqrt_mu"``: sup|grad pair| / sqrt(mu).
    """

    @staticmethod
    def weights(mu, pair_sup, grad_sup) -> np.ndarray:
        """The weights of the six tail kinds, stacked in ``_TAIL_KINDS`` order."""
        root = np.sqrt(mu)
        return np.array([pair_sup / (2.0 * mu), pair_sup, grad_sup / (2.0 * mu), pair_sup / root,
                         pair_sup * root, grad_sup / root])

    def log_sum_beyond(self, s: float, mu_from: float, kinds=_RESOLVENT_KINDS) -> tuple[float, ...]:
        raise NotImplementedError


class CompleteTail(TailProfile):
    """A table that IS the whole spectrum (file-based operators)."""

    def log_sum_beyond(self, s, mu_from, kinds=_RESOLVENT_KINDS):
        return (-math.inf,) * len(_TAIL_KINDS[kinds])


class _MajorantTail(TailProfile):
    """Term-by-term tail sums, stopped by a geometric majorant.

    A subclass gives, for a block of n terms from index ``start`` past
    mu_from, each kind's weights, the exponents log(s**mu), and ratio caps
    rho with term(i+1) <= term(i) * rho(i) for every later i too.  A
    kind's sum stops at the first term with a positive weight whose
    majorant term * rho/(1 - rho) of all later terms is below 1e-6 of the
    running total (and is added to the bound), or which underflows to 0
    (the rest is then below float resolution).  The terms are summed
    relative to the first, s**mu of which is put back as a log, so a tail
    far below double range keeps its digits.  Blocks double in length up
    to 2**15 terms, so memory stays bounded as s approaches 1.
    """

    def _terms(self, s, mu_from, start, n, kinds):
        """(weights, log s**mu, ratio caps) of terms start .. start+n-1, a row per tail kind in ``kinds``."""
        raise NotImplementedError

    def log_sum_beyond(self, s, mu_from, kinds=_RESOLVENT_KINDS):
        if not 0.0 < s < 1.0:
            raise DomainError(f"tail bounds need 0 < s < 1, got {s!r}")
        bounds, carry, start, n, shift = {}, 0.0, 0, 64, None
        while start < 10_000_000:
            coef, log_term, rho = self._terms(s, mu_from, start, n, kinds)
            if shift is None:
                shift = float(log_term[0])
            term = coef * np.exp(log_term - shift)
            total = term.cumsum(axis=-1) + carry
            # term * rho <= 1e-6 * total * (1 - rho) with term > 0 implies rho < 1.
            stop = (coef > 0.0) & ((term == 0.0) | (term * rho <= 1e-6 * total * (1.0 - rho)))
            for k, i in enumerate(stop.argmax(axis=-1).tolist()):
                if k not in bounds and stop[k, i]:  # total, plus the majorant unless it underflowed
                    t, r = term[k, i], rho[k, i]
                    bounds[k] = float(total[k, i] + (t * r / (1.0 - r) if t > 0.0 else 0.0))
            if len(bounds) == len(term):
                return tuple(math.log(bounds[k]) + shift if bounds[k] > 0.0 else -math.inf
                             for k in range(len(term)))
            carry, start, n = total[:, -1:], start + n, min(2 * n, 1 << 15)
        raise ArithmeticError("tail failed to converge")  # pragma: no cover


def _sphere_modes(cross_section: SphereCrossSection, c0: float, l: np.ndarray):
    """Eigendata of the degree-l harmonics, for an array of degrees l.

    Returns (mu_l, N_l, pair_sup, grad_sup, norm, C_l(1)) with
    mu_l = sqrt(l(l+d-2)/a^2 + c0); N_l the dimension of the degree-l
    harmonics, as floats (exact while (2l+d-2) C(l+d-3, d-3) < 2^53);
    pair_sup = N_l/vol, the pair function at coincidence; grad_sup its
    derivative bound pair_sup * l(l+d-2)/((d-1) a); the Gegenbauer norm
    N_l/(vol C_l(1)) = (2l+d-2)/((d-2) vol); and C_l(1) = C(l+d-3, d-3),
    the Gegenbauer polynomial C_l^{(d-2)/2} at 1.
    """
    d, a, vol = cross_section.dim + 1, cross_section.radius, cross_section.volume
    l = np.asarray(l, dtype=float)
    mu = np.sqrt(l * (l + d - 2) / a**2 + c0)
    binom = np.ones_like(l)  # C(l+k, k) = C(l+k-1, k-1) (l+k)/k, exact integers
    for k in range(1, d - 2):
        binom = binom * (l + k) / k
    mult = (2 * l + d - 2) * binom / (d - 2)
    pair_sup = mult / vol
    return (mu, mult, pair_sup, pair_sup * l * (l + d - 2) / ((d - 1) * a), (2 * l + d - 2) / ((d - 2) * vol),
            binom)


def _degree_count(cross_section: SphereCrossSection, c0: float, mu: float) -> int:
    """A count of degrees from 0 that covers every l with mu_l <= mu (as mu_l^2 >= l^2/a^2 + c0)."""
    return int(cross_section.radius * math.sqrt(max(mu * mu - c0, 0.0))) + 1


class SphereTail(_MajorantTail):
    """Exact enumeration of sphere modes past the table.

    Multiplicities and eigenvalues have closed forms for every l
    (:func:`_sphere_modes`), so the tail is summed term by term with
    ratio caps

        rho(l) = (coefficient growth cap at l) * s**min(gap(l), 1/a).

    The cap is N_{l+1}/N_l, and for the gradient kinds the growth of
    grad_sup.  Both ratios are decreasing in l, and the eigenvalue gap
    mu_{l+1}-mu_l is monotone toward its limit 1/a from one side (the side
    depends only on sign(c)), so rho(l) caps every later ratio.  Weights
    falling with mu need no more; ``pair_sqrt_mu`` takes the cap times
    sup_{l' >= l} (mu_{l'+1}/mu_{l'})^{1/2}.  With t = l + (d-2)/2 and
    kappa = a^2 mu_l^2 - t^2, (mu_{l+1}/mu_l)^2 = 1 + (2t+1)/(t^2+kappa),
    whose t-derivative has the sign of kappa - t - t^2: it falls from
    t* = (sqrt(1 + 4 kappa) - 1)/2 on, where it is 1 + 1/t*.  The
    s-independent arrays are built once and extended on demand; the
    sphere's mode table (:func:`_sphere_table`) is sliced from the same
    kept table, so each degree is built and stored once.
    """

    def __init__(self, cross_section: SphereCrossSection, c0: float):
        self.cross_section = cross_section
        self.c0 = c0
        self._table = None  # _build(0, n) for the lowest n <= TABLE_CEILING degrees asked for so far

    def _build(self, lo: int, hi: int) -> np.ndarray:
        """Rows of the degrees lo .. hi-1: the 6 of :func:`_sphere_modes`, the 6 weights, the 6 ratio caps, the gap."""
        cs = self.cross_section
        rows = _sphere_modes(cs, self.c0, np.arange(lo, hi + 1))
        mu, mult, pair_sup, grad_sup = rows[:4]
        growth = mult[1:] / mult[:-1]
        # Degree 0 has grad_sup = 0, so it never stops the gradient sum and needs no cap.
        grad_growth = np.divide(grad_sup[1:], grad_sup[:-1], out=growth.copy(), where=grad_sup[:-1] > 0.0)
        nu = (cs.dim - 1) / 2.0
        kappa = cs.radius**2 * self.c0 - nu * nu
        t = np.maximum(np.arange(lo, hi) + nu, (math.sqrt(1.0 + 4.0 * kappa) - 1.0) / 2.0 if kappa > 0.0 else 0.0)
        root_growth = growth * (1.0 + (2.0 * t + 1.0) / (t * t + kappa)) ** 0.25
        return np.vstack([np.array(rows)[:, :-1], self.weights(mu, pair_sup, grad_sup)[:, :-1], growth, growth,
                          grad_growth, growth, root_growth, grad_growth, np.minimum(np.diff(mu), 1.0 / cs.radius)])

    def _degrees(self, lo: int, hi: int) -> np.ndarray:
        """_build(lo, hi), sliced from the kept table below TABLE_CEILING degrees."""
        if hi > TABLE_CEILING:
            return self._build(lo, hi)
        if self._table is None or self._table.shape[1] < hi:
            self._table = self._build(0, 1 << (hi - 1).bit_length())  # each extension at least doubles
        return self._table[:, lo:hi]

    def _terms(self, s, mu_from, start, n, kinds):
        top = mu_from * (1.0 + 1e-15)
        # Every degree l <= count - 1 - (d-2)/2 has mu_l <= top, and degree
        # count has mu_l > top, so the first degree past top lies between.
        count = _degree_count(self.cross_section, self.c0, top)
        lo = max(count - 2 - math.ceil((self.cross_section.dim - 1) / 2.0), 0)
        l0 = lo + int(self._degrees(lo, count + 1)[0].searchsorted(top, side="right")) + start
        table = self._degrees(l0, l0 + n)
        return table[6:12][kinds], table[0] * math.log(s), table[12:18][kinds] * s ** table[18]


class TorusTail(_MajorantTail):
    """Counting bound for torus modes past the table.

    Modes with mu in (M+m-1, M+m] are overcounted by the lattice box bound
    count(mu <= x) <= prod_i (2 a_i x + 3), each contributing at most
    s**(M+m-1).  Per mode, pair_sup <= 1/vol and grad_sup <= sqrt(lambda)/vol
    <= mu/vol, so each kind's weight is at most its value at pair_sup =
    1/vol and grad_sup = mu/vol, a power of mu: with mu in (M, M+m] that is
    the value at mu = M for the kinds it does not rise in, and at the shell
    top for the others.  The shell ratio cap is s * box(M+m+1)/box(M+m)
    times the kind's weight ratio between the shells, both falling in m.
    Crude but rigorous, and negligible for s <= 1/4 past any default cutoff.
    """

    # The kinds whose weight rises with mu at pair_sup = 1/vol, grad_sup = mu/vol.
    rising = (TailProfile.weights(2.0, 1.0, 2.0) > TailProfile.weights(1.0, 1.0, 1.0))[:, None]

    def __init__(self, cross_section: TorusCrossSection):
        self.radii = np.asarray(cross_section.radii)[:, None]
        self.volume = cross_section.volume

    def _terms(self, s, mu_from, start, n, kinds):
        x = mu_from + np.arange(start + 1.0, start + n + 2.0)  # shell tops, one more for the last ratio
        box = np.prod(2.0 * self.radii * x + 3.0, axis=0)
        weights = np.where(self.rising, self.weights(x, np.full_like(x, 1.0 / self.volume), x / self.volume),
                           self.weights(mu_from, 1.0 / self.volume, mu_from / self.volume)[:, None])
        rho = s * box[1:] / box[:-1] * (weights[:, 1:] / weights[:, :-1])
        return weights[kinds, :-1] * box[:-1], (x[:-1] - 1.0) * math.log(s), rho[kinds]


@dataclass(frozen=True)
class ModeArrays:
    """A table of modes as arrays sorted by mu: a provider's up to some mu, or a file's.

    ``mult`` holds the multiplicities (integers, as floats for spheres
    and files).  ``pair_sup`` and ``grad_sup`` are exact sup-norm bounds
    of each eigenspace kernel and of its derivative, read by certified
    tails; NaN for a file mode without addition coefficients.  ``tag`` is
    each mode's label value (sphere degree, torus lattice eigenvalue, or
    a file mode's cosine coefficients as a tuple, None without) and
    ``label`` the format of a label from a tag.  ``pairs(y, y', gamma,
    lo, hi, state, with_grad=True)`` returns the pair values of modes
    lo .. hi-1 at cross-section distance gamma, their derivatives (None
    without ``with_grad``), and a state from which the next call, from hi
    on, continues (``state`` is None for lo = 0); it is None for a table
    of norms only.
    """

    mu: np.ndarray
    mult: np.ndarray
    pair_sup: np.ndarray
    grad_sup: np.ndarray
    tag: np.ndarray
    label: str
    pairs: Callable | None

    @cached_property
    def log_weights(self) -> np.ndarray:
        """The log of every mode's tail weights (:meth:`TailProfile.weights`)."""
        with np.errstate(divide="ignore"):
            return np.log(TailProfile.weights(self.mu, self.pair_sup, self.grad_sup))

    def labels(self) -> list[str]:
        """Each mode's label: ``label`` formatted with its tag."""
        return [self.label.format(t) for t in self.tag.tolist()]

    def head(self, count: int) -> ModeArrays:
        """The first ``count`` modes: views of these arrays, with the same ``pairs`` and log weights."""
        head = replace(self, mu=self.mu[:count], mult=self.mult[:count], pair_sup=self.pair_sup[:count],
                       grad_sup=self.grad_sup[:count], tag=self.tag[:count])
        head.__dict__["log_weights"] = self.log_weights[:, :count]
        return head


@dataclass(frozen=True)
class CrossSectionSpectrum:
    """Mode table of L_Y for one cone, sorted by mu ascending.

    The provider promises completeness: every eigenvalue with mu at or
    below ``mu_cutoff`` appears (equal-mu clusters merged).  ``table``
    holds the modes, their sup bounds the tails read and the pair
    functions behind :meth:`pair_values`; without pair functions the
    spectrum is norms-only.  Every spectrum has a cross-section, and every
    table with pair functions has a tail profile (a norms-only one may
    have none), so every kernel value off r = r' bounds its truncation
    rigorously; the constructor raises :class:`DomainError` otherwise.
    ``grow`` is the provider's table closure, mu_max ->
    :class:`ModeArrays` (see :meth:`grown`), which built ``table`` too;
    spectra without one (files, sub-spectra) never grow.
    """

    d: int
    table: ModeArrays
    v0_descriptor: str
    cross_section: CrossSection
    v0_constant: float | None = None
    tail_profile: TailProfile | None = None
    mu_cutoff: float | None = None
    grow: Callable | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", check_dimension(self.d))
        if not self.table.mu.size:
            raise InsufficientSpectrumError("spectrum has no modes")
        if (np.diff(self.table.mu) <= 0.0).any():
            raise DomainError("modes must be sorted strictly ascending in mu")
        if self.cross_section is None:
            raise DomainError("spectrum carries no cross-section; every spectrum needs one")
        if self.tail_profile is None and self.table.pairs is not None:
            raise DomainError("a table with pair functions needs a tail profile to bound its truncation")

    @property
    def mu0(self) -> float:
        """Smallest mu (square root of the bottom eigenvalue of L_Y)."""
        return float(self.table.mu[0])

    @property
    def mu1(self) -> float:
        """Smallest mu strictly greater than mu0."""
        if self.table.mu.size < 2:
            raise InsufficientSpectrumError(
                "second distinct eigenvalue requested but the table has one mode; "
                "raise mu_cutoff or supply more modes"
            )
        return float(self.table.mu[1])

    @property
    def pair_table(self) -> ModeArrays:
        """``table``; a norms-only spectrum raises :class:`NormsOnlyError`."""
        if self.table.pairs is None:
            raise NormsOnlyError(
                "spectrum carries mode norms only (no pair functions); "
                "kernel evaluation is impossible"
            )
        return self.table

    @cached_property
    def _grown(self) -> list:
        return []  # [mu_max, table] of the largest table grown so far, once there is one

    def grown(self, mu_max: float) -> ModeArrays | None:
        """A table of every mode with mu <= mu_max, past ``table`` too.

        The table may run further; its first entries are ``table``'s.  It
        stops at ``TABLE_CEILING`` entries: a sphere's at that many
        degrees, a torus's at the complete clusters of the largest lattice
        box of that many vectors.  The largest table built so far is kept
        and serves every smaller mu_max.  None when the spectrum does not
        grow.
        """
        if self.grow is None:
            return None
        kept = self._grown
        if not kept or kept[0] < mu_max:
            kept[:] = [mu_max, self.grow(mu_max, TABLE_CEILING)]
        return kept[1]

    def pair_values(self, y, yp, with_grad: bool = True):
        """Every mode's eigenspace kernel at (y, y'), and its derivative at y.

        Both arrays are aligned with ``table``.  The derivative is per unit
        cross-section arc length, along the direction of increasing
        separation from y' (None without ``with_grad``).
        """
        table = self.pair_table
        return table.pairs(y, yp, self.cross_section.distance(y, yp), 0, table.mu.size, None, with_grad)[:2]

    def descriptor(self) -> str:
        return (
            f"d={self.d} cross_section={self.cross_section.descriptor()} v0={self.v0_descriptor} "
            f"modes={self.table.mu.size} mu0={self.mu0:.6g}"
        )


def _default_cutoff(mu_bottom: float) -> float:
    # 30 past mu0, and at least the Bessel engine's first Olver order: the
    # default table of a cone with mu0 <= 10 then takes no Olver pass.
    return max(_OLVER_NU_MIN, mu_bottom + 30.0)


def _mu0_squared(d: int, c):
    """mu0^2 = c + (d-2)^2/4 for the constant potential V0 = c.

    A float c gives the float c + Fraction((d-2)^2, 4) bit for bit while
    4c is finite (|c| < 2^1022): the scalings by 4 are exact, so the one
    rounding is that of the sum.  A Fraction c gives the exact Fraction.
    """
    return (4 * c + (d - 2) ** 2) / 4


def _check_positivity(d: int, c: float) -> float:
    """mu0^2 for V0 = c; a PositivityError unless it is > 0 and c is finite, a DomainError where it overflows."""
    c0 = _mu0_squared(d, c)
    if not math.isfinite(c) or c0 <= 0.0:
        raise PositivityError(
            f"coupling c = {c!r} violates c > -((d-2)/2)^2 = {-_mu0_squared(d, 0.0)}"
        )
    if not math.isfinite(c0):
        raise DomainError(f"coupling c = {c!r} is too large: mu0^2 = c + ((d-2)/2)^2 overflows")
    return c0


def _gegenbauer_steps(alpha: float, count: int) -> tuple[list, list]:
    """The coefficients 2(k+alpha)/(k+2 alpha) and k/(k+2 alpha), k = 0 .. count-1, of :func:`_gegenbauer_ratios`."""
    k = np.arange(float(count))
    return (2.0 * (k + alpha) / (k + 2.0 * alpha)).tolist(), (k / (k + 2.0 * alpha)).tolist()


def _gegenbauer_ratios(steps, x, lo: int, hi: int, state=None):
    """C_l^alpha(x) / C_l^alpha(1) at one point x for the degrees l = lo .. hi-1, and the state at hi-1.

    The normalized three-term recurrence p_l = p_{l-1} + d_l with
    d_l = 2(k+alpha)/(k+2 alpha) (x-1) p_{l-1} + k/(k+2 alpha) d_{l-1},
    k = l-1, from p_0 = 1, p_1 = x and d_1 = x-1; ``steps`` are
    :func:`_gegenbauer_steps` for at least hi-1 values of k.  It is the
    form scipy's ``eval_gegenbauer`` runs at integer degree, so the two
    agree to the last bit (except within 1e-5 of x = 0, where scipy sums a
    series).  ``state`` is (d, p) at degree lo-1, needed for lo >= 2.
    """
    if lo <= 1:
        out, (d, p), lo = [1.0, x][lo:hi], (x - 1.0, x), 2
    else:
        out, (d, p) = [], state
    xm1, append = x - 1.0, out.append
    top = max(hi - 1, 0)  # hi = 0 (no degree) must not wrap to the last step
    for a, b in zip(steps[0][lo - 1:top], steps[1][lo - 1:top]):
        d = a * xm1 * p + b * d
        p = d + p
        append(p)
    return np.array(out), (d, p)


def _sphere_table(tail: SphereTail, mu_max: float, limit: int | None = None):
    """ModeArrays of every degree with mu_l <= mu_max, at most the first ``limit``.

    The arrays are views of the tail's kept degree table.  Pair functions
    come from the Gegenbauer addition theorem,
    pair_l = norm_l C_l^nu(cos(gamma/a)) with nu = (d-2)/2, and
    d/d(arc) pair_l = -(2 nu/a) sin(gamma/a) norm_l C_{l-1}^{nu+1}(cos(gamma/a)),
    both by :func:`_gegenbauer_ratios` at the one separation gamma, times
    C_l^nu(1) = C(l+d-3, d-3) and C_{l-1}^{nu+1}(1) = C(l+d-2, d-1).
    """
    cs = tail.cross_section
    count = _degree_count(cs, tail.c0, mu_max)
    if limit is not None:
        count = min(count, limit)
    rows = tail._degrees(0, count)
    count = int(np.searchsorted(rows[0], mu_max, side="right"))
    mu, mult, pair_sup, grad_sup, norms, c_one = rows[:6, :count]
    d, a = cs.dim + 1, cs.radius
    nu = (d - 2) / 2.0
    l = np.arange(count)
    c_one_grad = c_one * (l + d - 2) * l / ((d - 2) * (d - 1))
    steps, steps_grad = _gegenbauer_steps(nu, count), _gegenbauer_steps(nu + 1.0, count)

    def pairs(y, yp, gamma, lo, hi, state, with_grad=True):
        x = math.cos(gamma / a)
        pair, state_pair = _gegenbauer_ratios(steps, x, lo, hi, state and state[0])
        if not with_grad:
            return norms[lo:hi] * (c_one[lo:hi] * pair), None, (state_pair, None)
        g_lo = max(lo, 1)  # degree 0 has no gradient
        grad_ratio, state_grad = _gegenbauer_ratios(steps_grad, x, g_lo - 1, hi - 1, state and state[1])
        grad = np.zeros(hi - lo)
        grad[g_lo - lo:] = (-2.0 * nu / a * math.sin(gamma / a)) * norms[g_lo:hi] \
            * (c_one_grad[g_lo:hi] * grad_ratio)
        return norms[lo:hi] * (c_one[lo:hi] * pair), grad, (state_pair, state_grad)

    return ModeArrays(mu, mult, pair_sup, grad_sup, l, "l={}", pairs)


def _torus_table(cs: TorusCrossSection, c0: float, mu_max: float, limit: int | None = None):
    """ModeArrays of every lattice cluster with mu <= mu_max, or of every cluster in the largest box of ``limit``.

    The lattice box, rows in itertools.product order, stably sorted by
    lambda; a new cluster starts where lambda jumps by more than
    1e-9 (1 + lambda), and its rows are contiguous.  Where the box of
    mu_max holds more than ``limit`` lattice vectors, its outermost layer
    is dropped until it fits; the box then holds every vector with
    sqrt(lambda) below the dropped layer's t = max_i k_i/a_i, and the table
    every cluster with lambda < t^2.  A cluster's pair function sums the
    cosines of its lattice frequencies against the angle difference (one
    product, then ``np.add.reduceat``).
    """
    lam_max = mu_max**2 - c0
    radii = np.asarray(cs.radii)
    t = math.sqrt(max(lam_max, 0.0))
    if limit is not None:
        # Past this t every side holds more than limit**(1/n) vectors: the box passes limit.
        t = min(t, (limit ** (1.0 / radii.size) + 3.0) / (2.0 * float(radii.min())))
    kmax = np.floor(radii * t)
    while limit is not None and math.prod((2.0 * kmax + 1.0).tolist()) > limit:  # in floats: no int64 wrap
        t = float((kmax / radii).max())
        kmax = np.minimum(np.ceil(radii * t) - 1.0, kmax - (kmax / radii == t))
        lam_max = t * t - 1e-9 * (1.0 + t * t)  # the clusters at t^2 may reach past the box
    kmax = kmax.astype(int)
    ks = np.stack(np.meshgrid(*[np.arange(-k, k + 1) for k in kmax], indexing="ij"), axis=-1)
    ks = ks.reshape(-1, len(radii))
    lam = sum((ks[:, i] / a) ** 2 for i, a in enumerate(cs.radii))
    keep = np.flatnonzero(lam <= lam_max * (1.0 + 1e-12))
    keep = keep[np.argsort(lam[keep], kind="stable")]
    ks, lam = ks[keep], lam[keep]
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > 1e-9 * (1.0 + lam))
    mult, lam = np.diff(starts, append=lam.size), lam[starts]
    vol = cs.volume
    freqs = ks / radii  # one row per lattice vector: its frequencies k_i/a_i

    def pairs(y, yp, gamma, lo, hi, state, with_grad=True):
        rows = freqs[starts[lo]:starts[hi] if hi < len(starts) else len(freqs)]
        at = starts[lo:hi] - starts[lo]
        delta = TorusCrossSection._wrap(cs._angles(y) - cs._angles(yp))
        phase = rows @ delta
        pair = np.add.reduceat(np.cos(phase), at) / vol
        if not with_grad:
            return pair, None, None
        if gamma == 0.0:
            return pair, np.zeros(hi - lo), None
        speed = rows @ (delta / gamma)  # d(k.delta)/d arclength
        return pair, -np.add.reduceat(np.sin(phase) * speed, at) / vol, None

    return ModeArrays(np.sqrt(lam + c0), mult, mult / vol, mult * np.sqrt(lam) / vol, lam, "lambda={:.6g}", pairs)


def _cross_section(d: int, radii=None, **sphere) -> CrossSection:
    """The cross-section of a d-cone, d an integer >= 3: the flat torus of ``radii``, else the round sphere of ``sphere``."""
    cs = SphereCrossSection(d - 1, **sphere) if radii is None else TorusCrossSection(radii)
    if cs.dim != d - 1:
        raise DomainError(f"{cs.dim} radii inconsistent with cone dimension {d}")
    return cs


def _provider_spectrum(d: int, c: float, cs: CrossSection, c0: float, lam1: float, mu_cutoff, build, tail):
    """The spectrum of the modes ``build`` tabulates up to the cutoff; ``build`` stays as its growth."""
    # mu1 = sqrt(lam1 + c0), lam1 the lowest nonzero eigenvalue of Delta_Y, must round above mu0.
    if math.sqrt(lam1 + c0) == math.sqrt(c0):
        raise DomainError(f"c = {c!r} on {cs.descriptor()}: mu0 = {math.sqrt(c0)!r} and mu1 round to one float")
    cutoff = float(mu_cutoff) if mu_cutoff is not None else _default_cutoff(math.sqrt(c0))
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise DomainError(f"mu_cutoff must be finite and > 0, got {mu_cutoff!r}")
    table = build(cutoff)
    if not table.mu.size:
        raise InsufficientSpectrumError(
            f"mu_cutoff = {cutoff} lies below the bottom mode mu0 = {math.sqrt(c0)}"
        )
    return CrossSectionSpectrum(
        d=d,
        table=table,
        v0_descriptor=f"constant:{float(c)!r}",
        cross_section=cs,
        v0_constant=float(c),
        tail_profile=tail,
        mu_cutoff=cutoff,
        grow=build,
    )


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
    alone, maximal at coincidence), by one recurrence over the degrees.
    """
    d = check_dimension(d)
    c0 = _check_positivity(d, float(c))
    cs = _cross_section(d, radius=radius)
    tail = SphereTail(cs, c0)
    return _provider_spectrum(d, c, cs, c0, cs.dim / cs.radius**2, mu_cutoff, functools.partial(_sphere_table, tail), tail)


def torus_spectrum(
    d: int,
    radii,
    c: float = 0.0,
    mu_cutoff: float | None = None,
) -> CrossSectionSpectrum:
    """Spectrum for a flat torus cross-section with constant V0 = c.

    Eigenvalues are lattice sums sum (k_i/a_i)^2; equal values (within
    1e-9 relative) are merged into one mode whose pair function sums the
    cluster's cosines.
    """
    d = check_dimension(d)
    cs = _cross_section(d, radii)
    c0 = _check_positivity(d, float(c))
    return _provider_spectrum(d, c, cs, c0, (1.0 / max(cs.radii)) ** 2, mu_cutoff,
                              functools.partial(_torus_table, cs, c0), TorusTail(cs))


def leading_modes(spectrum: CrossSectionSpectrum, count: int = 1) -> CrossSectionSpectrum:
    """The sub-operator spanned by the first ``count`` modes.

    The result is exact for that sub-kernel (its tail is empty), which is
    what refined single-mode estimates evaluate.  Its table is the
    parent's first ``count`` entries (:meth:`ModeArrays.head`).
    """
    size = spectrum.table.mu.size
    if not 1 <= count <= size or int(count) != count:
        raise DomainError(f"count must be an integer in [1, {size}], got {count!r}")
    table = spectrum.table.head(int(count))
    return replace(
        spectrum,
        table=table,
        tail_profile=CompleteTail(),
        v0_descriptor=f"{spectrum.v0_descriptor}|leading:{int(count)}",
        mu_cutoff=float(table.mu[-1]),
        grow=None,
    )
