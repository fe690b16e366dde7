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
profile (closed-form control of all modes beyond the table, finite for
every s < 1) are what make certified kernel truncation possible.

Providers: round spheres (Gegenbauer addition theorem, exact
multiplicities) and flat tori (lattice enumeration).  JSON files carrying
precomputed mode tables for abstract cross-sections are read and written
by :mod:`conekit.specfile`.

Each mode quantity has one vector formula: :func:`_sphere_modes` maps an
array of degrees to mu, multiplicity and sup bounds, and a degree's pair
function and its derivative are ``pair_sup`` times one Gegenbauer pass
and its x-derivative; the torus table is one numpy enumeration of the
lattice box, sorted and split into clusters; :meth:`TailProfile.weights`
defines the per-mode weight of each tail kind (three for the resolvent,
three for its lambda-integral).  ``log_sum_beyond`` bounds the kinds in use beyond a
table without reading one: each weight is at most a polynomial in the
degree (spheres) or shell (tori) past the table, and s**mu at most a
geometric sequence in it, so each tail is at most a positive combination
of the sums  sum_k C(k, j) q**k = q**j/(1-q)**(j+1)  (:func:`_log_poly_sums`).

A provider is its tail profile (:class:`SphereTail`, :class:`TorusTail`):
one object holding the cross-section and c0 that builds the tables and
bounds the modes past them.  :meth:`CrossSectionSpectrum.grown` asks it
for a deeper table on demand, kept on the spectrum, up to
``TABLE_CEILING`` entries (a sphere's degrees, a torus's largest box);
a table the ceiling cut serves every later request.
:meth:`CrossSectionSpectrum.chunks`, the one read schedule, off r = r'
and on it, reads the base table, then chunks that at most double the
entries read, growing the table ``_GROWTH``-fold in mu where it is too
short.  ``table`` and what is read from it (mu0, mu1, the descriptor,
files) stay the base table.  At r = r' the resolvent's tau rule reads the
modes only through :meth:`CrossSectionSpectrum.node_sums`, the heat
kernel's mode sums at its nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .bessel import _EPS, _LN2, _OLVER_NU_MIN, log_scaled
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
# degrees or torus lattice vectors.
TABLE_CEILING = 1 << 16
# A chunk past a table's end grows it to this many times the mu one gap past its top.
_GROWTH = 4
# The most entries a base table may enumerate: the default boxes of the
# (5, 5) and (1, 0.8, 1.2) tori (d = 3 and 4, c = 0) hold 159,201 and 472,815
# lattice vectors.
_BASE_TABLE_LIMIT = 1 << 20
# The heat kernel's node sums: past mu = 9 sqrt(x) + 12 every term of a node
# is below e^{-40} of its largest (measured, not proved).
_DIAG_MU_SLOPE, _DIAG_MU_FLOOR = 9.0, 12.0


class TailProfile:
    """Rigorous control of every mode beyond the tabulated range.

    ``log_sum_beyond(s, mu_from, kinds)`` returns, for each tail kind in
    the slice ``kinds`` of ``_TAIL_KINDS`` (by default the resolvent's
    three), the log of a proven upper bound for the sum over all modes with
    mu > mu_from of weight(mode) * s**mu, where :meth:`weights` gives the
    weight of each kind.  It needs 0 < s < 1 (:class:`DomainError`
    otherwise), and the logs stay finite where s**mu underflows.  The kinds:

    * ``"pair_over_2mu"``: sup|pair| / (2 mu)   (kernel tails),
    * ``"pair"``:          sup|pair|            (radial-derivative tails),
    * ``"grad_over_2mu"``: sup|grad pair|/(2 mu) (angular-derivative tails),

    and for the lambda-integral of the resolvent (the H^{-1/2} kernel and
    the Riesz kernel; see :func:`conekit.bessel.log_ik_integrals`):

    * ``"pair_over_sqrt_mu"``: sup|pair| / sqrt(mu),
    * ``"pair_sqrt_mu"``:      sup|pair| sqrt(mu),
    * ``"grad_over_sqrt_mu"``: sup|grad pair| / sqrt(mu).

    A provider's bound is a closed form, finite for every s < 1.  Its
    :meth:`_series` bounds, for the modes past mu_from in some order
    k = 0, 1, ..., each mu below by m + k g and the weights sup|pair|/(2 mu),
    sup|pair|, sup|grad pair|/(2 mu), sup|pair| mu and sup|grad pair| above
    by e^{c_j} P_j(k), P_j polynomials with nonnegative coefficients in the
    basis C(k, j), so each sum is at most s**m e^{c_j} sum_k P_j(k) q**k,
    q = s**g (:func:`_log_poly_sums`).  The sqrt(mu) kinds follow by
    Cauchy-Schwarz: sum w s**mu mu**(-+1/2) <= (sum w s**mu * sum w s**mu
    mu**(-+1))**(1/2).
    """

    @staticmethod
    def weights(mu, pair_sup, grad_sup) -> np.ndarray:
        """The weights of the six tail kinds, stacked in ``_TAIL_KINDS`` order."""
        root = np.sqrt(mu)
        return np.array([pair_sup / (2.0 * mu), pair_sup, grad_sup / (2.0 * mu), pair_sup / root,
                         pair_sup * root, grad_sup / root])

    def log_sum_beyond(self, s: float, mu_from: float, kinds=_RESOLVENT_KINDS) -> tuple[float, ...]:
        if not 0.0 < s < 1.0:
            raise DomainError(f"tail bounds need 0 < s < 1, got {s!r}")
        m, g, polys, consts = self._series(float(mu_from))
        log_s = math.log(s)
        kernel, pair, grad_kernel, pair_mu, grad = (v + c for v, c in zip(_log_poly_sums(g * log_s, polys), consts))
        # 1e-12 covers the rounding of sums of positive terms, the rest 4 ulps of log s**m.
        pad = m * log_s + 1e-12 + 4.0 * _EPS * abs(m * log_s)
        return tuple(pad + v for v in (kernel, pair, grad_kernel, (pair + kernel + _LN2) / 2.0, (pair + pair_mu) / 2.0,
                                        (grad + grad_kernel + _LN2) / 2.0)[kinds])

    def _series(self, mu_from: float) -> tuple[float, float, list, list]:
        """m, g, the five polynomials P_j and their log factors c_j past mu_from."""
        raise NotImplementedError


class CompleteTail(TailProfile):
    """A table that IS the whole spectrum (file-based operators)."""

    def log_sum_beyond(self, s, mu_from, kinds=_RESOLVENT_KINDS):
        return (-math.inf,) * len(_TAIL_KINDS[kinds])


def _times_linear(poly: list, c: float) -> list:
    """poly(k) (k + c) in the basis C(k, j), by (k + c) C(k, j) = (j+1) C(k, j+1) + (j + c) C(k, j).

    For c >= 0 nonnegative coefficients stay nonnegative.
    """
    return [(j + c) * x + j * y for j, (x, y) in enumerate(zip(poly + [0.0], [0.0] + poly))]


def _log_poly_sums(log_q: float, polys) -> list[float]:
    """log sum_{k >= 0} P(k) q^k, q = e^log_q < 1, for each P = sum_j p_j C(k, j) with p_j >= 0.

    sum_k C(k, j) q^k = q^j / (1-q)^{j+1}: a sum of positive terms, taken in
    logs, where 1 - q = -expm1(log q) keeps its digits as q approaches 1.
    """
    log_gap, out = math.log(-math.expm1(log_q)), []
    for poly in polys:
        logs = [j * log_q - (j + 1) * log_gap + math.log(p) for j, p in enumerate(poly) if p > 0.0]
        peak = max(logs)
        out.append(peak + math.log(sum(math.exp(v - peak) for v in logs)))
    return out


def _sphere_mu(d: int, a: float, c0: float, l):
    """mu_l = sqrt(l(l+d-2)/a^2 + c0) of the degree-l harmonics: of one degree, or of an array of degrees."""
    return (np.sqrt if isinstance(l, np.ndarray) else math.sqrt)(l * (l + d - 2) / a**2 + c0)


def _sphere_modes(cross_section: SphereCrossSection, c0: float, l: np.ndarray):
    """Eigendata of the degree-l harmonics, for an array of degrees l.

    Returns (mu_l, N_l, pair_sup, grad_sup) with mu_l by :func:`_sphere_mu`;
    N_l the dimension of the degree-l harmonics, as floats (exact while
    (2l+d-2) C(l+d-3, d-3) < 2^53); pair_sup = N_l/vol, the pair function
    at coincidence; and grad_sup its derivative bound
    pair_sup * l(l+d-2)/((d-1) a).
    """
    d, a, vol = cross_section.dim + 1, cross_section.radius, cross_section.volume
    l = np.asarray(l, dtype=float)
    binom = np.ones_like(l)  # C(l+k, k) = C(l+k-1, k-1) (l+k)/k, exact integers
    for k in range(1, d - 2):
        binom = binom * (l + k) / k
    mult = (2 * l + d - 2) * binom / (d - 2)
    pair_sup = mult / vol
    return _sphere_mu(d, a, c0, l), mult, pair_sup, pair_sup * l * (l + d - 2) / ((d - 1) * a)


def _gegenbauer_ratios(steps, x, lo: int, hi: int, state=None, with_grad: bool = False):
    """p_l = C_l^nu(x) / C_l^nu(1) at one point x for l = lo .. hi-1, p'_l (None without ``with_grad``), and a state.

    The normalized three-term recurrence p_l = p_{l-1} + d_l with
    d_l = a_k (x-1) p_{l-1} + b_k d_{l-1}, k = l-1, from p_0 = 1, p_1 = x
    and d_1 = x-1; ``steps`` are the lists of a_k = 2(k+nu)/(k+2 nu) and
    b_k = k/(k+2 nu) for at least k < hi-1.  It is the form scipy's
    ``eval_gegenbauer`` runs at integer degree, so the two agree to the
    last bit (except within 1e-5 of x = 0, where scipy sums a series).
    With ``with_grad`` the same loop carries the x-derivative,
    d'_l = a_k (p_{l-1} + (x-1) p'_{l-1}) + b_k d'_{l-1} and
    p'_l = p'_{l-1} + d'_l from p'_0 = 0 and p'_1 = d'_1 = 1; without it
    the loop carries p alone.  The state is (d, p) at degree hi-1, then
    (d', p') with ``with_grad``; the call for degrees from lo >= 2 on needs
    the one at lo-1.
    """
    xm1, top = x - 1.0, max(hi - 1, 0)  # hi = 0 (no degree) must not wrap to the last step
    out, out_dx = [], []
    if lo <= 1:
        out, out_dx, state, lo = [1.0, x][lo:hi], [0.0, 1.0][lo:hi], (xm1, x, 1.0, 1.0), 2
    append, a_k, b_k = out.append, steps[0][lo - 1:top], steps[1][lo - 1:top]
    if not with_grad:
        d, p = state[:2]
        for a, b in zip(a_k, b_k):
            d = a * xm1 * p + b * d
            p = d + p
            append(p)
        return np.array(out), None, (d, p)
    d, p, d_dx, p_dx = state
    append_dx = out_dx.append
    for a, b in zip(a_k, b_k):
        d_dx = a * (p + xm1 * p_dx) + b * d_dx
        d = a * xm1 * p + b * d
        p = d + p
        p_dx = d_dx + p_dx
        append(p)
        append_dx(p_dx)
    return np.array(out), np.array(out_dx), (d, p, d_dx, p_dx)


class SphereTail(TailProfile):
    """The round-sphere provider: its mode tables, and a closed-form bound on the modes past one.

    With nu = (d-2)/2 and kappa = a^2 c0 - nu^2, a mu_l = sqrt((l+nu)^2 + kappa).
    Let l = L + k past mu_from, m = mu_L.  The gaps mu_{l+1} - mu_l tend to
    1/a, rising for kappa > 0 and falling for kappa < 0, so mu_l >= m + k g
    with g = min(mu_{L+1} - mu_L, 1/a).  With N_l = 2 (l+nu) C(l+d-3, d-3)
    /(d-2), each weight is at most a polynomial in k with nonnegative
    coefficients: 1/mu_l <= rho a/(l+nu) with rho = max(1, (L+nu)/(a m)),
    as (l+nu)/(a mu_l) is below 1 for kappa >= 0 and falls in l for
    kappa < 0; mu_l <= (l + nu + sqrt(max(kappa, 0)))/a; and grad_sup =
    N_l l(l+d-2)/((d-1) a vol).

    For c = 0 on the unit sphere (kappa = 0) the first three kinds are
    exact; past the default tables they are within 1% elsewhere, and the
    sqrt(mu) kinds within 12% (Cauchy-Schwarz).
    """

    def __init__(self, cross_section: SphereCrossSection, c0: float):
        self.cross_section, self.c0 = cross_section, c0
        self.lam1 = cross_section.dim / cross_section.radius**2  # the lowest nonzero eigenvalue of Delta_Y

    def count(self, mu_max: float) -> int:
        """A count of degrees from 0 that covers every l with mu_l <= mu_max (as mu_l^2 >= l^2/a^2 + c0)."""
        return int(self.cross_section.radius * math.sqrt(max(mu_max * mu_max - self.c0, 0.0))) + 1

    def cut(self, mu_max: float, limit: int) -> bool:
        """Whether ``limit`` cuts the table of mu_max: it then holds ``limit`` degrees, as for every larger mu_max."""
        return _sphere_mu(self.cross_section.dim + 1, self.cross_section.radius, self.c0, limit - 1) <= mu_max

    def table(self, mu_max: float, limit: int | None = None) -> ModeArrays:
        """ModeArrays of every degree with mu_l <= mu_max, at most the first ``limit``.

        The rows are :func:`_sphere_modes`'.  By the Gegenbauer addition
        theorem, pair_l = pair_sup_l p_l(x) and d/d(arc) pair_l =
        -(sin(gamma/a)/a) pair_sup_l p'_l(x), with p_l = C_l^nu(x) / C_l^nu(1),
        nu = (d-2)/2 and x = cos(gamma/a): both from one pass of
        :func:`_gegenbauer_ratios` at the one separation gamma.
        """
        cs, count = self.cross_section, self.count(mu_max)
        rows = _sphere_modes(cs, self.c0, np.arange(count if limit is None else min(count, limit)))
        count = int(np.searchsorted(rows[0], mu_max, side="right"))
        mu, mult, pair_sup, grad_sup = (row[:count] for row in rows)
        a, nu, k = cs.radius, (cs.dim - 1) / 2.0, np.arange(float(count))
        steps = (2.0 * (k + nu) / (k + 2.0 * nu)).tolist(), (k / (k + 2.0 * nu)).tolist()

        def pairs(y, yp, gamma, lo, hi, state, with_grad=True):
            p, p_dx, state = _gegenbauer_ratios(steps, math.cos(gamma / a), lo, hi, state, with_grad)
            sup = pair_sup[lo:hi]
            return sup * p, None if p_dx is None else (-math.sin(gamma / a) / a) * sup * p_dx, state

        return ModeArrays(mu, mult, pair_sup, grad_sup, np.arange(count), "l={}", pairs)

    @functools.lru_cache(maxsize=256)  # s-free: sweeps reuse a few chunk tops
    def _series(self, mu_from):
        d, a, c0 = self.cross_section.dim + 1, self.cross_section.radius, self.c0
        nu, kappa = (d - 2) / 2.0, a * a * c0 - ((d - 2) / 2.0) ** 2
        mu = functools.partial(_sphere_mu, d, a, c0)
        top = mu_from * (1.0 + 1e-15)  # mu_l = top at l + nu = sqrt(a^2 (top^2 - c0) + nu^2)
        l = max(int(math.sqrt(max(a * a * (top * top - c0) + nu * nu, 0.0)) - nu) - 2, 0)
        while mu(l) <= top:
            l += 1
        m = mu(l)
        # mu_{l+1} - mu_l = (2l + d - 1) / (a^2 (mu_{l+1} + mu_l)), rounded down
        g = min((2 * l + d - 1) / (a * a * (m + mu(l + 1))) * (1.0 - 8.0 * _EPS), 1.0 / a)
        # b = (d-3)! C(l+d-3, d-3); with the (d-2)! of N_l = 2 (l+nu) b/(d-2)!, the weights
        # are at most b rho a, 2 b (l+nu), b rho l (l+d-2)/(d-1), 2 b (l+nu) (l+nu+sqrt(kappa))/a
        # and 2 b (l+nu) l (l+d-2)/((d-1) a), over (d-2)! vol.
        b = functools.reduce(_times_linear, range(l + 1, l + d - 2), [1.0])
        bx = _times_linear(b, l + nu)
        bll = _times_linear(_times_linear(b, l), l + d - 2)
        polys = [b, bx, bll, _times_linear(bx, l + nu + math.sqrt(max(kappa, 0.0))), _times_linear(bll, l + nu)]
        log_vol, rho = math.log(self.cross_section.volume) + math.lgamma(d - 1), max(1.0, (l + nu) / (a * m))
        return m, g, polys, [math.log(rho * a) - log_vol, _LN2 - log_vol, math.log(rho / (d - 1)) - log_vol,
                              _LN2 - log_vol - math.log(a), _LN2 - log_vol - math.log((d - 1) * a)]


class TorusTail(TailProfile):
    """The flat-torus provider: its mode tables, and a counting bound on the modes past one.

    Modes with mu in (M+k, M+k+1], M = mu_from, are overcounted by the
    lattice box bound count(mu <= x) <= prod_i (2 a_i x + 3), a polynomial
    in k at the shell top x = M+k+1, each contributing at most s**(M+k).
    Per mode, pair_sup <= 1/vol and grad_sup <= sqrt(lambda)/vol <= mu/vol,
    so each kind's weight is at most its value at pair_sup = 1/vol and
    grad_sup = mu/vol: at mu = M for the kinds it does not rise in, and at
    x for the two it rises in, as sqrt(x).  Crude but rigorous, and
    negligible for s <= 1/4 past any default cutoff.
    """

    def __init__(self, cross_section: TorusCrossSection, c0: float):
        self.cross_section, self.c0 = cross_section, c0
        self.lam1 = (1.0 / max(cross_section.radii)) ** 2  # the lowest nonzero eigenvalue of Delta_Y

    def count(self, mu_max: float) -> float:
        """The lattice vectors in :meth:`table`'s box of mu_max, in floats: prod_i (2 floor(a_i t) + 1)."""
        t = math.sqrt(max(mu_max**2 - self.c0, 0.0))
        return math.prod((2.0 * np.floor(np.asarray(self.cross_section.radii) * t) + 1.0).tolist())

    def cut(self, mu_max: float, limit: int) -> bool:
        """Whether ``limit`` cuts the table of mu_max: it is then the largest box's, as for every larger mu_max."""
        return self.count(mu_max) > limit

    def table(self, mu_max: float, limit: int | None = None) -> ModeArrays:
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
        cs, c0 = self.cross_section, self.c0
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

    @functools.lru_cache(maxsize=256)
    def _series(self, mu_from):
        radii = self.cross_section.radii
        top = mu_from + 1.0  # box(top + k) = prod_i 2 a_i (k + top + 3/(2 a_i))
        box = functools.reduce(_times_linear, (top + 1.5 / a for a in radii), [1.0])
        log_box = math.log(math.prod(2.0 * a for a in radii) / self.cross_section.volume)
        box_top = _times_linear(box, top)  # box times the shell top, for the kinds rising in mu
        return (mu_from, 1.0, [box, box, box, box_top, box_top],
                [log_box - math.log(2.0 * mu_from), log_box, log_box - _LN2, log_box, log_box])


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


@dataclass(frozen=True)
class CrossSectionSpectrum:
    """Mode table of L_Y for one cone, sorted by mu ascending.

    The provider promises completeness: every eigenvalue up to the
    table's top mu appears (equal-mu clusters merged).  ``table`` holds
    the modes, their sup bounds the tails read and the pair functions
    that :meth:`chunks` reads for every kernel value, and
    :meth:`node_sums` for the heat kernel's nodes at r = r'; without pair
    functions the spectrum is norms-only.  Every spectrum has a
    cross-section, and every table with pair functions has a tail profile
    (a norms-only one may have none), so every kernel value off r = r'
    bounds its truncation rigorously; the constructor raises
    :class:`DomainError` otherwise.  A provider's tail profile
    (:class:`SphereTail`, :class:`TorusTail`) built ``table`` and builds
    the deeper tables of :meth:`grown`; a spectrum whose table is the
    whole spectrum (``CompleteTail``: files, sub-spectra) never grows.
    """

    d: int
    table: ModeArrays
    v0_descriptor: str
    cross_section: CrossSection
    v0_constant: float | None = None
    tail_profile: TailProfile | None = None

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

    @cached_property
    def _grown(self) -> list:
        return []  # [mu_max served, table] of the largest table grown so far, once there is one

    def grown(self, mu_max: float) -> ModeArrays | None:
        """A table of every mode with mu <= mu_max, past ``table`` too.

        The table may run further; its first entries are ``table``'s.  It
        stops at ``TABLE_CEILING`` entries: a sphere's at that many
        degrees, a torus's at the complete clusters of the largest lattice
        box of that many vectors.  The largest table built so far is kept
        and serves every smaller mu_max, or every one once the ceiling cut
        it.  None for a norms-only table and for a ``CompleteTail``.
        """
        provider, kept = self.tail_profile, self._grown
        if provider is None or isinstance(provider, CompleteTail):
            return None
        if not kept or kept[0] < mu_max:
            kept[:] = [math.inf if provider.cut(mu_max, TABLE_CEILING) else mu_max,
                       provider.table(mu_max, TABLE_CEILING)]
        return kept[1]

    def chunks(self, y, yp, gamma: float, with_grad: bool):
        """The series' modes at (y, y'), chunk by chunk: (mu, pair, grad, log_weights) of consecutive entries.

        Chunk 0 is ``table``; each later chunk, built only when asked for,
        holds entries start .. 2 start - 1, so that no chunk more than
        doubles the modes read.  Where the table is shorter, the chunk
        first asks :meth:`grown` for ``_GROWTH`` times the mu one gap past
        the table's top, and it ends early where a grown table stops at its
        ceiling.  Pair values (grad None without ``with_grad``) continue
        the chunk before.  A norms-only spectrum raises
        :class:`NormsOnlyError`.
        """
        if (table := self.table).pairs is None:
            raise NormsOnlyError("spectrum carries mode norms only (no pair functions); "
                                 "kernel evaluation is impossible")
        state, start, end = None, 0, table.mu.size
        while True:
            pair, grad, state = table.pairs(y, yp, gamma, start, end, state, with_grad)
            yield table.mu[start:end], pair, grad, table.log_weights[:, start:end]
            if end >= TABLE_CEILING:
                return
            start, end = end, 2 * end
            if table.mu.size < end:
                table = self.grown(_GROWTH * float(2.0 * table.mu[-1] - table.mu[max(table.mu.size - 2, 0)]))
                if table is None or table.mu.size <= start:  # no growth, or a table cut at the ceiling
                    return
                end = min(end, table.mu.size)

    def node_sums(self, y, yp, gamma: float, x_max: float, with_grad: bool):
        """The heat kernel's node sums at (y, y'): a function of an array of nodes x <= x_max.

        It returns one row per component of sum_j row_j e^{-x} I_{mu_j}(x),
        the pairs, then with ``with_grad`` the gradient pairs; their
        rounding, sum |term| (rel + count eps); a mask of the nodes left out
        (summed as 0); and the most modes a node summed.  A node sums the
        modes with mu <= 9 sqrt(x) + 12, or every mode of a ``CompleteTail``
        table.  The modes are read from :meth:`chunks` up to x_max's cut, or
        to the last chunk; a node whose cut passes the last mode read is
        left out (the node at x_max too, unless a mode lies on its cut).
        """
        need_top = _DIAG_MU_SLOPE * math.sqrt(x_max) + _DIAG_MU_FLOOR
        parts = []  # the chunks up to the first that reaches need_top, or all of them
        for mu, pair, grad, _ in self.chunks(y, yp, gamma, with_grad):
            parts.append((mu, pair, grad)[:3 if with_grad else 2])
            if mu[-1] >= need_top:
                break
        mu, *rows = (np.concatenate(part) for part in zip(*parts))
        mu = mu[:max(int(mu.searchsorted(need_top, side="right")), 1)]
        pair_rows = np.array([row[:mu.size] for row in rows])
        complete = isinstance(self.tail_profile, CompleteTail)

        def sums(x):
            need = np.full(x.size, mu[-1]) if complete else _DIAG_MU_SLOPE * np.sqrt(x) + _DIAG_MU_FLOOR
            short = need > mu[-1]
            node, fp = np.zeros((2, len(pair_rows), x.size))
            counts = np.maximum(mu.searchsorted(need[~short], side="right"), 1)
            if counts.size:
                starts = np.cumsum(counts) - counts
                j = np.arange(counts.sum()) - np.repeat(starts, counts)
                log_e, rel, _ = log_scaled("i", mu[j], np.repeat(x[~short], counts))
                terms = pair_rows[:, j] * np.exp(log_e)
                node[:, ~short] = np.add.reduceat(terms, starts, axis=1)
                fp[:, ~short] = np.add.reduceat(np.abs(terms) * (rel + np.repeat(counts, counts) * _EPS), starts, axis=1)
            return node, fp, short, int(counts.max(initial=0))

        return sums

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


def _cross_section(d: int, radii=None, **sphere) -> CrossSection:
    """The cross-section of a d-cone, d an integer >= 3: the flat torus of ``radii``, else the round sphere of ``sphere``."""
    cs = SphereCrossSection(d - 1, **sphere) if radii is None else TorusCrossSection(radii)
    if cs.dim != d - 1:
        raise DomainError(f"{cs.dim} radii inconsistent with cone dimension {d}")
    return cs


def _provider_spectrum(d: int, c: float, provider: SphereTail | TorusTail, mu_cutoff) -> CrossSectionSpectrum:
    """The spectrum of the modes ``provider`` tabulates up to the cutoff, refused past ``_BASE_TABLE_LIMIT`` entries."""
    cs, c0 = provider.cross_section, provider.c0
    # mu1 = sqrt(lam1 + c0) must round above mu0.
    if math.sqrt(provider.lam1 + c0) == math.sqrt(c0):
        raise DomainError(f"c = {c!r} on {cs.descriptor()}: mu0 = {math.sqrt(c0)!r} and mu1 round to one float")
    cutoff = float(mu_cutoff) if mu_cutoff is not None else _default_cutoff(math.sqrt(c0))
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise DomainError(f"mu_cutoff must be finite and > 0, got {mu_cutoff!r}")
    count = provider.count(cutoff)
    if count > _BASE_TABLE_LIMIT:
        raise DomainError(f"d = {d}, c = {c!r} on {cs.descriptor()}: the base table up to mu_cutoff = {cutoff!r} "
                          f"enumerates {count:.6g} entries, more than {_BASE_TABLE_LIMIT}")
    table = provider.table(cutoff)
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
        tail_profile=provider,
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
    return _provider_spectrum(d, c, SphereTail(_cross_section(d, radius=radius), c0), mu_cutoff)


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
    return _provider_spectrum(d, c, TorusTail(cs, _check_positivity(d, float(c))), mu_cutoff)


def leading_modes(spectrum: CrossSectionSpectrum, count: int = 1) -> CrossSectionSpectrum:
    """The sub-operator spanned by the first ``count`` modes.

    The result is exact for that sub-kernel (its tail is empty), which is
    what refined single-mode estimates evaluate.  Its table is the
    parent's first ``count`` entries, with the same pair functions.
    """
    table = spectrum.table
    if not 1 <= count <= table.mu.size or int(count) != count:
        raise DomainError(f"count must be an integer in [1, {table.mu.size}], got {count!r}")
    n = int(count)
    return replace(
        spectrum,
        table=replace(table, mu=table.mu[:n], mult=table.mult[:n], pair_sup=table.pair_sup[:n],
                      grad_sup=table.grad_sup[:n], tag=table.tag[:n]),
        tail_profile=CompleteTail(),
        v0_descriptor=f"{spectrum.v0_descriptor}|leading:{n}",
    )
