"""Resolvent kernel (H + lambda^2)^{-1} on a metric cone, with certified tails.

For H = Delta + V0(y)/r^2 acting on the d-dimensional cone over a
cross-section Y, separation of variables gives the Schwartz kernel

    G_lambda(z, z') = (r r')^{1 - d/2} * sum_j pair_j(y, y')
                        * I_{mu_j}(lambda r_<) K_{mu_j}(lambda r_>),

where r_< = min(r, r'), r_> = max(r, r'), pair_j is the eigenprojection
pair function of the j-th cross-sectional mode, and mu_j > 0 are the
shifted square-rooted eigenvalues.  The lambda prefactors of the exact
scaling identity G_lambda(z, z') = lambda^{d-2} G_1(lambda z, lambda z')
cancel against the (r r')^{1 - d/2} prefactor, so the series above is
valid verbatim for every lambda > 0.  A request has one scale, lambda r,
refused (``DomainError``) from lambda max(r, r') = 2**52 on: off r = r'
a value's log or tail leaves range there, and at r = r' every weight of
the tau rule underflows.

Density
-------
Every value is the kernel against the Riemannian density
r'^{d-1} dr' dy'.  The b-half kernel, the same series without the
(r r')^{1 - d/2} prefactor, extends continuously to the boundary faces at
r = 0; it is what the zero-front compatibility check
(:func:`conekit.verify.zf_compatibility_check`) compares against the
indicial kernel, and what ``conekit kernel --gauge b-half`` prints.  Both
read it from :func:`_b_half`, which multiplies a value by
(r r')^{d/2 - 1} in log space.

Truncation control
------------------
Let s = r_</r_> = a/b < 1.  Three elementary inequalities bound every
discarded term:

    I_mu(a) K_mu(b)      <= s^mu / (2 mu),
    I'_mu(a) K_mu(b)     <= s^mu (1/(2a) + a/(2b^2)),
    I_mu(a) |K'_mu(b)|   <= s^mu / b.

For the first, I_mu(x)/x^mu increases, so I_mu(a) <= s^mu I_mu(b), and
Nicholson's formula gives I_mu(b) K_mu(b) <= 1/(2 mu).  For the second,
I'_mu = I_{mu+1} + (mu/a) I_mu; the (mu/a) I_mu piece is bounded by the
first inequality, and the I_{mu+1} piece by order-(mu+1) monotonicity
plus the Wronskian I_mu K_{mu+1} + I_{mu+1} K_mu = 1/b, whose terms are
all positive; since I_{mu+1} < I_mu and K_mu < K_{mu+1}, the second is the
smaller, so I_{mu+1}(b) K_mu(b) <= 1/(2b).  For the third,
|K'_mu| = (K_{mu-1} + K_{mu+1})/2 <= K_{mu+1}, since K increases in
|order| and |mu-1| <= mu+1; then I_mu(b) K_{mu+1}(b) <= 1/b by the same
Wronskian.  The check ``bessel.uniform-bounds`` (``conekit verify --suite
bessel``) tests each of these steps, and the lambda-integral bounds
below, on one grid of conekit's own values out to the table ceiling.

Each mode's share of these bounds is a weight of
:meth:`conekit.spectrum.TailProfile.weights` (from the mode-norm bounds
``pair_sup`` / ``grad_sup``) times s^mu, and an s- and lambda-only
coefficient written inline below.  Summed with the spectrum's tail
profile, they give a rigorous remainder after any number of terms: a
reversed ``np.logaddexp.accumulate`` of the log weights, seeded with
``tail_profile.log_sum_beyond`` at the top of the table summed so far, one
row per tail kind in use.  The sum stops at the first term after which
that remainder is below ``rel_tol * |partial sum|``.  Where the base
table runs out first, the sum reads on in the chunks of
:meth:`conekit.spectrum.CrossSectionSpectrum.chunks` (see Evaluation),
which grow sphere and torus tables, until a table stops at its ceiling.

A result is *certified* when s < 1 and the rigorous stop rule fired; the
``tail_bound`` field then satisfies ``tail_bound <= rel_tol * |value|``
by construction.  A rigorous result is not certified when the table
(a spectrum file's, or a grown table at the ceiling) ran out first; its
``tail_bound`` is the rigorous remainder there (infinite where it passes
double range on the value's scale).  Every spectrum that evaluates a
kernel has sup bounds and a tail profile (``CrossSectionSpectrum``
checks it), so this stop rule is the only one.  At s = 1 the series is
not summed: see "On the diagonal" (``tail_kind == "quadrature"``, never
certified).

``tail_bound`` covers series truncation, and rounding where it matters:
each term carries its Bessel factors' relative error estimate
(:func:`conekit.bessel.log_scaled`) and the sum about one rounding per
term.  For a sum that cancels heavily (points far apart at large
lam r', where the terms outgrow the value by up to e^{2a}), that estimate
joins the remainder from a tenth of ``rel_tol * |value|`` on, in the stop
rule too, and at the end of a table that runs out; a value whose rounding
keeps the target out of reach stops where the truncation alone would,
uncertified.  The estimate is computed per term only in a chunk where a
cheap bound on it reaches that share.  Below that share the
floating-point error (~1e-13 relative) is not included.

Evaluation
----------
The series is summed in the chunks of
:meth:`conekit.spectrum.CrossSectionSpectrum.chunks`, the one read
schedule (on the diagonal too): chunk 0 is the spectrum's ``table``, and
each later chunk the next modes of a grown table, at most as many as all
chunks before it hold, built only when the sum has not stopped before.
Every chunk is read the same way, one numpy pass each: its pair_j (and
derivatives), from one cross-section distance, continue the chunk
before; :func:`conekit.bessel.log_scaled` gives
L_j = log(I_mu(a) e^{-a}) + log(K_mu(b) e^{b}).  Each component returned
(the kernel, or the radial and angular derivatives: a gradient sums no
kernel row) is one row of a (components x modes) array of terms
pair_j * exp(L_j - max L), max L over chunk 0, a signed log-sum-exp whose
factor e^{max L + a - b} and the (r r')^{1 - d/2} prefactor are applied
once, when the result is packed.  Partial sums, stop targets, tails and
the rounding estimate are arrays of the same shape; each chunk's tails
are the table's ``log_weights`` seeded by one ``log_sum_beyond`` call at
its top.  The sum stops at the first column that meets every row's
target; where the table runs out, its last column is the value and the
tail.  The radial derivative takes an order-shifted partner from the
same Bessel call (DLMF 10.29.2), never a derivative.  With z inner,
beta I_mu + lam I'_mu = lam I_{mu+1} + ((mu - (d-2)/2)/r) I_mu, so the
two 1/r parts cancel in closed form, not in rounding at tiny r.  With z
outer, beta K_mu + lam K'_mu = -[lam K_{|mu-1|} + ((mu + d/2 - 1)/r) K_mu],
two terms of one sign whose sum is |beta| K_mu + lam |K'_mu|, what the
tails bound.

The lambda-integral
-------------------
For s < 1 the same pass sums each component's integral over lambda in
(0, inf), the series behind the H^{-1/2} and Riesz kernels.  Mode j's
factor I_mu(lam a) K_mu(lam b) integrates to F = f_mu(s)/b, and with
e = s f'_mu - mu f_mu and E = e/b (:func:`conekit.bessel.log_ik_integrals`)
the radial factor is ((mu - (d-2)/2) F + E)/r with z inner and
-((mu + d/2) F + E)/r with z outer, again free of cancelling 1/r parts.
Since (mu+1/2)_k/(mu+1)_k <= 1 and, by Wendel's inequality,
Gamma(mu+1/2)/Gamma(mu+1) <= mu^{-1/2}, with x = s^2

    f_mu(s) <= A s^mu / sqrt(mu),   e_mu(s) <= x/(1-x) A s^mu / sqrt(mu),
    A = sqrt(pi)/2 (1-x)^{-1/2},

so the tails are the kinds ``pair_over_sqrt_mu``, ``pair_sqrt_mu`` and
``grad_over_sqrt_mu`` times s-only factors.  The radial and angular
components share one stop target, rel_tol times the length of the
gradient.

On the diagonal
---------------
At r = r' each mode's lambda-integral diverges and the terms fall only
through the oscillation of pair_j, so every quantity comes from the cone
heat kernel in Cheeger's Bessel form (J. Differential Geom. 18 (1983)):

    e^{-tau H}(z, z') = (r r')^{1-d/2} (2 tau)^{-1} e^{-(r^2 + r'^2)/4tau}
                        * sum_j pair_j I_{mu_j}(r r'/2tau).

With x = r^2/2tau, a quantity with weight w(tau) is the prefactor times
(1/2) int w F dv over v = log tau, F = sum_j pair_j e^{-x} I_mu_j(x), by
the trapezoid rule: w = e^{-lam^2 tau} for the resolvent, and its
lambda-integral (1/2) sqrt(pi/tau) for the Riesz kernel.  The angular
component takes the gradient pairs, over r.  The radial one is half the
derivative along the diagonal: (2-d)/(2r) G - (lam^2/r) G_1, G_1 with
weight tau e^{-lam^2 tau}, or -(d-1)/(2r) times the lambda-integral,
which is homogeneous of degree 1 - d.  The grid ends where the flat heat
kernel's e^{-R^2/4tau} (R the cone distance) is negligible and where the
weight or the bottom mode's power decay is.  The nodes' F and their
rounding come from :meth:`conekit.spectrum.CrossSectionSpectrum.node_sums`,
which cuts each node's modes and leaves out the nodes its chunks cannot
serve.  A complete table (``CompleteTail``) is a finite sum: no node is
left out, its F falls only as e^{v/2}, so the grid starts where that is
negligible, and its lambda-integral diverges (``DomainError``).  The step
halves from 1/2 until two grids agree to rel_tol in each component
returned (for the lambda-integral's gradient, rel_tol times its length).
The estimate adds their difference, the rounding (as for s < 1), and
twice the flat heat kernel (4 pi tau)^{-d/2} e^{-R^2/4tau} (times R/2tau
for the angular row) over the nodes left out.  It is not a proof: at
large lam R the terms outgrow the value by up to e^{lam R}, and it grows
too.  Below R/r of about 1e-153 the grid's largest x passes double
range, and the value is refused (``DomainError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _EPS, _LN2, _NO_DIGIT, _ldexp, _Scaled, log_ik_integrals, log_scaled, split_log
from .errors import DomainError
from .geometry import ConePoint, cone_distance
from .spectrum import _INTEGRAL_KINDS, _RESOLVENT_KINDS, CompleteTail, CrossSectionSpectrum

__all__ = [
    "ResolventRequest",
    "KernelValue",
    "GradientValue",
    "resolvent_kernel",
    "resolvent_gradient",
]

_KERNEL_REL_TOL = 1e-8  # ResolventRequest's default relative tolerance
# A rigorous value's rounding estimate joins its tail bound from a tenth of rel_tol * |value| on.
_LOG_FP_SHARE = math.log(1e-1)
# The tau rule at r = r': its first step, halved at most _DIAG_HALVINGS times,
# and the ends of its grid, where the integrand is below e^{-_DIAG_LOG_SMALL} of
# the value.
_DIAG_STEP, _DIAG_HALVINGS, _DIAG_LOG_SMALL = 0.5, 5, 40.0


def _check_rel_tol(rel_tol) -> float:
    """``rel_tol`` as a float; a DomainError unless it lies in (0, 0.1]."""
    rt = float(rel_tol)
    if not (0.0 < rt <= 0.1):
        raise DomainError(f"rel_tol must lie in (0, 0.1], got {rel_tol!r}")
    return rt


@dataclass(frozen=True)
class ResolventRequest:
    """One kernel evaluation: spectrum, endpoints, spectral parameter.

    ``lam`` is the lambda in (H + lambda^2)^{-1}, and lambda r must lie
    below 2**52 at both radii, where its ulp reaches 1; ``rel_tol`` the
    target relative truncation error (must lie in (0, 0.1]).
    """

    spectrum: CrossSectionSpectrum
    z: ConePoint
    zp: ConePoint
    lam: float = 1.0
    rel_tol: float = _KERNEL_REL_TOL

    def __post_init__(self):
        lam = float(self.lam)
        if not math.isfinite(lam) or lam <= 0.0:
            raise DomainError(f"spectral parameter lambda must be finite and > 0, got {self.lam!r}")
        if lam * max(self.z.r, self.zp.r) >= _NO_DIGIT:
            raise DomainError(f"lambda r = {lam!r} * {max(self.z.r, self.zp.r)!r} must lie below 2**52 (its ulp is 1)")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "rel_tol", _check_rel_tol(self.rel_tol))


@dataclass(frozen=True)
class KernelValue(_Scaled):
    """Result of one kernel (or kernel-component) evaluation.

    The numeric result is ``value * 2**exp2``; ``exp2`` is nonzero only
    when the plain float would leave double range.  ``tail_bound`` is an
    absolute truncation bound on the same ``2**exp2`` scale as ``value``.
    ``certified`` means the bound is rigorous and met the requested
    ``rel_tol``; ``tail_kind`` records how it was obtained ("rigorous",
    "quadrature" at r = r', or "exact" for identically-zero components).
    """

    value: float
    tail_bound: float
    modes_used: int
    exp2: int = 0
    certified: bool = False
    tail_kind: str = "rigorous"

    def float_tail_bound(self) -> float:
        """``tail_bound`` as a plain float; +inf past float range."""
        return _ldexp(self.tail_bound, self.exp2)


@dataclass(frozen=True)
class GradientValue:
    """Gradient components of the kernel in the first argument z.

    ``d_r`` is the radial derivative; ``angular`` is (1/r) times the
    derivative per unit cross-sectional arc length at y, taken in the
    direction of increasing separation from y'.  Together they give the
    full gradient magnitude |grad_z G|^2 = d_r^2 + angular^2.
    """

    d_r: KernelValue
    angular: KernelValue


def _gauge_log_factor(d: int, r: float, rp: float) -> float:
    """log of the prefactor (r r')^{1 - d/2} multiplying the mode series."""
    return (1.0 - 0.5 * d) * (math.log(r) + math.log(rp))


def _suffix_logs(s, mu, log_weights, log_beyond):
    """log of the suffix sums of per-mode tail bounds over one chunk, one row per tail kind.

    Row i is the kind of ``log_weights[i]`` and ``log_beyond[i]``, each
    weight :meth:`TailProfile.weights` times s^mu.  Entry j of a row bounds
    the contribution of the chunk's modes j, j+1, ... plus every mode past
    the chunk, whose sum's log ``log_beyond`` gives for each kind (the last
    entry is that sum alone).
    """
    log_w = np.empty((len(log_beyond), mu.size + 1))
    log_w[:, :-1] = log_weights + mu * math.log(s)
    log_w[:, -1] = log_beyond
    return np.logaddexp.accumulate(log_w[:, ::-1], axis=1)[:, ::-1]


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _pack(total, log_scale, log_tail, modes_used, certified, tail_kind) -> KernelValue:
    """KernelValue for the sum ``total * e^log_scale`` with the tail e^log_tail."""
    m, e = split_log(math.log(abs(total)) + log_scale) if total != 0.0 else (0.0, 0)
    try:
        tail = math.exp(log_tail - e * _LN2)
    except OverflowError:  # a tail past double range on the value's scale: no digit of the value is known
        tail = math.inf
    return KernelValue(math.copysign(m, total), tail, modes_used, e, certified, tail_kind)


def _b_half(kv: KernelValue, d: int, r: float, rp: float) -> KernelValue:
    """The b-half kernel: the value ``kv`` at radii r, r' times (r r')^{d/2 - 1}, in log space.

    A value past float range keeps its exp2, and an exact zero stays zero.
    """
    log_scale = kv.exp2 * _LN2 - _gauge_log_factor(d, r, rp)
    return _pack(kv.value, log_scale, _log(kv.tail_bound) + log_scale, kv.modes_used, kv.certified, kv.tail_kind)


def _heat_diagonal(spec: CrossSectionSpectrum, z: ConePoint, zp: ConePoint, gamma: float, need_grad: bool,
                   lam, rel_tol: float):
    """The values of :func:`_prepare_series` at r = r' (see "On the diagonal"), in v = log(tau/r^2)."""
    d, r = spec.d, z.r
    rho = cone_distance(1.0, 1.0, gamma)  # R / r
    lr = 0.0 if lam is None else lam * r
    log_small = _DIAG_LOG_SMALL + lr * rho  # the terms outgrow the value by up to e^{lam R}
    complete = isinstance(spec.tail_profile, CompleteTail)
    if complete and lam is None:
        raise DomainError("at r = r' the lambda-integral of a finite mode sum diverges")
    # Lower end: the flat e^{-R^2/4tau}, with its powers of tau, below e^{-log_small};
    # for a complete table (no cancelling terms) its e^{v/2} (e^{-x} I_mu(x) ~ (2 pi x)^{-1/2})
    # below e^{-_DIAG_LOG_SMALL} of the value, which falls as 1/(lam r) at large lam r.
    # Upper end: the weight below that, or the bottom mode's decay e^{-(mu0 + 1/2) v}
    # (e^{-mu0 v} at one lambda) below e^{-(_DIAG_LOG_SMALL + d)}.
    try:
        v_lo = -2.0 * (_DIAG_LOG_SMALL + max(math.log(lr), 0.0)) if complete else \
            math.log(rho * rho / (4.0 * (log_small + 0.5 * d * math.log(4.0 * log_small))))
        x_max = 0.5 * math.exp(-v_lo)
    except (ValueError, OverflowError):  # (R/r)^2 underflows, or the grid's largest x = r^2/2tau overflows
        raise DomainError(f"cone distance R/r = {rho!r} at r = r' is too small for the tau rule") from None
    v_hi = (_DIAG_LOG_SMALL + d) / (spec.mu0 + (0.5 if lam is None else 0.0))
    if lr > 0.0:
        v_hi = min(v_hi, math.log(log_small) - 2.0 * math.log(lr))
    size = math.ceil((v_hi - v_lo) / _DIAG_STEP) + 1
    node_sums = spec.node_sums(z.y, zp.y, gamma, x_max, need_grad)
    # One row of node sums per component: the pairs for the kernel, or the
    # pairs for the radial and the gradient pairs for the angular component.
    # Each scale carries the powers of r that the weights leave out.
    r_power = -1.0 if lam is None else 0.0
    log_scales = [_gauge_log_factor(d, r, r) + math.log(0.5) + power * math.log(r)
                  for power in ((r_power - 1.0,) * 2 if need_grad else (r_power,))]

    def grid(v):
        """Per component, sums over the nodes v: of the weighted node sums, of |weight| times their
        rounding, of their sizes, and of twice the flat bound over the nodes left out; and the most
        modes a node summed."""
        sigma, x = np.exp(v), 0.5 * np.exp(-v)
        if lam is None:  # the integral of e^{-lam^2 tau} over lambda, times r
            w = 0.5 * math.sqrt(math.pi) / np.sqrt(sigma)
            radial = -0.5 * (d - 1) * w
        else:
            decay = lr * lr * sigma
            w = np.exp(-decay)
            radial = ((1.0 - 0.5 * d) - decay) * w if need_grad else None
        weights = np.array([radial, w] if need_grad else [w])
        node, fp, short, most = node_sums(x)
        # The flat heat kernel on the series' scale; at tiny R/r its bound runs past float range (inf).
        with np.errstate(divide="ignore", over="ignore"):
            flat = np.where(short, np.exp(np.log(2.0 * sigma) - 0.5 * d * np.log(4.0 * math.pi * sigma)
                                          - rho * rho / (4.0 * sigma)), 0.0)
            flat = np.array([flat, flat * rho / (2.0 * sigma)] if need_grad else [flat])
            flat_sum = 2.0 * (np.abs(weights) * flat).sum(axis=1)
        wf = weights * node
        return (wf.sum(axis=1), (np.abs(weights) * fp).sum(axis=1), np.abs(wf).sum(axis=1), flat_sum, most)

    step = _DIAG_STEP
    *first, used = grid(v_lo + step * np.arange(size))
    sums = np.array(first)
    previous = step * sums[0]
    for _ in range(_DIAG_HALVINGS):
        *mid, most = grid(v_lo + step * (np.arange(size - 1) + 0.5))
        sums, used, size, step = sums + np.array(mid), max(used, most), 2 * size - 1, 0.5 * step
        values = step * sums[0]
        floor = step * (sums[1] + size * _EPS * sums[2] + sums[3])  # no finer grid reduces these
        diff = np.abs(values - previous)
        target = rel_tol * np.abs(values)
        if lam is None and need_grad:  # one target for the gradient: rel_tol of its length
            target[:] = rel_tol * math.hypot(values[0], values[1])
        if (diff <= np.maximum(target, floor)).all():
            break
        previous = values
    outs = [_pack(value, scale, _log(err) + scale, used, False, "quadrature")
            for value, err, scale in zip(values.tolist(), (diff + floor).tolist(), log_scales)]
    return outs if need_grad else outs[0]


def _prepare_series(spec: CrossSectionSpectrum, z: ConePoint, zp: ConePoint, need_grad: bool,
                    lam, rel_tol: float):
    """Sum the mode series at (z, z'): the kernel's KernelValue, or with ``need_grad`` [d_r, angular].

    With ``lam=None`` each is instead its integral over lambda in (0, inf)
    (see the module docstring).  At r = r' the values are
    :func:`_heat_diagonal`'s.  Only the components returned are summed, so
    only their tails decide where the sum stops.
    """
    gamma = spec.cross_section.distance(z.y, zp.y)
    r, rp = z.r, zp.r
    if r == rp:
        if gamma == 0.0:
            raise DomainError("resolvent kernel is singular on the diagonal z = z'")
        return _heat_diagonal(spec, z, zp, gamma, need_grad, lam, rel_tol)
    z_small = r < rp
    a_r, b_r = (r, rp) if z_small else (rp, r)
    s = a_r / b_r
    ang_exact_zero = need_grad and gamma == 0.0  # parity: every mode is even at zero separation
    # The components, one row each: the kernel, or with need_grad the radial
    # and (unless it is exactly zero) the angular derivative.
    n_comp = 2 if need_grad and not ang_exact_zero else 1
    # The gradient rows hold r times the derivatives; their scales carry the 1/r,
    # which overflows at subnormal r.
    log_r = math.log(r)

    if lam is None:
        a = b = 0.0  # the closed forms leave out no e^{a-b} factor
        log_b = math.log(b_r)

        def factors(mu):
            """log F, log E, r times their radial coefficients, and relative error: the terms' lambda-integrals."""
            log_f, log_e, rel = log_ik_integrals(mu, s)
            if z_small:
                return log_f - log_b, log_e - log_b, mu - 0.5 * (spec.d - 2), 1.0, rel
            return log_f - log_b, log_e - log_b, -(mu + 0.5 * spec.d), -1.0, rel
    else:
        a, b = lam * a_r, lam * b_r

        def factors(mu):
            """log I K, its radial partner's log, r times their radial coefficients, and relative error.

            The partner is I_{mu+1} K with z inner and I K_{|mu-1|} with z outer (see Evaluation).
            """
            i_orders = np.stack((mu, mu + 1.0)) if need_grad and z_small else mu[None]
            k_orders = np.stack((mu, np.abs(mu - 1.0))) if need_grad and not z_small else mu[None]
            log_i, rel_i, _ = log_scaled("i", i_orders, a)
            log_k, rel_k, _ = log_scaled("k", k_orders, b)
            rel = np.maximum(rel_i[0] + rel_k[0], rel_i[-1] + rel_k[-1])
            if not need_grad:
                return log_i[0] + log_k[0], None, None, None, rel
            coef_ik, coef_1 = (mu - 0.5 * (spec.d - 2), a) if z_small else (-(mu + 0.5 * spec.d - 1.0), -b)
            return log_i[0] + log_k[0], log_i[-1] + log_k[-1], coef_ik, coef_1, rel
    shifts = []

    def terms(mu, pair, grad):
        """This chunk's terms, one row per component, and each term's relative error from its factors.

        Row i times e^scales[i] is a series term; the scale is chunk 0's
        max shift plus the factor e^{a-b} that the exponentially scaled
        Bessel logs leave out, and 1/r on a gradient row.  The radial
        factor times r is coef_ik e^{log_ik} + coef_1 e^{log_1}.
        """
        log_ik, log_1, coef_ik, coef_1, rel = factors(mu)
        if not shifts:
            shifts.append(log_ik.max())
        if not need_grad:
            return (pair * np.exp(log_ik - shifts[0]))[None], rel
        if len(shifts) == 1:
            shifts.append(max(shifts[0], log_1.max()))
        radial = pair * (coef_ik * np.exp(log_ik - shifts[1]) + coef_1 * np.exp(log_1 - shifts[1]))
        return np.array([radial, grad * np.exp(log_ik - shifts[0])][:n_comp]), rel

    # Sum chunk after chunk; stop at the first j whose remainder is below
    # rel_tol * |partial sum| in every component (0 <= 0 counts).
    log_rel_tol = math.log(rel_tol)
    # The tails, from the suffix tables of ``kinds``: the kernel's
    # log_coefs[0] + row 0, or the radial and angular ones
    # logaddexp(log_coefs[1] + row 0, log_coefs[2] + row 1) and log_coefs[3] + row 2.
    if lam is None:
        # f <= A s^mu / sqrt(mu) and e <= x/(1-x) A s^mu / sqrt(mu), A =
        # sqrt(pi)/2 (1-x)^{-1/2}; |coef_ik| <= mu + (d-2)/2 (z inner) or
        # mu + d/2 (z outer).
        x = s * s
        kinds = _INTEGRAL_KINDS
        log_a = math.log(0.5 * math.sqrt(math.pi)) - 0.5 * math.log1p(-x) - log_b
        log_ar = log_a - log_r
        excess = 0.5 * (spec.d - 2) if z_small else 0.5 * spec.d
        log_coefs = (log_a, log_ar + math.log(excess + x / (1.0 - x)), log_ar, log_ar)
    else:
        # radial tail = |1-d/2|/r * kernel tail + lam * deriv_factor * pair tail, with
        # lam * deriv_factor = lam (1/(2a) + a/(2b^2)) = (1 + s^2)/(2r) (z inner) or lam/b = 1/r (z outer)
        kinds = _RESOLVENT_KINDS
        log_deriv = math.log1p(s * s) - _LN2 if z_small else 0.0
        log_coefs = (0.0, math.log(0.5 * spec.d - 1.0) - log_r, log_deriv - log_r, -log_r)
    if not need_grad:
        kinds = slice(kinds.start, kinds.start + 1)

    def tails(mu, log_weights):
        """A chunk's log remainders, one row per component; entry j bounds the terms from j on."""
        rows = _suffix_logs(s, mu, log_weights[kinds], spec.tail_profile.log_sum_beyond(s, mu[-1], kinds))
        if not need_grad:
            return log_coefs[0] + rows
        return np.array([np.logaddexp(log_coefs[1] + rows[0], log_coefs[2] + rows[1]),
                         log_coefs[3] + rows[2]][:n_comp])

    used, mag, wmag = 0, np.zeros(n_comp), np.zeros(n_comp)  # sums of |term|, |term| * rel
    for mu, pair, grad, log_weights in spec.chunks(z.y, zp.y, gamma, need_grad):
        T, rel = terms(mu, pair, grad)
        tail = tails(mu, log_weights)
        if not used:
            scale_list = [shift + a - b - (log_r if need_grad else 0.0) for shift in (shifts[-1], shifts[0])[:n_comp]]
            scales = np.array(scale_list)
        size = T.shape[1]
        sums = T.cumsum(axis=1)
        if used:
            sums += carry[:, None]
        with np.errstate(divide="ignore"):
            target = log_rel_tol + np.log(np.abs(sums)) + scales[:, None]
            if lam is None and n_comp == 2:  # one target for the gradient: rel_tol of its length
                target[:] = np.logaddexp(2.0 * target[0], 2.0 * target[1]) / 2.0
            ok = (tail[:, 1:] <= target).all(axis=0)
            j = int(ok.argmax())
            stopped = certified = bool(ok[j])
            if not stopped:
                j = size - 1
            # Rounding joins the remainder where its estimate reaches a
            # tenth of the target (a sum that cancels heavily, as for
            # points far apart at large lam r').  The estimate after
            # term j sums each term's |term| times its Bessel factors'
            # relative error, plus about one rounding per summed term
            # times the sum of |terms|.  It is bounded first, cheaply,
            # at the truncation's stop: every term of the chunk at the
            # largest relative error, the sum of their sizes bounded by
            # the tail's first entry.  More modes cannot make up for
            # rounding, so where it keeps the target out of reach in
            # this chunk, the sum stops there, uncertified.
            rel_max = float(rel.max()) + (used + size + 8) * _EPS
            log_rel_max = math.log(rel_max)
            # The bound row by row in floats: on at most two rows they beat numpy's calls.
            if any(max(_log(w + rel_max * m) + scale, log_rel_max + first) + _LN2 >= _LOG_FP_SHARE + at_stop
                   for w, m, scale, first, at_stop in zip(wmag.tolist(), mag.tolist(), scale_list,
                                                          tail[:, 0].tolist(), target[:, j].tolist())):
                abs_t = np.abs(T)
                log_fp = np.log(wmag[:, None] + (abs_t * rel).cumsum(axis=1)
                                + (used + np.arange(9.0, size + 9.0)) * _EPS
                                * (mag[:, None] + abs_t.cumsum(axis=1))) + scales[:, None]
                tail[:, 1:] = np.where(log_fp >= _LOG_FP_SHARE + target,
                                       np.logaddexp(tail[:, 1:], log_fp), tail[:, 1:])
                ok = (tail[:, 1:] <= target).all(axis=0)
                certified = bool(ok.any())
                j = int(ok.argmax()) if certified else j
        # The value stops at j, or where the table runs out, at the last entry (j = size - 1).
        used, carry, log_tails = used + j + 1, sums[:, j], tail[:, j + 1]
        if stopped:
            break
        abs_t = np.abs(T)
        mag, wmag = mag + abs_t.sum(axis=1), wmag + (abs_t * rel).sum(axis=1)
    log_gauge = _gauge_log_factor(spec.d, r, rp)
    outs = [_pack(total, scale + log_gauge, log_tail + log_gauge, used, certified, "rigorous")
            for total, scale, log_tail in zip(carry.tolist(), scale_list, log_tails.tolist())]
    if not need_grad:
        return outs[0]
    if ang_exact_zero:
        outs.append(KernelValue(0.0, 0.0, used, 0, True, "exact"))
    return outs


def resolvent_kernel(request: ResolventRequest) -> KernelValue:
    """Evaluate G_lambda(z, z') with a truncation-error bound.

    Certified results satisfy tail_bound <= rel_tol * |value| with a
    rigorous bound; see the module docstring for the regime map.
    """
    return _prepare_series(request.spectrum, request.z, request.zp, False, request.lam, request.rel_tol)


def resolvent_gradient(request: ResolventRequest) -> GradientValue:
    """Gradient of G_lambda in the first argument z, componentwise."""
    d_r, angular = _prepare_series(request.spectrum, request.z, request.zp, True, request.lam, request.rel_tol)
    return GradientValue(d_r=d_r, angular=angular)
