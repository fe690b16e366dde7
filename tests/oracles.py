"""Independent reference values for the test suite.

Everything here is computed without touching conekit internals: mpmath at
40 digits for special functions, closed forms for the Euclidean cone
(d = 3, V0 = 0, where the cone is R^3 and every kernel is elementary),
direct numerical integration for operator norms, and brute-force lattice
counting for torus spectra.

mpmath's ``derivative=1`` Bessel path is numerically broken at large order
/ tiny argument, so all derivative references use the two-term recurrences
K' = -(K_{nu-1} + K_{nu+1})/2 and I' = (I_{nu-1} + I_{nu+1})/2, with the
partner orders formed in mpmath (in floats, nu - 1 rounds at nu << 1).
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 40


# ----------------------------------------------------------------------
# Bessel references
# ----------------------------------------------------------------------

def bessel_i_ref(nu: float, r: float) -> float:
    return float(mp.besseli(nu, r))


def bessel_k_ref(nu: float, r: float) -> float:
    return float(mp.besselk(nu, r))


def log_bessel_i_ref(nu: float, r: float) -> float:
    """log I_nu(r), usable where I itself under/overflows float64."""
    return float(mp.log(mp.besseli(nu, r)))


def log_bessel_k_ref(nu: float, r: float) -> float:
    return float(mp.log(mp.besselk(nu, r)))


def log_bessel_i_dr_ref(nu: float, r: float) -> float:
    """log I'_nu(r) via the recurrence form (I' > 0 throughout)."""
    nu = mp.mpf(nu)
    return float(mp.log((mp.besseli(nu - 1, r) + mp.besseli(nu + 1, r)) / 2))


def log_abs_bessel_k_dr_ref(nu: float, r: float) -> float:
    """log |K'_nu(r)| via the recurrence form (K' < 0 throughout)."""
    nu = mp.mpf(nu)
    return float(mp.log((mp.besselk(nu - 1, r) + mp.besselk(nu + 1, r)) / 2))


def _laplace_quad(f, t0, sigma, lo, hi, width=30):
    """Integral of a positive integrand peaked at t0 with width ~sigma, over [lo, hi].

    The interval is cut to t0 -+ width*sigma and split at the peak, where
    tanh-sinh quadrature puts its nodes most densely.
    """
    a = max(lo, t0 - width * sigma)
    b = t0 + width * sigma if hi is None else min(hi, t0 + width * sigma)
    return mp.quad(f, [a, t0, b])


def log_bessel_ik_quad(nu: float, x: float) -> tuple[float, float]:
    """(log I_nu(x), log K_nu(x)) from integral representations, for large orders.

    mpmath's series and asymptotic paths fail to converge at orders in the
    thousands with x near nu.  Both integrands here are positive (DLMF
    10.32.2 and 10.32.9):
    I_nu(x) = (x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) Int_0^pi e^{x cos t} sin^{2 nu} t dt,
    K_nu(x) = Int_0^inf e^{-x cosh t} cosh(nu t) dt,
    each integrated around its peak at 50 digits.
    """
    with mp.workdps(50):
        nu, x = mp.mpf(nu), mp.mpf(x)
        c = x / (nu + mp.sqrt(nu * nu + x * x))  # cos of the peak: x sin^2 = 2 nu cos
        t0 = mp.acos(c)

        def phi(t):
            return x * mp.cos(t) + 2 * nu * mp.log(mp.sin(t))

        p0 = phi(t0)
        sigma = 1 / mp.sqrt(x * c + 2 * nu / (1 - c * c))
        integral = _laplace_quad(lambda t: mp.exp(phi(t) - p0), t0, sigma, mp.mpf(0), mp.pi)
        log_i = nu * mp.log(x / 2) - mp.log(mp.pi) / 2 - mp.loggamma(nu + mp.mpf(1) / 2) + p0 + mp.log(integral)

        def psi(t):
            return -x * mp.cosh(t) + nu * t

        t0 = mp.asinh(nu / x)
        p0 = psi(t0)
        sigma = (x * x + nu * nu) ** mp.mpf(-0.25)
        integral = _laplace_quad(lambda t: mp.exp(psi(t) - p0) * (1 + mp.exp(-2 * nu * t)) / 2,
                                 t0, sigma, mp.mpf(0), None)
        return float(log_i), float(p0 + mp.log(integral))


# ----------------------------------------------------------------------
# Euclidean cone (d = 3, V0 = 0): closed forms
# ----------------------------------------------------------------------

def _chord(r: float, rp: float, gamma: float) -> tuple[float, float]:
    """(R, r - rp cos(gamma)) between (r, y) and (rp, y') at angle gamma, at 40 digits.

    In doubles both cancel near the diagonal: at r = rp and gamma = 1e-3
    the law of cosines is off by 8e-12 relative in R and 1.6e-11 in
    r - rp cos(gamma), more than the 1e-12 rounding slack of the honesty
    test.
    """
    r, rp, cos = mp.mpf(r), mp.mpf(rp), mp.cos(mp.mpf(gamma))
    return float(mp.sqrt(r * r + rp * rp - 2 * r * rp * cos)), float(r - rp * cos)


def euclid_distance(r: float, rp: float, gamma: float) -> float:
    """Chordal distance in R^d between (r, y) and (rp, y') at angle gamma."""
    return _chord(r, rp, gamma)[0]


def yukawa_kernel(r: float, rp: float, gamma: float, lam: float = 1.0) -> float:
    """Resolvent kernel of the flat Laplacian on R^3: e^{-lam R}/(4 pi R)."""
    R = euclid_distance(r, rp, gamma)
    return math.exp(-lam * R) / (4.0 * math.pi * R)


def yukawa_flat(d: int, r: float, rp: float, gamma: float, lam: float = 1.0):
    """Flat R^d (d = 3, 5) resolvent kernel and its (radial, angular) gradient in z."""
    R, offset = _chord(r, rp, gamma)
    if d == 3:
        value = math.exp(-lam * R) / (4.0 * math.pi * R)
        d_dR = -(1.0 + lam * R) * math.exp(-lam * R) / (4.0 * math.pi * R * R)
    else:  # (2 pi)^{-5/2} (lam/R)^{3/2} K_{3/2}(lam R)
        value = math.exp(-lam * R) * (1.0 + lam * R) / (8.0 * math.pi ** 2 * R ** 3)
        d_dR = -math.exp(-lam * R) * (3.0 + 3.0 * lam * R + (lam * R) ** 2) / (8.0 * math.pi ** 2 * R ** 4)
    return value, d_dR * offset / R, d_dR * rp * math.sin(gamma) / R


def riesz_r3(r: float, rp: float, gamma: float):
    """Riesz kernel components on R^3: T = -grad_z R / (pi^2 R^3).

    Returns (radial, angular) where angular is the derivative per unit
    arc length at z in the direction of increasing separation.
    """
    R, offset = _chord(r, rp, gamma)
    dR_dr = offset / R
    dR_darc = rp * math.sin(gamma) / R  # (1/r) * dR/dgamma
    scale = -1.0 / (math.pi ** 2 * R ** 3)
    return scale * dR_dr, scale * dR_darc


def riesz_flat(d: int, r: float, rp: float, gamma: float):
    """Riesz kernel components on R^d: the gradient in z of Gamma((d-1)/2) / (2 pi^{(d+1)/2}) R^{1-d}.

    That is the kernel of the flat H^{-1/2}; the components are as in
    :func:`riesz_r3`, which is the case d = 3.
    """
    R, offset = _chord(r, rp, gamma)
    scale = (1 - d) * math.gamma((d - 1) / 2) / (2 * math.pi ** ((d + 1) / 2)) * R ** -d
    return scale * offset / R, scale * rp * math.sin(gamma) / R


def ik_integral(mu: float, s: float, dps: int = 30):
    """(f, s f'), f(s) = int_0^inf I_mu(lam s) K_mu(lam) dlam, as mpmath numbers.

    From Gradshteyn-Ryzhik 6.576.5, f = sqrt(pi)/2 Gamma(mu+1/2)/Gamma(mu+1)
    s^mu 2F1(mu+1/2, 1/2; mu+1; s^2), the 2F1 summed term by term (all
    terms positive) at ``dps`` digits until the last term is below 10^-dps
    of the sum; later terms fall by at least the factor s^2.
    """
    with mp.workdps(dps):
        mu, s = mp.mpf(mu), mp.mpf(s)
        x, a, tol = s * s, mu + mp.mpf(0.5), mp.mpf(10) ** -dps
        c, h, xh, k = mp.mpf(1), mp.mpf(1), mp.mpf(0), 0
        while True:
            c *= (a + k) * (k + mp.mpf(0.5)) / ((a + mp.mpf(0.5) + k) * (k + 1)) * x
            k += 1
            h += c
            xh += k * c
            if k * c < tol * xh * (1 - x):
                break
        pre = mp.sqrt(mp.pi) / 2 * mp.exp(mp.loggamma(a) - mp.loggamma(mu + 1)) * s ** mu
        return pre * h, pre * (mu * h + 2 * xh)


def indicial_r3(s: float, gamma: float) -> float:
    """Indicial kernel for d = 3, V0 = 0 via the Legendre generating function.

    (1/2) sum_l (mult_l pair_l(gamma)/mu_l) t^{mu_l}
      = t^{1/2} / (4 pi sqrt(1 - 2 t cos gamma + t^2)),  t = min(s, 1/s).
    """
    t = min(s, 1.0 / s)
    return float(
        mp.sqrt(t) / (4 * mp.pi * mp.sqrt(1 - 2 * t * mp.cos(gamma) + t * t))
    )


# ----------------------------------------------------------------------
# Exact L^p norms of homogeneous model kernels (independent integral)
# ----------------------------------------------------------------------

def schur_norm_integral(d: int, alpha: float, region: str, p: float) -> float:
    """Operator norm on L^p(r^{d-1} dr) of the homogeneous model kernel.

    The kernel is k(r, r') = r^{-alpha} r'^{alpha-d} supported on r <= r'
    ("upper") or r >= r' ("lower").  By homogeneity the norm equals
    int k(1, u) u^{d-1} u^{-d/p} du over the supporting region, evaluated
    here by direct numerical integration (divergent cases return inf).
    """
    dp = d / p
    # Substituting u = e^t turns the power integrand into a clean
    # exponential that mp.quad resolves to full precision even when the
    # exponent sits close to the divergence.
    if region == "upper":  # k(1, u) = u^(alpha-d) on u >= 1
        if dp <= alpha:
            return math.inf
        val = mp.quad(lambda t: mp.e ** ((alpha - dp) * t), [0, mp.inf])
    elif region == "lower":  # k(1, u) = u^(alpha-d) on u <= 1
        if dp >= alpha:
            return math.inf
        val = mp.quad(lambda t: mp.e ** ((alpha - dp) * t), [-mp.inf, 0])
    else:
        raise ValueError(region)
    return float(abs(val))


# ----------------------------------------------------------------------
# Torus lattice counting (brute force)
# ----------------------------------------------------------------------

def torus_eigenvalues_below(radii, bound: float):
    """All eigenvalues sum (k_i/a_i)^2 <= bound of the flat torus, with
    multiplicity, by direct lattice enumeration.  Returns a sorted list."""
    kmax = [int(math.floor(math.sqrt(bound) * a)) + 1 for a in radii]
    vals = []

    def rec(i, acc):
        if acc > bound + 1e-12:
            return
        if i == len(radii):
            vals.append(acc)
            return
        a = radii[i]
        for k in range(-kmax[i], kmax[i] + 1):
            rec(i + 1, acc + (k / a) ** 2)

    rec(0, 0.0)
    return sorted(v for v in vals if v <= bound + 1e-12)


# ----------------------------------------------------------------------
# Finite differences
# ----------------------------------------------------------------------

def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def pde_residual(kernel_at, r: float, gamma: float, *, d: int, c: float,
                 radius: float = 1.0, lam: float = 1.0, h: float = 1e-3) -> float:
    """Residual of (H + lam^2) G at (r, gamma), with z' held fixed.

    ``kernel_at(r, gamma)`` evaluates the kernel; H = -d_rr - ((d-1)/r) d_r
    + (1/r^2) (-d_gg - ((d-2)/a) cot(g/a) d_g + c), gamma the arc-length
    separation on the radius-a sphere cross-section.  Away from the
    diagonal a true resolvent kernel gives residual ~ O(h^2) * scale.
    """
    f = kernel_at(r, gamma)
    f_rr = second_diff(lambda x: kernel_at(x, gamma), r, h)
    f_r = central_diff(lambda x: kernel_at(x, gamma), r, h)
    f_gg = second_diff(lambda g: kernel_at(r, g), gamma, h)
    f_g = central_diff(lambda g: kernel_at(r, g), gamma, h)
    cot = math.cos(gamma / radius) / math.sin(gamma / radius)
    angular = -f_gg - ((d - 2) / radius) * cot * f_g + c * f
    return -f_rr - ((d - 1) / r) * f_r + angular / (r * r) + lam * lam * f
