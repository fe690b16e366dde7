"""Modified Bessel engine: accuracy, scaling, identities, the inequalities the certificates use."""

import functools
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from conekit import DomainError, bessel_i, bessel_k
from conekit.bessel import (_EPS, _OLVER_TERMS, _X_LARGE, _X_TINY, METHODS, _gen_olver_polys, _olver_grid,
                            log_ik_integrals, log_scaled, split_log, wronskian_residual)
from conekit.bessel import _OLVER_NU_MIN as _NU_MIN

import oracles

NU_GRID = [0.1, 0.5, 1.0, 2.7, 10.0, 29.9, 30.5, 60.0, 120.0, 200.0]
R_GRID = [1e-6, 1e-3, 0.1, 1.0, 1.9, 2.1, 9.9, 10.1, 35.0, 120.0, 500.0]
_BELOW_NU_MIN = math.nextafter(_NU_MIN, 0.0)


def _rel_log_err(eval_, log_ref: float) -> float:
    """Relative error computed in log space, safe at any magnitude."""
    return _log_err(eval_.log_abs, log_ref)


def _log_err(log_got: float, log_ref: float) -> float:
    return abs(math.expm1(log_got - log_ref))


def _rel_error_est(ev) -> float:
    """The evaluation's error estimate relative to its value (0 for an exact zero)."""
    return abs(ev.abs_error_est / ev.value) if ev.value != 0.0 else 0.0


def _logs_and_derivative(kind, nu, r):
    """Logs of |f_nu(r)| and |f_nu'(r)| (f = I or K), the derivative from an order-shifted partner.

    I'_nu = I_{nu+1} + (nu/r) I_nu and |K'_nu| = K_{|nu-1|} + (nu/r) K_nu
    (DLMF 10.29.2), the order and its partner from one ``log_scaled``
    call.  Also their error estimates: the scaled values' rel, plus the
    rounding of the unscaling (and, for the derivative, of its partner sum).
    """
    partner = nu + 1.0 if kind == "i" else abs(nu - 1.0)
    ln, rel, _ = log_scaled(kind, [nu, partner], r)
    shift = r if kind == "i" else -r
    log_f, log_p = float(ln[0]) + shift, float(ln[1]) + shift
    # nu / r overflows at subnormal r: its log does not.
    log_df = float(np.logaddexp(log_p, math.log(nu) - math.log(r) + log_f)) if nu else log_p
    rel_f = float(rel[0]) + _EPS * abs(log_f)
    return log_f, log_df, rel_f, float(rel.max()) + 2.0 * _EPS * abs(log_df) + 4.0 * _EPS


class TestAccuracy:
    @pytest.mark.parametrize("nu", NU_GRID)
    def test_i_on_grid(self, nu):
        for r in R_GRID:
            got = bessel_i(nu, r)
            assert _rel_log_err(got, oracles.log_bessel_i_ref(nu, r)) < 1e-12, (nu, r)

    @pytest.mark.parametrize("nu", NU_GRID)
    def test_k_on_grid(self, nu):
        for r in R_GRID:
            got = bessel_k(nu, r)
            assert _rel_log_err(got, oracles.log_bessel_k_ref(nu, r)) < 1e-12, (nu, r)

    def test_derivatives_on_grid(self):
        worst = 0.0
        for nu in [0.1, 0.5, 2.7, 30.5, 120.0]:
            for r in [1e-5, 0.1, 1.0, 9.9, 35.0]:
                log_di = _logs_and_derivative("i", nu, r)[1]
                log_dk = _logs_and_derivative("k", nu, r)[1]
                worst = max(
                    worst,
                    _log_err(log_di, oracles.log_bessel_i_dr_ref(nu, r)),
                    _log_err(log_dk, oracles.log_abs_bessel_k_dr_ref(nu, r)),
                )
        assert worst < 1e-11

    def test_random_points_against_mpmath(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(60):
            nu = float(rng.uniform(0.05, 200.0))
            r = float(10.0 ** rng.uniform(-6, 2.7))
            worst = max(
                worst,
                _rel_log_err(bessel_i(nu, r), oracles.log_bessel_i_ref(nu, r)),
                _rel_log_err(bessel_k(nu, r), oracles.log_bessel_k_ref(nu, r)),
            )
        assert worst < 2e-12

    def test_error_estimates_are_honest(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            nu = float(rng.uniform(0.05, 200.0))
            r = float(10.0 ** rng.uniform(-6, 2.0))
            ev = bessel_k(nu, r)
            actual = _rel_log_err(ev, oracles.log_bessel_k_ref(nu, r))
            assert actual <= max(_rel_error_est(ev), 1e-15) * 20.0


class TestScaledRange:
    def test_extreme_magnitudes_stay_finite(self):
        # K_200(1e-6) ~ 10^2466, I_200(1e-6) ~ 10^-2566: far outside float64.
        k = bessel_k(200.0, 1e-6)
        i = bessel_i(200.0, 1e-6)
        assert math.isfinite(k.log_abs) and math.isfinite(i.log_abs)
        np.testing.assert_allclose(k.log_abs, oracles.log_bessel_k_ref(200.0, 1e-6),
                                   rtol=1e-13)
        np.testing.assert_allclose(i.log_abs, oracles.log_bessel_i_ref(200.0, 1e-6),
                                   rtol=1e-13)
        assert k.exp2 != 0 and i.exp2 != 0  # genuinely out of plain range

    def test_plain_float_overflows_to_inf(self):
        # The plain float of a value past float range is +-inf, and 0 below
        # it; the log stays exact.
        i = bessel_i(0.5, 800.0)
        assert i.float_value() == math.inf
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, and e^{-1600} is nothing beside 1.
        np.testing.assert_allclose(i.log_abs, 800.0 - 0.5 * math.log(1600.0 * math.pi), rtol=1e-14)
        assert bessel_k(0.5, 800.0).float_value() == 0.0
        # K_5(1e-100) is past float range; its log is not.
        k = bessel_k(5.0, 1e-100)
        assert k.float_value() == math.inf
        assert math.log(sys.float_info.max) < k.log_abs < math.inf

    def test_plain_range_folds_to_exp2_zero(self):
        ev = bessel_i(1.0, 2.0)
        assert ev.exp2 == 0
        np.testing.assert_allclose(ev.float_value(), oracles.bessel_i_ref(1.0, 2.0),
                                   rtol=1e-13)

    @pytest.mark.parametrize("nu", [0.3, 1.5, 5.0, 15.0, 29.9])
    def test_tiny_argument_below_order_30(self, nu):
        # I from its series, K from its leading terms (x <= 1e-10); the plain
        # values leave double range for most nu.
        for r in (1e-10, 1e-100, 1e-250):
            np.testing.assert_allclose(bessel_i(nu, r).log_abs,
                                       oracles.log_bessel_i_ref(nu, r), rtol=1e-13)
            np.testing.assert_allclose(bessel_k(nu, r).log_abs,
                                       oracles.log_bessel_k_ref(nu, r), rtol=1e-13)
            assert wronskian_residual(nu, r) < 1e-10, (nu, r)

    @pytest.mark.parametrize("nu", [0.0, 1e-6, 0.01, 0.5, 0.99, 1.5])
    def test_subnormal_arguments(self, nu):
        # Subnormal arguments: K from its leading terms; for nu < 1 the
        # second small-argument term, of relative size ~ (x/2)^{2 nu}, counts.
        for r in (1e-310, 1e-320):
            log_k = oracles.log_bessel_k_ref(nu, r)
            log_i = oracles.log_bessel_i_ref(nu, r)
            # I'_0 = I_1; mpmath's I_{-1} does not converge here.
            log_di = oracles.log_bessel_i_dr_ref(nu, r) if nu else oracles.log_bessel_i_ref(1.0, r)
            for got, ref in ((bessel_k(nu, r), log_k), (bessel_i(nu, r), log_i)):
                err = _rel_log_err(got, ref)
                assert err <= _rel_error_est(got) and err < 1e-12, (nu, r, got)
            for kind, refs in (("k", (log_k, oracles.log_abs_bessel_k_dr_ref(nu, r))), ("i", (log_i, log_di))):
                log_f, log_df, rel_f, rel_df = _logs_and_derivative(kind, nu, r)
                for got, ref, rel in zip((log_f, log_df), refs, (rel_f, rel_df)):
                    err = _log_err(got, ref)
                    assert err <= rel and err < 1e-12, (kind, nu, r, got)

    def test_split_log_refuses_a_log_without_digits(self):
        # Below 2**52 in magnitude the log's ulp is below 1 and m lies in
        # [1, 2); from 2**52 on no digit of the value is known: a DomainError.
        for ln_x in (2.0 ** 52 - 1.0, -(2.0 ** 52 - 1.0), 1e15, -1e15):
            m, e = split_log(ln_x)
            assert 1.0 <= m < 2.0 and abs(e - ln_x / math.log(2.0)) <= 2.0, ln_x
        for ln_x in (2.0 ** 52, -(2.0 ** 52), -1.97e53, -3.3e256, math.inf):
            with pytest.raises(DomainError, match="past 2\\*\\*52"):
                split_log(ln_x)

    def test_large_argument_decay(self):
        ev = bessel_k(0.5, 500.0)
        ref = math.sqrt(math.pi / 1000.0) * math.exp(-500.0)
        np.testing.assert_allclose(ev.log_abs, math.log(ref), rtol=1e-14)


class TestIdentities:
    def test_wronskian_thousand_points(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            nu = float(rng.uniform(0.05, 200.0))
            r = float(10.0 ** rng.uniform(-6, 2.7))
            worst = max(worst, abs(wronskian_residual(nu, r)))
        assert worst < 1e-10
        nu = rng.uniform(0.05, 200.0, 1000)
        r = 10.0 ** rng.uniform(-6, 2.7, 1000)
        assert wronskian_residual(nu, r).max() < 1e-10  # the same in one vector pass

    def test_argument_arrays_match_single_calls(self):
        # One call over per-entry arguments gives each entry what a call of
        # its own (a float x) gives, in every method; and an order column
        # against an argument row broadcasts.
        rng = np.random.default_rng(7)
        nu, x = rng.uniform(0.0, 80.0, 300), 10.0 ** rng.uniform(-12.0, 2.5, 300)
        for kind in "ik":
            ln, _, method = log_scaled(kind, nu, x)
            grid = log_scaled(kind, nu[:6, None], x[None, :5])
            assert grid[0].shape == grid[1].shape == grid[2].shape == (6, 5)
            for j in range(nu.size):
                one_ln, _, one_method = log_scaled(kind, [nu[j]], x[j])
                assert method[j] == one_method[0], (kind, nu[j], x[j])
                assert abs(ln[j] - one_ln[0]) <= 1e-14 * max(1.0, abs(one_ln[0])), (kind, nu[j], x[j])
                if j < 5:  # the grid's diagonal holds the same (order, argument) pairs
                    assert abs(grid[0][j, j] - ln[j]) <= 1e-14 * max(1.0, abs(ln[j]))
            assert len(set(method.tolist())) >= (3 if kind == "k" else 2)

    @pytest.mark.parametrize("nu", [math.nextafter(0.999, 0.0), 0.999, _BELOW_NU_MIN, _NU_MIN])
    @pytest.mark.parametrize("x", [_X_TINY, math.nextafter(_X_TINY, 1.0), _X_LARGE, math.nextafter(_X_LARGE, 1e3)])
    def test_k_order_recurrence(self, nu, x):
        # K_{nu+1} = K_{|nu-1|} + (2 nu/x) K_nu (DLMF 10.29.1), every term
        # positive, on both sides of each switch of K's methods: the
        # resolvent's z-outer radial factor takes K_{|nu-1|} beside K_nu.
        # At x = 1e-10 the logs reach 1082, whose ulp is 2.3e-13: the bound
        # is 1e-13 relative plus two ulps of the log.
        ln, _, _ = log_scaled("k", [nu, abs(nu - 1.0), nu + 1.0], x)
        rhs = np.logaddexp(ln[1], math.log(2.0 * nu / x) + ln[0])
        assert _log_err(ln[2], rhs) <= 1e-13 + 2.0 * _EPS * abs(rhs), (nu, x, ln)

    def test_half_integer_closed_forms(self):
        for r in [1e-4, 0.3, 1.0, 7.0, 80.0]:
            k_half = bessel_k(0.5, r)
            ref = math.sqrt(math.pi / (2.0 * r)) * math.exp(-r)
            np.testing.assert_allclose(k_half.log_abs, math.log(ref), rtol=1e-13)
            i_half = bessel_i(0.5, r)
            ref_i = math.sqrt(2.0 / (math.pi * r)) * math.sinh(r)
            np.testing.assert_allclose(i_half.log_abs, math.log(ref_i), rtol=1e-12)
            k32 = bessel_k(1.5, r)
            ref32 = math.sqrt(math.pi / (2.0 * r)) * math.exp(-r) * (1.0 + 1.0 / r)
            np.testing.assert_allclose(k32.log_abs, math.log(ref32), rtol=1e-12)

    def test_method_dispatch_regions(self):
        assert bessel_i(1.0, 0.5).method == "power-series"
        assert bessel_k(0.3, 10.0).method == "integral"
        assert bessel_i(29.9, 1e-10).method == "power-series"
        assert bessel_k(29.9, 1e-10).method == "small-argument"
        # I takes the series wherever (x/2)^2 <= nu + 1, Olver's expansion
        # past that from order _OLVER_NU_MIN (40) on; K takes Olver's from
        # that order on above x = 1e-10.
        assert bessel_i(50.0, 10.0).method == "power-series"
        assert bessel_i(50.0, 100.0).method == "uniform-asymptotic"
        assert bessel_k(50.0, 1e-3).method == "uniform-asymptotic"
        assert bessel_i(200.0, 1e-6).method == "power-series"
        assert bessel_k(200.0, 1e-6).method == "uniform-asymptotic"
        # At high orders I takes Olver's expansion past (x/2)^2 = nu + 1 and
        # the series up to it.
        assert bessel_i(5000.0, 2000.0).method == "uniform-asymptotic"
        assert bessel_i(5000.0, 2.0).method == "power-series"


def _log_value(kind, nu, x):
    """(log I_nu(x) or log K_nu(x), its method) from one log_scaled call."""
    ln, _, method = log_scaled(kind, [nu], x)
    return float(ln[0]) + (x if kind == "i" else -x), METHODS[method[0]]


def _log_ref(kind, nu, x):
    return (oracles.log_bessel_i_ref if kind == "i" else oracles.log_bessel_k_ref)(nu, x)


# Each switch of the dispatch: (kind, nu, x) on its two sides, one ulp
# apart in the variable it cuts, and the methods on either side.
_SEAMS = [
    *[(("i", _BELOW_NU_MIN, x), ("i", _NU_MIN, x), "power-series", "uniform-asymptotic") for x in (15.0, 19.9)],
    *[(("k", _BELOW_NU_MIN, x), ("k", _NU_MIN, x), "integral", "uniform-asymptotic")
      for x in (1e-9, 1e-3, 1.0, 19.9)],
    *[(("i", nu, _X_LARGE), ("i", nu, math.nextafter(_X_LARGE, 1e3)), "power-series", "uniform-asymptotic")
      for nu in (0.0, 1.0, 2.0, 7.5, 30.0, 39.0)],
    *[(("k", nu, _X_LARGE), ("k", nu, math.nextafter(_X_LARGE, 1e3)), "integral", "uniform-asymptotic")
      for nu in (0.0, 1.0, 2.0, 7.5, 30.0, 39.0)],
    *[(("k", nu, _X_TINY), ("k", nu, math.nextafter(_X_TINY, 1.0)), "small-argument", after)
      for nu, after in ((0.0, "integral"), (0.5, "integral"), (1.0, "integral"), (3.0, "integral"),
                        (_BELOW_NU_MIN, "integral"), (_NU_MIN, "uniform-asymptotic"), (200.0, "uniform-asymptotic"))],
    # (x/2)^2 = nu + 1: the series up to it, Olver's expansion past it.
    *[(("i", nu, 2.0 * math.sqrt(nu + 1.0)), ("i", nu, math.nextafter(2.0 * math.sqrt(nu + 1.0), 1e9)),
       "power-series", "uniform-asymptotic") for nu in (_NU_MIN, 2.0 * _NU_MIN, 200.0)],
    # The leading terms: two below nu = 0.999, one from it on.
    *[(("k", math.nextafter(0.999, 0.0), x), ("k", 0.999, x), "small-argument", "small-argument")
      for x in (1e-300, 1e-12)],
]


class TestSeams:
    @pytest.mark.parametrize("below, above, method_below, method_above", _SEAMS,
                             ids=[f"{b[0]}-nu{b[1]:.6g}-x{b[2]:.6g}" for b, *_ in _SEAMS])
    def test_accurate_and_continuous_across(self, below, above, method_below, method_above):
        (got_b, m_b), (got_a, m_a) = _log_value(*below), _log_value(*above)
        assert (m_b, m_a) == (method_below, method_above)
        for (kind, nu, x), got in ((below, got_b), (above, got_a)):
            ref = _log_ref(kind, nu, x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (kind, nu, x, got, ref)
        # One ulp apart, the function moves by far less than 1e-13 of its size.
        assert abs(got_b - got_a) <= 1e-13 * max(1.0, abs(got_a)), (below, above, got_b, got_a)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 3.0, 10.0, 15.0, 20.0, 50.0])
    def test_integer_orders_from_1e_300_to_500(self, nu):
        methods = set()
        for x in (1e-300, 1e-200, 1e-100, 1e-20, 1e-10, 1e-6, 1e-3, 0.1, 1.0, 5.0, 12.0, 19.0, 25.0, 100.0, 500.0):
            for kind in "ik":
                got, method = _log_value(kind, nu, x)
                ref = _log_ref(kind, nu, x)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (kind, nu, x, got, ref)
                methods.add(method)
        assert len(methods) >= 3, methods


class TestOlverPolynomials:
    def test_u2_exact_coefficients(self):
        # U_2(t) = (81 t^2 - 462 t^4 + 385 t^6) / 1152
        u2 = _gen_olver_polys(2)[2]
        nonzero = {i: c for i, c in enumerate(u2) if c != 0.0}
        assert set(nonzero) == {2, 4, 6}
        np.testing.assert_allclose(nonzero[2], 81.0 / 1152.0, rtol=1e-15)
        np.testing.assert_allclose(nonzero[4], -462.0 / 1152.0, rtol=1e-15)
        np.testing.assert_allclose(nonzero[6], 385.0 / 1152.0, rtol=1e-15)

    def test_u1_exact_coefficients(self):
        # U_1(t) = (3 t - 5 t^3) / 24
        u1 = _gen_olver_polys(1)[1]
        nonzero = {i: c for i, c in enumerate(u1) if c != 0.0}
        assert nonzero == {1: pytest.approx(0.125), 3: pytest.approx(-5.0 / 24.0)}

    def test_grids_equal_the_padded_reference(self):
        # Row k is V_k's coefficients (U_k's every other one from p^k),
        # zero-padded, times (+-1)^k: + for I, - for K.
        polys = _gen_olver_polys(_OLVER_TERMS - 1)
        rows = np.array([np.pad(u[k::2], (0, _OLVER_TERMS - 1 - k)) for k, u in enumerate(polys)])
        for kind, sign in (("i", 1.0), ("k", -1.0)):
            assert np.array_equal(_olver_grid(kind), rows * sign ** np.arange(_OLVER_TERMS)[:, None]), kind


class TestUniformBounds:
    def test_tail_product_bound_is_provable(self):
        # The resolvent's tail bounds must dominate the true products, with
        # s = a/b: I K <= s^mu/(2 mu), I' K <= s^mu (1/(2a) + a/b^2) and
        # I |K'| <= s^mu / b; I' and |K'| from order-shifted partners.
        rng = np.random.default_rng(8)
        for _ in range(200):
            mu = float(rng.uniform(0.1, 80.0))
            b = float(10.0 ** rng.uniform(-3, 2))
            a = b * float(rng.uniform(0.01, 1.0))
            log_s = mu * math.log(a / b)
            log_i, log_di, _, _ = _logs_and_derivative("i", mu, a)
            log_k, log_dk, _, _ = _logs_and_derivative("k", mu, b)
            assert log_i + log_k <= log_s - math.log(2.0 * mu) + 1e-12, (mu, a, b)
            assert log_di + log_k <= log_s + math.log(0.5 / a + a / (b * b)) + 1e-12, (mu, a, b)
            assert log_i + log_dk <= log_s - math.log(b) + 1e-12, (mu, a, b)


# The inequalities the verify check `bessel.uniform-bounds` tests, each at an
# end where it is tight.  A case returns the 40-digit value/bound ratio, and
# conekit's log of that ratio with the rel the check allows it.

def _scaled(kind, nu, x):
    """(log of the e^{-+x}-scaled value, rel) at one order and argument."""
    ln, rel, _ = log_scaled(kind, [nu], x)
    return float(ln[0]), float(rel[0])


def _nicholson(mu, b):
    """I_mu(b) K_mu(b) <= 1/(2 mu)."""
    (li, ri), (lk, rk) = _scaled("i", mu, b), _scaled("k", mu, b)
    return 2 * mu * mp.besseli(mu, b) * mp.besselk(mu, b), li + lk + math.log(2.0 * mu), ri + rk


def _wronskian(mu, b):
    """I_mu(b) K_{mu+1}(b) <= 1/b."""
    (li, ri), (lk, rk) = _scaled("i", mu, b), _scaled("k", mu + 1.0, b)
    return b * mp.besseli(mu, b) * mp.besselk(mu + 1, b), li + lk + math.log(b), ri + rk


def _wronskian_half(mu, b):
    """I_{mu+1}(b) K_mu(b) <= 1/(2b): the smaller Wronskian term, as I_{mu+1} < I_mu and K_mu < K_{mu+1}."""
    (li, ri), (lk, rk) = _scaled("i", mu + 1.0, b), _scaled("k", mu, b)
    return 2 * b * mp.besseli(mu + 1, b) * mp.besselk(mu, b), li + lk + math.log(2.0 * b), ri + rk


def _monotone(mu, b, s=0.999):
    """I_mu(s b) <= s^mu I_mu(b)."""
    (la, ra), (lb, rb) = _scaled("i", mu, s * b), _scaled("i", mu, b)
    ref = mp.besseli(mu, s * b) / (mp.mpf(s) ** mu * mp.besseli(mu, b))
    return ref, la - lb - (1.0 - s) * b - mu * math.log(s), ra + rb


def _wendel(mu):
    """Gamma(mu+1/2)/Gamma(mu+1) <= mu^{-1/2}."""
    lg_half, lg_one = math.lgamma(mu + 0.5), math.lgamma(mu + 1.0)
    ref = mp.gamma(mp.mpf(mu) + 0.5) / mp.gamma(mp.mpf(mu) + 1) * mp.sqrt(mu)
    return ref, lg_half - lg_one + 0.5 * math.log(mu), 2.0 * _EPS * (abs(lg_half) + abs(lg_one))


def _f_tail(mu, s, part):
    """f_mu(s) <= A s^mu/sqrt(mu) (part 0), e_mu(s) <= x/(1-x) A s^mu/sqrt(mu) (part 1)."""
    x = s * s
    log_bound = math.log(0.5 * math.sqrt(math.pi)) - 0.5 * math.log1p(-x) + mu * math.log(s) - 0.5 * math.log(mu)
    if part:
        log_bound += math.log(x / (1.0 - x))
    f, sdf = oracles.ik_integral(mu, s)
    log_f, log_e, rel = log_ik_integrals(np.array([mu]), s)
    return (f, sdf - mu * f)[part] / mp.exp(log_bound), float((log_f, log_e)[part][0]) - log_bound, float(rel[0])


# (case, its arguments, the ratio's largest distance from 1 there)
_TIGHT_ENDS = [
    *[pytest.param(_nicholson, (mu, b), 1e-11, id=f"nicholson-mu{mu:g}-b{b:g}")
      for mu, b in ((200.0, 1e-4), (1000.0, 1e-3), (5000.0, 1e-2))],
    *[pytest.param(_wronskian, (mu, b), 1e-9, id=f"wronskian-mu{mu:g}-b{b:g}")
      for mu, b in ((0.5, 1e-6), (5.0, 1e-4), (60.0, 1e-3))],
    # 1 - ratio is about (2 mu + 1)/(2b), so the bound is tight at large b.
    *[pytest.param(_wronskian_half, (mu, b), 1e-3, id=f"wronskian-half-mu{mu:g}-b{b:g}")
      for mu, b in ((1e-3, 1e3), (5.0, 1e4), (2.0, 1e5))],
    *[pytest.param(_monotone, (mu, b), 1e-12, id=f"monotone-s0.999-mu{mu:g}-b{b:g}")
      for mu, b in ((200.0, 2e-4), (5.0, 1e-5))],
    pytest.param(_wendel, (200.0,), 1.0 / 1600.0, id="wendel-mu200"),
    pytest.param(_f_tail, (200.0, 1e-3, 0), 1.0 / 200.0, id="f-tail-mu200-s0.001"),
    pytest.param(_f_tail, (200.0, 1e-3, 1), 1.0 / 200.0, id="e-tail-mu200-s0.001"),
]


class TestCertificateInequalities:
    @pytest.mark.parametrize("case, args, gap", _TIGHT_ENDS)
    def test_tight_end_against_mpmath(self, case, args, gap):
        # The inequality holds, it is tight here, and conekit's log of the
        # ratio is right within the rel the check allows it.
        ratio, got, rel = case(*args)
        assert 1 - gap <= ratio <= 1, (args, ratio)
        assert abs(got - float(mp.log(ratio))) <= rel, (args, got, float(mp.log(ratio)), rel)


class TestValidation:
    @pytest.mark.parametrize("nu,r", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                      (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_bad_input(self, nu, r):
        with pytest.raises(DomainError):
            bessel_i(nu, r)
        with pytest.raises(DomainError):
            bessel_k(nu, r)
        with pytest.raises(DomainError, match="order" if nu < 0.0 or math.isnan(nu) else "argument"):
            wronskian_residual(nu, r)


# Orders the growing mode tables reach, with x from 1e-6 to 2 nu: the
# references come from integral representations (oracles.log_bessel_ik_quad),
# which stay independent of Olver's expansions and converge where mpmath's
# series do not.
_HIGH_ORDERS = [250.0, 1000.0, 5000.0, 20000.0, 60000.0]


@functools.cache
def _high_order_refs(nu):
    """(x, [(log I_nu, log I_{nu+1}), (log K_nu, log K_{nu+1})]) at x = 1e-6, nu/8 and 2 nu."""
    out = []
    for x in (1e-6, nu / 8.0, 2.0 * nu):
        (li, lk), (li1, lk1) = oracles.log_bessel_ik_quad(nu, x), oracles.log_bessel_ik_quad(nu + 1.0, x)
        out.append((x, [(li, li1), (lk, lk1)]))
    return out


class TestHighOrders:
    @pytest.mark.parametrize("nu", _HIGH_ORDERS)
    def test_log_scaled_against_integrals(self, nu):
        # In log space a value's relative error is the log's absolute error, and
        # the logs reach 1.5e6 here, where one ulp is 2e-10: the bound is 1e-12
        # times max(1, |log|), the relative bound of the tests up to order 200.
        methods = set()
        for x, (want_i, want_k) in _high_order_refs(nu):
            for kind, shift, want in (("i", x, want_i), ("k", -x, want_k)):
                ln, _, method = log_scaled(kind, [nu, nu + 1.0], x)  # an order and its partner in one call
                methods.update((kind, METHODS[m]) for m in method)
                for got, ref in zip(ln + shift, want):
                    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (kind, nu, x, got, ref)
        if nu >= 1000.0:  # every fallback runs: the I series, Olver's I and K
            assert {("i", "power-series"), ("i", "uniform-asymptotic"), ("k", "uniform-asymptotic")} <= methods
