"""Resolvent kernel: oracles, symmetries, certified tails, boundary behavior."""

import functools
import json
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from conekit import (
    ConePoint,
    CrossSectionSpectrum,
    DomainError,
    KernelValue,
    NormsOnlyError,
    ResolventRequest,
    leading_modes,
    resolvent_gradient,
    resolvent_kernel,
    indicial_kernel,
    riesz_kernel,
    load_spectrum,
    sphere_spectrum,
    torus_spectrum,
    zf_compatibility_check,
    boundary_order_probe,
)
from conekit.bessel import bessel_i, log_scaled
from conekit.resolvent import _KERNEL_REL_TOL, _b_half
from conekit.spectrum import TABLE_CEILING

import oracles

S3 = sphere_spectrum(3)          # d = 3, V0 = 0: the flat cone R^3
S3_NEG = sphere_spectrum(3, c=-0.24)
S3_POS = sphere_spectrum(3, c=1.0)


def _point_pair(spec, r, rp, gamma):
    y, yp = spec.cross_section.points_at_separation(gamma)
    return ConePoint(r, y), ConePoint(rp, yp)


def _value(spec, r, rp, gamma, lam=1.0, **kw):
    z, zp = _point_pair(spec, r, rp, gamma)
    return resolvent_kernel(ResolventRequest(spec, z, zp, lam=lam, **kw))


def _rel_tail(kv) -> float:
    """The tail bound relative to the value: 0 with no tail, inf for a zero value with one."""
    if kv.tail_bound == 0.0:
        return 0.0
    return kv.tail_bound / abs(kv.value) if kv.value != 0.0 else math.inf


class TestEuclideanOracle:
    def test_worked_example_point(self):
        kv = _value(S3, 0.2, 1.0, 1.0)
        ref = oracles.yukawa_kernel(0.2, 1.0, 1.0)
        assert abs(kv.float_value() / ref - 1.0) < 1e-6
        assert kv.certified

    def test_random_certified_points(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(40):
            rp = float(10.0 ** rng.uniform(-1.0, 1.0))
            r = rp * float(rng.uniform(1e-3, 0.25))
            gamma = float(rng.uniform(0.1, 3.0))
            lam = float(10.0 ** rng.uniform(-0.5, 0.5))
            kv = _value(S3, r, rp, gamma, lam=lam)
            assert kv.certified
            ref = oracles.yukawa_kernel(r, rp, gamma, lam)
            worst = max(worst, abs(kv.float_value() / ref - 1.0))
        assert worst < 1e-6

    def test_tail_bound_covers_oracle_error(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            rp = float(10.0 ** rng.uniform(-0.5, 0.5))
            r = rp * float(rng.uniform(0.01, 0.25))
            gamma = float(rng.uniform(0.2, 2.8))
            kv = _value(S3, r, rp, gamma)
            ref = oracles.yukawa_kernel(r, rp, gamma)
            # Truncation must be covered by the certificate; allow float
            # rounding noise on top.
            assert abs(kv.float_value() - ref) <= kv.float_tail_bound() + 1e-13 * abs(ref)

    @staticmethod
    def _tiny_radii_logs(r, rp, gamma):
        """(sign, log |.|) of e^{-R}/(4 pi R) and its radial and angular derivatives, in logs (lam = 1).

        Every length is t = min(r, r') times an O(1) one, so no length
        leaves double range on the way.
        """
        t = min(r, rp)
        x, xp = r / t, rp / t
        R1 = oracles.euclid_distance(x, xp, gamma)
        log_R, R = math.log(t) + math.log(R1), t * R1
        log_dg = math.log1p(R) - R - math.log(4.0 * math.pi) - 2.0 * log_R  # log |dG/dR|, dG/dR < 0
        return [(1.0, -R - math.log(4.0 * math.pi) - log_R),
                (-math.copysign(1.0, x - xp * math.cos(gamma)),
                 log_dg + math.log(abs(x - xp * math.cos(gamma))) - math.log(R1)),
                (-1.0, log_dg + math.log(xp * math.sin(gamma)) - math.log(R1))]

    @pytest.mark.parametrize("r, rp", [(1e-170, 2e-170), (2e-170, 1e-170), (1e-300, 3e-300), (3e-300, 1e-300)])
    def test_tiny_radii(self, r, rp):
        # (lam r_>)^2 underflows here, and the gradients leave double range.
        z, zp = _point_pair(S3, r, rp, 1.0)
        req = ResolventRequest(S3, z, zp)
        g = resolvent_gradient(req)
        for kv, (sign, log_want) in zip((resolvent_kernel(req), g.d_r, g.angular), self._tiny_radii_logs(r, rp, 1.0)):
            assert kv.certified and math.copysign(1.0, kv.value) == sign, (r, rp, kv)
            assert abs(kv.log_abs - log_want) <= _rel_tail(kv) + 1e-13, (r, rp, kv, log_want)

    def test_plain_float_past_float_range(self):
        # e^{-R}/(4 pi R) = 1.70 * 2^1024 here: the plain float is inf, and
        # the log is right (the subnormal radii carry about 13 digits).
        r, rp = 1e-310, 3e-310
        kv = _value(S3, r, rp, 1.0)
        log_want = -math.log(4.0 * math.pi) - math.log(r) - math.log(oracles.euclid_distance(1.0, rp / r, 1.0))
        assert kv.certified and kv.float_value() == math.inf
        assert abs(kv.log_abs - log_want) <= _rel_tail(kv) + 1e-12, (kv, log_want)
        # The gradient and the Riesz kernel at both point orders: their 1/r
        # factors overflow as floats, so they stay in log space.
        for r, rp in ((1e-310, 3e-310), (3e-310, 1e-310)):
            z, zp = _point_pair(S3, r, rp, 1.0)
            g = resolvent_gradient(ResolventRequest(S3, z, zp))
            want = self._tiny_radii_logs(r, rp, 1.0)[1:]
            for kv, (sign, log_want) in zip((g.d_r, g.angular), want):
                assert kv.certified and math.copysign(1.0, kv.value) == sign, (r, rp, kv)
                assert abs(kv.log_abs - log_want) <= _rel_tail(kv) + 1e-12, (r, rp, kv, log_want)
            # -grad R/(pi^2 R^3) passes float range: signed infinities, the signs of the gradient's.
            t = riesz_kernel(S3, z, zp)
            assert t.certified and (t.d_r, t.angular) == tuple(sign * math.inf for sign, _ in want), (r, rp, t)
        # Past float range on either side, and below it.
        assert KernelValue(-1.5, 1.0, 1, exp2=2000).float_value() == -math.inf
        assert KernelValue(-1.5, 1.0, 1, exp2=2000).float_tail_bound() == math.inf
        assert KernelValue(1.5, 1.0, 1, exp2=-2000).float_value() == 0.0


class TestSymmetries:
    def test_swap_is_exact(self):
        for spec in (S3, S3_NEG):
            z, zp = _point_pair(spec, 0.17, 1.3, 0.8)
            a = resolvent_kernel(ResolventRequest(spec, z, zp))
            b = resolvent_kernel(ResolventRequest(spec, zp, z))
            assert a.float_value() == b.float_value()

    def test_lambda_scaling(self):
        # G_lambda(z, z') = lambda^{d-2} G_1(lambda z, lambda z')
        for spec, d in ((S3, 3), (sphere_spectrum(5, c=0.3), 5)):
            for lam in (0.3, 2.0, 7.5):
                a = _value(spec, 0.2, 1.1, 0.9, lam=lam)
                b = _value(spec, 0.2 * lam, 1.1 * lam, 0.9, lam=1.0)
                np.testing.assert_allclose(
                    a.float_value(), lam ** (d - 2) * b.float_value(), rtol=1e-12
                )

    def test_gauge_prefactor(self):
        # The b-half kernel is the riemannian one times (r r')^{d/2-1}, tail included.
        d = 4
        spec = sphere_spectrum(d, c=0.5)
        r, rp = 0.21, 1.4
        riem = _value(spec, r, rp, 1.0)
        half = _b_half(riem, d, r, rp)
        np.testing.assert_allclose(
            riem.float_value(),
            (r * rp) ** (1.0 - d / 2.0) * half.float_value(),
            rtol=1e-13,
        )
        np.testing.assert_allclose(half.float_tail_bound(), r * rp * riem.float_tail_bound(), rtol=1e-13)
        assert (half.modes_used, half.certified, half.tail_kind) == (riem.modes_used, riem.certified, riem.tail_kind)

    def test_b_half_keeps_exp2_and_exact_zeros(self):
        # Past float range the rescale moves the exponent; an exact zero stays zero.
        big = KernelValue(-1.5, 0.75, 7, exp2=2000, certified=True)
        half = _b_half(big, 4, 2.0 ** 200, 2.0 ** 250)  # times r r' = 2^450
        assert half.exp2 > 2000 and half.float_value() == -math.inf
        assert half.log_abs == pytest.approx(big.log_abs + 450.0 * math.log(2.0), rel=1e-15)
        assert half.tail_bound / abs(half.value) == pytest.approx(0.5, rel=1e-13)
        zero = _b_half(KernelValue(0.0, 0.0, 3, 0, True, "exact"), 3, 0.5, 4.0)
        assert (zero.value, zero.tail_bound, zero.exp2, zero.tail_kind) == (0.0, 0.0, 0, "exact")


class TestCertification:
    def test_certified_only_in_quarter_region(self):
        # Certified means the rigorous stop rule fired: inside the base table
        # at s <= 1/4, and for 1/4 < s < 1 once the table has grown far enough.
        assert _value(S3, 0.24, 1.0, 0.5).certified
        kv = _value(S3, 0.6, 1.0, 0.5)
        assert kv.certified
        assert kv.tail_kind == "rigorous"

    def test_tail_honesty_against_deep_table(self):
        deep = sphere_spectrum(3, c=0.4, mu_cutoff=150.0)
        shallow = sphere_spectrum(3, c=0.4)
        rng = np.random.default_rng(7)
        for _ in range(25):
            rp = float(10.0 ** rng.uniform(-0.5, 0.5))
            r = rp * float(rng.uniform(0.02, 0.25))
            gamma = float(rng.uniform(0.0, 3.0))
            a = _value(shallow, r, rp, gamma)
            b = _value(deep, r, rp, gamma, rel_tol=1e-12)
            assert a.certified
            assert abs(a.float_value() - b.float_value()) <= (
                a.float_tail_bound() + 1e-12 * abs(b.float_value())
            )

    def test_diagonal_matches_the_oracle(self):
        # At r = r' the value comes from the heat kernel's tau rule: flagged
        # uncertified, with an estimate that covers the error, and within
        # rel_tol of the closed form.
        kv = _value(S3, 1.0, 1.0, 1.2)
        assert not kv.certified
        assert kv.tail_kind == "quadrature"
        ref = oracles.yukawa_kernel(1.0, 1.0, 1.2)
        assert abs(kv.float_value() - ref) <= kv.float_tail_bound()
        assert abs(kv.float_value() / ref - 1.0) < _KERNEL_REL_TOL

    def test_norms_only_spectrum_cannot_evaluate(self, tmp_path):
        import json
        p = tmp_path / "norms.json"
        p.write_text(json.dumps({"d": 3, "modes": [
            {"mu": 0.5, "multiplicity": 1},
            {"mu": 1.5, "multiplicity": 3},
        ]}))
        from conekit import load_spectrum
        spec = load_spectrum(p)
        z, zp = ConePoint(0.2, 0.0), ConePoint(1.0, 0.7)
        with pytest.raises(NormsOnlyError):
            resolvent_kernel(ResolventRequest(spec, z, zp))

    def test_coincident_points_rejected(self):
        z, _ = _point_pair(S3, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            resolvent_kernel(ResolventRequest(S3, z, z))

    def test_request_validation(self):
        z, zp = _point_pair(S3, 0.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            ResolventRequest(S3, z, zp, lam=0.0)
        with pytest.raises(DomainError):
            ResolventRequest(S3, z, zp, rel_tol=0.0)

    def test_determinism(self):
        a = _value(S3_NEG, 0.11, 0.9, 1.7)
        b = _value(S3_NEG, 0.11, 0.9, 1.7)
        assert a.float_value() == b.float_value()
        assert a.float_tail_bound() == b.float_tail_bound()
        assert a.modes_used == b.modes_used


class TestPdeResidual:
    @pytest.mark.parametrize("spec,c", [(S3, 0.0), (S3_POS, 1.0),
                                        (sphere_spectrum(4, c=0.5), 0.5)])
    def test_kernel_solves_resolvent_equation(self, spec, c):
        d = spec.d
        lam = 1.3
        rp, gamma0 = 1.0, 1.9
        _, yp_fixed = spec.cross_section.points_at_separation(0.0)

        def kernel_at(r, gamma):
            z, zp = _point_pair(spec, r, rp, gamma)
            return resolvent_kernel(
                ResolventRequest(spec, z, zp, lam=lam, rel_tol=1e-11)
            ).float_value()

        r0 = 0.45
        res = oracles.pde_residual(kernel_at, r0, gamma0, d=d, c=c, lam=lam)
        scale = abs(kernel_at(r0, gamma0))
        assert abs(res) < 1e-3 * scale / 0.25  # dist(z, z') ~ 0.5 here


class TestGradient:
    def test_radial_matches_finite_differences(self):
        h = 1e-5
        for spec in (S3, S3_NEG):
            z, zp = _point_pair(spec, 0.2, 1.0, 1.1)
            g = resolvent_gradient(ResolventRequest(spec, z, zp, rel_tol=1e-11))
            up = _value(spec, 0.2 + h, 1.0, 1.1, rel_tol=1e-11).float_value()
            dn = _value(spec, 0.2 - h, 1.0, 1.1, rel_tol=1e-11).float_value()
            np.testing.assert_allclose(
                g.d_r.float_value(), (up - dn) / (2 * h), rtol=1e-5
            )

    def test_angular_matches_finite_differences(self):
        h = 1e-5
        r = 0.2
        z, zp = _point_pair(S3, r, 1.0, 1.1)
        g = resolvent_gradient(ResolventRequest(S3, z, zp, rel_tol=1e-11))
        up = _value(S3, r, 1.0, 1.1 + h, rel_tol=1e-11).float_value()
        dn = _value(S3, r, 1.0, 1.1 - h, rel_tol=1e-11).float_value()
        # Angular component is per unit arc length at z: (1/r) d/dgamma.
        np.testing.assert_allclose(
            g.angular.float_value(), (up - dn) / (2 * h) / r, rtol=1e-5
        )

    def test_euclidean_gradient_closed_form(self):
        # grad of e^{-R}/(4 pi R): radial d/dr, angular (1/r) d/dgamma.
        r, rp, gamma = 0.15, 1.0, 0.9
        z, zp = _point_pair(S3, r, rp, gamma)
        g = resolvent_gradient(ResolventRequest(S3, z, zp, rel_tol=1e-12))
        R = oracles.euclid_distance(r, rp, gamma)
        dG_dR = -(1.0 + R) * math.exp(-R) / (4.0 * math.pi * R * R)
        np.testing.assert_allclose(
            g.d_r.float_value(), dG_dR * (r - rp * math.cos(gamma)) / R, rtol=1e-9
        )
        np.testing.assert_allclose(
            g.angular.float_value(), dG_dR * rp * math.sin(gamma) / R, rtol=1e-9
        )

    @pytest.mark.parametrize("d", [3, 5])
    def test_outer_radial_factor_near_the_face(self, d, tmp_path):
        # With z outer, one mode's d_r / G is beta_r + lam K'_mu(b)/K_mu(b)
        # = -[lam K_{|mu-1|}(b)/K_mu(b) + (mu + d/2 - 1)/r].  At mu in
        # [50, 80] and b <= 0.03 the Bessel logs reach about 850; taking K'
        # as (K_{mu-1} + K_{mu+1})/2 instead errs by about 1.5e-13 here.
        worst = 0.0
        for mu in (50.0, 54.25, 61.5, 67.0, 72.75, 79.5):
            path = tmp_path / f"mode-{d}-{mu}.json"
            path.write_text(json.dumps({"d": d, "v0": "file",
                                        "modes": [{"mu": mu, "multiplicity": 1, "addition_coeffs": [1.0]}]}))
            spec = load_spectrum(path)
            for b, s, lam in ((1e-3, 0.9, 1.0), (0.01, 0.5, 2.0), (0.03, 0.9, 0.5)):
                r = b / lam
                req = ResolventRequest(spec, *_point_pair(spec, r, s * r, 1.0), lam=lam)
                got = resolvent_gradient(req).d_r.float_value() / resolvent_kernel(req).float_value()
                m, bm = mp.mpf(mu), mp.mpf(b)
                want = -(lam * mp.besselk(abs(m - 1), bm) / mp.besselk(m, bm) + (m + mp.mpf(d) / 2 - 1) / r)
                worst = max(worst, float(abs(got / want - 1)))
        assert worst <= 1e-14, worst

    def test_angular_vanishes_identically_at_zero_separation(self):
        z, zp = _point_pair(S3_NEG, 0.2, 1.0, 0.0)
        g = resolvent_gradient(ResolventRequest(S3_NEG, z, zp))
        assert g.angular.float_value() == 0.0
        assert g.angular.certified
        assert g.angular.tail_kind == "exact"


class TestIndicialKernel:
    def test_matches_generating_function(self):
        cs = S3.cross_section
        for s in (0.05, 0.2, 0.6):
            for gamma in (0.3, 1.2, 2.9):
                y, yp = cs.points_at_separation(gamma)
                got = indicial_kernel(S3, s, y, yp)
                np.testing.assert_allclose(got, oracles.indicial_r3(s, gamma),
                                           rtol=1e-9)

    def test_inversion_symmetry(self):
        cs = S3_NEG.cross_section
        y, yp = cs.points_at_separation(1.0)
        assert indicial_kernel(S3_NEG, 0.2, y, yp) == indicial_kernel(
            S3_NEG, 5.0, y, yp
        )

    def test_rejects_s_equal_one(self):
        y, yp = S3.cross_section.points_at_separation(1.0)
        with pytest.raises(DomainError):
            indicial_kernel(S3, 1.0, y, yp)


class TestZeroFrontCompatibility:
    def test_high_coupling_converges_quadratically(self):
        y, yp = S3_POS.cross_section.points_at_separation(0.7)
        rep = zf_compatibility_check(S3_POS, 0.1, y, yp)
        assert rep.final_deviation < 1e-4
        assert rep.rate == pytest.approx(2.0, abs=0.2)

    def test_zero_potential_true_rate(self):
        # mu0 = 1/2 makes the expansion's next term O(r'): rate 1, not 2.
        y, yp = S3.cross_section.points_at_separation(0.7)
        rep = zf_compatibility_check(S3, 0.1, y, yp)
        assert rep.rate == pytest.approx(1.0, abs=0.1)
        assert 5e-4 < rep.final_deviation < 2e-3

    def test_small_mu_true_rate(self):
        # mu0 = 0.1: the K-branch correction r'^{2 mu0} dominates.
        y, yp = S3_NEG.cross_section.points_at_separation(0.7)
        rep = zf_compatibility_check(S3_NEG, 0.1, y, yp)
        assert rep.rate == pytest.approx(0.2, abs=0.05)

    @pytest.mark.xfail(strict=True,
                       reason="quadratic zero-front convergence holds only "
                              "for mu0 > 1; at mu0 = 1/2 the true rate is 1")
    def test_zero_potential_quadratic_claim(self):
        y, yp = S3.cross_section.points_at_separation(0.7)
        rep = zf_compatibility_check(S3, 0.1, y, yp)
        assert rep.final_deviation < 1e-4 and abs(rep.rate - 2.0) <= 0.2

    @pytest.mark.xfail(strict=True,
                       reason="quadratic zero-front convergence holds only "
                              "for mu0 > 1; at mu0 = 0.1 the true rate is 0.2")
    def test_small_mu_quadratic_claim(self):
        y, yp = S3_NEG.cross_section.points_at_separation(0.7)
        rep = zf_compatibility_check(S3_NEG, 0.1, y, yp)
        assert rep.final_deviation < 1e-4 and abs(rep.rate - 2.0) <= 0.2

    def test_requires_small_ratio(self):
        y, yp = S3.cross_section.points_at_separation(0.7)
        with pytest.raises(DomainError):
            zf_compatibility_check(S3, 0.6, y, yp)

    def test_report_carries_grid(self):
        y, yp = S3_POS.cross_section.points_at_separation(0.7)
        rep = zf_compatibility_check(S3_POS, 0.1, y, yp)
        assert len(rep.rprimes) == len(rep.ratios) == len(rep.deviations)
        assert rep.indicial_value > 0.0


class TestBoundaryOrders:
    def test_zero_front_order(self):
        assert boundary_order_probe(S3, "zf") == pytest.approx(2 - 3, abs=0.05)
        spec5 = sphere_spectrum(5, c=0.3)
        assert boundary_order_probe(spec5, "zf") == pytest.approx(2 - 5, abs=0.05)

    @pytest.mark.parametrize("face", ["lbz", "rbz"])
    def test_side_face_orders(self, face):
        for spec, mu0 in ((S3, 0.5), (S3_NEG, 0.1), (S3_POS, math.sqrt(1.25))):
            expected = 1 - spec.d / 2 + mu0
            assert boundary_order_probe(spec, face) == pytest.approx(
                expected, abs=0.05
            )

    def test_infinity_face_decays_exponentially(self):
        assert boundary_order_probe(S3, "rbi") < -20.0

    def test_unknown_face(self):
        with pytest.raises(DomainError):
            boundary_order_probe(S3, "qf")


class TestTorusCone:
    def test_certified_evaluation_and_scaling(self):
        spec = torus_spectrum(3, [1.0, 1.0])
        kv = _value(spec, 0.2, 1.0, 0.9)
        assert kv.certified
        a = _value(spec, 0.1, 0.5, 0.9, lam=2.0)
        np.testing.assert_allclose(
            a.float_value(), 2.0 * kv.float_value(), rtol=1e-12
        )

    def test_single_mode_subtable_is_exact(self):
        lead = leading_modes(S3, 1)
        kv = _value(lead, 0.2, 1.0, 1.0)
        assert kv.certified
        # One Legendre mode of the flat kernel, computable in closed form:
        # (1/(4 pi)) * (1/sqrt(r r')) * I_{1/2}(r) K_{1/2}(r')
        ref = (1.0 / (4 * math.pi)) / math.sqrt(0.2) * (
            math.sqrt(2.0 / (math.pi * 0.2)) * math.sinh(0.2)
        ) * (math.sqrt(math.pi / 2.0) * math.exp(-1.0))
        np.testing.assert_allclose(kv.float_value(), ref, rtol=1e-12)

    def test_tail_past_double_range_is_infinite(self):
        # Far out at s = 1e-6 the value is about e^{-1000015}.  Grown to the
        # ceiling (12770 clusters, top mu 112.3) the remainder, about
        # e^{-1550}, is past double range on the value's scale: the bound is
        # infinite, not a raise.  It once underflowed to 0 and certified the
        # value on rounding alone.
        kv = _value(torus_spectrum(3, [1.0, 1.3]), 1e6, 1.0, 0.4)
        assert math.isfinite(kv.value) and -1.1e6 < kv.log_abs < -1e6
        assert kv.tail_bound == math.inf and not kv.certified and kv.tail_kind == "rigorous"


class TestDiagonal:
    """r = r': the resolvent and its gradient from the cone heat kernel's tau rule."""

    @pytest.mark.parametrize("d", [3, 5])
    def test_flat_oracle_grid(self, d):
        # A seeded grid over r in [0.1, 10], lambda in [0.3, 3], gamma in
        # [0.1, 3]: every component's error is within its estimate, and on
        # R^3 within rel_tol where lambda R <= 10.  Past that the terms
        # outgrow the value by up to e^{lambda R}, and the estimate says so.
        spec = sphere_spectrum(d)
        rng = np.random.default_rng(40 + d)
        for _ in range(200):
            r, gamma = float(10.0 ** rng.uniform(-1.0, 1.0)), float(rng.uniform(0.1, 3.0))
            lam = float(10.0 ** rng.uniform(math.log10(0.3), math.log10(3.0)))
            z, zp = _point_pair(spec, r, r, gamma)
            req = ResolventRequest(spec, z, zp, lam=lam)
            got = [resolvent_kernel(req), *resolvent_gradient(req).__dict__.values()]
            close = d == 3 and lam * oracles.euclid_distance(r, r, gamma) <= 10.0
            for kv, ref in zip(got, oracles.yukawa_flat(d, r, r, gamma, lam)):
                err = abs(kv.float_value() - ref)
                assert not kv.certified and kv.tail_kind == "quadrature", (d, r, gamma, lam)
                assert err <= kv.float_tail_bound() + 1e-10 * abs(ref), (d, r, gamma, lam, err)
                assert err <= req.rel_tol * abs(ref) or not close, (d, r, gamma, lam, err)

    @pytest.mark.parametrize("gamma", [1e-153, 1e-160, 1e-161])
    def test_separation_too_small_for_the_tau_rule(self, gamma):
        # R/r = gamma here.  The grid's largest x = r^2/2tau passes float
        # range from R/r ~ 1e-153 down, and (R/r)^2 underflows at 1e-161.
        z, zp = _point_pair(S3, 1.0, 1.0, gamma)
        req = ResolventRequest(S3, z, zp)
        for evaluate in (resolvent_kernel, resolvent_gradient, lambda _: riesz_kernel(S3, z, zp)):
            with pytest.raises(DomainError, match="too small for the tau rule"):
                evaluate(req)

    def test_gauge_and_symmetry(self):
        # The b-half value is the riemannian one without (r r')^{1-d/2}, and
        # swapping z and z' leaves the kernel unchanged.
        z, zp = _point_pair(S3_NEG, 2.0, 2.0, 0.8)
        kv = resolvent_kernel(ResolventRequest(S3_NEG, z, zp))
        half = _b_half(kv, 3, 2.0, 2.0)
        np.testing.assert_allclose(half.float_value() / 2.0, kv.float_value(), rtol=1e-14)
        assert resolvent_kernel(ResolventRequest(S3_NEG, zp, z)).float_value() == kv.float_value()

    @pytest.mark.parametrize("spec, more_modes", [(S3_NEG, True), (sphere_spectrum(5, c=0.3), True),
                                                  (torus_spectrum(3, [1.0, 1.3]), False)],
                             ids=["S3_NEG", "S5", "T2"])
    def test_estimates_cover_a_refined_rule(self, spec, more_modes, monkeypatch):
        # Halving the first step, or on spheres summing twice the modes at
        # each node, moves each value by less than its estimate.  The torus
        # table stops short of the modes the nodes at small tau need (at
        # gamma = 0.4 those with x > 121): the flat heat kernel's bound over
        # those nodes carries it.
        refinements = [{"_DIAG_STEP": 0.25}]
        if more_modes:
            refinements.append({"_DIAG_MU_SLOPE": 18.0, "_DIAG_MU_FLOOR": 24.0})
        for r, gamma, lam in ((1.0, 0.4, 1.0), (0.2, 2.9, 2.5))[:2 if more_modes else 1]:
            z, zp = _point_pair(spec, r, r, gamma)
            req = ResolventRequest(spec, z, zp, lam=lam)
            got = [resolvent_kernel(req), *resolvent_gradient(req).__dict__.values()]
            for refine in refinements:
                with monkeypatch.context() as m:
                    for name, value in refine.items():
                        m.setattr(f"conekit.resolvent.{name}", value)
                    finer = [resolvent_kernel(req), *resolvent_gradient(req).__dict__.values()]
                for a, b in zip(got, finer):
                    assert abs(a.float_value() - b.float_value()) <= a.float_tail_bound(), (r, gamma, lam, refine)

    @pytest.mark.parametrize("spec, count", [(S3, 1), (S3, 3), (S3_NEG, 3)], ids=["S3-1", "S3-3", "S3_NEG-3"])
    def test_complete_table_is_its_finite_sum(self, spec, count):
        # A complete table is a finite sum at every tau node, no node left
        # out: G = r^{2-d} sum_j pair_j I_mu(lam r) K_mu(lam r), the radial
        # component half its derivative along the diagonal, and the angular
        # one the gradient pairs over r.  (The one-mode R^3 kernel at
        # (1, 1, 1, 1) was once 0.0.)
        lead = leading_modes(spec, count)
        d, mus = lead.d, lead.table.mu.tolist()

        def ik(mu, t, deriv=False):
            if deriv:  # (I K)' = I' K + I K'
                return (mp.besseli(mu - 1, t) + mp.besseli(mu + 1, t)) * mp.besselk(mu, t) / 2 \
                    - mp.besseli(mu, t) * (mp.besselk(mu - 1, t) + mp.besselk(mu + 1, t)) / 2
            return mp.besseli(mu, t) * mp.besselk(mu, t)

        for r, gamma, lam in ((1.0, 1.0, 1.0), (2.0, 0.3, 0.3), (0.5, 2.5, 3.0), (1.0, 1e-3, 400.0)):
            z, zp = _point_pair(lead, r, r, gamma)
            req = ResolventRequest(lead, z, zp, lam=lam)
            pair, grad = lead.pair_values(z.y, zp.y)
            t = lam * r
            value = r ** (2 - d) * mp.fsum(p * ik(mu, t) for p, mu in zip(pair, mus))
            radial = (1 - d / 2) / r * value + lam / 2 * r ** (2 - d) * mp.fsum(
                p * ik(mu, t, True) for p, mu in zip(pair, mus))
            angular = r ** (1 - d) * mp.fsum(q * ik(mu, t) for q, mu in zip(grad, mus))
            got = [resolvent_kernel(req), *resolvent_gradient(req).__dict__.values()]
            for kv, ref in zip(got, map(float, (value, radial, angular))):
                assert kv.tail_kind == "quadrature" and kv.modes_used == count, (r, gamma, lam)
                assert abs(kv.float_value() - ref) <= req.rel_tol * abs(ref), (r, gamma, lam, kv, ref)

    def test_complete_table_has_no_lambda_integral_on_the_diagonal(self):
        # Each mode's lambda-integral diverges at r = r', and a finite sum has
        # no oscillation of infinitely many pairs to make the sum converge.
        lead = leading_modes(S3, 3)
        z, zp = _point_pair(lead, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="finite mode sum diverges"):
            riesz_kernel(lead, z, zp)


# ----------------------------------------------------------------------
# Term-by-term reference: the scalar Bessel API and closed-form pair
# functions, summed one mode at a time with the documented stop rules.
# Past the base table of n entries the sum runs on in chunks, chunk
# ``level`` holding entries n 2**(level-1) .. n 2**level - 1, with each
# chunk's remainder seeded by log_sum_beyond at its top.
# ----------------------------------------------------------------------

def _sphere_reference(spec, levels=2):
    """Closed-form modes and 40-digit pair functions on the unit S^{d-1}, up to ``levels`` growth chunks."""
    d = spec.d
    nu = mp.mpf(d - 2) / 2
    c0 = spec.v0_constant + ((d - 2) / 2) ** 2
    vol = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)

    def degree(l):  # (mu, multiplicity) of the degree-l harmonics
        return math.sqrt(l * (l + d - 2) + c0), math.comb(l + d - 1, d - 1) - math.comb(l + d - 3, d - 1)

    assert spec.table.mult.tolist() == [degree(l)[1] for l in range(len(spec.table.mu))]
    base = len(spec.table.mu)
    count = base * 2 ** levels
    degrees = [degree(l) for l in range(count)]

    def chunk(level):
        """The (mu, pair_sup, grad_sup) of chunk ``level`` >= 1."""
        assert level <= levels
        return [(mu, n / float(vol), n / float(vol) * l * (l + d - 2) / (d - 1))
                for l, (mu, n) in enumerate(degrees) if base * 2 ** (level - 1) <= l < base * 2 ** level]

    @functools.cache
    def pairs(gamma):
        # Gegenbauer C_l^nu and C_{l-1}^{nu+1} by their unnormalized three-term recurrence.
        x = mp.cos(gamma)
        gegen = {}
        for alpha in (nu, nu + 1):
            c = [mp.mpf(1), 2 * alpha * x]
            for n in range(2, count):
                c.append((2 * x * (n + alpha - 1) * c[-1] - (n + 2 * alpha - 2) * c[-2]) / n)
            gegen[alpha] = c
        out = []
        for l, (_, n) in enumerate(degrees):
            norm = n / (vol * mp.binomial(l + 2 * nu - 1, l))
            out.append((float(norm * gegen[nu][l]),
                        float(-norm * 2 * nu * mp.sin(gamma) * gegen[nu + 1][l - 1]) if l else 0.0))
        return out

    return chunk, pairs


def _torus_reference(spec, radii):
    """Cosines of every lattice vector, summed over each eigenvalue cluster of the base and the grown table.

    The grown table holds every cluster with lambda < t^2, where t is the
    first of the points k/a_i at which the lattice box of side
    2 floor(a_i t) + 1 holds more than TABLE_CEILING vectors.
    """
    radii = np.asarray(radii)
    vol = float(np.prod(2 * np.pi * radii))
    c0 = spec.mu0 ** 2
    jumps = sorted(k / a for a in radii.tolist() for k in range(1, 400))
    top = next(t for t in jumps if math.prod(2 * math.floor(a * t + 1e-9) + 1 for a in radii.tolist()) > TABLE_CEILING)
    kmax = int(top * radii.max()) + 1
    ks = np.array([(i, j) for i in range(-kmax, kmax + 1) for j in range(-kmax, kmax + 1)])
    freqs = ks / radii
    lams = (freqs ** 2).sum(axis=1)
    inside = np.sort(lams[lams < top ** 2 * (1 - 1e-9)])
    values = inside[np.diff(inside, prepend=-1.0) > 1e-9 * (1 + inside)]
    # Each vector's cluster, or -1 past the grown table.
    cluster = np.minimum(np.searchsorted(values, lams - 1e-9 * (1 + lams)), values.size - 1)
    cluster[np.abs(lams - values[cluster]) > 1e-9 * (1 + lams)] = -1
    mults = np.bincount(cluster[cluster >= 0], minlength=values.size)
    n = len(spec.table.mu)
    assert np.allclose(np.sqrt(values[:n] + c0), spec.table.mu, rtol=1e-13, atol=0.0)
    assert mults[:n].tolist() == spec.table.mult.tolist()

    def chunk(level):
        # Entries n 2**(level-1) .. n 2**level - 1, cut where the grown table stops.
        lo, hi = n * 2 ** (level - 1), min(n * 2 ** level, values.size)
        if lo >= values.size:
            return None
        return [(math.sqrt(v + c0), m / vol, m * math.sqrt(v) / vol)
                for v, m in zip(values[lo:hi].tolist(), mults[lo:hi].tolist())]

    @functools.cache
    def pairs(gamma):
        delta = np.array([-gamma / radii[0], 0.0])  # y - y' for points_at_separation
        phase = freqs @ delta
        inner = cluster >= 0
        pair = np.bincount(cluster[inner], np.cos(phase[inner]), values.size) / vol
        if gamma == 0.0:
            return list(zip(pair.tolist(), [0.0] * values.size))
        grad = -np.bincount(cluster[inner], np.sin(phase[inner]) * (freqs[inner] @ (delta / gamma)), values.size) / vol
        return list(zip(pair.tolist(), grad.tolist()))

    return chunk, pairs


_FILE_COEFFS = [[0.08], [0.05, 0.03], [0.02, -0.04, 0.01], [0.01, 0.0, 0.02, -0.005]]


def _file_spectrum(tmp_path):
    modes = [{"mu": 0.6 + 0.9 * j, "multiplicity": 1 + j,
              "addition_coeffs": _FILE_COEFFS[j % 4]} for j in range(12)]
    path = tmp_path / "modes.json"
    path.write_text(json.dumps({"d": 3, "v0": "file", "modes": modes}))
    spec = load_spectrum(path)

    def pairs(gamma):
        return [(sum(c * math.cos(k * gamma) for k, c in enumerate(_FILE_COEFFS[j % 4])),
                 -sum(k * c * math.sin(k * gamma) for k, c in enumerate(_FILE_COEFFS[j % 4])))
                for j in range(12)]

    return spec, (lambda level: None, pairs)  # a file spectrum never grows


# The kernel and the gradient pass of a point read the same scalar values.
_bessel_i = functools.cache(bessel_i)


@functools.cache
def _k_logs(mu, b):
    """Logs of K_mu(b) and |K_mu'(b)| = (K_{|mu-1|}(b) + K_{mu+1}(b))/2 (DLMF 10.29.1).

    The derivative takes both neighbouring orders, not the order shift of
    conekit's z-outer radial factor, so that the loop checks that form.
    """
    (log_k, log_lo, log_hi), _, _ = log_scaled("k", [mu, abs(mu - 1.0), mu + 1.0], b)
    return float(log_k) - b, float(np.logaddexp(log_lo, log_hi)) - math.log(2.0) - b


def _loop_reference(spec, ref, r, rp, gamma, lam, rel_tol, need_grad):
    """(values, sums of |terms|, tails, modes_used, certified).

    The first three hold one entry per component returned: the kernel, or
    radial and (unless gamma = 0) angular.  The stop reads those
    components' tails alone.  ``ref`` is (chunk, pairs): the modes of each
    growth chunk (None where the table stops), and the pair values of
    every mode.
    """
    grown_chunk, pairs = ref
    z_small = r < rp
    a_r, b_r = (r, rp) if z_small else (rp, r)
    s = a_r / b_r
    a, b = lam * a_r, lam * b_r
    beta = (1 - spec.d / 2) / r
    gauge = (r * rp) ** (1 - spec.d / 2)
    ang = need_grad and gamma != 0.0
    n_comp = 1 + need_grad + ang
    first = 1 if need_grad else 0  # a gradient returns no kernel component
    deriv = (1 / (2 * a) + a / (2 * b ** 2)) if z_small else 1 / b
    modes = list(zip(spec.table.mu.tolist(), spec.table.pair_sup.tolist(), spec.table.grad_sup.tolist()))
    all_pairs = pairs(gamma)
    acc = [0.0] * n_comp
    mags = [0.0] * n_comp
    stopped, used, level = False, 0, 0
    while modes is not None and not stopped:
        beyond = dict(zip(("pair_over_2mu", "pair", "grad_over_2mu"),
                          map(math.exp, spec.tail_profile.log_sum_beyond(s, modes[-1][0]))))

        def suffix(kind):
            out = [beyond[kind]]
            for mu, pair_sup, grad_sup in reversed(modes):
                sup = grad_sup if kind == "grad_over_2mu" else pair_sup
                out.append(out[-1] + sup * s ** mu / (1.0 if kind == "pair" else 2 * mu))
            return out[::-1]

        suf_k, suf_p, suf_g = suffix("pair_over_2mu"), suffix("pair"), suffix("grad_over_2mu")
        for i, (mu, _, _) in enumerate(modes):
            p, g = all_pairs[used]
            ik_i = _bessel_i(mu, a)
            log_k, log_dk = _k_logs(mu, b)
            ik = math.exp(ik_i.log_abs + log_k)
            terms = [p * ik]
            if need_grad and z_small:
                # beta I + lam I' = lam I_{mu+1} + ((mu - (d-2)/2)/r) I: without
                # this rearrangement the two 1/r parts cancel in rounding at tiny r.
                i1 = _bessel_i(mu + 1.0, a)
                terms.append(p * (lam * math.exp(i1.log_abs + log_k)
                                  + (mu - (spec.d - 2) / 2) / r * ik))
            elif need_grad:
                terms.append(beta * p * ik - lam * p * math.exp(ik_i.log_abs + log_dk))
            if ang:
                terms.append(g / r * ik)
            for c, t in enumerate(terms):
                acc[c] += t
                mags[c] += abs(t)
            used += 1
            tails = [suf_k[i + 1], abs(beta) * suf_k[i + 1] + lam * deriv * suf_p[i + 1],
                     suf_g[i + 1] / r][first:n_comp]
            if all(t <= rel_tol * abs(v) for t, v in zip(tails, acc[first:])):
                stopped = True
                break
        level += 1
        modes = None if stopped else grown_chunk(level)
    return ([gauge * v for v in acc[first:]], [gauge * v for v in mags[first:]], [gauge * t for t in tails],
            used, stopped)


_REFERENCE_POINTS = [
    # (r, r', gamma, lambda): s <= 1/4 and 1/4 < s < 1, each also at
    # r_< = 1e-7, where high-order I (and at s > 0 also K) leave double range.
    # r = r' takes the heat kernel's tau rule instead (TestDiagonal).
    (0.2, 1.0, 1.1, 1.0), (1.0, 0.15, 2.5, 2.5), (0.6, 1.0, 0.0, 1.0),
    (1.0, 0.7, 1.1, 1.0), (1e-7, 5e-7, 1.1, 1.0), (1e-7, 1.0, 2.5, 1.0),
    (1e-7 / 0.6, 1e-7, 1.1, 1.0),
]


def _reference_spectra(tmp_path):
    cases = []
    for d in (3, 5):
        for c in (0.0, -0.24, 1.0):
            spec = sphere_spectrum(d, c=c)
            cases.append((f"sphere d={d} c={c}", spec, _sphere_reference(spec)))
    torus = torus_spectrum(3, [1.0, 1.3])
    cases.append(("torus (1, 1.3)", torus, _torus_reference(torus, [1.0, 1.3])))
    cases.append(("file", *_file_spectrum(tmp_path)))
    return cases


class TestLoopReference:
    """The chunked vector evaluation agrees with a term-by-term loop."""

    def test_every_band_and_spectrum(self, tmp_path):
        for name, spec, ref in _reference_spectra(tmp_path):
            for r, rp, gamma, lam in _REFERENCE_POINTS:
                z, zp = _point_pair(spec, r, rp, gamma)
                req = ResolventRequest(spec, z, zp, lam=lam)
                g = resolvent_gradient(req)
                for need_grad, got in ((False, [resolvent_kernel(req)]),
                                       (True, [g.d_r, g.angular])):
                    vals, mags, tails, used, certified = _loop_reference(
                        spec, ref, r, rp, gamma, lam, req.rel_tol, need_grad)
                    where = (name, r, rp, gamma, lam, need_grad)
                    for kv, want, mag, tail in zip(got, vals, mags, tails):
                        assert (kv.modes_used, kv.certified, kv.tail_kind) == (
                            used, certified, "rigorous"), where
                        assert abs(kv.float_value() - want) <= 1e-12 * mag, where
                        assert abs(kv.float_tail_bound() - tail) <= 1e-12 * tail, where
                    if need_grad and gamma == 0.0:
                        assert g.angular.float_value() == 0.0 and g.angular.tail_kind == "exact"


class TestGrownTables:
    """Past the base table: 1/4 < s < 1, where the mode table grows on demand."""

    @pytest.mark.parametrize("d", [3, 5])
    def test_closed_forms_certified_near_one(self, d):
        spec = sphere_spectrum(d)
        for s, grad in ((0.5, False), (0.9, False), (0.99, False), (0.5, True), (0.9, True)):
            z, zp = _point_pair(spec, s, 1.0, 1.0)
            req = ResolventRequest(spec, z, zp)
            got = [*resolvent_gradient(req).__dict__.values()] if grad else [resolvent_kernel(req)]
            want = oracles.yukawa_flat(d, s, 1.0, 1.0)
            for kv, ref in zip(got, want[1:] if grad else want[:1]):
                assert kv.certified and kv.tail_kind == "rigorous", (d, s, grad)
                assert kv.modes_used > len(spec.table.mu) or s == 0.5
                assert abs(kv.float_value() - ref) <= req.rel_tol * abs(ref), (d, s, grad)

    @pytest.mark.parametrize("name", ["sphere d=3 c=0.4", "sphere d=4 c=-0.5", "torus (1, 1.3)"])
    def test_tail_honesty_in_the_grown_band(self, name):
        # Criterion 7's check at 1/4 < s <= 0.99: each certified value's bound
        # covers its distance to the same value at rel_tol = 1e-12.
        spec = {"sphere d=3 c=0.4": lambda: sphere_spectrum(3, c=0.4),
                "sphere d=4 c=-0.5": lambda: sphere_spectrum(4, c=-0.5),
                "torus (1, 1.3)": lambda: torus_spectrum(3, [1.0, 1.3])}[name]()
        rng = np.random.default_rng(31)
        n_cert = 0
        for _ in range(25):
            rp = float(10.0 ** rng.uniform(-1.0, 1.0))
            r = rp * float(rng.uniform(0.25, 0.99))
            gamma = float(rng.uniform(0.0, 3.0))
            lam = float(10.0 ** rng.uniform(-0.3, 0.3))
            z, zp = _point_pair(spec, r, rp, gamma)
            shallow = ResolventRequest(spec, z, zp, lam=lam)
            deep = ResolventRequest(spec, z, zp, lam=lam, rel_tol=1e-12)
            pairs = [(resolvent_kernel(shallow), resolvent_kernel(deep))]
            g_a, g_b = resolvent_gradient(shallow), resolvent_gradient(deep)
            pairs += [(g_a.d_r, g_b.d_r), (g_a.angular, g_b.angular)]
            for a, b in pairs:
                if a.certified and a.tail_kind == "rigorous":
                    n_cert += 1
                    assert abs(a.float_value() - b.float_value()) <= (
                        a.float_tail_bound() + 1e-12 * abs(b.float_value())), (name, r, rp, gamma, lam)
        # The torus grows once, to the complete clusters of the largest
        # lattice box under the ceiling (mu up to about 112).
        assert n_cert >= 15, n_cert

    def test_cancelling_sum_is_not_certified(self):
        # Far apart at large lam r' the terms cancel to e^{-30} of their size:
        # the rounding estimate joins the bound, which covers the error, and
        # the value is not certified.
        z, zp = _point_pair(S3, 5.0, 10.0, 3.0)
        kv = _value(S3, 5.0, 10.0, 3.0, lam=2.0)
        ref = oracles.yukawa_kernel(5.0, 10.0, 3.0, 2.0)
        assert not kv.certified and kv.tail_kind == "rigorous"
        assert abs(kv.float_value() - ref) <= kv.float_tail_bound()

    def test_ceiling_leaves_the_value_uncertified(self):
        # Near s = 1 the stop rule needs more than the table ceiling holds;
        # the value keeps its rigorous tail, as past the base table before.
        kv = _value(S3, 0.9999, 1.0, 1.0)
        assert not kv.certified and kv.tail_kind == "rigorous"
        assert kv.modes_used == TABLE_CEILING
        ref = oracles.yukawa_kernel(0.9999, 1.0, 1.0)
        assert abs(kv.float_value() - ref) <= kv.float_tail_bound()

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("gap", [1e-6, 1e-15])
    def test_values_within_a_hair_of_the_diagonal(self, d, gap):
        # At 1 - s far below 1/TABLE_CEILING the tail past the ceiling is a
        # closed form (the term-by-term bound raised ArithmeticError here):
        # the kernel, its gradient and the Riesz kernel come back finite and
        # flagged, each bound covering the closed-form error.
        spec = sphere_spectrum(d)
        r = 1.0 - gap
        z, zp = _point_pair(spec, r, 1.0, 1.0)
        req = ResolventRequest(spec, z, zp)
        got = [resolvent_kernel(req), *resolvent_gradient(req).__dict__.values()]
        for kv, ref in zip(got, oracles.yukawa_flat(d, r, 1.0, 1.0)):
            assert not kv.certified and kv.tail_kind == "rigorous" and kv.modes_used == TABLE_CEILING, (d, gap)
            assert abs(kv.float_value() - ref) <= kv.float_tail_bound() < math.inf, (d, gap, kv, ref)
        t = riesz_kernel(spec, z, zp)
        ref_r, ref_a = oracles.riesz_flat(d, r, 1.0, 1.0)
        assert not t.certified and t.tail_kind == "rigorous" and math.isfinite(t.magnitude), (d, gap)
        assert abs(t.d_r - ref_r) + abs(t.angular - ref_a) <= t.quad_error_est < math.inf, (d, gap, t)

    def test_torus_value_within_a_hair_of_the_diagonal(self):
        kv = _value(torus_spectrum(3, [1.0, 1.3]), 1.0 - 1e-9, 1.0, 1.0)
        assert not kv.certified and kv.tail_kind == "rigorous"
        assert math.isfinite(kv.float_value()) and math.isfinite(kv.float_tail_bound()), kv

    def test_sphere_table_runs_to_the_ceiling(self):
        # The last chunk takes every degree up to TABLE_CEILING, not only up
        # to the last chunk end n 2**k below it (n = 40: 40960 degrees here).
        kv = _value(S3, 0.9995, 1.0, 1.0)
        assert kv.certified and kv.tail_kind == "rigorous"
        assert 40960 < kv.modes_used <= TABLE_CEILING
        ref = oracles.yukawa_kernel(0.9995, 1.0, 1.0)
        assert abs(kv.float_value() - ref) <= _KERNEL_REL_TOL * abs(ref)

    def test_spectrum_without_cutoff(self):
        # A spectrum built directly from a provider's table and tail, without
        # mu_cutoff, grows as the provider's does: the chunks read no cutoff,
        # so the value is the provider's spectrum's bit for bit, with its
        # cutoff set or unset.
        direct = CrossSectionSpectrum(d=3, table=S3.table, v0_descriptor=S3.v0_descriptor,
                                      cross_section=S3.cross_section, tail_profile=S3.tail_profile)
        assert _value(direct, 0.9, 1.0, 1.0) == _value(replace(S3, mu_cutoff=None), 0.9, 1.0, 1.0)
        assert _value(direct, 0.9, 1.0, 1.0) == _value(S3, 0.9, 1.0, 1.0)
        ref = oracles.yukawa_kernel(0.9, 1.0, 1.0)
        kv = _value(replace(S3, mu_cutoff=None), 0.9, 1.0, 1.0)
        assert kv.certified and kv.modes_used > len(S3.table.mu)
        assert abs(kv.float_value() - ref) <= _rel_tail(kv) * abs(ref) + 1e-12 * abs(ref)
