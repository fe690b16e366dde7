"""Exact Schur norms and the numerical L^p operator-norm probe."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conekit import (
    DomainError,
    HomogeneousKernelSpec,
    lp_norm_probe,
    riesz_model_intervals,
    riesz_probe_kernel,
    schur_norm,
    sphere_spectrum,
    threshold_interval,
    threshold_interval_constant,
)

from conekit.lpcheck import _riesz_models, offdiag_envelope

import oracles


class TestSchurNorm:
    def test_upper_triangle_spot_value(self):
        spec = HomogeneousKernelSpec(3, 1.4, "upper")
        assert schur_norm(spec, 1.5) == pytest.approx(1.0 / 0.6, rel=1e-14)
        # At p = 2: d/p = 1.5, gap 0.1 -> norm 10.
        assert schur_norm(spec, 2.0) == pytest.approx(10.0, rel=1e-12)

    def test_norm_two_spot_value(self):
        spec = HomogeneousKernelSpec(3, 1.0, "upper")
        assert schur_norm(spec, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_divergent_cases(self):
        up = HomogeneousKernelSpec(3, 1.4, "upper")
        assert math.isinf(schur_norm(up, 2.3))   # d/p < alpha
        # Exactly representable threshold: alpha = 1.5, p = 2 gives gap 0.
        assert math.isinf(schur_norm(HomogeneousKernelSpec(3, 1.5, "upper"), 2.0))
        lo = HomogeneousKernelSpec(3, 2.6, "lower")
        assert math.isinf(schur_norm(lo, 15.0 / 13.0))

    def test_matches_independent_integral(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            d = int(rng.integers(3, 8))
            p = float(rng.uniform(1.05, 6.0))
            region = "upper" if rng.random() < 0.5 else "lower"
            alpha = float(rng.uniform(0.1, d - 0.1))
            got = schur_norm(HomogeneousKernelSpec(d, alpha, region), p)
            ref = oracles.schur_norm_integral(d, alpha, region, p)
            if math.isinf(ref):
                assert math.isinf(got)
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-9)

    def test_duality(self):
        # Upper kernel at p is adjoint to the lower kernel with the
        # complementary exponent at the conjugate p'.
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(3, 7))
            alpha = float(rng.uniform(0.1, d - 0.1))
            p = float(rng.uniform(1.05, 8.0))
            q = p / (p - 1.0)
            a = schur_norm(HomogeneousKernelSpec(d, alpha, "upper"), p)
            b = schur_norm(HomogeneousKernelSpec(d, d - alpha, "lower"), q)
            if math.isinf(a) or math.isinf(b):
                assert math.isinf(a) and math.isinf(b)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            HomogeneousKernelSpec(2, 1.0, "upper")
        with pytest.raises(DomainError):
            HomogeneousKernelSpec(3, 1.0, "middle")
        with pytest.raises(DomainError):
            schur_norm(HomogeneousKernelSpec(3, 1.0, "upper"), 1.0)

    def test_kernel_support(self):
        up = HomogeneousKernelSpec(3, 1.4, "upper")
        assert up.kernel(2.0, 1.0) == 0.0
        assert up.kernel(1.0, 2.0) == pytest.approx(2.0 ** (1.4 - 3.0))
        assert up.d - up.alpha == pytest.approx(1.6)


class TestExactEndpoints:
    @pytest.mark.parametrize("c, exact", [
        (0.75, (Fraction(1), Fraction(6))),              # mu0 = 1
        (-0.1875, (Fraction(12, 11), Fraction(12, 5))),  # mu0 = 1/4
        (0.1, (None, None)), (-0.24, (None, None)),      # mu0 irrational
    ])
    def test_float_coupling(self, c, exact):
        # A float c is a dyadic fraction, read exactly: where mu0 is rational
        # the endpoints are exact, and equal to the float ones.
        iv = threshold_interval_constant(3, c)
        assert (iv.p_lo_exact, iv.p_hi_exact) == exact
        assert exact == (None, None) or (iv.p_lo, iv.p_hi) == tuple(map(float, exact))

    @pytest.mark.parametrize("c, exact", [
        (np.float32(0.75), (Fraction(1), Fraction(6))),
        (np.float32(-0.1875), (Fraction(12, 11), Fraction(12, 5))),
    ])
    def test_numpy_coupling(self, c, exact):
        # Fraction refuses a numpy scalar; its float is read exactly instead.
        iv = threshold_interval_constant(3, c)
        assert (iv.p_lo_exact, iv.p_hi_exact) == exact


class TestPRange:
    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_both_entry_points_refuse_the_ends(self, p):
        up = HomogeneousKernelSpec(3, 1.0, "upper")
        for evaluate in (lambda: schur_norm(up, p), lambda: lp_norm_probe(up.kernel, 3, p, k_values=(4,))):
            with pytest.raises(DomainError, match=re.escape(f"p must lie in (1, inf), got {p!r}")):
                evaluate()


class TestModelIntervals:
    def test_equals_threshold_interval_exactly(self):
        for d in (3, 4, 5, 8):
            for mu0 in (0.0, 0.1, 0.5, 1.0, d / 2 - 1, d / 2, 3.7):
                assert riesz_model_intervals(d, mu0) == threshold_interval(d, mu0)

    def test_model_exponents_drive_the_endpoints(self):
        # p_hi is where the far-right model kernel (alpha = d/2 - mu0)
        # stops being Schur-bounded; p_lo mirrors it on the far-left side.
        d, mu0 = 3, 0.1
        iv = riesz_model_intervals(d, mu0)
        up = HomogeneousKernelSpec(d, d / 2 - mu0, "upper")
        lo = HomogeneousKernelSpec(d, d / 2 + 1 + mu0, "lower")
        eps = 1e-9
        assert math.isfinite(schur_norm(up, iv.p_hi - eps))
        assert math.isinf(schur_norm(up, iv.p_hi + eps))
        assert math.isfinite(schur_norm(lo, iv.p_lo + eps))
        assert math.isinf(schur_norm(lo, iv.p_lo - eps))


class TestOffdiagEnvelope:
    def test_is_the_riesz_model_kernel(self):
        # The far-right and far-left envelopes are the model kernels' values,
        # to the last bit, and the zero-V leading one the alpha = -1 kernel.
        grid = np.geomspace(1e-3, 1e3, 13).tolist()
        for d in (3, 4, 5, 8):
            for mu0 in (0.0, 0.3, d / 2 - 1, 1.7, d / 2 + 0.5):
                right, left = _riesz_models(d, mu0)
                for r in grid:
                    for rp in grid:
                        if r <= 0.25 * rp:
                            assert offdiag_envelope(d, mu0, "far-right", r, rp) == right.kernel(r, rp)
                            if mu0 == d / 2 - 1:
                                assert offdiag_envelope(d, mu0, "far-right", r, rp, "zero-v-leading") == r * rp ** (-1.0 - d)
                        elif rp <= 0.25 * r:
                            assert offdiag_envelope(d, mu0, "far-left", r, rp) == left.kernel(r, rp)

    @pytest.mark.parametrize("region, model, mu0", [
        ("sideways", "general", 0.5),
        ("far-right", "nope", 0.5),
        ("far-left", "zero-v-leading", 0.5),
        ("far-right", "zero-v-leading", 0.1),  # the leading model needs mu0 = d/2 - 1
    ])
    def test_validation(self, region, model, mu0):
        with pytest.raises(DomainError):
            offdiag_envelope(3, mu0, region, 0.125, 1.0, model=model)


class TestNormProbe:
    UP = HomogeneousKernelSpec(3, 1.4, "upper")

    def test_stable_inside_interval(self):
        res = lp_norm_probe(self.UP.kernel, 3, 1.5, k_values=(4, 10, 16),
                            homogeneous_degree=-3.0)
        assert res.verdict == "stable"
        exact = schur_norm(self.UP, 1.5)
        assert res.norms[-1] == pytest.approx(exact, rel=0.1)

    def test_growing_outside_interval(self):
        res = lp_norm_probe(self.UP.kernel, 3, 3.0, k_values=(4, 10, 16),
                            homogeneous_degree=-3.0)
        assert res.verdict == "growing"
        assert res.norms[-1] > 4.0 * res.norms[0]

    def test_near_threshold_needs_wide_window(self):
        # p = 2.3 sits just outside (gap 0.1): growth is slow, visible only
        # across widely separated grid sizes.
        res = lp_norm_probe(self.UP.kernel, 3, 2.3, k_values=(4, 16, 28),
                            homogeneous_degree=-3.0)
        assert res.verdict == "growing"

    @pytest.mark.parametrize("p, verdict", [(1.0 + 1e-7, "stable"), (1e6, "growing")])
    def test_extreme_exponents_stay_finite(self, p, verdict):
        # Unscaled, the powers p - 1 and q - 1 of the power iteration and
        # |y|^p in the norm overflow here: nan near p = 1, inf at 1e6.
        res = lp_norm_probe(HomogeneousKernelSpec(3, 1.0, "upper").kernel, 3, p)
        assert all(math.isfinite(n) and n > 0.0 for n in res.norms), res
        assert res.verdict == verdict
        assert max(res.iterations) < 10, res.iterations

    def test_monotone_in_k(self):
        res = lp_norm_probe(self.UP.kernel, 3, 1.7, k_values=(2, 6, 10, 14),
                            homogeneous_degree=-3.0)
        assert all(b >= a - 1e-12 for a, b in zip(res.norms, res.norms[1:]))

    def test_determinism(self):
        a = lp_norm_probe(self.UP.kernel, 3, 1.5, k_values=(4, 8),
                          homogeneous_degree=-3.0)
        b = lp_norm_probe(self.UP.kernel, 3, 1.5, k_values=(4, 8),
                          homogeneous_degree=-3.0)
        assert a.norms == b.norms and a.iterations == b.iterations

    def test_result_metadata(self):
        res = lp_norm_probe(self.UP.kernel, 3, 1.5, k_values=(4, 8),
                            homogeneous_degree=-3.0)
        assert res.p == 1.5
        assert res.k_values == (4, 8)
        assert len(res.norms) == len(res.iterations) == 2
        assert all(it >= 1 for it in res.iterations)

    def test_validation(self):
        with pytest.raises(DomainError):
            lp_norm_probe(self.UP.kernel, 3, 1.0, k_values=(4,))
        with pytest.raises(DomainError):
            lp_norm_probe(self.UP.kernel, 3, 2.0, k_values=())

    @pytest.mark.parametrize("m", [0, -2])
    def test_empty_grid_is_refused(self, m):
        with pytest.raises(DomainError, match="points_per_octave must be positive"):
            lp_norm_probe(self.UP.kernel, 3, 2.0, k_values=(4,), points_per_octave=m)

    @pytest.mark.parametrize("k_values, m", [
        ((4.9,), 2), ((4,), 2.7), ((4.9,), 2.7), ((4, math.nan), 2), ((4,), math.inf),
    ])
    def test_non_integral_grid_is_refused(self, k_values, m):
        # Truncating would probe another grid than the one asked for (k = 4, m = 2 for 4.9 and 2.7).
        with pytest.raises(DomainError, match="must be integers"):
            lp_norm_probe(self.UP.kernel, 3, 2.0, k_values=k_values, points_per_octave=m)

    def test_integral_floats_and_numpy_integers_are_accepted(self):
        want = lp_norm_probe(self.UP.kernel, 3, 2.0, k_values=(2, 4), points_per_octave=2)
        assert lp_norm_probe(self.UP.kernel, 3, 2.0, k_values=(2.0, np.int64(4)), points_per_octave=2.0) == want

    def test_riesz_probe_kernel_path(self):
        spec = sphere_spectrum(3)
        kern = riesz_probe_kernel(spec, rel_tol=1e-3)
        assert kern(0.2, 1.0) > 0.0
        # Symmetric in its arguments up to the kernel's own symmetry: the
        # magnitude is evaluated at fixed separation, so just probe it.
        res = lp_norm_probe(kern, 3, 2.0, k_values=(2, 4),
                            points_per_octave=2, homogeneous_degree=-3.0)
        assert all(n > 0 for n in res.norms)
        assert res.verdict in ("stable", "growing", "inconclusive")
