"""Riesz transform: thresholds, L2 bound, kernel quadrature, off-diagonal models."""

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conekit import (
    ConePoint,
    DomainError,
    NormsOnlyError,
    PInterval,
    PositivityError,
    UnsupportedError,
    l2_bound_constant,
    load_spectrum,
    offdiag_bound_check,
    riesz_kernel,
    riesz_probe_kernel,
    sphere_spectrum,
    threshold_interval,
    threshold_interval_constant,
    threshold_interval_zero_v,
    torus_spectrum,
)
from conekit.bessel import log_ik_integrals
from conekit.lpcheck import offdiag_envelope
from conekit.riesz import _RIESZ_REL_TOL

import oracles

S3 = sphere_spectrum(3)
S3_NEG = sphere_spectrum(3, c=-0.24)


class TestThresholdIntervals:
    def test_critical_hardy_example(self):
        iv = threshold_interval_constant(4, -1)
        assert iv.p_lo == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert iv.p_hi == 2.0
        assert iv.p_lo_exact == Fraction(4, 3)
        assert iv.p_hi_exact == Fraction(2)
        assert iv.basis == "constant-c"

    def test_small_negative_coupling(self):
        iv = threshold_interval_constant(3, -0.24)
        assert iv.p_lo == pytest.approx(15.0 / 13.0, rel=1e-12)
        assert iv.p_hi == pytest.approx(15.0 / 7.0, rel=1e-12)

    def test_exact_fraction_input(self):
        iv = threshold_interval_constant(3, Fraction(-6, 25))
        assert iv.p_lo_exact == Fraction(15, 13)
        assert iv.p_hi_exact == Fraction(15, 7)

    def test_positive_coupling_widens_range(self):
        lo = threshold_interval_constant(3, 1.0)
        hi = threshold_interval_constant(3, 4.0)
        assert lo.p_lo > hi.p_lo or lo.p_lo == 1.0
        assert lo.p_hi < hi.p_hi or math.isinf(lo.p_hi)

    def test_zero_potential_flat_cone(self):
        iv = threshold_interval_zero_v(3, S3.mu1)
        assert iv.p_lo == 1.0
        assert math.isinf(iv.p_hi)
        assert iv.basis == "zero-V"
        assert iv.p_lo_exact == Fraction(1)

    def test_zero_potential_torus(self):
        spec = torus_spectrum(3, [1.0, 1.0])
        iv = threshold_interval_zero_v(3, spec.mu1)
        assert iv.p_lo == 1.0
        assert iv.p_hi == pytest.approx(3.0 / (1.5 - math.sqrt(1.25)), rel=1e-12)

    def test_zero_potential_needs_spectral_gap(self):
        with pytest.raises(DomainError):
            threshold_interval_zero_v(4, 0.9)  # mu1 <= d/2 - 1

    def test_general_matches_constant(self):
        for d in (3, 4, 5, 8):
            q = ((d - 2) / 2.0) ** 2
            for c in np.linspace(-0.9 * q, 3.0, 12):
                mu0 = math.sqrt(c + q)
                a = threshold_interval(d, mu0)
                b = threshold_interval_constant(d, float(c))
                assert a.p_lo == pytest.approx(b.p_lo, rel=1e-14)
                assert a.p_hi == pytest.approx(b.p_hi, rel=1e-14) or (
                    math.isinf(a.p_hi) and math.isinf(b.p_hi)
                )

    def test_monotonic_in_mu0(self):
        d = 5
        mus = np.linspace(0.0, 3.0, 31)
        los = [threshold_interval(d, float(m)).p_lo for m in mus]
        his = [threshold_interval(d, float(m)).p_hi for m in mus]
        assert all(b <= a + 1e-15 for a, b in zip(los, los[1:]))
        assert all(b >= a for a, b in zip(his, his[1:]))

    def test_saturation(self):
        d = 6
        # p_lo hits 1 once mu0 >= d/2 - 1; p_hi hits inf once mu0 >= d/2.
        assert threshold_interval(d, d / 2 - 1).p_lo == 1.0
        assert threshold_interval(d, d / 2 - 1.01).p_lo > 1.0
        assert math.isinf(threshold_interval(d, d / 2).p_hi)
        assert math.isfinite(threshold_interval(d, d / 2 - 0.01).p_hi)

    def test_interval_is_open(self):
        iv = threshold_interval_constant(4, -1)
        assert iv.contains(1.5)
        assert not iv.contains(iv.p_lo)
        assert not iv.contains(iv.p_hi)
        assert not iv.contains(5.0)

    def test_critical_limit_in_general_form(self):
        iv = threshold_interval(4, 0.0)
        assert (iv.p_lo, iv.p_hi) == (pytest.approx(4.0 / 3.0), 2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            threshold_interval(2, 0.5)
        with pytest.raises(DomainError):
            threshold_interval(3, -0.1)
        with pytest.raises(DomainError):
            threshold_interval_constant(3, 0.0)  # c = 0 served by zero-V form
        with pytest.raises(PositivityError):
            threshold_interval_constant(3, -0.3)
        for c in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                threshold_interval_constant(3, c)
        with pytest.raises(DomainError):
            PInterval(2.5, 3.0, "general-V")
        with pytest.raises(DomainError):
            PInterval(1.5, 1.9, "general-V")


class TestL2Bound:
    def test_worked_example(self):
        b = l2_bound_constant(S3_NEG)
        assert b.epsilon == pytest.approx(0.04, rel=1e-12)
        assert b.bound == pytest.approx(5.0, rel=1e-12)

    def test_bound_is_inverse_sqrt_epsilon(self):
        b = l2_bound_constant(sphere_spectrum(3, c=-0.1))
        assert b.bound == pytest.approx(b.epsilon ** -0.5, rel=1e-14)
        # epsilon is where Hardy absorption becomes tight: c/(1-eps) + (d-2)^2/4 = 0.
        for c in (-0.2, -0.05):
            eps = l2_bound_constant(sphere_spectrum(3, c=c)).epsilon
            assert c / (1.0 - eps) + 0.25 == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_coupling_gives_unit_bound(self):
        for c in (0.0, 0.7, 3.0):
            b = l2_bound_constant(sphere_spectrum(3, c=c))
            assert b.epsilon == 1.0 and b.bound == 1.0

    def test_diverges_at_critical_coupling(self):
        b1 = l2_bound_constant(sphere_spectrum(3, c=-0.24))
        b2 = l2_bound_constant(sphere_spectrum(3, c=-0.2499))
        assert b2.bound > 10 * b1.bound

    def test_requires_constant_potential(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"d": 3, "v0": "file", "modes": [
            {"mu": 0.5, "multiplicity": 1, "addition_coeffs": [0.08]},
            {"mu": 1.5, "multiplicity": 3, "addition_coeffs": [0.0, 0.12]},
        ]}))
        with pytest.raises(UnsupportedError):
            l2_bound_constant(load_spectrum(p))

    def test_file_constant_below_the_hardy_bound(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"d": 3, "v0": "constant:-5", "modes": [{"mu": 0.5, "multiplicity": 1}]}))
        with pytest.raises(PositivityError):
            l2_bound_constant(load_spectrum(p))

    def test_file_constant_whose_mu0_squared_overflows(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"d": 3, "v0": "constant:5e307", "modes": [{"mu": 0.5, "multiplicity": 1}]}))
        with pytest.raises(DomainError, match="coupling c = 5e[+]?307 is too large"):
            l2_bound_constant(load_spectrum(p))


class TestRieszKernel:
    POINTS = [(0.2, 1.0, 1.0), (0.5, 4.0, 0.4), (2.0, 0.3, 2.2),
              (0.05, 1.0, 2.8), (1.0, 6.0, 0.9)]

    def _eval(self, spec, r, rp, gamma, **kw):
        y, yp = spec.cross_section.points_at_separation(gamma)
        return riesz_kernel(spec, ConePoint(r, y), ConePoint(rp, yp), **kw)

    def test_flat_cone_closed_form(self):
        worst = 0.0
        for r, rp, gamma in self.POINTS:
            kv = self._eval(S3, r, rp, gamma)
            ref_r, ref_a = oracles.riesz_r3(r, rp, gamma)
            worst = max(worst, abs(kv.d_r - ref_r) / abs(ref_r),
                        abs(kv.angular - ref_a) / abs(ref_a))
        assert worst < 1e-4

    def test_error_estimate_is_honest(self):
        near_diagonal = [(0.8, 1.0, 1.0), (0.95, 1.0, 0.2), (1.0, 1.0, 0.5)]
        for r, rp, gamma in self.POINTS + near_diagonal:
            kv = self._eval(S3, r, rp, gamma)
            ref_r, ref_a = oracles.riesz_r3(r, rp, gamma)
            actual = abs(kv.d_r - ref_r) + abs(kv.angular - ref_a)
            assert actual <= kv.quad_error_est + 1e-13 * kv.magnitude

    def test_homogeneity(self):
        spec = S3_NEG
        kv = self._eval(spec, 0.2, 1.0, 0.9)
        for kappa in (0.5, 3.0):
            scaled = self._eval(spec, 0.2 * kappa, 1.0 * kappa, 0.9)
            np.testing.assert_allclose(scaled.d_r, kv.d_r / kappa ** 3, rtol=1e-4)
            np.testing.assert_allclose(scaled.angular, kv.angular / kappa ** 3,
                                       rtol=1e-4)

    @pytest.mark.parametrize("t", [3.5e-104, 3.2e-104, 3.1e-104])
    def test_values_at_the_edge_of_float_range(self, t):
        # |T| ~ 1/t^3 is 1.3e308 to 1.7e308 at the first two t, and past
        # float range at the third, where the value is refused.
        wants = [ref / t / t / t for ref in oracles.riesz_r3(1.0, 3.0, 1.0)]
        if any(map(math.isinf, wants)):
            with pytest.raises(DomainError, match="passes float range"):
                self._eval(S3, t, 3.0 * t, 1.0)
            return
        kv = self._eval(S3, t, 3.0 * t, 1.0)
        for got, want in zip((kv.d_r, kv.angular), wants):
            assert got == pytest.approx(want, rel=1e-6), (got, want)

    def test_components_past_float_range_where_the_distance_underflows(self):
        # The cone distance R ~ 1.7e-170 underflows to 0 in floats, and
        # |T| ~ 1/R^3 passes float range: the value is refused.
        with pytest.raises(DomainError, match="passes float range"):
            self._eval(S3, 1e-170, 2e-170, 1.0)

    @pytest.mark.parametrize("r, rp", [(1e-110, 3e-110), (1e-300, 2e-300), (1e-200, 1e-200)])
    def test_infinities_are_refused(self, r, rp):
        # |T| passes float range here, and a RieszKernelValue holds plain
        # floats: no infinity is returned, certified or not.  At 1e-100 it fits.
        with pytest.raises(DomainError, match="passes float range"):
            self._eval(S3, r, rp, 1.0)
        kv = self._eval(S3, 1e-100, 1e-100 * (rp / r), 1.0)
        assert math.isfinite(kv.d_r) and math.isfinite(kv.angular) and math.isfinite(kv.quad_error_est)
        assert kv.certified == (r != rp)

    def test_angular_component_vanishes_at_zero_separation(self):
        kv = self._eval(S3_NEG, 0.2, 1.0, 0.0)
        assert kv.angular == 0.0
        assert kv.d_r != 0.0

    def test_metadata(self):
        kv = self._eval(S3, 0.2, 1.0, 1.0)
        assert kv.certified and kv.tail_kind == "rigorous"
        assert 0 < kv.modes_used < len(S3.table.mu)
        assert kv.quad_error_est <= _RIESZ_REL_TOL * kv.magnitude
        assert kv.magnitude == pytest.approx(math.hypot(kv.d_r, kv.angular))
        on_diagonal = self._eval(S3, 1.0, 1.0, 0.5)
        assert not on_diagonal.certified and on_diagonal.tail_kind == "quadrature"
        assert on_diagonal.modes_used > 0

    def test_tighter_tolerance_reduces_error_estimate(self):
        loose = self._eval(S3, 0.2, 1.0, 1.0, rel_tol=1e-4)
        tight = self._eval(S3, 0.2, 1.0, 1.0, rel_tol=1e-7)
        assert loose.certified and tight.certified
        assert tight.quad_error_est < loose.quad_error_est
        assert tight.modes_used > loose.modes_used


class TestRieszErrors:
    """Bad inputs are refused before any mode integral or quadrature runs."""

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the kernel was evaluated before the input was refused")
        monkeypatch.setattr("conekit.resolvent.log_ik_integrals", fail)
        monkeypatch.setattr("conekit.resolvent._heat_diagonal", fail)

    def test_diagonal(self):
        y, _ = S3.cross_section.points_at_separation(0.5)
        with pytest.raises(DomainError):
            riesz_kernel(S3, ConePoint(0.7, y), ConePoint(0.7, y))

    def test_no_cross_section(self):
        # A spectrum without a cross-section is refused when it is built, before any kernel.
        with pytest.raises(DomainError, match="cross-section"):
            dataclasses.replace(S3, cross_section=None)

    def test_norms_only_file_spectrum(self, tmp_path):
        p = tmp_path / "norms.json"
        p.write_text(json.dumps({"d": 3, "modes": [
            {"mu": 0.5, "multiplicity": 1}, {"mu": 1.5, "multiplicity": 3},
        ]}))
        spec = load_spectrum(p)
        with pytest.raises(NormsOnlyError):
            riesz_kernel(spec, ConePoint(0.2, 0.0), ConePoint(1.0, 0.7))


class TestClosedForm:
    """The per-mode closed form of the lambda-integral, and the Riesz values summed from it."""

    # Both sides of s^2 = 1/2, where the 2F1 series stops serving, and far below it.
    MUS = (0.5, 1.5, 3.7, 40.2, 1000.0, 20000.0)
    RATIOS = (1e-300, 1e-6, 0.05, 0.5, 0.707, 0.72, 0.95, 0.99)

    @pytest.mark.parametrize("s", RATIOS)
    def test_mode_integrals_against_mpmath(self, s):
        log_f, log_e, rel = log_ik_integrals(np.array(self.MUS), s)
        for mu, lf, le, est in zip(self.MUS, log_f, log_e, rel):
            f, sdf = oracles.ik_integral(mu, s)
            err_f = abs(float(mp.expm1(mp.mpf(float(lf)) - mp.log(f))))
            got_sdf = mp.exp(mp.mpf(float(lf))) * mu + mp.exp(mp.mpf(float(le)))
            err_sdf = abs(float(got_sdf / sdf - 1))
            # The log itself carries rounding of about 1e-16 * |log f| (s^mu at mu = 20000).
            assert max(err_f, err_sdf) <= min(est, 1e-15 * (1.0 + abs(lf))), (mu, s, err_f, err_sdf, est)

    # At zero separation every term has one sign and the tail bound is within
    # 1% of the true remainder at s = 0.99, z inner and outer.  At r = r' cos(gamma)
    # d_r vanishes, and only the gradient's length can set the stop target.
    POINTS = [(0.8, 1.0, 1.0), (0.9, 1.0, 0.9), (0.95, 1.0, 0.2), (0.5, 1.0, 0.3), (3.0, 0.4, 1.3),
              (0.99, 1.0, 0.0), (1.0, 0.99, 0.0), (0.5, 1.0, math.acos(0.5))]

    @pytest.mark.parametrize("d", [3, 5])
    def test_flat_space_oracle(self, d):
        spec = sphere_spectrum(d)
        for r, rp, gamma in self.POINTS:
            y, yp = spec.cross_section.points_at_separation(gamma)
            kv = riesz_kernel(spec, ConePoint(r, y), ConePoint(rp, yp), rel_tol=1e-6)
            want = oracles.riesz_flat(d, r, rp, gamma) if d != 3 else oracles.riesz_r3(r, rp, gamma)
            err = abs(kv.d_r - want[0]) + abs(kv.angular - want[1])
            assert kv.certified and kv.tail_kind == "rigorous", (d, r, rp, gamma)
            assert err <= kv.quad_error_est <= 1e-6 * math.hypot(*want), (d, r, rp, gamma, err, kv.quad_error_est)

    @pytest.mark.parametrize("spec", [S3_NEG, sphere_spectrum(4, c=-0.5), torus_spectrum(3, [1.0, 1.3])],
                             ids=["S3_NEG", "S4_NEG", "T2"])
    def test_certificates_cover_the_tight_value(self, spec):
        # In the style of acceptance criterion 7: each certified value's
        # estimate covers its distance to the same value at rel_tol 1e-12.
        rng = np.random.default_rng(11)
        certified = 0
        for _ in range(12):
            s, rp, gamma = rng.uniform(0.26, 0.99), 10.0 ** rng.uniform(-1, 1), rng.uniform(0.1, 2.0)
            y, yp = spec.cross_section.points_at_separation(gamma)
            z, zp = (ConePoint(s * rp, y), ConePoint(rp, yp)) if rng.random() < 0.5 else \
                (ConePoint(rp, y), ConePoint(s * rp, yp))
            kv, tight = riesz_kernel(spec, z, zp), riesz_kernel(spec, z, zp, rel_tol=1e-12)
            if kv.certified:
                certified += 1
                assert abs(kv.d_r - tight.d_r) + abs(kv.angular - tight.angular) <= kv.quad_error_est
        assert certified >= 3

    def test_import_leaves_scipy_unloaded(self):
        # conekit's runtime needs numpy only: no value, the Bessel factors
        # of kernels, gradients and r = r' values included, and no command
        # loads a scipy module.
        code = "\n".join([
            "import sys, math",
            "import conekit, conekit.cli",
            "from conekit import (ConePoint, ResolventRequest, offdiag_bound_check, resolvent_gradient,",
            "                     resolvent_kernel, riesz_kernel, sphere_spectrum, torus_spectrum)",
            "scipy_loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "spec = sphere_spectrum(3)",
            "torus_spectrum(3, (1.0, 1.3))",
            "y, yp = spec.cross_section.points_at_separation(0.9)",
            "kv = riesz_kernel(spec, ConePoint(0.5, y), ConePoint(1.0, yp))",
            "rep = offdiag_bound_check(sphere_spectrum(3, c=-0.24))",
            "assert conekit.cli.main(['thresholds', '--d', '4', '--c', '-1']) == 0",
            "assert kv.certified and math.isfinite(rep.c_sup) and not scipy_loaded(), scipy_loaded()",
            "gv = resolvent_kernel(ResolventRequest(spec, ConePoint(0.5, y), ConePoint(1.0, yp)))",
            "assert gv.certified and not scipy_loaded(), scipy_loaded()",
            "grad = resolvent_gradient(ResolventRequest(spec, ConePoint(2.0, y), ConePoint(1.0, yp)))",
            "assert grad.d_r.certified and not scipy_loaded(), scipy_loaded()",
            "kv = riesz_kernel(spec, ConePoint(1.0, y), ConePoint(1.0, yp))",
            "assert math.isfinite(kv.magnitude) and math.isfinite(kv.quad_error_est)",
            "assert not scipy_loaded(), scipy_loaded()",
            "assert conekit.cli.main(['kernel', '--d', '3', '--r', '0.2', '--rp', '1', '--gamma', '1']) == 0",
            "assert not scipy_loaded(), scipy_loaded()",
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_import_loads_only_the_kernel_core(self):
        # A resolvent value loads neither the Riesz, L^p and verify layers
        # nor the spectrum-file format; a Riesz value loads no verify.  The
        # Riesz benchmark's set-up path and an L^p probe build no exact
        # endpoint, so fractions and decimal stay out too, and the exact
        # endpoints still come out as fractions.
        code = "\n".join([
            "import sys",
            "import conekit",
            "from conekit import ConePoint, ResolventRequest, resolvent_gradient, resolvent_kernel, sphere_spectrum",
            "spec = sphere_spectrum(3)",
            "y, yp = spec.cross_section.points_at_separation(0.9)",
            "req = ResolventRequest(spec, ConePoint(0.5, y), ConePoint(1.0, yp))",
            "assert resolvent_kernel(req).certified and resolvent_gradient(req).d_r.certified",
            "loaded = lambda *names: sorted(n for n in names if n in sys.modules)",
            "unused = ('conekit.riesz', 'conekit.lpcheck', 'conekit.verify', 'conekit.specfile', 'json', 'fractions',"
            " 'numpy.polynomial')",
            "assert not loaded(*unused), loaded(*unused)",
            "assert conekit.riesz_kernel(spec, ConePoint(0.5, y), ConePoint(1.0, yp)).certified",
            "assert 'conekit.riesz' in sys.modules and not loaded('conekit.verify'), loaded('conekit.verify')",
            "import conekit.riesz, conekit.lpcheck",
            "spec = sphere_spectrum(3)",
            "y, yp = spec.cross_section.points_at_separation(1.0)",
            "assert conekit.riesz.riesz_kernel(spec, ConePoint(0.25, y), ConePoint(1.0, yp), rel_tol=1e-2).certified",
            "kernel = conekit.lpcheck.HomogeneousKernelSpec(3, 1.0, 'upper').kernel",
            "assert conekit.lpcheck.lp_norm_probe(kernel, 3, 1.5).verdict == 'stable'",
            "unused = ('fractions', 'decimal', 'conekit.verify', 'conekit.specfile')",
            "assert not loaded(*unused), loaded(*unused)",
            "from fractions import Fraction",
            "assert conekit.lpcheck.threshold_interval_constant(4, -1).p_lo_exact == Fraction(4, 3)",
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_no_module_imports_scipy(self):
        # The same, read off the sources: no import statement in src/conekit
        # names scipy, at module level or inside a function.
        src = Path(__file__).resolve().parent.parent / "src" / "conekit"
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                    [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
        assert len(list(src.glob("*.py"))) >= 10 and not found, found


class TestDiagonal:
    """r = r': the lambda-integral of the cone heat kernel's tau rule."""

    @staticmethod
    def _eval(spec, r, rp, gamma):
        y, yp = spec.cross_section.points_at_separation(gamma)
        return riesz_kernel(spec, ConePoint(r, y), ConePoint(rp, yp))

    @pytest.mark.parametrize("d", [3, 5])
    def test_flat_space_oracle(self, d):
        spec = sphere_spectrum(d)
        for r in (0.3, 1.0, 4.0):
            # gamma = 1.8: on R^5 the old stop, which also waited for the
            # H^{-1/2} kernel, took one more halving there.
            for gamma in (0.1, 0.5, 1.3, 1.8, 2.2, 3.0):
                kv = self._eval(spec, r, r, gamma)
                want = oracles.riesz_flat(d, r, r, gamma) if d != 3 else oracles.riesz_r3(r, r, gamma)
                err = abs(kv.d_r - want[0]) + abs(kv.angular - want[1])
                assert not kv.certified and kv.tail_kind == "quadrature", (d, r, gamma)
                assert err <= kv.quad_error_est, (d, r, gamma, err, kv.quad_error_est)
                assert err <= _RIESZ_REL_TOL * math.hypot(*want), (d, r, gamma, err)

    @pytest.mark.parametrize("d, c", [(3, -0.24), (3, 0.75), (4, -0.5)])
    def test_continuous_with_the_closed_form_side(self, d, c, monkeypatch):
        # At (1, 1, 0.5) the value agrees with the linear extrapolation of
        # the values at s = 0.995 and 0.999 to within its second-order term
        # (5.2e-5 |T| on R^3).  Halving the first step, or summing twice the
        # modes at each node, moves it by less than its estimate.
        spec = sphere_spectrum(d, c=c)
        kv = self._eval(spec, 1.0, 1.0, 0.5)
        near, nearer = self._eval(spec, 0.995, 1.0, 0.5), self._eval(spec, 0.999, 1.0, 0.5)
        line = [b + (b - a) / 4.0 for a, b in ((near.d_r, nearer.d_r), (near.angular, nearer.angular))]
        assert abs(kv.d_r - line[0]) + abs(kv.angular - line[1]) <= 1e-4 * kv.magnitude
        for refine in ({"resolvent._DIAG_STEP": 0.25},
                       {"spectrum._DIAG_MU_SLOPE": 18.0, "spectrum._DIAG_MU_FLOOR": 24.0}):
            with monkeypatch.context() as m:
                for name, value in refine.items():
                    m.setattr(f"conekit.{name}", value)
                finer = self._eval(spec, 1.0, 1.0, 0.5)
            assert abs(finer.d_r - kv.d_r) + abs(finer.angular - kv.angular) <= kv.quad_error_est, refine

    @pytest.mark.parametrize("d, gamma", [(3, 1e-103), (3, 1e-120), (3, 1e-152), (5, 1e-70), (5, 1e-150)])
    def test_tiny_separation_is_flagged_without_a_warning(self, d, gamma):
        # The flat bound of the nodes past the table runs past float range
        # there: the value comes back flagged, with an infinite estimate.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            kv = self._eval(sphere_spectrum(d), 1.0, 1.0, gamma)
        assert math.isfinite(kv.d_r) and math.isfinite(kv.angular)
        assert not kv.certified and kv.quad_error_est == math.inf


class TestOffdiagModels:
    def test_far_right_general(self):
        rep = offdiag_bound_check(S3_NEG, region="far-right")
        assert rep.region == "far-right" and rep.model == "general"
        assert not rep.grows
        # The ratio rises toward the face and levels off: c_sup is its value there.
        assert rep.c_sup == rep.ratios[-1] == pytest.approx(0.0281116, rel=1e-4)

    def test_far_left_general(self):
        rep = offdiag_bound_check(S3_NEG, region="far-left")
        assert math.isfinite(rep.c_sup) and rep.c_sup > 0
        assert not rep.grows

    def test_zero_v_leading_matches_analytic_constant(self):
        rep = offdiag_bound_check(S3, model="zero-v-leading")
        # The bottom-mode ratio tends to 1/(3 pi^2); at s = 2^-21 it is off by 2.7e-13.
        assert rep.ratios[-1] == pytest.approx(1.0 / (3.0 * math.pi ** 2), rel=1e-9)
        assert not rep.grows

    def test_report_grid_consistency(self):
        kernel = riesz_probe_kernel(S3_NEG)
        for region in ("far-right", "far-left"):
            rep = offdiag_bound_check(S3_NEG, region=region)
            assert rep.s_values == tuple(2.0 ** -k for k in range(3, 22))
            assert len(rep.ratios) == len(rep.s_values)
            for s, ratio in list(zip(rep.s_values, rep.ratios))[::6]:
                r = s if region == "far-right" else 1.0 / s
                assert ratio == kernel(r, 1.0) / offdiag_envelope(3, S3_NEG.mu0, region, r, 1.0), (region, s)

    @pytest.mark.parametrize("region", ["far-right", "far-left"])
    @pytest.mark.parametrize("d, c", [(3, 0.0), (3, -0.24), (3, 0.75), (5, 1.0)])
    def test_ratio_along_s(self, d, c, region):
        # offdiag_bound_check walks s = r_</r_> = 2^-3 ... 2^-21 toward the face (r' = 1, and
        # r = s far-right, r = 1/s far-left).  Flat R^3 has |T| = 1/(pi^2 R^2): far-left the
        # ratio tends to 1/pi^2, far-right it falls like s, to s/pi^2.
        rep = offdiag_bound_check(sphere_spectrum(d, c=c), region)
        falls = (d, c, region) == (3, 0.0, "far-right")
        ratios = [x / (s if falls else 1.0) for s, x in zip(rep.s_values, rep.ratios)]
        assert all(math.isfinite(x) and x > 0.0 for x in ratios)
        assert not rep.grows
        # Bounded: measured, every walk falls from s = 1/8 but one, R^3 with c = -0.24
        # far-right, which rises to 1.2247 times its s = 1/8 ratio.
        assert max(ratios) <= 1.25 * ratios[0]
        if (d, c, region) == (3, -0.24, "far-right"):
            assert 1.2 < ratios[-1] / ratios[0] < 1.25
        # Converging: the relative correction falls like a power of s (near s^(mu1 - mu0) as
        # measured), until it is below the kernel's rel_tol 1e-4 and the mode sum stops
        # sooner.  The last four values
        # (s = 2^-18 ... 2^-21) spread by at most 3.8e-4 (measured on R^3, c = 0.75,
        # far-right, mu1 - mu0 = 0.73), and by less than the four before them.
        spread = [(max(w) - min(w)) / w[-1] for w in (ratios[-8:-4], ratios[-4:])]
        assert spread[1] <= 1e-3 and spread[1] < spread[0]
        if d == 3 and c == 0.0:
            assert ratios[-1] == pytest.approx(1.0 / math.pi ** 2, rel=1e-4)

    def test_validation(self):
        with pytest.raises(DomainError):
            offdiag_bound_check(S3, region="sideways")
        with pytest.raises(DomainError):
            offdiag_bound_check(S3, model="nope")
        with pytest.raises(DomainError):
            offdiag_bound_check(S3_NEG, model="zero-v-leading")  # mu0 != d/2-1
        with pytest.raises(DomainError):
            offdiag_bound_check(S3, region="far-left", model="zero-v-leading")
        # mu0 = 54.8: at s = 2^-21 the envelopes (2^-1119 far right, 2^-1203 far left) are not normal floats.
        for region in ("far-right", "far-left"):
            with pytest.raises(DomainError, match="normal float range"):
                offdiag_bound_check(sphere_spectrum(3, c=3000.0), region)
