"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion runs at its stated tolerance against independent references
(closed forms on the flat cone, mpmath special functions, exact Schur
norms).  Lines are written straight to the terminal so the run log keeps
one line per criterion even under pytest's capture.

Two spec-literal zero-front convergence claims are mathematically
unattainable for mu0 <= 1 (the kernel's next-order term is O(r'^{2 mu0}),
not O(r'^2)); they are carried as strict xfails right below criterion 4,
which asserts the true rates instead.  Below criterion 3, mutation tests
scale each tight inequality's bound by 0.9 and require the criterion to
fail; below criterion 5, a Riesz model exponent tightened by 0.05 must
fail both criterion 5 and the ``offdiag`` suite.
"""

import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from conekit import (
    ConePoint,
    HomogeneousKernelSpec,
    ResolventRequest,
    boundary_order_probe,
    l2_bound_constant,
    lp_norm_probe,
    offdiag_bound_check,
    resolvent_kernel,
    riesz_kernel,
    riesz_model_intervals,
    schur_norm,
    sphere_spectrum,
    threshold_interval,
    threshold_interval_constant,
    threshold_interval_zero_v,
    zf_compatibility_check,
)
from conekit import lpcheck, verify
from conekit.bessel import bessel_i, bessel_k, wronskian_residual
from conekit.verify import run_suite

import oracles


def _criterion(name: str, capfd):
    """Context manager printing one PASS/FAIL line past pytest's capture."""
    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            self.detail = ""
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            tail = f" {self.detail}" if self.detail else ""
            with capfd.disabled():
                print(f"{status} {name} [{elapsed:.1f}s]{tail}", flush=True)
            return False

    return _Ctx()


def _pair(spec, r, rp, gamma):
    y, yp = spec.cross_section.points_at_separation(gamma)
    return ConePoint(r, y), ConePoint(rp, yp)


def test_criterion_1_euclidean_oracle(capfd):
    """Flat-cone kernels against closed forms: resolvent 1e-6, Riesz 1e-4."""
    with _criterion("criterion 1 (euclidean closed forms)", capfd) as ctx:
        t0 = time.perf_counter()
        spec = sphere_spectrum(3)
        rng = np.random.default_rng(1234)
        worst_res = 0.0
        for _ in range(50):
            rp = float(10.0 ** rng.uniform(-1.0, 1.0))
            r = rp * float(rng.uniform(1e-3, 0.25))
            gamma = float(rng.uniform(0.1, 3.0))
            lam = float(10.0 ** rng.uniform(-0.5, 0.5))
            z, zp = _pair(spec, r, rp, gamma)
            kv = resolvent_kernel(ResolventRequest(spec, z, zp, lam=lam))
            assert kv.certified
            ref = oracles.yukawa_kernel(r, rp, gamma, lam)
            worst_res = max(worst_res, abs(kv.float_value() / ref - 1.0))
        assert worst_res < 1e-6

        worst_rz = 0.0
        for r, rp, gamma in [(0.2, 1.0, 1.0), (0.5, 4.0, 0.4), (2.0, 0.3, 2.2),
                             (0.05, 1.0, 2.8), (1.0, 6.0, 0.9)]:
            z, zp = _pair(spec, r, rp, gamma)
            kv = riesz_kernel(spec, z, zp)
            ref_r, ref_a = oracles.riesz_r3(r, rp, gamma)
            worst_rz = max(worst_rz, abs(kv.d_r / ref_r - 1.0),
                           abs(kv.angular / ref_a - 1.0))
        assert worst_rz < 1e-4
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        ctx.detail = (f"resolvent worst rel err {worst_res:.2e} (50/50 certified), "
                      f"riesz worst rel err {worst_rz:.2e}")


def test_criterion_2_threshold_tables(capfd):
    """Exact L^p intervals: worked values, basis agreement, model identity."""
    with _criterion("criterion 2 (L^p threshold tables)", capfd) as ctx:
        iv = threshold_interval_constant(4, -1)
        assert (iv.p_lo_exact, iv.p_hi_exact) == (Fraction(4, 3), Fraction(2))
        assert iv.p_lo == pytest.approx(4 / 3, rel=1e-15) and iv.p_hi == 2.0

        flat = threshold_interval_zero_v(3, sphere_spectrum(3).mu1)
        assert flat.p_lo == 1.0 and math.isinf(flat.p_hi)

        neg = threshold_interval_constant(3, -0.24)
        assert neg.p_lo == pytest.approx(15 / 13, rel=1e-12)
        assert neg.p_hi == pytest.approx(15 / 7, rel=1e-12)

        checked = 0
        for d in (3, 4, 5, 8):
            q = ((d - 2) / 2.0) ** 2
            for c in np.linspace(-0.95 * q, 4.0, 50):
                mu0 = math.sqrt(c + q)
                a = threshold_interval(d, mu0)
                b = threshold_interval_constant(d, float(c)) if c != 0.0 else a
                assert a.p_lo == pytest.approx(b.p_lo, rel=1e-14)
                assert (a.p_hi == pytest.approx(b.p_hi, rel=1e-14)
                        or (math.isinf(a.p_hi) and math.isinf(b.p_hi)))
                assert riesz_model_intervals(d, mu0) == threshold_interval(d, mu0)
                checked += 1

        l2 = l2_bound_constant(sphere_spectrum(3, c=-0.24))
        assert l2.epsilon == pytest.approx(0.04, rel=1e-12)
        assert l2.bound == pytest.approx(5.0, rel=1e-12)
        ctx.detail = (f"worked values exact, {checked} basis/model identities, "
                      f"L2 bound {l2.bound:.6g} at eps {l2.epsilon:.6g}")


def _criterion_3():
    """Criterion 3's body; returns its detail line."""
    t0 = time.perf_counter()
    check = next(r for r in run_suite("bessel").results if r.name == "bessel.uniform-bounds")
    assert check.passed, check.detail

    rng = np.random.default_rng(99)
    worst_w = 0.0
    for _ in range(1000):
        nu = float(rng.uniform(0.05, 200.0))
        r = float(10.0 ** rng.uniform(-6, 2.7))
        worst_w = max(worst_w, abs(wronskian_residual(nu, r)))
    assert worst_w < 1e-10

    worst_h = 0.0
    for r in [1e-4, 0.3, 1.0, 7.0, 80.0]:
        got = bessel_k(0.5, r).log_abs
        ref = math.log(math.sqrt(math.pi / (2 * r))) - r
        worst_h = max(worst_h, abs(math.expm1(got - ref)))
        got_i = bessel_i(0.5, r).log_abs
        ref_i = math.log(math.sqrt(2 / (math.pi * r)) * math.sinh(r))
        worst_h = max(worst_h, abs(math.expm1(got_i - ref_i)))
    assert worst_h < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    return (f"{check.name}: {check.detail}; "
            f"wronskian worst {worst_w:.2e}, half-integer worst {worst_h:.2e}")


def test_criterion_3_bessel_certificates(capfd):
    """The inequalities the certificates use hold; Wronskian and closed forms hold."""
    with _criterion("criterion 3 (bessel bound certificates)", capfd) as ctx:
        ctx.detail = _criterion_3()


# Every inequality is tight on the grid (its worst ratio is above 0.9), so
# scaling any one bound by 0.9 must break the check.
_TIGHT_INEQUALITIES = [
    "I_mu(b)K_mu(b)<=1/(2mu)",
    "I_mu(sb)<=s^mu*I_mu(b)",
    "I_mu+1(b)K_mu(b)<=1/(2b)",
    "I_mu(b)K_mu+1(b)<=1/b",
    "Gamma(mu+1/2)/Gamma(mu+1)<=mu^-1/2",
    "f_mu(s)<=A*s^mu/sqrt(mu)",
    "e_mu(s)<=x/(1-x)*A*s^mu/sqrt(mu)",
]


def test_criterion_3_mutations_cover_every_tight_inequality():
    worst = {name: math.exp((value - bound).max())
             for name, (value, bound, _) in verify._bessel_inequalities().items()}
    assert sorted(worst) == sorted(_TIGHT_INEQUALITIES)
    assert {name for name, ratio in worst.items() if ratio > 0.9} == set(_TIGHT_INEQUALITIES)


@pytest.mark.parametrize("name", _TIGHT_INEQUALITIES)
def test_criterion_3_fails_with_a_bound_scaled_by_0_9(monkeypatch, name):
    inequalities = verify._bessel_inequalities

    def mutated():
        out = inequalities()
        value, log_bound, rel = out[name]
        out[name] = (value, log_bound + math.log(0.9), rel)
        return out

    monkeypatch.setattr(verify, "_bessel_inequalities", mutated)
    with pytest.raises(AssertionError, match=re.escape(f"broken: {name};")):
        _criterion_3()


def test_criterion_4_boundary_and_compatibility(capfd):
    """Boundary decay orders fit the predicted exponents; the zero-front
    limit matches the indicial kernel at its true convergence rate."""
    with _criterion("criterion 4 (boundary orders and zero-front limit)", capfd) as ctx:
        details = []
        specs = {0.0: sphere_spectrum(3), -0.24: sphere_spectrum(3, c=-0.24),
                 1.0: sphere_spectrum(3, c=1.0)}
        for c, spec in specs.items():
            mu0 = spec.mu0
            zf = boundary_order_probe(spec, "zf")
            assert zf == pytest.approx(2 - 3, abs=0.05), c
            lbz = boundary_order_probe(spec, "lbz")
            assert lbz == pytest.approx(1 - 1.5 + mu0, abs=0.05), c
            rbz = boundary_order_probe(spec, "rbz")
            assert rbz == pytest.approx(1 - 1.5 + mu0, abs=0.05), c
        assert boundary_order_probe(specs[0.0], "rbi") < -20.0

        # Zero-front compatibility: rate min(2, 2 mu0); the 1e-4 deviation
        # target is met where that rate is quadratic (mu0 > 1).
        for c, want_rate, window in ((1.0, 2.0, 0.2), (0.0, 1.0, 0.1),
                                     (-0.24, 0.2, 0.05)):
            spec = specs[c]
            y, yp = spec.cross_section.points_at_separation(0.7)
            rep = zf_compatibility_check(spec, 0.1, y, yp)
            assert rep.rate == pytest.approx(want_rate, abs=window), c
            details.append(f"c={c:g}: rate {rep.rate:.3f}, dev {rep.final_deviation:.2e}")
            if c == 1.0:
                assert rep.final_deviation < 1e-4
        ctx.detail = "; ".join(details)


@pytest.mark.xfail(strict=True,
                   reason="spec-literal claim: deviation < 1e-4 with rate 2 at "
                          "c = 0; untrue since mu0 = 1/2 gives rate exactly 1")
def test_criterion_4_spec_literal_zero_potential():
    spec = sphere_spectrum(3)
    y, yp = spec.cross_section.points_at_separation(0.7)
    rep = zf_compatibility_check(spec, 0.1, y, yp)
    assert rep.final_deviation < 1e-4 and abs(rep.rate - 2.0) <= 0.2


@pytest.mark.xfail(strict=True,
                   reason="spec-literal claim: deviation < 1e-4 with rate 2 at "
                          "c = -0.24; untrue since mu0 = 0.1 gives rate 0.2")
def test_criterion_4_spec_literal_small_mu():
    spec = sphere_spectrum(3, c=-0.24)
    y, yp = spec.cross_section.points_at_separation(0.7)
    rep = zf_compatibility_check(spec, 0.1, y, yp)
    assert rep.final_deviation < 1e-4 and abs(rep.rate - 2.0) <= 0.2


def _criterion_5():
    """Criterion 5's body; returns its detail line."""
    neg = sphere_spectrum(3, c=-0.24)
    right = offdiag_bound_check(neg, region="far-right")
    left = offdiag_bound_check(neg, region="far-left")
    for rep in (right, left):
        assert math.isfinite(rep.c_sup) and rep.c_sup > 0.0
        assert not rep.grows, f"grows: {rep.region}, g = {rep.growth}"

    leading = offdiag_bound_check(sphere_spectrum(3), model="zero-v-leading")
    ref = 1.0 / (3.0 * math.pi ** 2)
    assert not leading.grows
    assert leading.ratios[-1] == pytest.approx(ref, rel=1e-9)
    return (f"far-right C {right.c_sup:.4g}, far-left C {left.c_sup:.4g}, "
            f"zero-V leading ratio at s = 2^-21 {leading.ratios[-1]:.10g} vs 1/(3 pi^2) = {ref:.10g}")


def test_criterion_5_offdiagonal_models(capfd):
    """Riesz kernel obeys its off-diagonal envelopes: along r/r' -> 0 or
    infinity the ratio levels off, and the zero-V leading one at 1/(3 pi^2)."""
    with _criterion("criterion 5 (off-diagonal model bounds)", capfd) as ctx:
        ctx.detail = _criterion_5()


@pytest.mark.parametrize("region", ["far-right", "far-left"])
def test_criterion_5_fails_with_a_model_tightened_by_0_05(monkeypatch, region):
    models = lpcheck._riesz_models

    def tightened(d, mu0):  # the model's exponent 0.05 steeper toward the face: a bound T breaks
        right, left = models(d, mu0)
        if region == "far-right":
            return HomogeneousKernelSpec(d, right.alpha - 0.05, "upper"), left
        return right, HomogeneousKernelSpec(d, left.alpha + 0.05, "lower")

    monkeypatch.setattr(lpcheck, "_riesz_models", tightened)
    with pytest.raises(AssertionError, match=f"grows: {region},"):
        _criterion_5()
    failed = {r.name for r in run_suite("offdiag").results if not r.passed}
    assert failed == {f"offdiag.{region}"}


def test_criterion_6_lp_norm_probes(capfd):
    """Numerical norms stay bounded inside the proven interval and grow
    outside it, agreeing with exact Schur norms where those are finite."""
    with _criterion("criterion 6 (L^p growth probes)", capfd) as ctx:
        t0 = time.perf_counter()
        d, mu0 = 3, 0.1  # interval (15/13, 15/7) ~ (1.1538, 2.1429)
        up = HomogeneousKernelSpec(d, d / 2 - mu0, "upper")
        lo = HomogeneousKernelSpec(d, d / 2 + 1 + mu0, "lower")
        interval = riesz_model_intervals(d, mu0)

        verdicts = {}
        for p, kv in ((1.5, (4, 10, 16)), (2.0, (16, 24, 32))):
            assert interval.contains(p)
            res = lp_norm_probe(up.kernel, d, p, k_values=kv,
                                homogeneous_degree=-3.0)
            verdicts[p] = res.verdict
            assert res.verdict == "stable", (p, res.norms)
        for p, kv in ((2.3, (4, 16, 28)), (3.0, (4, 10, 16))):
            assert not interval.contains(p)
            res = lp_norm_probe(up.kernel, d, p, k_values=kv,
                                homogeneous_degree=-3.0)
            verdicts[p] = res.verdict
            assert res.verdict == "growing", (p, res.norms)
        res = lp_norm_probe(lo.kernel, d, 1.05, k_values=(4, 16, 28),
                            homogeneous_degree=-3.0)
        verdicts[1.05] = res.verdict
        assert res.verdict == "growing", res.norms

        probe = lp_norm_probe(up.kernel, d, 1.5, k_values=(16,),
                              homogeneous_degree=-3.0)
        exact = schur_norm(up, 1.5)
        agree = abs(probe.norms[-1] / exact - 1.0)
        assert agree <= 0.10
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        ctx.detail = (f"verdicts {verdicts}, probe-vs-exact at p=1.5: "
                      f"{100 * agree:.1f}%")


def test_criterion_7_certified_tail_honesty(capfd):
    """1000 certified evaluations; doubling the mode table never moves the
    value by more than the certificate."""
    with _criterion("criterion 7 (certificate honesty at scale)", capfd) as ctx:
        rng = np.random.default_rng(2718)
        cases = [
            (sphere_spectrum(3, c=0.4), sphere_spectrum(3, c=0.4, mu_cutoff=80.0)),
            (sphere_spectrum(4, c=-0.5), sphere_spectrum(4, c=-0.5, mu_cutoff=80.0)),
        ]
        total = covered = 0
        for shallow, deep in cases:
            for _ in range(500):
                rp = float(10.0 ** rng.uniform(-1.0, 1.0))
                r = rp * float(rng.uniform(5e-3, 0.25))
                gamma = float(rng.uniform(0.0, 3.0))
                lam = float(10.0 ** rng.uniform(-0.3, 0.3))
                z, zp = _pair(shallow, r, rp, gamma)
                a = resolvent_kernel(ResolventRequest(shallow, z, zp, lam=lam))
                assert a.certified
                b = resolvent_kernel(
                    ResolventRequest(deep, z, zp, lam=lam, rel_tol=1e-12))
                total += 1
                if abs(a.float_value() - b.float_value()) <= (
                        a.float_tail_bound() + 1e-12 * abs(b.float_value())):
                    covered += 1
        assert covered == total == 1000
        ctx.detail = f"{covered}/{total} certificates covered the doubled-table value"
