"""Tests of the benchmark's references, failure counter and tracer.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import sys
import types

import pytest
from scipy.integrate import quad
from scipy.special import kv

import refs
import run
import workloads
from tracer import Tracer, layer_metrics, self_times

sys.path.insert(0, str(workloads.ROOT / "src"))


def _fd_grad(f, r, rp, gamma, h=1e-6):
    """Central differences of f(r, rp, gamma) in r and in arc length r * gamma."""
    d_r = (f(r + h, rp, gamma) - f(r - h, rp, gamma)) / (2 * h)
    d_a = (f(r, rp, gamma + h) - f(r, rp, gamma - h)) / (2 * h * r)
    return d_r, d_a


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("r, rp, gamma, lam", [(0.2, 1.0, 1.0, 1.0), (2.0, 0.7, 2.5, 0.4), (1.0, 1.0, 0.3, 2.0)])
def test_yukawa_gradient_matches_finite_differences(d, r, rp, gamma, lam):
    want = _fd_grad(lambda a, b, g: refs.yukawa(d, a, b, g, lam), r, rp, gamma)
    got = refs.yukawa_grad(d, r, rp, gamma, lam)
    scale = math.hypot(*got)
    assert all(abs(g - w) <= 1e-6 * scale for g, w in zip(got, want))


@pytest.mark.parametrize("R, lam", [(0.3, 1.0), (2.0, 0.5), (5.0, 3.0)])
def test_yukawa_r5_matches_bessel_form(R, lam):
    """G = (2 pi)^(-n/2) (lam/R)^(n/2-1) K_{n/2-1}(lam R) in R^n."""
    want = (2 * math.pi) ** -2.5 * (lam / R) ** 1.5 * kv(1.5, lam * R)
    assert refs.yukawa(5, R, 2 * R, 0.0, lam) == pytest.approx(want, rel=1e-12)  # chord = R
    assert refs.yukawa(3, R, 2 * R, 0.0, lam) == pytest.approx(
        (2 * math.pi) ** -1.5 * (lam / R) ** 0.5 * kv(0.5, lam * R), rel=1e-12)


@pytest.mark.parametrize("r, rp, gamma", [(0.5, 1.0, 0.3), (0.8, 1.0, 1.0), (3.0, 1.0, 2.0)])
def test_riesz_is_the_lambda_integral_of_the_resolvent_gradient(r, rp, gamma):
    """T = (2/pi) int_0^inf grad G_lam dlam, and T = grad of 1/(2 pi^2 R^2)."""
    for comp in (0, 1):
        integral = quad(lambda lam: refs.yukawa_grad(3, r, rp, gamma, lam)[comp], 0, math.inf,
                        epsabs=0, epsrel=1e-11, limit=200)[0]
        assert 2 / math.pi * integral == pytest.approx(refs.riesz_r3(r, rp, gamma)[comp], rel=1e-8)
    fd = _fd_grad(lambda a, b, g: 1 / (2 * math.pi ** 2 * refs.chord(a, b, g) ** 2), r, rp, gamma)
    assert refs.riesz_r3(r, rp, gamma) == pytest.approx(fd, rel=1e-6)


# ----------------------------------------------------------------------
# The failure counter
# ----------------------------------------------------------------------

def test_tally_counts_uncovered_and_non_finite_values_as_failed():
    t = refs.Tally()
    assert t.check("ok", [1.0 + 1e-9], [1.0], [2e-9], 1.0, 1e-8)
    assert not t.check("wrong", [1.001], [1.0], [1e-9], 1.0, 1e-8)
    assert not t.finite("nan", math.nan)
    assert not t.check("nan bound", [1.0], [1.0], [math.nan], 1.0)
    assert t.failed == 3 and t.checked == 2 and t.tol_met == 1


def test_tally_flagged_values_lower_tol_met_only():
    t = refs.Tally()
    assert t.check("heuristic", [1.5], [1.0], [0.1], 1.0, 1e-8, rigorous=False)
    assert (t.failed, t.flagged_uncovered, t.tol_met_frac) == (0, 1, 0.0)
    assert t.check("honest", [1.5], [1.0], [0.6], 1.0, 1e-8)  # bound covers, tolerance missed
    assert (t.failed, t.tol_met, t.checked) == (0, 0, 2)


@pytest.fixture(scope="module")
def r3():
    from conekit import sphere_spectrum

    return sphere_spectrum(3)


def test_injected_wrong_kernel_value_counts_as_failed(r3):
    w = workloads.KernelSweep(1)
    w.spectra, w.mods = {"r3": r3}, {"resolvent": sys.modules["conekit.resolvent"]}
    req = ("r3", False, 0.2, 1.0, 1.0, 1.0, 1e-8)
    good = w.evaluate(req)
    t = refs.Tally()
    workloads.tally_outputs(t, [(req, good), (req, dataclasses.replace(good, value=good.value * 1.001)),
                                (req, ValueError("boom"))], w.check)
    assert (t.attempted, t.failed, t.tol_met) == (3, 2, 1)


def test_injected_wrong_gradient_and_riesz_values_count_as_failed(r3):
    w = workloads.KernelSweep(1)
    w.spectra, w.mods = {"r3": r3}, {"resolvent": sys.modules["conekit.resolvent"]}
    req = ("r3", True, 0.2, 1.0, 1.0, 1.0, 1e-8)
    g = w.evaluate(req)
    bad = dataclasses.replace(g, angular=dataclasses.replace(g.angular, value=-g.angular.value))
    t = refs.Tally()
    w.check(t, req, g)
    w.check(t, req, bad)
    assert t.failed == 1

    rs = workloads.RieszSweep(1)
    rs.prepare()
    pt = (0.125, 1.0, 1.0, 1e-6)
    tv = rs.evaluate(pt)
    t = refs.Tally()
    rs.check(t, pt, tv)
    rs.check(t, pt, dataclasses.replace(tv, d_r=tv.d_r * 1.01))
    assert (t.failed, t.tol_met) == (1, 1)


# ----------------------------------------------------------------------
# Tracer and statistics
# ----------------------------------------------------------------------

def test_self_times_subtract_direct_children():
    spans = [[0, -1, "riesz", 0.0, 10.0, None],
             [1, 0, "resolvent", 1.0, 4.0, {"modes": 5, "band": "certified"}],
             [2, 1, "bessel", 2.0, 3.0, None],
             [3, 0, "resolvent", 5.0, 9.0, {"modes": 40, "band": "cauchy"}]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = layer_metrics(spans)
    assert m["riesz.integrand_evals"] == 2 and m["resolvent.modes_summed"] == 45
    assert m["riesz.self_ms"] == 3e3 and m["resolvent.cauchy.ms_p50"] == 4e3


def test_missing_entry_point_counts_zero():
    mod = types.ModuleType("fake")
    tracer = Tracer()
    tracer.patch(mod, "bessel_i", "bessel")
    assert tracer.missing == ["fake.bessel_i"] and layer_metrics([])["bessel.calls"] == 0


def test_patches_are_restored(r3):
    mods = workloads.conekit_modules()
    before = mods["riesz"].resolvent_gradient
    tracer = Tracer()
    tracer.install(mods)
    assert mods["riesz"].resolvent_gradient is not before
    tracer.uninstall()
    assert mods["riesz"].resolvent_gradient is before and not tracer.missing


def test_kernel_mix_is_fixed_per_group_of_blocks():
    gen = workloads.KernelSweep(3).requests()
    group = [next(gen) for _ in range(workloads.KERNEL_GROUP)]
    count = lambda pred: sum(1 for req in group if pred(req))
    assert count(lambda q: q[0] == "torus") == 12  # 3%
    assert count(lambda q: q[1]) == workloads.KERNEL_GROUP // 3  # gradients
    assert count(lambda q: q[0] == "r3" and q[2] == q[3]) == 32  # s = 1
    assert {q[6] for q in group} == {workloads.KERNEL_REL_TOL}


def test_percentile_interpolates():
    xs = list(range(1, 11))
    assert workloads.percentile(xs, 50) == 5.5
    assert workloads.percentile(xs, 90) == pytest.approx(9.1)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
