"""The benchmark's workloads: seeded inputs, timed phases, checked outputs.

Every workload is a closed loop with one caller: the next value starts
only when the previous one has returned.  Inputs come from
``random.Random(seed)`` in whole blocks with a fixed composition, and a
run's size is fixed, so the mix of regimes in a run depends neither on
the seed nor on the host's speed; only the points inside each stratum
move.
conekit is imported inside the methods, so that a set-up timer started
before ``prepare`` sees the import.
"""

from __future__ import annotations

import math
import os
import random
from pathlib import Path
from time import perf_counter

import refs

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def percentile(xs, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    xs = sorted(xs)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cli_env() -> dict:
    """Environment for conekit subprocesses: the checkout's sources, serial sweeps."""
    env = {k: v for k, v in os.environ.items() if k != "CONEKIT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def conekit_modules() -> dict:
    import importlib

    names = ("bessel", "geometry", "spectrum", "resolvent", "riesz", "lpcheck", "verify")
    return {n: importlib.import_module(f"conekit.{n}") for n in names}


def sphere_angle(y, yp) -> float:
    """Angle between two points of a round unit sphere, from their coordinates."""
    dot = sum(a * b for a, b in zip(y, yp))
    cross2 = sum(a * a for a in y) * sum(b * b for b in yp) - dot * dot
    return math.atan2(math.sqrt(max(cross2, 0.0)), dot)


def probe_reference(kernel_abs, d: int, k: int, m: int = 4) -> float:
    """2-norm of the L^2(r^{d-1} dr) finite section on [2^-k, 2^k], by SVD.

    The grid and weights are the log-grid quadrature of ``lp_norm_probe``:
    r_i = 2^(i/m), weight r_i^d log(2)/m; for p = 2 the matrix is
    w^(1/2) K w^(1/2) and its norm is the largest singular value.
    """
    import numpy as np

    r = np.exp2(np.arange(-k * m, k * m + 1) / m)
    w = r ** d * (math.log(2.0) / m)
    kmat = np.array([[kernel_abs(a, b) for b in r] for a in r])
    return float(np.linalg.norm(np.sqrt(w)[:, None] * kmat * np.sqrt(w)[None, :], 2))


def _inner_outer(rng, s: float, inner: bool, spread: float):
    """(r, r') with r_</r_> = s, r_> in 10^[-spread, spread], the first point inner or outer."""
    big = 10.0 ** rng.uniform(-spread, spread)
    return (s * big, big) if inner else (big, s * big)


def _band_ratio(band: int, lowest: float, u: float) -> float:
    """s in the certified [lowest, 1/4], rigorous (1/4, 1) or diagonal (= 1) band; u in [0, 1)."""
    if band == 0:
        return 10.0 ** (math.log10(lowest) + u * math.log10(0.25 / lowest))
    if band == 1:
        return 0.26 + 0.73 * u
    return 1.0


def attempt(fn, arg):
    """fn(arg), or the exception it raised (a failed operation, tallied later)."""
    try:
        return fn(arg)
    except Exception as exc:
        return exc


def tally_outputs(tally, done, check) -> None:
    for item, out in done:
        tally.attempted += 1
        if isinstance(out, Exception):
            tally.fail(f"{item}: raised {type(out).__name__}: {out}")
        else:
            check(tally, item, out)


def compare_traced(tracer, mods, chunks, evaluate):
    """Evaluate every chunk untraced and traced, alternating which goes first.

    Returns the untraced and traced seconds summed over the chunks, and
    the (item, output) pairs of the traced passes.
    """
    plain = traced = 0.0
    done = []
    for i, chunk in enumerate(chunks):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(mods)
            t0 = perf_counter()
            try:
                outs = [(item, attempt(evaluate, item)) for item in chunk]
            finally:
                dt = perf_counter() - t0
                if with_trace:
                    tracer.uninstall()
            if with_trace:
                traced += dt
                done += outs
            else:
                plain += dt
    return plain, traced, done


def timed_passes(items, evaluate, passes: int, seed: int, shift, halfway=None):
    """Evaluate every item ``passes`` times, in a seeded random order.

    A value counts at its fastest evaluation.  A shared host's speed
    changes by up to 1.5x in phases of seconds; a random order spreads
    each value's evaluations over the whole run, where whole passes
    would put them a fixed interval apart, in step with such phases.
    ``shift(item, k)`` is the item's k-th evaluation: the same work, but
    no result that a cache could reuse.  ``halfway()`` runs once, half
    way through.  Returns each item's latency in ms and the (item,
    output or exception) pairs, which are checked afterwards.
    """
    order = [(k, i) for k in range(passes) for i in range(len(items))]
    random.Random(seed).shuffle(order)
    lat = [math.inf] * len(items)
    done = []
    for n, (k, i) in enumerate(order):
        if halfway is not None and n == len(order) // 2:
            halfway()
        item = shift(items[i], k)
        t0 = perf_counter()
        out = attempt(evaluate, item)
        lat[i] = min(lat[i], 1e3 * (perf_counter() - t0))
        done.append((item, out))
    return lat, done


def timed_probe(tally, call):
    """Time one probe call; returns (seconds, result, or None if it raised)."""
    tally.attempted += 1
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:  # a raising probe is a failed operation
        tally.fail(f"probe raised {type(exc).__name__}: {exc}")
        return perf_counter() - t0, None
    return perf_counter() - t0, result


def probe_error(tally, result, ref_abs) -> float:
    """Relative error of a k = 4, p = 2 probe norm against the SVD reference.

    Reported only: each ratio-line value is judged on its own, by its
    quad_error_est, so a norm built from them is never a failure.
    """
    if result is None or not tally.finite("probe norm", result.norms[0]):
        return math.nan
    want = probe_reference(ref_abs, 3, 4)
    return abs(result.norms[0] - want) / want


# ----------------------------------------------------------------------
# kernel-sweep
# ----------------------------------------------------------------------

# Spectra and their share of every block of 132 requests.  The torus
# takes 4 (3%, the share of the prototype sweep this workload was sized
# from); the four sphere spectra share the rest equally.  r3 and r5 are
# flat R^3 and R^5, where closed forms exist.
KERNEL_MIX = (("r3", 32), ("s3-", 32), ("s3+", 32), ("r5", 32), ("torus", 4))
# Bands and gradients rotate from block to block, so whole groups of
# three blocks hold every spectrum's values evenly in each band.
KERNEL_GROUP = 3 * sum(n for _, n in KERNEL_MIX)  # requests in three blocks
KERNEL_GROUPS = 3  # 1188 distinct requests, so that ten lie beyond the p99
KERNEL_PASSES = 4
# conekit's default kernel tolerance (DEFAULTS.kernel_rel_tol), the one
# every example in the README uses.
KERNEL_REL_TOL = 1e-8


class KernelSweep:
    """Seeded resolvent_kernel / resolvent_gradient requests."""

    name = "kernel-sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        import conekit.resolvent
        import conekit.spectrum as sp

        self.mods = {"resolvent": conekit.resolvent}
        self.spectra = {
            "r3": sp.sphere_spectrum(3),
            "s3-": sp.sphere_spectrum(3, c=-0.24),
            "s3+": sp.sphere_spectrum(3, c=1.0),
            "r5": sp.sphere_spectrum(5),
            "torus": sp.torus_spectrum(3, (1.0, 1.3)),
        }
        self.evaluate(next(self.requests()))  # warm-up

    def requests(self):
        """Endless seeded requests: (key, grad, r, rp, gamma, lam, rel_tol)."""
        rng = random.Random(self.seed)
        block = 0
        while True:
            slots = []
            for key, n in KERNEL_MIX:
                bands = [(j + block) % 3 for j in range(n)]
                # Each spectrum's s takes one value from every equal part of its band.
                s_strata = {b: rng.sample(range(bands.count(b)), bands.count(b)) for b in set(bands)}
                for j, band in enumerate(bands):
                    # A third are gradients: the ROADMAP Baseline times two
                    # kernel calls for each gradient call.
                    u = (s_strata[band].pop() + rng.random()) / bands.count(band)
                    slots.append((key, band, (j // 3 + block) % 3 == 0, u))
            rng.shuffle(slots)
            n = len(slots)
            # r_> and lambda each take one value from every 1/n-th of their
            # log range, so every block holds the same extremes of lambda r.
            r_strata, lam_strata = rng.sample(range(n), n), rng.sample(range(n), n)
            for (key, band, grad, u), i, j in zip(slots, r_strata, lam_strata):
                s = _band_ratio(band, 0.01, u)
                big = 10.0 ** (-1.0 + 2.0 * (i + rng.random()) / n)
                r, rp = (s * big, big) if rng.random() < 0.5 else (big, s * big)
                yield (key, grad, r, rp, rng.uniform(0.1, 3.0),
                       10.0 ** (-0.5 + (j + rng.random()) / n), KERNEL_REL_TOL)
            block += 1

    def evaluate(self, req):
        from conekit.geometry import ConePoint

        key, grad, r, rp, gamma, lam, rel_tol = req
        spec = self.spectra[key]
        res = self.mods["resolvent"]
        y, yp = spec.cross_section.points_at_separation(gamma)
        request = res.ResolventRequest(spec, ConePoint(r, y), ConePoint(rp, yp), lam=lam, rel_tol=rel_tol)
        return (res.resolvent_gradient if grad else res.resolvent_kernel)(request)

    @staticmethod
    def check(tally, req, out) -> None:
        """Apply the failure rule to one kernel or gradient value."""
        key, grad, r, rp, gamma, lam, rel_tol = req
        comps = (out.d_r, out.angular) if grad else (out,)
        what = f"{key} {'gradient' if grad else 'kernel'} r={r:.6g} r'={rp:.6g} g={gamma:.6g} lam={lam:.6g}"
        vals = [c.float_value() for c in comps]
        bounds = [c.float_tail_bound() for c in comps]
        if tally.finite(what, *vals, *bounds) and key in ("r3", "r5"):
            d = 3 if key == "r3" else 5
            want = refs.yukawa_grad(d, r, rp, gamma, lam) if grad else (refs.yukawa(d, r, rp, gamma, lam),)
            rigorous = all(c.tail_kind != "cauchy" for c in comps)
            tally.check(what, vals, want, bounds, math.hypot(*want),
                        rel_tol if key == "r3" else None, rigorous)

    def run(self, seconds: float, tally):
        """KERNEL_GROUPS groups of blocks, each request KERNEL_PASSES times.

        The work is fixed, whatever ``seconds`` is, so the host's speed
        never decides which requests run.  Evaluation k multiplies
        lambda by 1 + k e-12.
        """
        gen = self.requests()
        items = [next(gen) for _ in range(KERNEL_GROUPS * KERNEL_GROUP)]
        lat, done = timed_passes(items, self.evaluate, KERNEL_PASSES, self.seed,
                                 lambda q, k: q[:5] + (q[5] * (1.0 + k * 1e-12),) + q[6:])
        certified = sum(not isinstance(out, Exception) and getattr(out, "d_r", out).certified
                        for _, out in done)
        tally_outputs(tally, done, self.check)
        return {
            "values_per_s": 1e3 * len(lat) / sum(lat),
            "value_ms_p50": percentile(lat, 50),
            "value_ms_tail": percentile(lat, 99),
            "tol_met_frac": tally.tol_met_frac,
        }, {
            "tail_percentile": 99,
            "values": len(lat),
            "value_ms_p99": percentile(lat, 99),
            "certified_frac": certified / len(done),
        }

    def traced(self, tracer, mods, tally):
        """300 sweep requests, untraced and traced."""
        gen = self.requests()
        items = [next(gen) for _ in range(300)]
        plain, traced, done = compare_traced(
            tracer, mods, [items[i:i + 50] for i in range(0, 300, 50)], self.evaluate)
        tally_outputs(tally, done, self.check)
        return plain, traced


# ----------------------------------------------------------------------
# riesz-sweep
# ----------------------------------------------------------------------

# Every block of 10 points: (band, first point inner?) -- three certified
# and one rigorous on each side of the diagonal, two on r = r'.  Rigorous
# points cost about 0.7 s, the others 0.1-0.4 s.
RIESZ_BLOCK = ((0, True), (0, True), (0, True), (1, True), (0, False), (0, False),
               (0, False), (1, False), (2, True), (2, True))
RIESZ_REL_TOL = 1e-6  # conekit's default (DEFAULTS.riesz_rel_tol)
RIESZ_BLOCKS = 3  # 30 points; each takes 0.15-2 s
RIESZ_PASSES = 3
RIESZ_PROBE_SEPARATION = 0.7  # riesz_probe_kernel's default


class RieszSweep:
    """Seeded riesz_kernel points on R^3, then the Riesz lp_norm_probe."""

    name = "riesz-sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        import conekit.lpcheck
        import conekit.riesz
        import conekit.spectrum as sp

        self.mods = {"riesz": conekit.riesz, "lpcheck": conekit.lpcheck}
        self.spec = sp.sphere_spectrum(3)
        self.evaluate((0.25, 1.0, 1.0, 1e-2))  # warm-up: one cheap value

    def points(self):
        """Endless seeded points (r, rp, gamma, rel_tol); s from 0.05 up to r = r'."""
        rng = random.Random(self.seed)
        n = len(RIESZ_BLOCK)
        per_band = {b: sum(1 for band, _ in RIESZ_BLOCK if band == b) for b in (0, 1, 2)}
        while True:
            block = list(RIESZ_BLOCK)
            rng.shuffle(block)
            # gamma takes one value from each tenth of [0.1, 3], and s one
            # from each equal part of its band, so every block spans both.
            gamma_strata = rng.sample(range(n), n)
            s_strata = {b: rng.sample(range(k), k) for b, k in per_band.items()}
            for (band, inner), j in zip(block, gamma_strata):
                u = (s_strata[band].pop() + rng.random()) / per_band[band]
                r, rp = _inner_outer(rng, _band_ratio(band, 0.05, u), inner, 0.5)
                yield r, rp, 0.1 + 2.9 * (j + rng.random()) / n, RIESZ_REL_TOL

    def evaluate(self, pt):
        from conekit.geometry import ConePoint

        r, rp, gamma, rel_tol = pt
        y, yp = self.spec.cross_section.points_at_separation(gamma)
        return self.mods["riesz"].riesz_kernel(self.spec, ConePoint(r, y), ConePoint(rp, yp), rel_tol=rel_tol)

    @staticmethod
    def check(tally, pt, out) -> None:
        r, rp, gamma, rel_tol = pt
        what = f"riesz r={r:.6g} r'={rp:.6g} g={gamma:.6g}"
        if tally.finite(what, out.d_r, out.angular, out.quad_error_est):
            want = refs.riesz_r3(r, rp, gamma)
            tally.check(what, (out.d_r, out.angular), want, out.quad_error_est,
                        math.hypot(*want), rel_tol)

    def run(self, seconds: float, tally):
        """A fixed sweep, each point RIESZ_PASSES times, and the probe half way.

        The sweep is RIESZ_BLOCKS whole blocks whatever ``seconds`` is,
        so the host's speed never decides which points run.  Evaluation
        k moves gamma by k e-12 relative.  The probe runs once: its
        ratio-line values are checked, and its wall time is ``probe_s``.
        """
        gen = self.points()
        items = [next(gen) for _ in range(RIESZ_BLOCKS * len(RIESZ_BLOCK))]
        probe = []
        lat, done = timed_passes(items, self.evaluate, RIESZ_PASSES, self.seed,
                                 lambda p, k: (p[0], p[1], p[2] * (1.0 + k * 1e-12), p[3]),
                                 lambda: probe.append(self.probe(tally)))
        tally_outputs(tally, done, self.check)
        probe_s, err = probe[0]
        return {
            "values_per_s": 1e3 * len(lat) / sum(lat),
            "value_ms_p50": percentile(lat, 50),
            "value_ms_tail": percentile(lat, 90),
            "tol_met_frac": tally.tol_met_frac,
        }, {
            "tail_percentile": 90,
            "values": len(lat),
            "value_ms_p90": percentile(lat, 90),
            "probe_s": probe_s,
            "probe_relerr": err,
        }

    def traced(self, tracer, mods, tally):
        """Six sweep points untraced and traced, then the probe traced."""
        gen = self.points()
        plain, traced, done = compare_traced(
            tracer, mods, [[next(gen)] for _ in range(6)], self.evaluate)
        tally_outputs(tally, done, self.check)
        tracer.install(mods)
        try:
            self.probe(tally)
        finally:
            tracer.uninstall()
        return plain, traced

    def probe(self, tally):
        """The Riesz probe; returns (seconds, error of its norm).

        Its calls into riesz_kernel are recorded where lpcheck looks the
        function up, so that each ratio-line value is checked like a
        sweep value.
        """
        lpcheck = self.mods["lpcheck"]
        inner = lpcheck.riesz_kernel
        values = []

        def recorded(spec, z, zp, *args, **kwargs):
            out = inner(spec, z, zp, *args, **kwargs)
            rel_tol = kwargs.get("rel_tol", args[0] if args else RIESZ_REL_TOL)
            values.append(((z.r, zp.r, sphere_angle(z.y, zp.y), rel_tol), out))
            return out

        lpcheck.riesz_kernel = recorded
        try:
            kernel = lpcheck.riesz_probe_kernel(self.spec, separation=RIESZ_PROBE_SEPARATION)
            probe_s, result = timed_probe(
                tally, lambda: lpcheck.lp_norm_probe(kernel, 3, 2.0, k_values=(4,), homogeneous_degree=-3.0))
        finally:
            lpcheck.riesz_kernel = inner
        for pt, out in values:
            tally.attempted += 1
            self.check(tally, pt, out)
        # |T| = |grad R| / (pi^2 R^3), since |grad R| = 1.
        err = probe_error(tally, result,
                          lambda r, rp: 1.0 / (math.pi ** 2 * refs.chord(r, rp, RIESZ_PROBE_SEPARATION) ** 3))
        return probe_s, err


WORKLOADS = {w.name: w for w in (KernelSweep, RieszSweep)}


# ----------------------------------------------------------------------
# Fixed single calls, the same in every traced run
# ----------------------------------------------------------------------

FIXED_BASELINES = {  # ROADMAP "Baseline", single runs timed by hand
    "bessel.fixed_pair_us": 69.0,
    "resolvent.fixed_s0.2_ms": 0.69,
    "resolvent.fixed_s0.9_ms": 2.6,
    "resolvent.fixed_grad_s0.2_ms": 1.5,
    "riesz.fixed_s0.125_ms": 170.0,
    "riesz.fixed_s0.8_ms": 890.0,
    "spectrum.build_ms": 43.0,  # the torus table alone
}


def fixed_cases(tracer, mods, tally) -> dict:
    """Time each fixed case (median of repeats, untraced), then trace it once.

    The traced calls, and the traced builds of the two spectra, put every
    layer and every resolvent band into the spans of every workload.
    Errors are against the closed forms.
    """
    from conekit.geometry import ConePoint
    from conekit.lpcheck import HomogeneousKernelSpec

    res, rz, bes = mods["resolvent"], mods["riesz"], mods["bessel"]
    tracer.install(mods)
    try:
        r3 = mods["spectrum"].sphere_spectrum(3)
        torus = mods["spectrum"].torus_spectrum(3, (1.0, 1.3))
    finally:
        tracer.uninstall()
    y, yp = r3.cross_section.points_at_separation(1.0)
    ty, typ = torus.cross_section.points_at_separation(1.0)

    def request(spec, r, a, b):
        return res.ResolventRequest(spec, ConePoint(r, a), ConePoint(1.0, b))

    def kernel_err(r):
        return lambda kv: abs(kv.float_value() - refs.yukawa(3, r, 1.0, 1.0, 1.0)) / refs.yukawa(3, r, 1.0, 1.0, 1.0)

    def grad_err(gv):
        want = refs.yukawa_grad(3, 0.2, 1.0, 1.0, 1.0)
        return (abs(gv.d_r.float_value() - want[0]) + abs(gv.angular.float_value() - want[1])) / math.hypot(*want)

    def riesz_err(r):
        def err(tv):
            want = refs.riesz_r3(r, 1.0, 1.0)
            return (abs(tv.d_r - want[0]) + abs(tv.angular - want[1])) / math.hypot(*want)
        return err

    def pair_err(pair):
        x, z = 0.2, 1.0  # closed forms of I_{3/2}(x) and K_{3/2}(z)
        i_want = math.sqrt(2.0 / (math.pi * x)) * (math.cosh(x) - math.sinh(x) / x)
        k_want = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * (1.0 + 1.0 / z)
        return max(abs(pair[0].float_value() - i_want) / i_want, abs(pair[1].float_value() - k_want) / k_want)

    def pairs():  # 200 pairs per call, so one call is long enough to time
        for _ in range(199):
            bes.bessel_i(1.5, 0.2), bes.bessel_k(1.5, 1.0)
        return bes.bessel_i(1.5, 0.2), bes.bessel_k(1.5, 1.0)

    cases = (  # name, repeats, unit scale per call, call, error
        ("bessel.fixed_pair_us", 5, 1e6 / 200, pairs, pair_err),
        ("resolvent.fixed_s0.2_ms", 21, 1e3, lambda: res.resolvent_kernel(request(r3, 0.2, y, yp)), kernel_err(0.2)),
        ("resolvent.fixed_s0.9_ms", 21, 1e3, lambda: res.resolvent_kernel(request(r3, 0.9, y, yp)), kernel_err(0.9)),
        ("resolvent.fixed_grad_s0.2_ms", 21, 1e3, lambda: res.resolvent_gradient(request(r3, 0.2, y, yp)), grad_err),
        ("resolvent.fixed_torus_s0.5_ms", 5, 1e3, lambda: res.resolvent_kernel(request(torus, 0.5, ty, typ)), None),
        ("riesz.fixed_s0.125_ms", 5, 1e3, lambda: rz.riesz_kernel(r3, ConePoint(0.125, y), ConePoint(1.0, yp)), riesz_err(0.125)),
        ("riesz.fixed_s0.8_ms", 5, 1e3, lambda: rz.riesz_kernel(r3, ConePoint(0.8, y), ConePoint(1.0, yp)), riesz_err(0.8)),
    )
    out = {}
    for name, repeats, scale, call, err in cases:
        tally.attempted += 1
        try:
            times = []
            for _ in range(repeats):
                t0 = perf_counter()
                value = call()
                times.append(perf_counter() - t0)
            tracer.install(mods)
            try:
                call()
            finally:
                tracer.uninstall()
        except Exception as exc:  # a raising case is a failed operation
            tally.fail(f"{name}: raised {type(exc).__name__}: {exc}")
            out[name] = math.nan
            continue
        out[name] = scale * percentile(times, 50)
        if err is not None:
            out[name.rsplit("_", 1)[0] + "_relerr"] = err(value)
    # One t2 probe, traced, so that the lpcheck layer shows in every workload.
    t2 = HomogeneousKernelSpec(3, 1.0, "upper").kernel
    tracer.install(mods)
    try:
        mods["lpcheck"].lp_norm_probe(t2, 3, 2.0, homogeneous_degree=-3.0)
    finally:
        tracer.uninstall()
    return out
