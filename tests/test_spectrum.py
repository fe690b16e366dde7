"""Cross-section spectra: exact eigendata, tails, file round-trips."""

import itertools
import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_gegenbauer

from conekit import (
    DomainError,
    InsufficientSpectrumError,
    Mode,
    PositivityError,
    SpectrumFormatError,
    leading_modes,
    load_spectrum,
    save_spectrum,
    sphere_spectrum,
    torus_spectrum,
    weyl_fit,
)

import oracles


class TestModeValidation:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(PositivityError):
            Mode(0.0, 1)
        with pytest.raises(PositivityError):
            Mode(-0.5, 1)

    @pytest.mark.parametrize("mult", [0, -1, 1.5])
    def test_rejects_bad_multiplicity(self, mult):
        with pytest.raises(DomainError):
            Mode(1.0, mult)

    @pytest.mark.parametrize("mult", [3.0, np.int64(3), np.float64(3.0)], ids=["float", "np.int64", "np.float64"])
    def test_multiplicity_is_stored_as_int(self, mult):
        mode = Mode(1.0, mult)
        assert mode.multiplicity == 3 and type(mode.multiplicity) is int


class TestSphereEigendata:
    def test_d3_zero_potential_exact(self):
        spec = sphere_spectrum(3, mu_cutoff=10.0)
        for l, m in enumerate(spec.modes):
            assert m.mu == pytest.approx(l + 0.5, rel=1e-15)
            assert m.multiplicity == 2 * l + 1
        assert spec.mu0 == pytest.approx(0.5)
        assert spec.mu1 == pytest.approx(1.5)
        assert spec.certifiable and spec.grad_certifiable
        assert not spec.norms_only
        assert spec.v0_constant == 0.0

    def test_d4_zero_potential_exact(self):
        spec = sphere_spectrum(4, mu_cutoff=8.0)
        for l, m in enumerate(spec.modes):
            assert m.mu == pytest.approx(l + 1.0, rel=1e-14)
            assert m.multiplicity == (l + 1) ** 2

    def test_negative_coupling_shifts_mu(self):
        spec = sphere_spectrum(3, c=-0.24)
        assert spec.mu0 == pytest.approx(0.1, rel=1e-12)
        assert spec.mu1 == pytest.approx(math.sqrt(2.01), rel=1e-14)

    def test_radius_scales_eigenvalues(self):
        spec = sphere_spectrum(3, radius=2.0, mu_cutoff=5.0)
        for l, m in enumerate(spec.modes):
            assert m.mu == pytest.approx(math.sqrt(l * (l + 1) / 4.0 + 0.25), rel=1e-14)

    @pytest.mark.parametrize("d,c", [(3, -0.25), (3, -1.0), (4, -1.0), (5, -9.0)])
    def test_positivity_enforced(self, d, c):
        with pytest.raises(PositivityError):
            sphere_spectrum(d, c=c)

    def test_trace_identity(self):
        # Integrating the eigenspace kernel over the diagonal must give the
        # multiplicity: pair(y, y) * vol = mult for every cluster.
        for d in (3, 4, 6):
            spec = sphere_spectrum(d, mu_cutoff=8.0)
            vol = spec.cross_section.volume
            y, _ = spec.cross_section.points_at_separation(0.0)
            pair, _ = spec.pair_values(y, y)
            for j, m in enumerate(spec.modes):
                np.testing.assert_allclose(
                    pair[j] * vol, m.multiplicity, rtol=1e-12
                )

    def test_pair_matches_legendre_oracle(self):
        # On S^2 the eigenspace kernel is (2l+1)/(4 pi) P_l(cos gamma).
        spec = sphere_spectrum(3, mu_cutoff=12.0)
        cs = spec.cross_section
        for gamma in [0.0, 0.3, 1.1, 2.6, math.pi]:
            y, yp = cs.points_at_separation(gamma)
            pair, _ = spec.pair_values(y, yp)
            assert len(pair) == len(spec.modes)
            for l in range(len(spec.modes)):
                ref = (2 * l + 1) / (4 * math.pi) * float(mp.legendre(l, math.cos(gamma)))
                np.testing.assert_allclose(pair[l], ref,
                                           rtol=1e-10, atol=1e-15)

    def test_grad_pair_by_finite_differences(self):
        spec = sphere_spectrum(5, c=0.4, mu_cutoff=6.0)
        cs = spec.cross_section
        h = 1e-6
        for gamma in [0.4, 1.3, 2.2]:
            _, got = spec.pair_values(*cs.points_at_separation(gamma))
            lo, _ = spec.pair_values(*cs.points_at_separation(gamma - h))
            hi, _ = spec.pair_values(*cs.points_at_separation(gamma + h))
            for j in range(len(spec.modes)):
                np.testing.assert_allclose(got[j], (hi[j] - lo[j]) / (2 * h),
                                           rtol=1e-7, atol=1e-9)

    def test_sup_bounds_hold_on_grid(self):
        spec = sphere_spectrum(4, c=-0.2, mu_cutoff=9.0)
        cs = spec.cross_section
        gammas = np.linspace(0.0, math.pi, 181)
        values = [spec.pair_values(*cs.points_at_separation(g)) for g in gammas]
        worst_pair = np.max([np.abs(pair) for pair, _ in values], axis=0)
        worst_grad = np.max([np.abs(grad) for _, grad in values], axis=0)
        for j, m in enumerate(spec.modes):
            assert worst_pair[j] <= m.pair_sup * (1 + 1e-12)
            assert worst_grad[j] <= m.grad_sup * (1 + 1e-12)

    def test_modes_sorted_and_cutoff_respected(self):
        spec = sphere_spectrum(3, mu_cutoff=25.0)
        mus = [m.mu for m in spec.modes]
        assert mus == sorted(mus)
        assert mus[-1] <= 25.0 < mus[-1] + 1.0


class TestTorusEigendata:
    def test_square_torus_matches_lattice_count(self):
        spec = torus_spectrum(3, [1.0, 1.0], mu_cutoff=5.0)
        evals = oracles.torus_eigenvalues_below([1.0, 1.0], 5.0 ** 2 - 0.25)
        # Expand the mode table back into an eigenvalue multiset.
        got = []
        for m in spec.modes:
            lam = m.mu ** 2 - 0.25  # c = 0, d = 3 shift
            got.extend([lam] * m.multiplicity)
        np.testing.assert_allclose(sorted(got), evals, rtol=1e-12, atol=1e-12)

    def test_known_low_modes(self):
        spec = torus_spectrum(3, [1.0, 1.0], mu_cutoff=3.0)
        assert spec.mu0 == pytest.approx(0.5)
        assert spec.modes[0].multiplicity == 1
        assert spec.mu1 == pytest.approx(math.sqrt(1.25), rel=1e-14)
        assert spec.modes[1].multiplicity == 4
        # lambda = 2: (+-1, +-1) -> multiplicity 4
        assert spec.modes[2].mu == pytest.approx(1.5, rel=1e-14)
        assert spec.modes[2].multiplicity == 4

    def test_accidental_degeneracy_merged(self):
        # On radii (1, 1/2): lambda = 4 arises as (+-2, 0) and (0, +-1).
        spec = torus_spectrum(3, [1.0, 0.5], mu_cutoff=2.5)
        lam4 = [m for m in spec.modes if abs(m.mu ** 2 - 0.25 - 4.0) < 1e-9]
        assert len(lam4) == 1 and lam4[0].multiplicity == 4

    def test_trace_identity(self):
        spec = torus_spectrum(4, [1.0, 1.3, 0.7], c=0.3, mu_cutoff=4.0)
        vol = spec.cross_section.volume
        y, _ = spec.cross_section.points_at_separation(0.0)
        pair, _ = spec.pair_values(y, y)
        for j, m in enumerate(spec.modes):
            np.testing.assert_allclose(pair[j] * vol, m.multiplicity,
                                       rtol=1e-12)

    def test_dimension_consistency(self):
        with pytest.raises(DomainError):
            torus_spectrum(3, [1.0, 1.0, 1.0])  # 3-torus needs d = 4


_KINDS = ("pair_over_2mu", "pair", "grad_over_2mu")


class TestTails:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_sphere_tail_dominates_brute_force(self, kind):
        # Brute force from the exact per-degree formulas, summed to
        # convergence; the 1e-6 stop rule keeps the bound within 1e-6 of it.
        # mu_from runs at the table top, between the last two modes and below mu0.
        row = _KINDS.index(kind)
        for d, s, start in itertools.product((3, 5, 6), (0.3, 0.9, 0.99), range(3)):
            shallow = sphere_spectrum(d, mu_cutoff=20.0)
            vol, nu = shallow.cross_section.volume, (d - 2) / 2
            top, below = shallow.modes[-1].mu, shallow.modes[-2].mu
            mu_from = (top, (below + top) / 2, shallow.mu0 / 2)[start]
            brute, l, last = 0.0, 0, math.inf
            while True:
                mu = math.sqrt(l * (l + d - 2) + nu ** 2)
                if mu > mu_from:
                    p = (math.comb(l + d - 1, d - 1) - math.comb(l + d - 3, d - 1)) / vol
                    term = (p / (2 * mu), p, p * l * (l + 2 * nu) / (2 * nu + 1) / (2 * mu))[row] * s ** mu
                    brute += term
                    if l > 10 and 0 < term < min(last, 1e-18 * brute):
                        break
                    last = term
                l += 1
            bound = shallow.tail_profile.sum_beyond(s, mu_from)[row]
            assert brute <= bound <= (1 + 2e-6) * brute, (d, s, start)

    @pytest.mark.parametrize("s", [0.9999, 0.99999])
    def test_sphere_tail_near_one_matches_closed_form(self, s):
        # On R^3 (mu_l = l + 1/2, N_l = 2l + 1, vol = 4 pi) the three tails
        # past degree L are closed-form series in s.  Near s = 1 they run to
        # millions of degrees, past the 2**16 the tail keeps, in bounded memory.
        spec = sphere_spectrum(3)
        L, c = len(spec.modes), 1 - s
        s0 = s ** L / c  # sum_{l >= L} s^l, then with weights l and l(l+1)
        s1 = s ** L * (L * c + s) / c ** 2
        s2 = s ** L * (L * (L + 1) * c ** 2 + 2 * (L + 1) * s * c + 2 * s ** 2) / c ** 3
        exact = np.array([s0, 2 * s1 + s0, s2 / 2]) * math.sqrt(s) / (4 * math.pi)
        tracemalloc.start()
        try:
            bound = np.array(spec.tail_profile.sum_beyond(s, spec.modes[-1].mu))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1e-12: rounding over millions of summed terms
        assert np.all(exact * (1 - 1e-12) <= bound) and np.all(bound <= (1 + 2e-6) * exact)
        assert peak < 50e6

    def test_torus_tail_dominates_brute_force(self):
        spec = torus_spectrum(3, [1.0, 0.8], mu_cutoff=40.0)
        shallow = torus_spectrum(3, [1.0, 0.8], mu_cutoff=8.0)
        mu_from = shallow.modes[-1].mu
        for s in (0.2, 0.9):
            brute = sum(
                m.multiplicity / spec.cross_section.volume / (2 * m.mu) * s ** m.mu
                for m in spec.modes if m.mu > mu_from
            )
            bound = shallow.tail_profile.sum_beyond(s, mu_from)[0]
            assert brute <= bound

    def test_tail_rejects_s_at_one(self):
        spec = sphere_spectrum(3)
        with pytest.raises(DomainError):
            spec.tail_profile.sum_beyond(1.0, 40.0)


# ----------------------------------------------------------------------
# Reference algorithms: the per-degree and per-lattice-vector table
# builds and the term-by-term tail loops that the vector code replaced.
# ----------------------------------------------------------------------

def _ref_sphere_table(d, radius, c, cutoff, gamma):
    """Modes (mu, mult, pair_sup, grad_sup, label) and pair values, one degree at a time."""
    vol = sphere_spectrum(d, radius=radius, c=c).cross_section.volume
    nu = (d - 2) / 2
    c0 = c + nu ** 2
    modes, pairs, grads = [], [], []
    x, l = math.cos(gamma / radius), 0
    while (mu := math.sqrt(l * (l + d - 2) / radius ** 2 + c0)) <= cutoff:
        mult = 1 if l == 0 else (2 * l + d - 2) * math.comb(l + d - 3, d - 3) // (d - 2)
        norm = mult / (vol * math.exp(math.lgamma(l + 2 * nu) - math.lgamma(2 * nu) - math.lgamma(l + 1)))
        modes.append((mu, mult, mult / vol, mult / (vol * radius) * l * (l + 2 * nu) / (2 * nu + 1), f"l={l}"))
        pairs.append(norm * eval_gegenbauer(l, nu, x))
        grads.append(-2 * nu / radius * math.sin(gamma / radius) * norm * eval_gegenbauer(l - 1, nu + 1, x)
                     if l else 0.0)
        l += 1
    return modes, pairs, grads


def _ref_torus_table(radii, c, cutoff, gamma):
    """Modes and pair values from itertools.product and sequential grouping."""
    d = len(radii) + 1
    c0 = c + ((d - 2) / 2) ** 2
    vol = math.prod(2 * math.pi * a for a in radii)
    lam_max = cutoff ** 2 - c0
    ranges = [range(-int(a * math.sqrt(lam_max)), int(a * math.sqrt(lam_max)) + 1) for a in radii]
    entries = []
    for k in itertools.product(*ranges):
        lam = sum((ki / ai) ** 2 for ki, ai in zip(k, radii))
        if lam <= lam_max * (1 + 1e-12):
            entries.append((lam, k))
    entries.sort(key=lambda t: t[0])
    groups = []
    for lam, k in entries:
        if groups and abs(lam - groups[-1][0]) <= 1e-9 * (1 + lam):
            groups[-1][1].append(k)
        else:
            groups.append([lam, [k]])
    delta = [-gamma / radii[0]] + [0.0] * (len(radii) - 1)  # y - y' for points_at_separation
    modes, pairs, grads = [], [], []
    for lam, ks in groups:
        n = len(ks)
        modes.append((math.sqrt(lam + c0), n, n / vol, n * math.sqrt(lam) / vol, f"lambda={lam:.6g}"))
        phases = [sum(ki / ai * di for ki, ai, di in zip(k, radii, delta)) for k in ks]
        speeds = [sum(ki / ai * di / gamma for ki, ai, di in zip(k, radii, delta)) for k in ks]
        pairs.append(sum(math.cos(p) for p in phases) / vol)
        grads.append(-sum(math.sin(p) * v for p, v in zip(phases, speeds)) / vol)
    return modes, pairs, grads


def _ref_majorant(terms):
    """Sum (coef, log term, rho) triples until the geometric majorant stops it."""
    total = 0.0
    for coef, lt, rho in terms:
        term = coef * math.exp(lt) if lt > -745.0 else 0.0
        total += term
        if term == 0.0 and coef > 0.0:
            return total
        if rho < 1.0:
            rem = term * rho / (1.0 - rho)
            if rem <= 1e-6 * total or rem == 0.0:
                return total + rem


def _ref_sphere_tail(d, radius, c, s, mu_from, kind):
    vol = sphere_spectrum(d, radius=radius, c=c).cross_section.volume
    nu = (d - 2) / 2
    c0 = c + nu ** 2

    def mu(l):
        return math.sqrt(l * (l + d - 2) / radius ** 2 + c0)

    def terms(l):
        mu_l = mu(l)
        while True:
            mu_next = mu(l + 1)
            coef = (2 * l + d - 2) * math.comb(l + d - 3, d - 3) // (d - 2) / vol
            cap = (2 * l + d) / (2 * l + d - 2) * (l + d - 2) / (l + 1)
            if kind == "grad_over_2mu":
                coef *= l * (l + 2 * nu) / ((2 * nu + 1) * radius)
                cap *= (l + 1) * (l + 1 + 2 * nu) / (l * (l + 2 * nu))
            if kind != "pair":
                coef /= 2 * mu_l
            yield coef, mu_l * math.log(s), cap * s ** min(mu_next - mu_l, 1 / radius)
            l, mu_l = l + 1, mu_next

    l = 0
    while mu(l) <= mu_from * (1 + 1e-15):
        l += 1
    return _ref_majorant(terms(l))


def _ref_torus_tail(radii, s, mu_from, kind):
    vol = math.prod(2 * math.pi * a for a in radii)
    per_mode = {"pair": 1 / vol, "pair_over_2mu": 1 / (2 * mu_from * vol), "grad_over_2mu": 1 / (2 * vol)}[kind]

    def box(x):
        return math.prod(2 * a * x + 3 for a in radii)

    def terms(m):
        while True:
            yield (per_mode * box(mu_from + m), (mu_from + m - 1) * math.log(s),
                   s * box(mu_from + m + 1) / box(mu_from + m))
            m += 1

    return _ref_majorant(terms(1))


_SPHERES = [(d, c, radius) for d, c_neg in ((3, -0.15), (4, -0.6), (5, -1.2), (6, -2.4))
            for c in (0.0, c_neg, 1.0) for radius in (0.7, 1.0, 2.0)]
_TORI = [(1.0, 1.3), (1.0, 1.0), (1.0, math.sqrt(2)), (1.0, 0.8, 1.2)]
_TAIL_S = (0.01, 0.3, 0.6, 0.9, 0.99, 0.999)


def _sphere_tail_s(cutoff, c, radius):
    """The s grid of one sphere table's tail check.

    Near s = 1 the scalar reference runs thousands of terms (about 0.2 s
    per table at s = 0.999), so s = 0.99 is checked at the default cutoff
    only, and s = 0.999 only there on the unit sphere with c = 0.
    """
    grid = list(_TAIL_S[:4])
    if cutoff is None:
        grid.append(0.99)
        if radius == 1.0 and c == 0.0:
            grid.append(0.999)
    return grid


def _assert_table(spec, modes, pairs, grads, gamma):
    got_pair, got_grad = spec.pair_values(*spec.cross_section.points_at_separation(gamma))
    assert len(spec.modes) == len(modes)
    for m, (mu, mult, pair_sup, grad_sup, label) in zip(spec.modes, modes):
        assert (m.mu, m.multiplicity, m.label) == (mu, mult, label)
        assert type(m.multiplicity) is int
        np.testing.assert_allclose([m.pair_sup, m.grad_sup], [pair_sup, grad_sup], rtol=1e-12, atol=0)
    scale = np.max(np.abs(pairs))
    np.testing.assert_allclose(got_pair, pairs, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(got_grad, grads, rtol=1e-12, atol=1e-12 * np.max(np.abs(grads)))


class TestReferenceAlgorithms:
    @pytest.mark.parametrize("d,c,radius", _SPHERES)
    def test_sphere_tables(self, d, c, radius):
        for cutoff in (None, 9.0, 100.0):
            spec = sphere_spectrum(d, radius=radius, c=c, mu_cutoff=cutoff)
            _assert_table(spec, *_ref_sphere_table(d, radius, c, spec.mu_cutoff, 1.1), 1.1)

    @pytest.mark.parametrize("radii", _TORI)
    def test_torus_tables(self, radii):
        spec = torus_spectrum(len(radii) + 1, radii, c=0.3, mu_cutoff=12.0)
        _assert_table(spec, *_ref_torus_table(radii, 0.3, 12.0, 0.9), 0.9)

    @pytest.mark.parametrize("d,c,radius", _SPHERES)
    def test_sphere_tails(self, d, c, radius):
        for cutoff in (None, 9.0, 100.0):
            spec = sphere_spectrum(d, radius=radius, c=c, mu_cutoff=cutoff)
            mu_from = spec.modes[-1].mu
            for s in _sphere_tail_s(cutoff, c, radius):
                got = spec.tail_profile.sum_beyond(s, mu_from)
                want = [_ref_sphere_tail(d, radius, c, s, mu_from, kind) for kind in _KINDS]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"cutoff {cutoff}, s {s}")

    @pytest.mark.parametrize("radii", _TORI)
    def test_torus_tails(self, radii):
        spec = torus_spectrum(len(radii) + 1, radii, c=0.3, mu_cutoff=12.0)
        mu_from = spec.modes[-1].mu
        for s in _TAIL_S:
            got = spec.tail_profile.sum_beyond(s, mu_from)
            want = [_ref_torus_tail(radii, s, mu_from, kind) for kind in _KINDS]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"s {s}")


class TestFileRoundTrip:
    def test_sphere_round_trip(self, tmp_path):
        spec = sphere_spectrum(3, c=0.7, mu_cutoff=9.0)
        path = tmp_path / "sphere.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert loaded.d == spec.d
        assert len(loaded.modes) == len(spec.modes)
        for a, b in zip(spec.modes, loaded.modes):
            assert b.mu == pytest.approx(a.mu, rel=1e-15)
            assert b.multiplicity == a.multiplicity
            assert b.pair_sup == pytest.approx(a.pair_sup, rel=1e-12)
        assert loaded.certifiable
        assert loaded.v0_constant == pytest.approx(0.7)
        # Pair functions agree as functions of the separation.
        cs, lcs = spec.cross_section, loaded.cross_section
        for gamma in [0.0, 0.5, 1.7, 3.0]:
            want, _ = spec.pair_values(*cs.points_at_separation(gamma))
            got, _ = loaded.pair_values(*lcs.points_at_separation(gamma))
            for j in range(len(spec.modes)):
                np.testing.assert_allclose(got[j], want[j], rtol=1e-10, atol=1e-14)

    def test_save_load_save_is_stable(self, tmp_path):
        spec = sphere_spectrum(4, c=-0.1, mu_cutoff=7.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_spectrum(spec, p1)
        save_spectrum(load_spectrum(p1), p2)
        a, b = json.loads(p1.read_text()), json.loads(p2.read_text())
        assert a["d"] == b["d"] and len(a["modes"]) == len(b["modes"])
        for ma, mb in zip(a["modes"], b["modes"]):
            assert mb["mu"] == ma["mu"]  # exact: mu is copied, not recomputed
            assert mb["multiplicity"] == ma["multiplicity"]
            # exact: a loaded spectrum writes its coefficients back unchanged
            assert mb["addition_coeffs"] == ma["addition_coeffs"]

    def test_torus_saves_norms_only(self, tmp_path):
        spec = torus_spectrum(3, [1.0, 0.9], mu_cutoff=4.0)
        path = tmp_path / "torus.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert loaded.norms_only
        assert not loaded.certifiable
        assert [m.mu for m in loaded.modes] == pytest.approx(
            [m.mu for m in spec.modes], rel=1e-15
        )

    def test_file_modes_merge_equal_mu(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "d": 3,
            "v0": "file",
            "modes": [
                {"mu": 1.5, "multiplicity": 2, "addition_coeffs": [0.1]},
                {"mu": 1.5, "multiplicity": 3, "addition_coeffs": [0.0, 0.2]},
                {"mu": 0.5, "multiplicity": 1, "addition_coeffs": [0.08]},
            ],
        }))
        spec = load_spectrum(path)
        assert [m.mu for m in spec.modes] == [0.5, 1.5]
        assert spec.modes[1].multiplicity == 5
        assert spec.modes[1].pair_sup == pytest.approx(0.3)


class TestFileErrors:
    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json at all {")
        with pytest.raises(SpectrumFormatError):
            load_spectrum(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpectrumFormatError):
            load_spectrum(tmp_path / "nope.json")

    @pytest.mark.parametrize("payload", [
        [1, 2, 3],
        {"modes": [{"mu": 1.0, "multiplicity": 1}]},          # no d
        {"d": 3},                                              # no modes
        {"d": 2, "modes": [{"mu": 1.0, "multiplicity": 1}]},   # d too small
        {"d": 3, "modes": []},
        {"d": 3, "modes": [{"multiplicity": 1}]},
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": 0}]},
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": 1.5}]},
        {"d": 3, "v0": 7, "modes": [{"mu": 1.0, "multiplicity": 1}]},
    ])
    def test_malformed_payloads(self, tmp_path, payload):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(SpectrumFormatError):
            load_spectrum(p)

    def test_nonpositive_mu_is_positivity_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"d": 3, "modes": [{"mu": -1.0, "multiplicity": 1}]}))
        with pytest.raises(PositivityError):
            load_spectrum(p)

    def test_merge_conflict(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"d": 3, "modes": [
            {"mu": 1.0, "multiplicity": 1, "addition_coeffs": [0.1]},
            {"mu": 1.0, "multiplicity": 1},
        ]}))
        with pytest.raises(SpectrumFormatError):
            load_spectrum(p)


class TestDerivedTables:
    def test_weyl_fit_sphere_d3(self):
        # Counting function N(mu) = (L+1)^2 at mu = L + 1/2; the ratio
        # N/mu^2 is largest at L = 0, giving exactly 4.
        fit = weyl_fit(sphere_spectrum(3, mu_cutoff=30.0))
        assert fit.c == pytest.approx(4.0, rel=1e-12)
        assert fit.at_mu == pytest.approx(0.5)

    def test_weyl_needs_enough_modes(self):
        with pytest.raises(InsufficientSpectrumError):
            weyl_fit(sphere_spectrum(3, mu_cutoff=2.0))

    def test_leading_modes(self):
        spec = sphere_spectrum(3, mu_cutoff=20.0)
        lead = leading_modes(spec, 2)
        assert len(lead.modes) == 2
        assert lead.certifiable  # complete by construction
        assert lead.tail_profile.sum_beyond(0.3, lead.modes[-1].mu) == (0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            leading_modes(spec, 0)
        for count in (1.5, math.nan):
            with pytest.raises(DomainError):
                leading_modes(spec, count)

    def test_mu1_requires_two_modes(self):
        lead = leading_modes(sphere_spectrum(3), 1)
        with pytest.raises(InsufficientSpectrumError):
            _ = lead.mu1

    def test_descriptor_mentions_shape(self):
        spec = sphere_spectrum(3, c=-0.24)
        text = spec.descriptor()
        assert "d=3" in text and "sphere" in text
