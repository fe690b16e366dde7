"""Cross-section spectra: exact eigendata, tails, file round-trips."""

import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import comb, eval_gegenbauer

from conekit import (
    DomainError,
    InsufficientSpectrumError,
    PositivityError,
    SpectrumFormatError,
    leading_modes,
    load_spectrum,
    save_spectrum,
    sphere_spectrum,
    torus_spectrum,
)
from conekit import spectrum, verify
from conekit.spectrum import TABLE_CEILING, CompleteTail, SphereTail, TailProfile, _mu0_squared

import oracles


class TestMu0Squared:
    # Huge, subnormal and integral floats too.
    C_GRID = [*np.linspace(-6.0, 6.0, 97).tolist(), -0.24, 0.1, 2.0 / 3.0, 1e-300, -1e-300, 1e300, 0.1 + 1e-17,
              1e15, -1e15, 5e-324, -5e-324, 2.2e-308, -1e-310, -1.0, 3.0, 2.0 ** 52 + 1.0, -(2.0 ** 53), -2.25]

    def test_float_c_matches_the_plain_sum_bit_for_bit(self):
        # The sum with an exact Fraction, which Python rounds once, is the plain float sum.
        for d in range(3, 12):
            for c in self.C_GRID:
                got, exact = _mu0_squared(d, c), c + Fraction((d - 2) ** 2, 4)
                assert type(got) is type(exact) is float, (d, c)
                assert got.hex() == exact.hex() == (c + 0.25 * (d - 2) ** 2).hex(), (d, c)

    def test_fraction_c_is_exact(self):
        for d in range(3, 12):
            for c in (Fraction(-1, 3), Fraction(5, 4), Fraction(0), Fraction(-7, 2)):
                got = _mu0_squared(d, c)
                assert type(got) is Fraction and 4 * (got - c) == (d - 2) ** 2, (d, c)


class TestSphereEigendata:
    def test_d3_zero_potential_exact(self):
        spec = sphere_spectrum(3, mu_cutoff=10.0)
        for l, (mu, mult) in enumerate(zip(spec.table.mu, spec.table.mult)):
            assert mu == pytest.approx(l + 0.5, rel=1e-15)
            assert mult == 2 * l + 1
        assert spec.mu0 == pytest.approx(0.5)
        assert spec.mu1 == pytest.approx(1.5)
        assert isinstance(spec.tail_profile, SphereTail)
        assert spec.table.pairs is not None
        assert spec.v0_constant == 0.0

    def test_d4_zero_potential_exact(self):
        spec = sphere_spectrum(4, mu_cutoff=8.0)
        for l, (mu, mult) in enumerate(zip(spec.table.mu, spec.table.mult)):
            assert mu == pytest.approx(l + 1.0, rel=1e-14)
            assert mult == (l + 1) ** 2

    def test_negative_coupling_shifts_mu(self):
        spec = sphere_spectrum(3, c=-0.24)
        assert spec.mu0 == pytest.approx(0.1, rel=1e-12)
        assert spec.mu1 == pytest.approx(math.sqrt(2.01), rel=1e-14)

    def test_radius_scales_eigenvalues(self):
        spec = sphere_spectrum(3, radius=2.0, mu_cutoff=5.0)
        for l, mu in enumerate(spec.table.mu):
            assert mu == pytest.approx(math.sqrt(l * (l + 1) / 4.0 + 0.25), rel=1e-14)

    @pytest.mark.parametrize("d,c", [(3, -0.25), (3, -1.0), (4, -1.0), (5, -9.0)])
    def test_positivity_enforced(self, d, c):
        with pytest.raises(PositivityError):
            sphere_spectrum(d, c=c)

    @pytest.mark.parametrize("c", [5e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("build", [lambda c: sphere_spectrum(3, c=c),
                                       lambda c: torus_spectrum(3, (1.0, 1.3), c=c)], ids=["sphere", "torus"])
    def test_a_coupling_whose_mu0_squared_overflows_is_named(self, build, c):
        # c + ((d-2)/2)^2 overflows in 4c: the error names the coupling, not the cutoff it would poison.
        with pytest.raises(DomainError, match="is too large") as err:
            build(c)
        assert f"coupling c = {c!r}" in str(err.value) and not isinstance(err.value, PositivityError)

    @pytest.mark.parametrize("build, named", [
        (lambda: sphere_spectrum(3, c=2e16), "c = 2e+16 on sphere(dim=2, radius=1)"),
        (lambda: sphere_spectrum(3, radius=1e150), "c = 0.0 on sphere(dim=2, radius=1e+150)"),
        (lambda: torus_spectrum(3, (1.0, 1.3), c=1e20), "c = 1e+20 on torus(radii=(1.0, 1.3))")])
    def test_two_lowest_modes_that_round_to_one_float_are_refused(self, build, named):
        # sqrt(lambda_1 + mu0^2) == mu0, lambda_1 = 2/a^2 on the 2-sphere and 1/max(a_i)^2 on a torus.
        with pytest.raises(DomainError, match="round to one float") as err:
            build()
        assert str(err.value).startswith(named)

    def test_largest_coupling_with_two_lowest_modes_apart(self):
        # c = 1e16 keeps mu1 above mu0 (2e16 does not); the CLI evaluates a kernel there.
        spec = sphere_spectrum(3, c=1e16)
        assert spec.mu1 > spec.mu0 == 1e8

    def test_trace_identity(self):
        # Integrating the eigenspace kernel over the diagonal must give the
        # multiplicity: pair(y, y) * vol = mult for every cluster.
        for d in (3, 4, 6):
            spec = sphere_spectrum(d, mu_cutoff=8.0)
            vol = spec.cross_section.volume
            y, _ = spec.cross_section.points_at_separation(0.0)
            pair, _ = spec.pair_values(y, y)
            for j, mult in enumerate(spec.table.mult):
                np.testing.assert_allclose(
                    pair[j] * vol, mult, rtol=1e-12
                )

    def test_pair_matches_legendre_oracle(self):
        # On S^2 the eigenspace kernel is (2l+1)/(4 pi) P_l(cos gamma).
        spec = sphere_spectrum(3, mu_cutoff=12.0)
        cs = spec.cross_section
        for gamma in [0.0, 0.3, 1.1, 2.6, math.pi]:
            y, yp = cs.points_at_separation(gamma)
            pair, _ = spec.pair_values(y, yp)
            assert len(pair) == len(spec.table.mu)
            for l in range(len(spec.table.mu)):
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
            for j in range(len(spec.table.mu)):
                np.testing.assert_allclose(got[j], (hi[j] - lo[j]) / (2 * h),
                                           rtol=1e-7, atol=1e-9)

    def test_sup_bounds_hold_on_grid(self):
        spec = sphere_spectrum(4, c=-0.2, mu_cutoff=9.0)
        cs = spec.cross_section
        gammas = np.linspace(0.0, math.pi, 181)
        values = [spec.pair_values(*cs.points_at_separation(g)) for g in gammas]
        worst_pair = np.max([np.abs(pair) for pair, _ in values], axis=0)
        worst_grad = np.max([np.abs(grad) for _, grad in values], axis=0)
        for j, (pair_sup, grad_sup) in enumerate(zip(spec.table.pair_sup, spec.table.grad_sup)):
            assert worst_pair[j] <= pair_sup * (1 + 1e-12)
            assert worst_grad[j] <= grad_sup * (1 + 1e-12)

    def test_modes_sorted_and_cutoff_respected(self):
        spec = sphere_spectrum(3, mu_cutoff=25.0)
        mus = spec.table.mu.tolist()
        assert mus == sorted(mus)
        assert mus[-1] <= 25.0 < mus[-1] + 1.0


class TestInvariants:
    """What every spectrum carries, checked once, when it is built."""

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("build", [lambda cut: sphere_spectrum(3, mu_cutoff=cut),
                                       lambda cut: torus_spectrum(3, [1.0, 1.3], mu_cutoff=cut)],
                             ids=["sphere", "torus"])
    def test_cutoff_must_be_finite_and_positive(self, build, cutoff):
        with pytest.raises(DomainError, match="mu_cutoff"):
            build(cutoff)

    @pytest.mark.parametrize("build, named", [
        (lambda: torus_spectrum(3, [1.0, 1.3], c=1e10), "d = 3, c = 10000000000.0 on torus(radii=(1.0, 1.3)): "
         "the base table up to mu_cutoff = 100030.00000125 enumerates 3.12017e+07 entries"),
        (lambda: sphere_spectrum(3, radius=1e6), "d = 3, c = 0.0 on sphere(dim=2, radius=1e+06): "
         "the base table up to mu_cutoff = 40.0 enumerates 3.99969e+07 entries"),
    ], ids=["torus-c1e10", "sphere-radius1e6"])
    def test_base_table_past_the_limit_is_refused(self, build, named):
        # The entries are counted before any is built: the refusal allocates no table.
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=re.escape(named)):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("build, error, message", [
        (lambda: replace(sphere_spectrum(3), table=sphere_spectrum(3).table.head(0)), InsufficientSpectrumError,
         "spectrum has no modes"),
        (lambda: replace(sphere_spectrum(3), table=replace(sphere_spectrum(3).table, mu=np.arange(3.0, 0.0, -1.0))),
         DomainError, "modes must be sorted strictly ascending in mu"),
        (lambda: sphere_spectrum(3, mu_cutoff=0.25), InsufficientSpectrumError,
         "mu_cutoff = 0.25 lies below the bottom mode mu0 = 0.5"),
        (lambda: torus_spectrum(3, [1.0, 1.3], mu_cutoff=0.25), InsufficientSpectrumError,
         "mu_cutoff = 0.25 lies below the bottom mode mu0 = 0.5"),
    ], ids=["no-modes", "unsorted-modes", "sphere-cutoff-below-mu0", "torus-cutoff-below-mu0"])
    def test_a_table_without_an_ordered_bottom_mode_is_refused(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()

    def test_pair_functions_need_a_tail_profile(self):
        for spec in (sphere_spectrum(3), torus_spectrum(3, [1.0, 1.3])):
            with pytest.raises(DomainError, match="tail profile"):
                replace(spec, tail_profile=None)

    def test_every_spectrum_needs_a_cross_section(self):
        with pytest.raises(DomainError, match="cross-section"):
            replace(sphere_spectrum(3), cross_section=None)

    def test_norms_only_file_needs_no_tail_profile(self, tmp_path):
        p = tmp_path / "norms.json"
        p.write_text(json.dumps({"d": 3, "modes": [{"mu": 0.5, "multiplicity": 1},
                                                    {"mu": 1.5, "multiplicity": 3}]}))
        spec = load_spectrum(p)
        assert spec.table.pairs is None and spec.tail_profile is None
        with pytest.raises(DomainError, match="cross-section"):
            replace(spec, cross_section=None)


class TestTorusEigendata:
    def test_square_torus_matches_lattice_count(self):
        spec = torus_spectrum(3, [1.0, 1.0], mu_cutoff=5.0)
        evals = oracles.torus_eigenvalues_below([1.0, 1.0], 5.0 ** 2 - 0.25)
        # Expand the mode table back into an eigenvalue multiset.
        got = []
        for mu, mult in zip(spec.table.mu, spec.table.mult):
            lam = mu ** 2 - 0.25  # c = 0, d = 3 shift
            got.extend([lam] * mult)
        np.testing.assert_allclose(sorted(got), evals, rtol=1e-12, atol=1e-12)

    def test_known_low_modes(self):
        spec = torus_spectrum(3, [1.0, 1.0], mu_cutoff=3.0)
        assert spec.mu0 == pytest.approx(0.5)
        assert spec.table.mult[0] == 1
        assert spec.mu1 == pytest.approx(math.sqrt(1.25), rel=1e-14)
        assert spec.table.mult[1] == 4
        # lambda = 2: (+-1, +-1) -> multiplicity 4
        assert spec.table.mu[2] == pytest.approx(1.5, rel=1e-14)
        assert spec.table.mult[2] == 4

    def test_accidental_degeneracy_merged(self):
        # On radii (1, 1/2): lambda = 4 arises as (+-2, 0) and (0, +-1).
        spec = torus_spectrum(3, [1.0, 0.5], mu_cutoff=2.5)
        lam4 = [mult for mu, mult in zip(spec.table.mu, spec.table.mult) if abs(mu ** 2 - 0.25 - 4.0) < 1e-9]
        assert lam4 == [4]

    def test_trace_identity(self):
        spec = torus_spectrum(4, [1.0, 1.3, 0.7], c=0.3, mu_cutoff=4.0)
        vol = spec.cross_section.volume
        y, _ = spec.cross_section.points_at_separation(0.0)
        pair, _ = spec.pair_values(y, y)
        for j, mult in enumerate(spec.table.mult):
            np.testing.assert_allclose(pair[j] * vol, mult,
                                       rtol=1e-12)

    def test_dimension_consistency(self):
        with pytest.raises(DomainError):
            torus_spectrum(3, [1.0, 1.0, 1.0])  # 3-torus needs d = 4


_KINDS = ("pair_over_2mu", "pair", "grad_over_2mu")


class TestTails:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_sphere_tail_dominates_brute_force(self, kind):
        # Brute force from the exact per-degree formulas, summed to
        # convergence.  On the unit sphere with c = 0 the closed form is the
        # exact tail, up to its 1e-12 rounding margin (measured: 1.0e-12 above).
        # mu_from runs at the table top, between the last two modes and below mu0.
        row = _KINDS.index(kind)
        for d, s, start in itertools.product((3, 5, 6), (0.3, 0.9, 0.99), range(3)):
            shallow = sphere_spectrum(d, mu_cutoff=20.0)
            vol, nu = shallow.cross_section.volume, (d - 2) / 2
            top, below = shallow.table.mu[-1], shallow.table.mu[-2]
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
            bound = math.exp(shallow.tail_profile.log_sum_beyond(s, mu_from)[row])
            assert brute <= bound <= (1 + 2e-6) * brute, (d, s, start)

    @pytest.mark.parametrize("d,radius,c", [(3, 1.0, 0.0), (4, 2.0, 1.0), (5, 0.7, -1.2), (3, 1.5, -0.2)])
    def test_integral_tails_dominate_brute_force(self, d, radius, c):
        # The lambda-integral's kinds, pair/sqrt(mu), pair sqrt(mu) and
        # grad/sqrt(mu), brute-forced from the exact per-degree formulas.  Their
        # closed forms go through Cauchy-Schwarz, never exact: measured at most
        # 7.8% above the brute force past the table (R^3 at s = 0.99), and 25.7x
        # from below mu0 (d = 4, c = 1, radius 2, s = 0.99), where every degree
        # is in the tail and the first gap, 0.24 against 1/radius = 0.5, sets
        # the geometric rate of all of them.
        for s, start in itertools.product((0.3, 0.9, 0.99), range(2)):
            shallow = sphere_spectrum(d, radius=radius, c=c, mu_cutoff=20.0)
            vol, nu = shallow.cross_section.volume, (d - 2) / 2
            mu_from = (shallow.table.mu[-1], shallow.mu0 / 2)[start]
            brute, l, last = np.zeros(3), 0, np.full(3, math.inf)
            while True:
                mu = math.sqrt(l * (l + d - 2) / radius ** 2 + c + nu ** 2)
                if mu > mu_from:
                    p = (math.comb(l + d - 1, d - 1) - math.comb(l + d - 3, d - 1)) / vol
                    g = p * l * (l + d - 2) / ((d - 1) * radius)
                    terms = np.array([p / math.sqrt(mu), p * math.sqrt(mu), g / math.sqrt(mu)]) * s ** mu
                    brute += terms
                    if l > 10 and np.all((0 < terms) & (terms < np.minimum(last, 1e-18 * brute))):
                        break
                    last = terms
                l += 1
            bound = np.exp(shallow.tail_profile.log_sum_beyond(s, mu_from, slice(3, 6)))
            assert np.all(brute <= bound) and np.all(bound <= (1.08, 26.0)[start] * brute), (d, s, start)

    @pytest.mark.parametrize("s", [0.9999, 0.99999])
    def test_sphere_tail_near_one_matches_closed_form(self, s):
        # On R^3 (mu_l = l + 1/2, N_l = 2l + 1, vol = 4 pi) the three tails
        # past degree L are closed-form series in s.  Near s = 1 they run to
        # millions of degrees; the bound reads none of them, in bounded memory.
        spec = sphere_spectrum(3)
        L, c = len(spec.table.mu), 1 - s
        s0 = s ** L / c  # sum_{l >= L} s^l, then with weights l and l(l+1)
        s1 = s ** L * (L * c + s) / c ** 2
        s2 = s ** L * (L * (L + 1) * c ** 2 + 2 * (L + 1) * s * c + 2 * s ** 2) / c ** 3
        exact = np.array([s0, 2 * s1 + s0, s2 / 2]) * math.sqrt(s) / (4 * math.pi)
        tracemalloc.start()
        try:
            bound = np.exp(spec.tail_profile.log_sum_beyond(s, spec.table.mu[-1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1e-12: rounding over millions of summed terms
        assert np.all(exact * (1 - 1e-12) <= bound) and np.all(bound <= (1 + 2e-6) * exact)
        assert peak < 50e6

    def test_torus_tail_dominates_brute_force(self):
        spec = torus_spectrum(3, [1.0, 0.8], mu_cutoff=40.0)
        shallow = torus_spectrum(3, [1.0, 0.8], mu_cutoff=8.0)
        mu_from = shallow.table.mu[-1]
        table = spec.table
        for s in (0.2, 0.9):
            brute = sum(
                mult / spec.cross_section.volume / (2 * mu) * s ** mu
                for mu, mult in zip(table.mu, table.mult) if mu > mu_from
            )
            bound = math.exp(shallow.tail_profile.log_sum_beyond(s, mu_from)[0])
            assert brute <= bound
            # Every kind, from the modes' exact sups (the lambda-integral's three rise or fall with mu).
            brute = sum(TailProfile.weights(mu, pair_sup, grad_sup) * s ** mu
                        for mu, pair_sup, grad_sup in zip(table.mu, table.pair_sup, table.grad_sup) if mu > mu_from)
            assert np.all(brute <= np.exp(shallow.tail_profile.log_sum_beyond(s, mu_from, slice(0, 6))))

    def test_torus_tail_far_below_double_range(self):
        # Past mu = 112.3 at s = 1e-6 every s**mu underflows (about 1e-674).
        # The closed form keeps s**112.3 as a log, so the tail's log stays
        # finite; there the first shell, whose s-power is s**112.3, is all
        # but the whole sum, at s = 1e-3 as at s = 1e-6.
        tail = torus_spectrum(3, [1.0, 1.3]).tail_profile
        tiny, small = tail.log_sum_beyond(1e-6, 112.3), tail.log_sum_beyond(1e-3, 112.3)
        assert all(math.isfinite(v) for v in tiny) and not np.exp(tiny).any()
        np.testing.assert_allclose(np.subtract(tiny, small), 112.3 * math.log(1e-3), atol=1e-2)

    def test_tail_sums_check_fails_with_bounds_scaled_by_0_9(self, monkeypatch):
        # The verify check bessel.tail-sums passes, and fails on the spheres
        # and the torus's shell series once each bound is scaled by 0.9 (the
        # torus's modes, a partial sum of its true tail, sit far below it).
        def check():
            return next(r for r in verify.run_suite("bessel").results if r.name == "bessel.tail-sums")

        assert check().passed, check().detail
        log_sum_beyond = TailProfile.log_sum_beyond
        monkeypatch.setattr(TailProfile, "log_sum_beyond", lambda self, *args: tuple(
            v + math.log(0.9) for v in log_sum_beyond(self, *args)))
        result = check()
        head = result.detail.split(";")[0]
        assert not result.passed and head.startswith("broken: "), result.detail
        assert [name for name in verify._tail_sums() if name not in head] == ["torus (1, 1.3) modes"], head

    def test_tail_rejects_s_at_one(self):
        spec = sphere_spectrum(3)
        with pytest.raises(DomainError):
            spec.tail_profile.log_sum_beyond(1.0, 40.0)


# ----------------------------------------------------------------------
# Reference algorithms: the per-degree and per-lattice-vector table
# builds that the vector code replaced, and the tails summed term by term.
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


def _ref_sphere_tail(d, radius, c, s, mu_from):
    """The resolvent kinds' tails past mu_from, summed degree by degree from the dimension formula."""
    vol = sphere_spectrum(d, radius=radius, c=c).cross_section.volume
    nu = (d - 2) / 2
    # Past mu_from + 60/|log s| every term is below e^{-60} of the first.
    l = np.arange(0.0, int(radius * (mu_from + 60.0 / -math.log(s))) + 2 * d)
    mu = np.sqrt(l * (l + d - 2) / radius ** 2 + c + nu ** 2)
    p = (comb(l + d - 1, d - 1) - comb(l + d - 3, d - 1)) / vol
    weights = np.array([p / (2 * mu), p, p * l * (l + d - 2) / ((d - 1) * radius) / (2 * mu)])
    return (weights * s ** mu)[:, mu > mu_from * (1 + 1e-15)].sum(axis=1)


def _ref_torus_tail(radii, s, mu_from):
    """The resolvent kinds' shell series of TorusTail, summed shell by shell.

    Shell k >= 0 holds at most box(mu_from + k + 1) modes, each weighted at
    most s**(mu_from + k) times the kind's weight at pair_sup = 1/vol and
    grad_sup = mu/vol, taken at mu = mu_from.
    """
    vol = math.prod(2 * math.pi * a for a in radii)
    k = np.arange(0.0, 60.0 / -math.log(s) + 100.0)
    box = np.prod([2 * a * (mu_from + k + 1) + 3 for a in radii], axis=0)
    total = (box * s ** (mu_from + k)).sum() / vol
    return np.array([total / (2 * mu_from), total, total / 2])


_SPHERES = [(d, c, radius) for d, c_neg in ((3, -0.15), (4, -0.6), (5, -1.2), (6, -2.4))
            for c in (0.0, c_neg, 1.0) for radius in (0.7, 1.0, 2.0)]
_TORI = [(1.0, 1.3), (1.0, 1.0), (1.0, math.sqrt(2)), (1.0, 0.8, 1.2)]
_TAIL_S = (0.01, 0.3, 0.6, 0.9, 0.99, 0.999)


def _assert_table(spec, modes, pairs, grads, gamma):
    got_pair, got_grad = spec.pair_values(*spec.cross_section.points_at_separation(gamma))
    table = spec.table
    assert len(table.mu) == len(modes)
    for j, (mu, mult, pair_sup, grad_sup, label) in enumerate(modes):
        assert (table.mu[j], table.mult[j], table.labels()[j]) == (mu, mult, label)
        np.testing.assert_allclose([table.pair_sup[j], table.grad_sup[j]], [pair_sup, grad_sup], rtol=1e-12, atol=0)
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
        # The closed form bounds the exact tail.  On the unit sphere with
        # c = 0 it is the exact tail, up to its 1e-12 rounding margin
        # (measured: 1.5e-12 above the reference).  Elsewhere it is looser
        # where |kappa| = |radius^2 mu0^2 - ((d-2)/2)^2| is not small against
        # the first degree past the table: measured at most 14.7% above, at
        # cutoff 9 (d = 6, c = 1, radius 2), and below 1% at the default cutoff.
        upper = 1 + 1e-11 if (c, radius) == (0.0, 1.0) else 1.15
        for cutoff in (None, 9.0, 100.0):
            spec = sphere_spectrum(d, radius=radius, c=c, mu_cutoff=cutoff)
            mu_from = spec.table.mu[-1]
            for s in _TAIL_S:
                got = np.exp(spec.tail_profile.log_sum_beyond(s, mu_from))
                want = _ref_sphere_tail(d, radius, c, s, mu_from)
                assert np.all(want <= got) and np.all(got <= upper * want), (cutoff, s, got / want)

    @pytest.mark.parametrize("radii", _TORI)
    def test_torus_tails(self, radii):
        spec = torus_spectrum(len(radii) + 1, radii, c=0.3, mu_cutoff=12.0)
        mu_from = spec.table.mu[-1]
        for s in _TAIL_S:
            got = np.exp(spec.tail_profile.log_sum_beyond(s, mu_from))
            want = _ref_torus_tail(radii, s, mu_from)
            assert np.all(want <= got), s  # the closed form of the same series, with its 1e-12 margin
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0, err_msg=f"s {s}")


class TestFileRoundTrip:
    def test_sphere_round_trip(self, tmp_path):
        spec = sphere_spectrum(3, c=0.7, mu_cutoff=9.0)
        path = tmp_path / "sphere.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert loaded.d == spec.d
        a, b = spec.table, loaded.table
        assert len(b.mu) == len(a.mu)
        for j in range(len(a.mu)):
            assert b.mu[j] == pytest.approx(a.mu[j], rel=1e-15)
            assert b.mult[j] == a.mult[j]
            assert b.pair_sup[j] == pytest.approx(a.pair_sup[j], rel=1e-12)
        assert isinstance(loaded.tail_profile, CompleteTail) and loaded.table.pairs is not None
        assert loaded.v0_constant == pytest.approx(0.7)
        # Pair functions agree as functions of the separation.
        cs, lcs = spec.cross_section, loaded.cross_section
        for gamma in [0.0, 0.5, 1.7, 3.0]:
            want, _ = spec.pair_values(*cs.points_at_separation(gamma))
            got, _ = loaded.pair_values(*lcs.points_at_separation(gamma))
            for j in range(len(spec.table.mu)):
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

    @pytest.mark.parametrize("d", [3, 5])
    def test_sphere_pairs_survive_a_file(self, d, tmp_path):
        # R^3 and R^5: the saved coefficients give back the provider's pair
        # values, to 1e-13 of each mode's sup.
        spec = sphere_spectrum(d)
        path = tmp_path / "sphere.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        for gamma in [0.0, 0.3, 0.9, 1.4, 2.0, 2.6, math.pi]:
            want, _ = spec.pair_values(*spec.cross_section.points_at_separation(gamma))
            got, _ = loaded.pair_values(*loaded.cross_section.points_at_separation(gamma))
            assert (np.abs(got - want) <= 1e-13 * spec.table.pair_sup).all()

    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    def test_sphere_coefficients_match_gegenbauer(self, d, tmp_path):
        # Degree l saves its l + 1 cosine coefficients, whose series is
        # pair_sup_l C_l^nu(cos gamma) / C_l^nu(1), nu = (d-2)/2, to 1e-15 of
        # pair_sup_l against mpmath (the series summed in 30 digits).
        spec = sphere_spectrum(d, mu_cutoff=40.0)
        save_spectrum(spec, tmp_path / "sphere.json")
        saved = json.loads((tmp_path / "sphere.json").read_text())["modes"]
        nu = mp.mpf(d - 2) / 2
        with mp.workdps(30):
            for l, (mode, sup) in enumerate(zip(saved, spec.table.pair_sup.tolist())):
                coeffs = mode["addition_coeffs"]
                assert len(coeffs) == l + 1
                for gamma in (mp.mpf(0.3), mp.mpf(1.1), mp.mpf(2.9)):
                    want = sup * mp.gegenbauer(l, nu, mp.cos(gamma)) / mp.gegenbauer(l, nu, 1)
                    got = mp.fsum(c * mp.cos(k * gamma) for k, c in enumerate(coeffs))
                    assert abs(got - want) <= 1e-15 * sup

    def test_leading_modes_round_trip(self, tmp_path):
        spec = leading_modes(sphere_spectrum(3, c=-0.24), 2)
        path = tmp_path / "leading.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert loaded.v0_descriptor == "constant:-0.24|leading:2"
        assert loaded.v0_constant == -0.24
        assert loaded.table.mu.tolist() == spec.table.mu.tolist()

    @pytest.mark.parametrize("build", [lambda: sphere_spectrum(4, radius=1.3, c=0.6),
                                       lambda: torus_spectrum(3, [1.0, 0.9], c=-0.2, mu_cutoff=4.0)],
                             ids=["sphere", "torus"])
    def test_saved_constant_potentials_load(self, build, tmp_path):
        spec = build()
        path = tmp_path / "saved.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert loaded.v0_constant == spec.v0_constant and loaded.mu0 == spec.mu0

    def test_torus_saves_norms_only(self, tmp_path):
        spec = torus_spectrum(3, [1.0, 0.9], mu_cutoff=4.0)
        path = tmp_path / "torus.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert loaded.table.pairs is None
        assert loaded.tail_profile is None
        assert loaded.table.mu.tolist() == pytest.approx(
            spec.table.mu.tolist(), rel=1e-15
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
        assert spec.table.mu.tolist() == [0.5, 1.5]
        assert spec.table.mult[1] == 5
        assert spec.table.pair_sup[1] == pytest.approx(0.3)


_MIXED_FILE = {"d": 4, "v0": "constant:1.25", "modes": [
    {"mu": 1.5, "multiplicity": 1, "addition_coeffs": [0.25]},
    {"mu": 2.0, "multiplicity": 4},
    {"mu": 3.0, "multiplicity": 2, "addition_coeffs": [0.0, 0.5]},
    {"mu": 3.5, "multiplicity": 6}]}


class TestSavedBytes:
    """``save_spectrum`` output, byte for byte: json.dump(indent=1) of these payloads."""

    @staticmethod
    def _saved(spec, tmp_path):
        path = tmp_path / "saved.json"
        save_spectrum(spec, path)
        return path.read_text()

    @staticmethod
    def _bytes(d, v0, modes):
        return json.dumps({"d": d, "v0": v0, "modes": modes}, indent=1) + "\n"

    def test_sphere(self, tmp_path):
        assert self._saved(sphere_spectrum(3, mu_cutoff=3.0), tmp_path) == self._bytes(3, "constant:0.0", [
            {"mu": 0.5, "multiplicity": 1, "addition_coeffs": [0.07957747154594767]},
            {"mu": 1.5, "multiplicity": 3, "addition_coeffs": [0.0, 0.238732414637843]},
            {"mu": 2.5, "multiplicity": 5, "addition_coeffs": [0.0994718394324346, 0.0, 0.2984155182973038]}])

    def test_torus(self, tmp_path):
        assert self._saved(torus_spectrum(3, [1.0, 1.0], mu_cutoff=3.0), tmp_path) == self._bytes(
            3, "constant:0.0", [
                {"mu": 0.5, "multiplicity": 1}, {"mu": 1.118033988749895, "multiplicity": 4},
                {"mu": 1.5, "multiplicity": 4}, {"mu": 2.0615528128088303, "multiplicity": 4},
                {"mu": 2.29128784747792, "multiplicity": 8}, {"mu": 2.8722813232690143, "multiplicity": 4}])

    def test_mixed_file_resaves_unchanged(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(_MIXED_FILE))
        assert self._saved(load_spectrum(path), tmp_path) == self._bytes(**_MIXED_FILE)


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
        {"d": 3, "modes": [{"mu": True, "multiplicity": 1}]},           # JSON true is not a number
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": True}]},
        {"d": 3, "modes": [{"mu": "2.5", "multiplicity": 1}]},          # nor is a string
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": 1, "addition_coeffs": [0.1, True]}]},
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": 1, "addition_coeffs": ["0.1"]}]},
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": 1, "addition_coeffs": []}]},
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": 1, "addition_coeffs": [math.inf]}]},
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": math.inf}]},     # written as Infinity
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": math.nan}]},     # written as NaN
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": -math.inf}]},
        {"d": 3, "modes": [{"mu": 1.0, "multiplicity": -1}]},
        {"d": 3, "v0": "constant:inf", "modes": [{"mu": 0.5, "multiplicity": 1}]},
        {"d": 3, "v0": "constant:nan", "modes": [{"mu": 0.5, "multiplicity": 1}]},
        {"d": 3, "v0": "constant:abc", "modes": [{"mu": 0.5, "multiplicity": 1}]},
        {"d": 3, "modes": [{"mu": 0.5, "multiplicity": 1}, 1.5]},       # a mode that is not an object
    ])
    def test_malformed_payloads(self, tmp_path, payload):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(SpectrumFormatError):
            load_spectrum(p)

    @pytest.mark.parametrize("mu0, ok", [(0.6, False), (0.5 * (1.0 + 2e-12), False), (0.5 * (1.0 + 5e-13), True)])
    def test_constant_v0_fixes_the_bottom_mode(self, tmp_path, mu0, ok):
        # V0 = 0 in d = 3 makes mu0^2 = c + (d-2)^2/4 = 1/4; the bottom mode must agree to 1e-12.
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"d": 3, "v0": "constant:0", "modes": [
            {"mu": mu0, "multiplicity": 1}, {"mu": 1.5, "multiplicity": 3}]}))
        if ok:
            assert load_spectrum(p).mu0 == mu0
        else:
            with pytest.raises(SpectrumFormatError, match="bottom mode"):
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
    def test_leading_modes(self):
        spec = sphere_spectrum(3, mu_cutoff=20.0)
        lead = leading_modes(spec, 2)
        assert len(lead.table.mu) == 2
        assert isinstance(lead.tail_profile, CompleteTail) and lead.table.pairs is not None  # complete by construction
        assert lead.tail_profile.log_sum_beyond(0.3, lead.table.mu[-1]) == (-math.inf,) * 3
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


class TestGrownTables:
    @pytest.mark.parametrize("build", [lambda: sphere_spectrum(3), lambda: sphere_spectrum(3, c=-0.24),
                                       lambda: torus_spectrum(3, [1.0, 1.3])], ids=["R3", "S2-c-0.24", "torus"])
    def test_chunks_at_most_double_the_modes_read(self, build):
        # Chunk 0 is the base table; the chunks are consecutive, each later
        # one holds at most as many entries as all before it, and the last
        # ends at the ceiling or where the grown table stops.  Read together,
        # they are one pairs pass over the grown table.
        spec = build()
        gamma = 1.0
        y, yp = spec.cross_section.points_at_separation(gamma)
        chunks = list(spec.chunks(y, yp, gamma, True))
        sizes = [mu.size for mu, *_ in chunks]
        assert sizes[0] == spec.table.mu.size
        assert all(0 < size <= sum(sizes[:k]) for k, size in enumerate(sizes) if k), sizes
        table, total = spec.grown(float(chunks[-1][0][-1])), sum(sizes)
        assert total == TABLE_CEILING or total == table.mu.size, (total, table.mu.size)
        pair, grad, _ = table.pairs(y, yp, gamma, 0, total, None, True)
        mu, pairs, grads = (np.concatenate([chunk[i] for chunk in chunks]) for i in range(3))
        assert mu.tolist() == table.mu[:total].tolist()
        assert np.concatenate([chunk[3] for chunk in chunks], axis=1).tolist() == table.log_weights[:, :total].tolist()
        assert pairs.tolist() == pair.tolist() and grads.tolist() == grad.tolist()

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_gegenbauer_recurrence_against_mpmath(self, d):
        # 2500 degrees by the recurrence, chunk after chunk, against 40-digit
        # values: the unnormalized three-term recurrence at every fifth degree,
        # and mpmath's gegenbauer at the last.  Errors are measured against each
        # mode's sup bounds, the scale the tail bounds use.
        spec = sphere_spectrum(d)
        table = spec.grown(2500.0)
        n = table.mu.size
        assert n >= 2498 and spec.grown(100.0) is table  # kept, and serving smaller cutoffs
        nu = mp.mpf(d - 2) / 2
        vol = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        for gamma in (1e-3, math.pi / 2, math.pi - 1e-3):
            y, yp = spec.cross_section.points_at_separation(gamma)
            pair, grad, state = table.pairs(y, yp, gamma, 0, 700, None)
            rest = table.pairs(y, yp, gamma, 700, n, state)
            pair, grad = np.concatenate((pair, rest[0])), np.concatenate((grad, rest[1]))
            whole = table.pairs(y, yp, gamma, 0, n, None)
            assert (pair == whole[0]).all() and (grad == whole[1]).all()
            x = mp.cos(gamma)
            gegen = {}
            for alpha in (nu, nu + 1):
                c = [mp.mpf(1), 2 * alpha * x]
                for k in range(2, n):
                    c.append((2 * x * (k + alpha - 1) * c[-1] - (k + 2 * alpha - 2) * c[-2]) / k)
                gegen[alpha] = c
            last = n - 1
            assert abs(gegen[nu][last] - mp.gegenbauer(last, nu, x)) <= mp.mpf(10) ** -25 * abs(mp.gegenbauer(last, nu, 1))
            for l in [*range(0, n, 5), n - 1]:
                norm = table.mult[l] / (vol * mp.binomial(l + 2 * nu - 1, l))
                want_pair = float(norm * gegen[nu][l])
                want_grad = float(-norm * 2 * nu * mp.sin(gamma) * gegen[nu + 1][l - 1]) if l else 0.0
                # Rounding accumulates along the recurrence, most near x = +-1:
                # 1.7e-11 of the sup at degree 2500 (the same as scipy's values).
                assert abs(pair[l] - want_pair) <= 2e-14 * (l + 1) * table.pair_sup[l], (d, gamma, l)
                assert abs(grad[l] - want_grad) <= 1e-12 * max(table.grad_sup[l], table.pair_sup[l]), (d, gamma, l)

    def test_base_table_is_the_grown_prefix(self):
        for spec in (sphere_spectrum(4, radius=0.7, c=0.3), torus_spectrum(3, [1.0, 1.3])):
            table = spec.grown(2.0 * spec.mu_cutoff)
            n = len(spec.table.mu)
            assert table.mu.size > n
            assert table.mu[:n].tolist() == spec.table.mu.tolist()
            assert table.mult[:n].tolist() == spec.table.mult.tolist()
            y, yp = spec.cross_section.points_at_separation(0.9)
            pair, grad = spec.pair_values(y, yp)
            got = table.pairs(y, yp, spec.cross_section.distance(y, yp), 0, n, None)
            assert (got[0] == pair).all() and (got[1] == grad).all()

    @pytest.mark.parametrize("source", ["sphere3", "sphere5", "torus", "file"])
    def test_short_ranges_continue_the_whole_table(self, source, tmp_path):
        # One- and two-mode ranges, each continuing the one before, equal the
        # matching slices of the whole table, pairs and gradients alike.  A
        # one-degree sphere range asks the gradient recurrence for no degree.
        if source == "file":
            save_spectrum(sphere_spectrum(3), tmp_path / "s.json")
            spec = load_spectrum(tmp_path / "s.json")
            table = spec.table
        else:
            spec = {"sphere3": sphere_spectrum(3), "sphere5": sphere_spectrum(5),
                    "torus": torus_spectrum(3, [1.0, 1.3])}[source]
            table = spec.grown(100.0)
        n = table.mu.size
        gamma = 1.0
        y, yp = spec.cross_section.points_at_separation(gamma)
        whole = table.pairs(y, yp, gamma, 0, n, None)
        first = table.pairs(y, yp, gamma, 0, 1, None)
        ranges = {(0, 1): first, (1, 2): table.pairs(y, yp, gamma, 1, 2, first[2]),
                  (0, 2): table.pairs(y, yp, gamma, 0, 2, None)}
        for (lo, hi), (pair, grad, _) in ranges.items():
            assert pair.tolist() == whole[0][lo:hi].tolist(), (lo, hi)
            assert grad.tolist() == whole[1][lo:hi].tolist(), (lo, hi)

    def test_only_provider_tables_grow(self, tmp_path):
        spec = sphere_spectrum(3)
        assert leading_modes(spec, 3).grown(100.0) is None
        save_spectrum(spec, tmp_path / "s.json")
        assert load_spectrum(tmp_path / "s.json").grown(100.0) is None
        # Past the ceiling a sphere table stops at 2**16 degrees.
        assert spec.grown(70000.0).mu.size == TABLE_CEILING
        assert sphere_spectrum(3).grown(1e12).mu.size == TABLE_CEILING

    @pytest.mark.parametrize("radii", [[1.0, 1.0, 1.0], [1.0, 1.3]])
    def test_torus_table_stops_at_the_largest_box(self, radii):
        # A torus table whose lattice box would pass the ceiling holds the
        # complete clusters of the largest box under it: the same table as
        # one built to its top mode without a limit.  A box of about 1e24
        # vectors (mu_max = 1e12) is counted in floats, not wrapped in int64.
        spec = torus_spectrum(len(radii) + 1, radii)
        cut = spec.grown(1e12)
        assert cut.mult.sum() <= TABLE_CEILING and cut.mu[-1] > 19.9
        assert torus_spectrum(len(radii) + 1, radii).grown(spec.mu_cutoff * 4).mu.tolist() == cut.mu.tolist()
        whole = spec.tail_profile.table(float(cut.mu[-1]))
        assert whole.mu.tolist() == cut.mu.tolist() and whole.mult.tolist() == cut.mult.tolist()
        # One layer more would pass the ceiling.
        lam_top = float(cut.mu[-1]) ** 2 - spec.mu0 ** 2
        assert math.prod(2 * math.floor(a * math.sqrt(lam_top)) + 3 for a in radii) > TABLE_CEILING

    def test_sphere_tail_reads_no_table(self, monkeypatch):
        # The tail is a closed form in the first degree past mu_from: no call
        # builds a degree row, past the ceiling too.  The largest grown table
        # is kept on the spectrum and serves every smaller mu_max.
        spec = sphere_spectrum(3)
        table, top = spec.grown(500.0), float(spec.grown(1e12).mu[-1])
        monkeypatch.setattr(spectrum, "_sphere_modes", None)  # a call would raise TypeError
        for s, mu_from in ((0.2, 400.0), (0.9999, top), (1 - 1e-15, top)):
            assert all(math.isfinite(v) for v in spec.tail_profile.log_sum_beyond(s, mu_from, slice(0, 6)))
        assert spec.grown(400.0) is spec.grown(1e12)
        assert table.mu.tolist() == spec.grown(1e12).mu[:table.mu.size].tolist()

    @pytest.mark.parametrize("spec", [sphere_spectrum(3, c=0.4), torus_spectrum(3, [1.0, 1.3])])
    def test_sum_beyond_kinds_are_a_prefix(self, spec):
        # Any slice of the kinds, a prefix or the lambda-integral's three, is
        # the same entries of the pass over all six.
        mu_from = spec.table.mu[-1]
        for s in (0.2, 0.9):
            every = spec.tail_profile.log_sum_beyond(s, mu_from, slice(0, 6))
            assert spec.tail_profile.log_sum_beyond(s, mu_from) == every[:3]
            for kinds in (slice(0, 1), slice(0, 2), slice(3, 6), slice(4, 5)):
                assert spec.tail_profile.log_sum_beyond(s, mu_from, kinds) == every[kinds]
