"""Cross-section spectra: exact eigendata, tails, file round-trips."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

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


class TestTails:
    @pytest.mark.parametrize("kind", ["pair_over_2mu", "pair", "grad_over_2mu"])
    def test_sphere_tail_dominates_brute_force(self, kind):
        spec = sphere_spectrum(3, mu_cutoff=200.0)
        shallow = sphere_spectrum(3, mu_cutoff=20.0)
        s = 0.3
        mu_from = shallow.modes[-1].mu
        brute = 0.0
        for m in spec.modes:
            if m.mu <= mu_from:
                continue
            if kind == "pair_over_2mu":
                coef = m.multiplicity / spec.cross_section.volume / (2 * m.mu)
            elif kind == "pair":
                coef = m.multiplicity / spec.cross_section.volume
            else:
                coef = m.grad_sup / (2 * m.mu)
            brute += coef * s ** m.mu
        bound = shallow.tail_profile.sum_beyond(s, mu_from, kind)
        assert brute <= bound <= max(100.0 * brute, 1e-300)

    def test_torus_tail_dominates_brute_force(self):
        spec = torus_spectrum(3, [1.0, 0.8], mu_cutoff=40.0)
        shallow = torus_spectrum(3, [1.0, 0.8], mu_cutoff=8.0)
        s = 0.2
        mu_from = shallow.modes[-1].mu
        brute = sum(
            m.multiplicity / spec.cross_section.volume / (2 * m.mu) * s ** m.mu
            for m in spec.modes if m.mu > mu_from
        )
        bound = shallow.tail_profile.sum_beyond(s, mu_from, "pair_over_2mu")
        assert brute <= bound

    def test_tail_rejects_s_at_one(self):
        spec = sphere_spectrum(3)
        with pytest.raises(DomainError):
            spec.tail_profile.sum_beyond(1.0, 40.0, "pair_over_2mu")


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
        assert lead.tail_profile.sum_beyond(0.3, lead.modes[-1].mu,
                                            "pair_over_2mu") == 0.0
        with pytest.raises(DomainError):
            leading_modes(spec, 0)

    def test_mu1_requires_two_modes(self):
        lead = leading_modes(sphere_spectrum(3), 1)
        with pytest.raises(InsufficientSpectrumError):
            _ = lead.mu1

    def test_descriptor_mentions_shape(self):
        spec = sphere_spectrum(3, c=-0.24)
        text = spec.descriptor()
        assert "d=3" in text and "sphere" in text
