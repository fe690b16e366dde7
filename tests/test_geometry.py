"""Cross-section and cone geometry."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conekit import (
    ConePoint,
    DomainError,
    HomogeneousKernelSpec,
    SeparationCrossSection,
    SphereCrossSection,
    TorusCrossSection,
    cone_distance,
    lp_norm_probe,
    riesz_model_intervals,
    sphere_spectrum,
    threshold_interval,
    threshold_interval_constant,
    threshold_interval_zero_v,
    torus_spectrum,
)
from conekit.geometry import check_dimension

from oracles import euclid_distance


class TestConePoint:
    def test_accepts_positive_radius(self):
        z = ConePoint(2.5, (1.0, 0.0, 0.0))
        assert z.r == 2.5

    def test_is_a_value(self):
        # Equal coordinates give equal points with equal hashes, whatever holds them.
        y, yp = SphereCrossSection(2).points_at_separation(0.7)
        z = ConePoint(1.0, y)
        assert z == ConePoint(1.0, y.copy()) == ConePoint(1.0, y.tolist())
        assert hash(z) == hash(ConePoint(1.0, y.copy()))
        assert z != ConePoint(1.0, yp) and z != ConePoint(2.0, y)
        assert z.y == tuple(y.tolist()) and all(type(v) is float for v in z.y)
        assert ConePoint(2.0, 0.5).y == 0.5 and hash(ConePoint(2.0, 0.5)) == hash(ConePoint(2.0, 0.5))

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_radius(self, r):
        with pytest.raises(DomainError):
            ConePoint(r, 0.0)


class TestSphere:
    def test_distance_roundtrip(self):
        cs = SphereCrossSection(2, radius=1.0)
        for s in [0.0, 1e-8, 0.3, 1.5, math.pi - 1e-6, math.pi]:
            y, yp = cs.points_at_separation(s)
            np.testing.assert_allclose(cs.distance(y, yp), s, rtol=1e-12, atol=1e-15)

    def test_distance_scales_with_radius(self):
        cs = SphereCrossSection(3, radius=2.5)
        y, yp = cs.points_at_separation(2.0)
        np.testing.assert_allclose(cs.distance(y, yp), 2.0, rtol=1e-12)

    def test_distance_symmetric(self):
        cs = SphereCrossSection(2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = rng.normal(size=3)
            yp = rng.normal(size=3)
            y /= np.linalg.norm(y)
            yp /= np.linalg.norm(yp)
            assert cs.distance(y, yp) == pytest.approx(cs.distance(yp, y), rel=1e-14)

    def test_distance_stable_at_tiny_angles(self):
        cs = SphereCrossSection(2)
        # arccos of the dot product would lose ~half the digits here.
        y = np.array([1.0, 0.0, 0.0])
        eps = 1e-9
        yp = np.array([math.cos(eps), math.sin(eps), 0.0])
        np.testing.assert_allclose(cs.distance(y, yp), eps, rtol=1e-9)

    def test_volume(self):
        assert SphereCrossSection(2).volume == pytest.approx(4 * math.pi, rel=1e-14)
        assert SphereCrossSection(1, radius=3.0).volume == pytest.approx(
            6 * math.pi, rel=1e-14
        )

    def test_rejects_offsphere_point(self):
        cs = SphereCrossSection(2)
        with pytest.raises(DomainError):
            cs.distance(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))

    def test_rejects_bad_separation(self):
        cs = SphereCrossSection(2)
        with pytest.raises(DomainError):
            cs.points_at_separation(3.5)  # > pi * radius
        with pytest.raises(DomainError):
            cs.points_at_separation(-0.1)

    @pytest.mark.parametrize("radius", [1e300, 1e-160])
    def test_rejects_a_volume_that_is_not_a_positive_normal_float(self, radius):
        # 1e300 overflows in radius**2; 1e-160 gives a subnormal volume, whose pair_sup was inf.
        with pytest.raises(DomainError, match=re.escape(f"2-sphere of radius {radius!r} has volume ")):
            SphereCrossSection(2, radius)

    @pytest.mark.parametrize("bad", [0, -2, 1.5])
    def test_rejects_bad_dim(self, bad):
        with pytest.raises(DomainError):
            SphereCrossSection(bad)


class TestTorus:
    def test_wraparound_distance(self):
        cs = TorusCrossSection([1.0])
        assert cs.distance([0.1], [2 * math.pi - 0.1]) == pytest.approx(0.2, rel=1e-12)

    def test_anisotropic_metric(self):
        cs = TorusCrossSection([1.0, 2.0])
        # ds^2 = (a1 dtheta1)^2 + (a2 dtheta2)^2
        got = cs.distance([0.0, 0.0], [0.3, 0.4])
        np.testing.assert_allclose(got, math.hypot(0.3, 0.8), rtol=1e-12)

    def test_points_at_separation_roundtrip(self):
        cs = TorusCrossSection([1.5, 1.0])
        for s in [0.0, 0.7, 1.5 * math.pi]:
            y, yp = cs.points_at_separation(s)
            np.testing.assert_allclose(cs.distance(y, yp), s, rtol=1e-12, atol=0)

    def test_volume(self):
        cs = TorusCrossSection([1.0, 2.0])
        assert cs.volume == pytest.approx((2 * math.pi) * (4 * math.pi), rel=1e-14)

    def test_rejects_bad_radii(self):
        with pytest.raises(DomainError):
            TorusCrossSection([])
        with pytest.raises(DomainError):
            TorusCrossSection([1.0, -1.0])

    @pytest.mark.parametrize("radii", [(1e-200, 1e-200), (1e-155, 1e-155), (1e200, 1e200)])
    def test_rejects_a_volume_that_is_not_a_positive_normal_float(self, radii):
        # Zero, subnormal and infinite; the zero volume divided by zero in TorusTail at a kernel value.
        with pytest.raises(DomainError, match=re.escape(f"torus of radii {radii!r} has volume ")):
            torus_spectrum(3, radii)


class TestSeparationCrossSection:
    def test_distance_is_absolute_difference(self):
        cs = SeparationCrossSection()
        assert cs.distance(0.2, 1.5) == pytest.approx(1.3)
        y, yp = cs.points_at_separation(0.9)
        assert cs.distance(y, yp) == pytest.approx(0.9)

    def test_unknown_dimension(self):
        cs = SeparationCrossSection()
        assert cs.dim is None and cs.volume is None


@pytest.mark.parametrize("call, message", [
    (lambda: SphereCrossSection(2).distance([1.0, 0.0], [1.0, 0.0, 0.0]),
     "sphere point must be a vector of length 3, got shape (2,)"),
    (lambda: TorusCrossSection([1.0, 1.3]).distance([[0.0, 0.0]], [0.0, 0.0]),
     "torus point must be a vector of 2 angles, got shape (1, 2)"),
    (lambda: TorusCrossSection([1.0, 1.3]).points_at_separation(3.5),
     f"separation 3.5 outside [0, {math.pi}] along the first circle"),
    (lambda: SeparationCrossSection().distance(math.inf, 0.0), "separation coordinates must be finite"),
    (lambda: SeparationCrossSection().points_at_separation(-0.5), "separation must be >= 0, got -0.5"),
], ids=["sphere-point-length", "torus-angles-shape", "torus-separation-past-pi-a1",
        "non-finite-coordinate", "negative-separation"])
def test_malformed_points_and_separations_are_refused(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


class TestConeDistance:
    def test_distance_matches_r3_embedding(self):
        cs = SphereCrossSection(2)
        rng = np.random.default_rng(11)
        for _ in range(50):
            r, rp = rng.uniform(0.1, 5.0, size=2)
            gamma = rng.uniform(0.0, math.pi)
            y, yp = cs.points_at_separation(gamma)
            got = cone_distance(r, rp, cs.distance(y, yp))
            np.testing.assert_allclose(got, euclid_distance(r, rp, gamma), rtol=1e-12)

    def test_law_of_cosines_region(self):
        np.testing.assert_allclose(
            cone_distance(1.0, 2.0, 1.0), euclid_distance(1.0, 2.0, 1.0), rtol=1e-14
        )

    def test_tip_branch(self):
        assert cone_distance(1.0, 2.0, math.pi) == 3.0
        assert cone_distance(0.5, 0.7, 4.0) == pytest.approx(1.2)

    def test_branches_agree_at_pi(self):
        lhs = cone_distance(1.3, 0.4, math.pi - 1e-12)
        assert lhs == pytest.approx(1.7, rel=1e-10)

    def test_stable_near_diagonal(self):
        # (r - rp)^2 + 4 r rp sin^2(dy/2) keeps full precision where the
        # naive r^2 + rp^2 - 2 r rp cos(dy) cancels catastrophically.
        d = cone_distance(1.0, 1.0, 1e-9)
        np.testing.assert_allclose(d, 1e-9, rtol=1e-12)
        rp = 1.0 + 1e-10
        d2 = cone_distance(1.0, rp, 0.0)
        np.testing.assert_allclose(d2, rp - 1.0, rtol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            cone_distance(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            cone_distance(1.0, 1.0, -0.1)

    @pytest.mark.parametrize("r, rp", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_rejects_non_finite_radii(self, r, rp):
        with pytest.raises(DomainError, match="finite positive radii"):
            cone_distance(r, rp, 0.5)


_DIMENSION_ENTRY_POINTS = {
    "CrossSectionSpectrum": lambda d: replace(sphere_spectrum(3), d=d),
    "sphere_spectrum": lambda d: sphere_spectrum(d),
    "torus_spectrum": lambda d: torus_spectrum(d, (1.0, 1.3)),
    "threshold_interval": lambda d: threshold_interval(d, 0.5),
    "threshold_interval_zero_v": lambda d: threshold_interval_zero_v(d, 2.0),
    "threshold_interval_constant": lambda d: threshold_interval_constant(d, 0.75),
    "HomogeneousKernelSpec": lambda d: HomogeneousKernelSpec(d, 0.5, "upper"),
    "riesz_model_intervals": lambda d: riesz_model_intervals(d, 0.5),
    "lp_norm_probe": lambda d: lp_norm_probe(lambda r, rp: 1.0, d, 1.5, k_values=(2,)),
}


class TestConeDimension:
    """Every entry point that takes a cone dimension checks it the same way."""

    @pytest.mark.parametrize("entry", sorted(_DIMENSION_ENTRY_POINTS))
    @pytest.mark.parametrize("d", [math.nan, math.inf, None, 2, 3.5])
    def test_rejects_bad_dimension(self, entry, d):
        with pytest.raises(DomainError, match="cone dimension d must be an integer >= 3"):
            _DIMENSION_ENTRY_POINTS[entry](d)

    def test_accepts_integral_values(self):
        assert check_dimension(3) == check_dimension(3.0) == check_dimension(np.int64(3)) == 3
        assert type(check_dimension(4.0)) is int
