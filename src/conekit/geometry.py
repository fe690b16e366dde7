"""Metric-cone geometry.

A cone point is a pair (r, y): a radius r > 0 and a point y on the
cross-section Y.  The cone metric distance between z = (r, y) and
z' = (r', y') is

    d(z, z')^2 = r^2 + r'^2 - 2 r r' cos(d_Y(y, y'))   if d_Y(y, y') <= pi,
    d(z, z')   = r + r'                                 otherwise,

where d_Y is the intrinsic cross-section distance.  Past separation pi the
minimizing path passes through the cone tip, hence the second branch.

Three cross-sections are provided: round spheres of any radius, flat tori
(products of circles), and an abstract one-coordinate "separation"
cross-section used by spectra loaded from files, where a point is simply a
real separation coordinate.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "ConePoint",
    "CrossSection",
    "SphereCrossSection",
    "TorusCrossSection",
    "SeparationCrossSection",
    "cone_distance",
]


def check_dimension(d) -> int:
    """The cone dimension ``d`` as an int; :class:`DomainError` unless it is an integer >= 3."""
    if not (isinstance(d, numbers.Real) and math.isfinite(d) and d >= 3 and int(d) == d):
        raise DomainError(f"cone dimension d must be an integer >= 3, got {d!r}")
    return int(d)


def _check_volume(volume: float, shape: str) -> float:
    """``volume``; a :class:`DomainError` naming ``shape`` unless it is a positive normal float."""
    if not sys.float_info.min <= volume < math.inf:
        raise DomainError(f"{shape} has volume {volume!r}, not a positive normal float")
    return volume


@dataclass(frozen=True)
class ConePoint:
    """A point (r, y) of the cone: radius r > 0 and cross-section point y.

    An array-like y is kept as a tuple of floats and a number y (a
    separation coordinate) as it is, so points compare and hash by value.
    """

    r: float
    y: object

    def __post_init__(self):
        r = float(self.r)
        if not math.isfinite(r) or r <= 0.0:
            raise DomainError(f"cone radius must be finite and > 0, got {self.r!r}")
        object.__setattr__(self, "r", r)
        if not isinstance(self.y, numbers.Real):
            object.__setattr__(self, "y", tuple(map(float, self.y)))


class CrossSection:
    """Interface every cross-section implements.

    Attributes
    ----------
    dim : int or None
        Intrinsic dimension, when known.  The cone built on a cross-section
        of dimension n has total dimension d = n + 1.
    volume : float or None
        Total Riemannian volume, when known.
    """

    dim: int | None = None
    volume: float | None = None

    def distance(self, y, yp) -> float:
        raise NotImplementedError

    def points_at_separation(self, s: float):
        """Return a concrete pair (y, y') at intrinsic distance s."""
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError


class SphereCrossSection(CrossSection):
    """Round sphere of dimension ``dim`` and radius ``radius``.

    Points are ambient vectors in R^{dim+1} of length ``radius`` (validated
    to 1e-9 relative and renormalized before use).
    """

    def __init__(self, dim: int, radius: float = 1.0):
        if int(dim) != dim or dim < 1:
            raise DomainError(f"sphere dimension must be a positive integer, got {dim!r}")
        radius = float(radius)
        if not math.isfinite(radius) or radius <= 0.0:
            raise DomainError(f"sphere radius must be finite and > 0, got {radius!r}")
        self.dim = int(dim)
        self.radius = radius
        n = self.dim
        try:
            volume = radius**n * 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
        except OverflowError:
            volume = math.inf
        self.volume = _check_volume(volume, f"the {n}-sphere of radius {radius!r}")

    def _unit(self, y) -> np.ndarray:
        v = np.asarray(y, dtype=float)
        if v.shape != (self.dim + 1,):
            raise DomainError(
                f"sphere point must be a vector of length {self.dim + 1}, got shape {v.shape}"
            )
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's formula, without its overhead
        if norm == 0.0 or abs(norm - self.radius) > 1e-9 * self.radius:
            raise DomainError(
                f"sphere point must have length {self.radius} (got {norm})"
            )
        return v / norm

    def distance(self, y, yp) -> float:
        u, v = self._unit(y), self._unit(yp)
        c = float(np.dot(u, v))
        # Stable at both ends: use the rejection norm rather than arccos.
        perp = v - c * u
        angle = math.atan2(math.sqrt(perp.dot(perp)), c)
        return self.radius * angle

    def points_at_separation(self, s: float):
        u = float(s) / self.radius
        if not 0.0 <= u <= math.pi:
            raise DomainError(
                f"separation {s} outside [0, {math.pi * self.radius}] for this sphere"
            )
        y = np.zeros(self.dim + 1)
        y[0] = self.radius
        yp = np.zeros(self.dim + 1)
        yp[0] = math.cos(u) * self.radius
        yp[1] = math.sin(u) * self.radius
        return y, yp

    def descriptor(self) -> str:
        return f"sphere(dim={self.dim}, radius={self.radius:g})"


class TorusCrossSection(CrossSection):
    """Flat torus: product of circles of radii ``radii``.

    Points are angle vectors theta in R^len(radii); the metric is
    ds^2 = sum (a_i d theta_i)^2 with each angle taken mod 2 pi.
    """

    def __init__(self, radii: Sequence[float]):
        radii = tuple(float(a) for a in radii)
        if not radii or any(not math.isfinite(a) or a <= 0.0 for a in radii):
            raise DomainError(f"torus radii must be finite and > 0, got {radii!r}")
        self.radii = radii
        self.dim = len(radii)
        self.volume = _check_volume(math.prod(2.0 * math.pi * a for a in radii), f"the torus of radii {radii!r}")

    def _angles(self, y) -> np.ndarray:
        v = np.asarray(y, dtype=float)
        if v.shape != (self.dim,):
            raise DomainError(
                f"torus point must be a vector of {self.dim} angles, got shape {v.shape}"
            )
        return v

    @staticmethod
    def _wrap(delta: np.ndarray) -> np.ndarray:
        """Reduce angle differences to [-pi, pi]."""
        return np.mod(delta + math.pi, 2.0 * math.pi) - math.pi

    def distance(self, y, yp) -> float:
        delta = self._wrap(self._angles(y) - self._angles(yp))
        arc = np.asarray(self.radii) * delta
        return math.sqrt(arc.dot(arc))

    def points_at_separation(self, s: float):
        s = float(s)
        a1 = self.radii[0]
        if not 0.0 <= s <= math.pi * a1:
            raise DomainError(
                f"separation {s} outside [0, {math.pi * a1}] along the first circle"
            )
        y = np.zeros(self.dim)
        yp = np.zeros(self.dim)
        yp[0] = s / a1
        return y, yp

    def descriptor(self) -> str:
        return f"torus(radii={tuple(round(a, 12) for a in self.radii)})"


class SeparationCrossSection(CrossSection):
    """Abstract cross-section known only through a separation coordinate.

    Used by spectra loaded from files: a point is a real number and the
    distance between two points is |y - y'|.  Dimension and volume are
    unknown.
    """

    dim = None
    volume = None

    def distance(self, y, yp) -> float:
        d = abs(float(y) - float(yp))
        if not math.isfinite(d):
            raise DomainError("separation coordinates must be finite")
        return d

    def points_at_separation(self, s: float):
        s = float(s)
        if s < 0.0:
            raise DomainError(f"separation must be >= 0, got {s}")
        return 0.0, s

    def descriptor(self) -> str:
        return "separation"


def cone_distance(r: float, rp: float, d_y: float) -> float:
    """Metric distance on the cone between (r, y) and (r', y').

    ``d_y`` is the intrinsic cross-section distance between y and y'.
    For d_y <= pi the law of cosines in the spanned flat sector applies;
    past pi every minimizing path runs through the tip, giving r + r'.
    The two branches agree at d_y = pi.
    """
    r, rp, d_y = float(r), float(rp), float(d_y)
    if not (0.0 < r < math.inf and 0.0 < rp < math.inf):
        raise DomainError(f"cone_distance needs finite positive radii, got {r!r} and {rp!r}")
    if d_y < 0.0 or not math.isfinite(d_y):
        raise DomainError(f"cross-section distance must be finite and >= 0, got {d_y}")
    if d_y >= math.pi:
        return r + rp
    # Law of cosines, written as a sum of two nonnegative pieces so the
    # result stays accurate when r ~ r' and d_y ~ 0.
    s2 = (r - rp) ** 2 + 4.0 * r * rp * math.sin(0.5 * d_y) ** 2
    return math.sqrt(s2)
