"""Unit quaternions and points on the twistor sphere.

The imaginary unit quaternions form the sphere S^2 inside sp(1); a point
zeta on it selects a complex structure J_zeta of the fiber.  Unit
quaternions eta act on the sphere by conjugation zeta -> eta zeta eta^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

UNIT_TOL = 1e-12


@dataclass(frozen=True)
class TwistorPoint:
    """Unit vector (zeta_I, zeta_J, zeta_K) in the imaginary quaternions."""

    zeta_I: float
    zeta_J: float
    zeta_K: float

    def __post_init__(self):
        if not abs(self.norm2() - 1.0) <= UNIT_TOL:  # also rejects nan, inf
            raise ValueError(f"twistor point must be unit: |zeta|^2 = {self.norm2()}")

    def norm2(self) -> float:
        return self.zeta_I**2 + self.zeta_J**2 + self.zeta_K**2

    def as_array(self) -> np.ndarray:
        return np.array([self.zeta_I, self.zeta_J, self.zeta_K])

    def as_quaternion(self) -> "UnitQuaternion":
        return UnitQuaternion(0.0, self.zeta_I, self.zeta_J, self.zeta_K)

    def __neg__(self) -> "TwistorPoint":
        return TwistorPoint(-self.zeta_I, -self.zeta_J, -self.zeta_K)

    @staticmethod
    def from_array(v) -> "TwistorPoint":
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if not abs(n - 1.0) <= 1e-9:  # also rejects nan and inf
            raise ValueError("non-unit twistor point rejected")
        v = v / n
        return TwistorPoint(v[0], v[1], v[2])


ZETA_I = TwistorPoint(1.0, 0.0, 0.0)
ZETA_J = TwistorPoint(0.0, 1.0, 0.0)
ZETA_K = TwistorPoint(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class UnitQuaternion:
    """eta = w + x i + y j + z k with |eta| = 1."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not abs(self.norm2() - 1.0) <= UNIT_TOL:  # also rejects nan, inf
            raise ValueError(f"quaternion must be unit: |eta|^2 = {self.norm2()}")

    def norm2(self) -> float:
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(self.w, -self.x, -self.y, -self.z)

    inverse = conjugate

    def __mul__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        w1, x1, y1, z1 = self.as_array()
        w2, x2, y2, z2 = other.as_array()
        return UnitQuaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
        )

    def axis_angle(self) -> tuple[float, np.ndarray]:
        """Return (theta, u) with eta = cos(theta) + sin(theta) u, |u| = 1.

        For eta = +-1 the axis is immaterial; (1, 0, 0) is returned.
        """
        v = np.array([self.x, self.y, self.z])
        s = np.linalg.norm(v)
        if s < 1e-15:
            return (0.0 if self.w > 0 else math.pi), np.array([1.0, 0.0, 0.0])
        return math.atan2(s, self.w), v / s

    @staticmethod
    def from_axis_angle(theta: float, u) -> "UnitQuaternion":
        u = np.asarray(u, dtype=float)
        u = u / np.linalg.norm(u)
        s = math.sin(theta)
        return UnitQuaternion(math.cos(theta), s * u[0], s * u[1], s * u[2])

    @staticmethod
    def identity() -> "UnitQuaternion":
        return UnitQuaternion(1.0, 0.0, 0.0, 0.0)


QUAT_I = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
QUAT_J = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
QUAT_K = UnitQuaternion(0.0, 0.0, 0.0, 1.0)


def components(points) -> np.ndarray:
    """`as_array` of a TwistorPoint or a UnitQuaternion, stacked as
    (Z, 3) or (Z, 4) for a list of them (a sequence of samples)."""
    if isinstance(points, list):
        return np.array([p.as_array() for p in points])
    return points.as_array()


def adjoint_action(eta: UnitQuaternion, zeta: TwistorPoint) -> TwistorPoint:
    """eta . zeta = eta zeta eta^-1, a rotation of the twistor sphere."""
    q = eta * zeta.as_quaternion() * eta.conjugate()
    return TwistorPoint(q.x, q.y, q.z)


def hopf_section(zeta: TwistorPoint) -> UnitQuaternion:
    """alpha_zeta with adjoint_action(alpha_zeta, zeta) = j.

    Geodesic rotation about the axis zeta x j; at the antipode zeta = -j
    the section is pinned to k, and alpha_j = 1.
    """
    v = zeta.as_array()
    c = v[1]  # <zeta, j>
    if c > 1.0 - 1e-14:
        return UnitQuaternion.identity()
    if c < -1.0 + 1e-14:
        return QUAT_K
    axis = np.array([-v[2], 0.0, v[0]])  # zeta x j
    phi = math.acos(max(-1.0, min(1.0, c)))
    return UnitQuaternion.from_axis_angle(phi / 2.0, axis)


def axis_points() -> list[TwistorPoint]:
    """The six axis points +-i, +-j, +-k."""
    return [ZETA_I, -ZETA_I, ZETA_J, -ZETA_J, ZETA_K, -ZETA_K]


def fibonacci_sphere(count: int) -> list[TwistorPoint]:
    """Deterministic quasi-uniform sample of the twistor sphere."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for i in range(count):
        zj = 1.0 - 2.0 * (i + 0.5) / count
        r = math.sqrt(max(0.0, 1.0 - zj * zj))
        th = golden * i
        pts.append(TwistorPoint.from_array([r * math.cos(th), zj, r * math.sin(th)]))
    return pts


def sample_zetas(kind: str = "axes", count: int = 20) -> list[TwistorPoint]:
    """Named twistor samples: 'axes', 'fibonacci', 'j', or 'full' (axes + fibonacci).

    Each (kind, count) is built once per process (`_named_sample`); every
    call returns a new list of its points, which are frozen values."""
    return list(_named_sample(kind, count))


@lru_cache(maxsize=8)
def _named_sample(kind: str, count: int) -> tuple[TwistorPoint, ...]:
    if kind == "axes":
        return tuple(axis_points())
    if kind == "fibonacci":
        return tuple(fibonacci_sphere(count))
    if kind == "j":
        return (ZETA_J,)
    if kind == "full":
        return tuple(axis_points() + fibonacci_sphere(count))
    raise ValueError(f"unknown zeta sample kind: {kind!r}")


def random_unit_quaternion(rng: np.random.Generator) -> UnitQuaternion:
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return UnitQuaternion(*v)


def random_twistor_point(rng: np.random.Generator) -> TwistorPoint:
    v = rng.normal(size=3)
    return TwistorPoint.from_array(v / np.linalg.norm(v))
