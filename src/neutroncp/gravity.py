"""Gravitational reference potentials for comparison with the surface force."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS, NEUTRON


@dataclass(frozen=True)
class SphereSpec:
    """Homogeneous test sphere; defaults describe a small silicon ball."""

    density: float = 2330.0
    radius: float = 11.3e-3

    def __post_init__(self) -> None:
        if self.density <= 0.0 or self.radius <= 0.0:
            raise ValueError("density and radius must be > 0")

    @property
    def mass(self) -> float:
        return self.density * 4.0 / 3.0 * math.pi * self.radius**3


_SPHERE = SphereSpec()


def earth_potential(z: float) -> float:
    """m g z above the surface, zero at contact."""
    if z < 0.0:
        raise ValueError("z must be >= 0")
    return NEUTRON.mass * CONSTANTS.g_earth * z


def sphere_potential(z: float) -> float:
    """Magnitude G M m / (r + z) of the silicon sphere's potential, zero at infinity."""
    if z < 0.0:
        raise ValueError("z must be >= 0")
    return CONSTANTS.G * _SPHERE.mass * NEUTRON.mass / (_SPHERE.radius + z)
