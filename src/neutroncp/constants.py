"""Physical constants (CODATA 2018) and the neutron's magnetic coupling.

Every numerical result in this package is traceable to the two
instances defined here, CONSTANTS and NEUTRON, which the potential and
gravity routines read directly.  They are frozen dataclasses, so a
calculation can never mutate them mid-run.

Units are SI throughout the package.  Energies returned by the potential
routines are in joules; converting to eV or neV is left to the caller
(the command line interface offers it as an output option).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values, SI units.

    hbar is stored as h / 2pi at full double precision rather than the
    display-rounded concise value; the rounded form misses the Bohr
    radius round-trip identity by about 1e-9 relative.
    """

    hbar: float = 6.62607015e-34 / (2.0 * math.pi)  # J s (h is exact)
    mu0: float = 1.25663706212e-6    # N / A^2
    eps0: float = 8.8541878128e-12   # F / m
    c: float = 299792458.0           # m / s (exact)
    e: float = 1.602176634e-19       # C (exact)
    m_e: float = 9.1093837015e-31    # kg
    m_n: float = 1.67492749804e-27   # kg
    G: float = 6.67430e-11           # m^3 / (kg s^2)
    g_earth: float = 9.80665         # m / s^2 (conventional, exact)
    a_bohr: float = 5.29177210903e-11  # m

    @property
    def alpha(self) -> float:
        """Fine structure constant, derived from the stored fields.

        Derived rather than stored so it stays consistent with the
        primary constants if anyone constructs a variant instance.
        """
        return self.e**2 / (4.0 * math.pi * self.eps0 * self.hbar * self.c)


@dataclass(frozen=True)
class NeutronSpec:
    """The neutron as a two-level magnetic dipole.

    The only particle inputs the theory needs are the g-factor and the
    mass; the gyromagnetic ratio follows as g * e / (2 m).  The g-factor
    convention used here makes ``gamma_n`` negative for the physical
    neutron, but only its magnitude enters the potentials, through the
    spin-flip frequency |gamma_n| * B and the squared moment.
    """

    g_factor: float = -3.8
    mass: float = PhysicalConstants.m_n  # kg
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise ValueError("neutron mass must be positive")

    @property
    def gamma_n(self) -> float:
        """Gyromagnetic ratio g * e / (2 m), in rad / (s T)."""
        return self.g_factor * self.constants.e / (2.0 * self.mass)

    @property
    def magnetic_moment(self) -> float:
        """Magnitude of the spin magnetic moment, hbar |gamma_n| / 2, in J / T."""
        return self.constants.hbar * abs(self.gamma_n) / 2.0

    def spin_flip_frequency(self, field_strength: float) -> float:
        """Zeeman splitting |gamma_n| B in rad / s for a field in tesla."""
        if field_strength < 0.0:
            raise ValueError("field_strength must be >= 0")
        return abs(self.gamma_n) * field_strength


CONSTANTS = PhysicalConstants()
NEUTRON = NeutronSpec()
