"""Dispersion potential of a magnetic neutron near a planar surface.

The package is organised bottom up: physical constants, surface response
models, two quadrature rules, the magnetic Green function diagonal, the
potential assembly, and gravitational reference potentials.  The CLI in
neutroncp.cli exposes distance sweeps and the leading-order table.
"""

from .constants import CONSTANTS, NEUTRON, NeutronSpec, PhysicalConstants
from .gravity import SphereSpec, earth_potential, sphere_potential
from .greens import (
    IntegrationError,
    contracted_green_imag,
    contracted_green_real,
)
from .materials import (
    Drude,
    DrudeLorentz,
    Material,
    PerfectConductor,
    Plasma,
    UnsupportedModelError,
    longitudinal_frequency,
    permittivity_imag,
    permittivity_real,
)
from .potential import (
    FieldConfig,
    atomic_c3,
    c3_ratio,
    critical_distance,
    neutron_c3,
    nonretarded_leading,
    nonretarded_mirror_u_du,
    orientation_average,
    retarded_mirror_u_du,
    transition_frequency,
    u_dd,
    u_du,
    u_du_mirror_single_integral,
    u_resonant,
)
from .quadrature import (
    QuadratureResult,
    integrate_finite_oscillatory,
    integrate_semi_infinite,
    integrate_trapezoid,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "NEUTRON",
    "NeutronSpec",
    "PhysicalConstants",
    "SphereSpec",
    "earth_potential",
    "sphere_potential",
    "IntegrationError",
    "contracted_green_imag",
    "contracted_green_real",
    "Drude",
    "DrudeLorentz",
    "Material",
    "PerfectConductor",
    "Plasma",
    "UnsupportedModelError",
    "longitudinal_frequency",
    "permittivity_imag",
    "permittivity_real",
    "FieldConfig",
    "atomic_c3",
    "c3_ratio",
    "critical_distance",
    "neutron_c3",
    "nonretarded_leading",
    "nonretarded_mirror_u_du",
    "orientation_average",
    "retarded_mirror_u_du",
    "transition_frequency",
    "u_dd",
    "u_du",
    "u_du_mirror_single_integral",
    "u_resonant",
    "QuadratureResult",
    "integrate_finite_oscillatory",
    "integrate_semi_infinite",
    "integrate_trapezoid",
    "__version__",
]
