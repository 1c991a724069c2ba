"""Permittivity models of the half-space, on the imaginary and real axes.

Four surface responses are supported: an ideal mirror (handled entirely
at the reflection-coefficient level, it has no finite permittivity), a
lossless plasma, a Drude metal, and a single-resonance Drude-Lorentz
dielectric.  All model parameters are angular frequencies in rad/s.

omega_p = 0 is accepted as an explicit degenerate case (the medium
becomes vacuum); it is useful for null tests.  Damping and resonance
frequencies must be strictly positive where the model has them, and
every parameter must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import CONSTANTS


class UnsupportedModelError(ValueError):
    """An operation is not defined for the given material model."""


def _require_finite(model: object) -> None:
    # the models square every frequency
    for name, value in vars(model).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if not math.isfinite(value * value):
            raise ValueError(f"{name} must be below 1e154 rad/s, or its square overflows")


@dataclass(frozen=True)
class PerfectConductor:
    """Ideal mirror: r_s = -1, r_p = +1 at all frequencies and angles."""


@dataclass(frozen=True)
class Plasma:
    omega_p: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.omega_p < 0.0:
            raise ValueError("omega_p must be >= 0")


@dataclass(frozen=True)
class Drude:
    omega_p: float
    gamma: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.omega_p < 0.0:
            raise ValueError("omega_p must be >= 0")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be > 0; use Plasma for the lossless case")


@dataclass(frozen=True)
class DrudeLorentz:
    omega_p: float
    omega_t: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.omega_p < 0.0:
            raise ValueError("omega_p must be >= 0")
        if self.omega_t <= 0.0:
            raise ValueError("omega_t must be > 0")


Material = Union[PerfectConductor, Plasma, Drude, DrudeLorentz]


def permittivity_imag(m: Material, xi: float) -> float:
    """eps(i xi) for xi > 0.  Real and >= 1 for every supported model.

    Raises ValueError where the Drude-Lorentz xi^2 + omega_t^2 underflows
    to 0, as permittivity_real does at its pole.
    """
    if xi <= 0.0:
        raise ValueError("xi must be > 0")
    if isinstance(m, Plasma):
        return 1.0 + (m.omega_p / xi) ** 2
    if isinstance(m, Drude):
        return 1.0 + m.omega_p**2 / (xi * (xi + m.gamma))
    if isinstance(m, DrudeLorentz):
        den = xi**2 + m.omega_t**2
        if den == 0.0:
            raise ValueError("xi^2 + omega_t^2 underflows to 0: no Drude-Lorentz permittivity")
        return 1.0 + m.omega_p**2 / den
    raise UnsupportedModelError(
        "permittivity is not defined for a perfect conductor; "
        "it is resolved at the reflection-coefficient level"
    )


def permittivity_real(m: Material, omega: float) -> complex:
    """eps(omega) on the real axis; complex in general (Drude is lossy)."""
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    if isinstance(m, Plasma):
        return complex(1.0 - (m.omega_p / omega) ** 2)
    if isinstance(m, Drude):
        # diverges as -i omega_p^2/(gamma omega) toward omega -> 0+
        return 1.0 - m.omega_p**2 / (omega * (omega + 1j * m.gamma))
    if isinstance(m, DrudeLorentz):
        if omega**2 == m.omega_t**2:  # also where both squares underflow
            raise ValueError("permittivity is singular at omega^2 = omega_t^2")
        return complex(1.0 + m.omega_p**2 / (m.omega_t**2 - omega**2))
    raise UnsupportedModelError(
        "permittivity is not defined for a perfect conductor"
    )


def longitudinal_frequency(omega_t: float, omega_p: float) -> float:
    """sqrt(omega_t^2 + omega_p^2/2), the zero of eps(omega) + 1.

    This is the surface-mode frequency of the single-resonance model; it
    sets the scale in the small-distance closed form of the potential.
    """
    if omega_t < 0.0 or omega_p < 0.0:
        raise ValueError("frequencies must be >= 0")
    return math.sqrt(omega_t**2 + omega_p**2 / 2.0)


def wavevector_contrast_imag(
    m: Material, xi: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """kappa_med^2 - kappa^2 = (eps(i xi) - 1) xi^2 / c^2, per model.

    Written per model so the xi -> 0 limit is exact instead of a 0 * inf
    product: the plasma keeps a finite static contrast omega_p^2/c^2,
    Drude and Drude-Lorentz lose theirs.  xi = 0 is therefore allowed
    here, unlike in permittivity_imag.  xi may be an array, which gives
    an array of its shape; a scalar gives a float.
    """
    xi = np.asarray(xi, dtype=float)
    if (xi < 0.0).any():
        raise ValueError("xi must be >= 0")
    c = CONSTANTS.c
    if isinstance(m, Plasma):
        contrast = np.full(xi.shape, (m.omega_p / c) ** 2)
    elif isinstance(m, Drude):
        contrast = m.omega_p**2 * xi / ((xi + m.gamma) * c**2)
    elif isinstance(m, DrudeLorentz):
        # omega_t > 0, so an xi whose square underflows is the xi = 0 limit,
        # 0, also where omega_t^2 underflows too (there 0/0)
        xi2 = xi**2
        contrast = np.divide(
            m.omega_p**2 * xi2, (xi2 + m.omega_t**2) * c**2,
            out=np.zeros(xi.shape), where=xi2 > 0.0,
        )
    else:
        raise UnsupportedModelError(
            "wavevector contrast is not defined for a perfect conductor"
        )
    return float(contrast) if contrast.ndim == 0 else contrast


def wavevector_contrast_real(m: Material, omega: float) -> complex:
    """k_med^2 - k_vac^2 = (eps(omega) - 1) omega^2 / c^2 on the real axis."""
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    c = CONSTANTS.c
    if isinstance(m, Plasma):
        return complex(-((m.omega_p / c) ** 2))
    if isinstance(m, Drude):
        return -m.omega_p**2 * omega / ((omega + 1j * m.gamma) * c**2)
    if isinstance(m, DrudeLorentz):
        if omega**2 == m.omega_t**2:  # also where both squares underflow
            raise ValueError("permittivity is singular at omega^2 = omega_t^2")
        return complex(m.omega_p**2 * omega**2 / ((m.omega_t**2 - omega**2) * c**2))
    raise UnsupportedModelError(
        "wavevector contrast is not defined for a perfect conductor"
    )
