"""Permittivity models and the cancellation-free wavevector contrast."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutroncp import (
    CONSTANTS,
    Drude,
    DrudeLorentz,
    PerfectConductor,
    Plasma,
    UnsupportedModelError,
    longitudinal_frequency,
    permittivity_imag,
    permittivity_real,
)
from neutroncp.materials import wavevector_contrast_imag, wavevector_contrast_real

C = CONSTANTS.c


def test_plasma_imag_axis():
    m = Plasma(omega_p=1e16)
    assert permittivity_imag(m, 1e16) == pytest.approx(2.0, rel=1e-14)
    assert permittivity_imag(m, 2e16) == pytest.approx(1.25, rel=1e-14)


def test_drude_imag_axis():
    m = Drude(omega_p=1e16, gamma=1e13)
    xi = 1e16
    expected = 1.0 + m.omega_p**2 / (xi * (xi + m.gamma))
    assert permittivity_imag(m, xi) == pytest.approx(expected, rel=1e-14)


def test_drude_lorentz_imag_axis():
    m = DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16)
    xi = 5e15
    expected = 1.0 + m.omega_p**2 / (xi**2 + m.omega_t**2)
    assert permittivity_imag(m, xi) == pytest.approx(expected, rel=1e-14)


def test_imag_axis_requires_positive_xi():
    with pytest.raises(ValueError):
        permittivity_imag(Plasma(omega_p=1e16), 0.0)
    with pytest.raises(ValueError):
        permittivity_imag(Plasma(omega_p=1e16), -1.0)


def test_perfect_conductor_has_no_permittivity():
    with pytest.raises(UnsupportedModelError):
        permittivity_imag(PerfectConductor(), 1e15)
    with pytest.raises(UnsupportedModelError):
        permittivity_real(PerfectConductor(), 1e15)


def test_plasma_real_axis():
    m = Plasma(omega_p=1e16)
    assert permittivity_real(m, 1e16) == pytest.approx(0.0, abs=1e-14)
    assert permittivity_real(m, 2e16).real == pytest.approx(0.75, rel=1e-14)


def test_drude_real_axis_is_lossy():
    m = Drude(omega_p=1e16, gamma=1e13)
    eps = permittivity_real(m, 5e15)
    assert eps.imag > 0.0  # passive medium on the upper half plane


def test_drude_lorentz_real_axis_pole():
    m = DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16)
    below = permittivity_real(m, 7.0e16)
    above = permittivity_real(m, 7.2e16)
    assert below.real > 1.0
    assert above.real < 0.0
    with pytest.raises(ValueError):
        permittivity_real(m, m.omega_t)


def test_longitudinal_frequency_is_epsilon_plus_one_zero():
    # used as the surface-mode edge: eps(w_L) = -1 for the undamped model
    w_t, w_p = 1e13, 3e12
    w_l = longitudinal_frequency(w_t, w_p)
    assert w_l == pytest.approx(10222524150130.436, rel=1e-12)
    eps = 1.0 + w_p**2 / (w_t**2 - w_l**2)
    assert abs(eps + 1.0) < 1e-9


def test_validation():
    with pytest.raises(ValueError):
        Plasma(omega_p=-1.0)
    with pytest.raises(ValueError, match="[Pp]lasma"):
        Drude(omega_p=1e16, gamma=0.0)
    with pytest.raises(ValueError):
        DrudeLorentz(omega_p=1e16, omega_t=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validation_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Plasma(omega_p=bad)
    with pytest.raises(ValueError, match="finite"):
        Drude(omega_p=bad, gamma=1e13)
    with pytest.raises(ValueError, match="finite"):
        Drude(omega_p=1e16, gamma=bad)
    with pytest.raises(ValueError, match="finite"):
        DrudeLorentz(omega_p=bad, omega_t=1e13)
    with pytest.raises(ValueError, match="finite"):
        DrudeLorentz(omega_p=1e16, omega_t=bad)


def test_validation_rejects_frequencies_whose_square_overflows():
    # the models square every frequency; a Python float square past the
    # double range raises OverflowError where it is formed
    for make in (
        lambda f: Plasma(omega_p=f),
        lambda f: Drude(omega_p=1e16, gamma=f),
        lambda f: DrudeLorentz(omega_p=f, omega_t=7.1e16),
        lambda f: DrudeLorentz(omega_p=2.3e16, omega_t=f),
    ):
        make(1e154)
        with pytest.raises(ValueError, match="square overflows"):
            make(1.4e154)


def test_vacuum_degenerate_case():
    m = Plasma(omega_p=0.0)
    assert permittivity_imag(m, 1e15) == 1.0
    assert wavevector_contrast_imag(m, 1e15) == 0.0


@pytest.mark.parametrize(
    "m",
    [
        Plasma(omega_p=1e16),
        Drude(omega_p=1e16, gamma=1e13),
        DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16),
    ],
)
def test_contrast_matches_permittivity_imag(m):
    # contrast = (eps - 1) xi^2 / c^2, computed without the subtraction
    for xi in (1e13, 1e15, 1e17):
        direct = (permittivity_imag(m, xi) - 1.0) * xi**2 / C**2
        assert wavevector_contrast_imag(m, xi) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize(
    "m",
    [
        Plasma(omega_p=1e16),
        Drude(omega_p=1e16, gamma=1e13),
        DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16),
    ],
)
def test_contrast_matches_permittivity_real(m):
    for omega in (1e13, 5e15, 9e16):
        direct = (permittivity_real(m, omega) - 1.0) * omega**2 / C**2
        contrast = wavevector_contrast_real(m, omega)
        assert contrast == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize(
    "m",
    [
        Plasma(omega_p=1e16),
        Plasma(omega_p=0.0),
        Drude(omega_p=1e16, gamma=1e13),
        DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16),
    ],
)
def test_contrast_of_an_array_is_the_scalar_contrasts(m):
    # one call on a batch gives, byte for byte, what one call per entry gives
    xis = np.concatenate(([0.0, 5e-324, 1e-60], np.geomspace(1.0, 1e20, 41)))
    batch = wavevector_contrast_imag(m, xis)
    assert isinstance(batch, np.ndarray) and batch.shape == xis.shape
    scalars = [wavevector_contrast_imag(m, float(xi)) for xi in xis]
    assert all(type(v) is float for v in scalars)
    assert batch.tobytes() == np.array(scalars).tobytes()
    grid = wavevector_contrast_imag(m, xis.reshape(4, 11))
    assert grid.tobytes() == batch.tobytes()
    with pytest.raises(ValueError, match="xi"):
        wavevector_contrast_imag(m, np.array([1e15, -1.0]))


def test_static_contrast_limits():
    # plasma keeps a finite static contrast; collision-damped models lose it
    assert wavevector_contrast_imag(Plasma(omega_p=1e16), 0.0) == pytest.approx(
        (1e16 / C) ** 2, rel=1e-14
    )
    assert wavevector_contrast_imag(Drude(omega_p=1e16, gamma=1e13), 0.0) == 0.0
    assert (
        wavevector_contrast_imag(DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16), 0.0)
        == 0.0
    )


@pytest.mark.parametrize("omega_p", [0.0, 1e16])
@pytest.mark.parametrize("omega_t", [1e-170, 5e-324])
def test_drude_lorentz_contrast_where_omega_t_squared_underflows(omega_p, omega_t):
    # xi^2 + omega_t^2 underflows to 0 at xi = 0 and for an xi whose square
    # underflows: that is the xi -> 0 limit, 0, not the nan of 0/0
    m = DrudeLorentz(omega_p=omega_p, omega_t=omega_t)
    with np.errstate(divide="raise", invalid="raise"):
        assert wavevector_contrast_imag(m, 0.0) == 0.0
        contrast = wavevector_contrast_imag(m, np.array([0.0, 1e-170, 1e-150]))
    assert contrast[0] == contrast[1] == 0.0
    # far above omega_t the contrast is the plasma's omega_p^2/c^2
    assert contrast[2] == pytest.approx(omega_p**2 / C**2, rel=1e-15)
    # eps(i xi) itself is 0/0 or omega_p^2/0 there: a ValueError naming the
    # underflow, not a ZeroDivisionError
    for xi in (omega_t, 1e-170):
        with pytest.raises(ValueError, match="underflows"):
            permittivity_imag(m, xi)
    # on the real axis omega_t^2 - omega^2 is then 0, the pole's own value
    for omega in (omega_t, 1e-170, 1e-163):
        with pytest.raises(ValueError, match="singular"):
            permittivity_real(m, omega)
        with pytest.raises(ValueError, match="singular"):
            wavevector_contrast_real(m, omega)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=50, deadline=None)
def test_drude_approaches_plasma_for_weak_damping(xi_scaled):
    # gamma at 1e-10 of the plasma frequency: relative distance to the
    # plasma model is gamma/xi <= 1e-7 over this grid
    w_p = 1e16
    xi = xi_scaled * w_p
    drude = permittivity_imag(Drude(omega_p=w_p, gamma=1e-10 * w_p), xi)
    plasma = permittivity_imag(Plasma(omega_p=w_p), xi)
    assert drude == pytest.approx(plasma, rel=1e-6)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=50, deadline=None)
def test_drude_lorentz_approaches_plasma_for_small_resonance(xi_scaled):
    w_p = 1e16
    xi = xi_scaled * w_p
    dl = permittivity_imag(DrudeLorentz(omega_p=w_p, omega_t=1e-8 * w_p), xi)
    plasma = permittivity_imag(Plasma(omega_p=w_p), xi)
    assert dl == pytest.approx(plasma, rel=1e-6)
