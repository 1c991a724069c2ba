"""Surface response diagonal: reflection coefficients and the Green function.

The ideal-mirror closed forms used throughout are

    imaginary axis: h_xx = e^(-2x) (1 + 2x + 4x^2) / (32 pi z^3)
                    h_zz = e^(-2x) (1 + 2x)       / (16 pi z^3),   x = xi z / c
    real axis:      h_xx = e^(2 i w) (1 - 2iw - 4w^2) / (32 pi z^3)
                    h_zz = e^(2 i w) (1 - 2iw)        / (16 pi z^3), w = omega z / c

and every numeric route must reproduce them.  Note the real-axis forms
grow like w^2 relative to the static value, so the response at large
omega z / c is enhanced, not suppressed.
"""

import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutroncp import greens
from neutroncp import (
    CONSTANTS,
    Drude,
    DrudeLorentz,
    FieldConfig,
    IntegrationError,
    PerfectConductor,
    Plasma,
    UnsupportedModelError,
    contracted_green_imag,
    contracted_green_real,
    permittivity_imag,
    permittivity_real,
    transition_frequency,
    u_du,
)
from neutroncp.materials import wavevector_contrast_imag, wavevector_contrast_real

C = CONSTANTS.c
PC = PerfectConductor()
GOLD_PLASMA = Plasma(omega_p=1.37e16)
GOLD_DRUDE = Drude(omega_p=1.37e16, gamma=4.10e12)
SILICON_DL = DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16)
MODELS = [GOLD_PLASMA, GOLD_DRUDE, SILICON_DL]
# fig1's plasma: omega_p equal to the spin-flip frequency at 2 T
FIG1_PLASMA = Plasma(omega_p=363494611.93541175)


def diag_imag(m, z, xi, **kw):
    # (h_xx, h_zz) through unit weights on the contracted quadrature
    return (
        contracted_green_imag(m, z, xi, 1.0, 0.0, **kw),
        contracted_green_imag(m, z, xi, 0.0, 1.0, **kw),
    )


def diag_real(m, z, omega):
    return (
        contracted_green_real(m, z, omega, 1.0, 0.0),
        contracted_green_real(m, z, omega, 0.0, 1.0),
    )


def mirror_imag(z, x):
    h_xx = math.exp(-2 * x) * (1 + 2 * x + 4 * x * x) / (32 * math.pi * z**3)
    h_zz = math.exp(-2 * x) * (1 + 2 * x) / (16 * math.pi * z**3)
    return h_xx, h_zz


def mirror_real(z, w):
    h_xx = cmath.exp(2j * w) * (1 - 2j * w - 4 * w * w) / (32 * math.pi * z**3)
    h_zz = cmath.exp(2j * w) * (1 - 2j * w) / (16 * math.pi * z**3)
    return h_xx, h_zz


# ---------------------------------------------------------------- fresnel
#
# r_s and r_p come from greens._reflection, the kernel both contracted
# integrands call.  The helpers below form its arguments the way those
# integrands do: decay constants on the imaginary axis, and on the real
# axis q = -i k_z, q_m = -i k_m with k_m the principal root of
# k_z^2 + contrast.


def reflection_imag(m, xi, k_par):
    q = math.hypot(xi / C, k_par)
    dq2 = wavevector_contrast_imag(m, xi)
    s2 = (xi / C) ** 2
    return greens._reflection(dq2, s2)(q, q * q, math.sqrt(q * q + dq2))


def reflection_real(m, omega, k_par):
    w2 = (omega / C) ** 2
    dq2 = wavevector_contrast_real(m, omega)
    k_z = np.sqrt(complex(w2 - k_par**2))
    k_m = np.sqrt(k_z**2 + dq2)
    return greens._reflection(-dq2, -w2)(-1j * k_z, -(k_z**2), -1j * k_m)


def test_mirror_reflection():
    # the ideal mirror is the kernel's limit of unbounded contrast: the
    # contracted integrands hard-code r_s = -1, r_p = +1 for it
    m = Plasma(omega_p=1e22)
    r_s, r_p = reflection_imag(m, 1e15, 1e7)
    assert r_s == pytest.approx(-1.0, abs=1e-6)
    assert r_p == pytest.approx(1.0, abs=1e-6)
    r_s, r_p = reflection_real(m, 1e15, 1e7)
    assert r_s == pytest.approx(-1.0, abs=1e-6)
    assert r_p == pytest.approx(1.0, abs=1e-6)


def test_plasma_normal_incidence_imag():
    # at xi = omega_p the permittivity is 2; normal incidence gives the
    # textbook (1 - n)/(1 + n) with n = sqrt(2)
    m = Plasma(omega_p=1e16)
    r_s, r_p = reflection_imag(m, 1e16, 0.0)
    n = math.sqrt(2.0)
    assert r_s == pytest.approx((1 - n) / (1 + n), rel=1e-12)
    assert r_p == pytest.approx((n - 1) / (n + 1), rel=1e-12)


def test_grazing_limit_imag():
    # k_par >> xi/c: r_s -> 0, r_p -> (eps - 1)/(eps + 1)
    m = Plasma(omega_p=1e16)
    xi = 1e16
    eps = 2.0
    r_s, r_p = reflection_imag(m, xi, 1e12)
    assert abs(r_s) < 1e-6
    assert r_p == pytest.approx((eps - 1) / (eps + 1), rel=1e-6)


def test_imag_axis_reflection_bounded():
    for m in MODELS:
        for xi in (1e12, 1e15, 1e17):
            for k_par in (1e5, 1e8, 1e10):
                r_s, r_p = reflection_imag(m, xi, k_par)
                assert -1.0 <= r_s <= 0.0
                assert 0.0 <= r_p <= 1.0


def test_real_axis_propagating_passive():
    # propagating incidence on a lossy medium: |r| <= 1
    m = GOLD_DRUDE
    omega = 2e16
    for frac in (0.1, 0.6, 0.99):
        r_s, r_p = reflection_real(m, omega, frac * omega / C)
        assert abs(r_s) <= 1.0 + 1e-12
        assert abs(r_p) <= 1.0 + 1e-12


def test_real_axis_total_internal_reflection_kink():
    # lossless dielectric below its resonance behaves like eps > 1
    m = SILICON_DL
    omega = 1e15
    r_s, _ = reflection_real(m, omega, 0.5 * omega / C)
    assert abs(r_s.imag) < 1e-12  # propagating on both sides: real r
    r_s, _ = reflection_real(m, omega, 2.0 * omega / C)
    assert abs(r_s) > 0.0  # evanescent branch still defined


def _textbook(eps, k_z, k_m):
    # r_s and r_p in the usual normal-wavevector form, without the
    # contrast rewriting the package uses
    return (k_z - k_m) / (k_z + k_m), (eps * k_z - k_m) / (eps * k_z + k_m)


def _upper(k):
    # the normal wavevector of a wave that decays away from the surface
    return k if k.imag >= 0.0 else -k


@pytest.mark.parametrize(
    "m, xi, k_scaled",
    [(GOLD_DRUDE, 1e15, 0.3), (GOLD_DRUDE, 1e13, 50.0), (SILICON_DL, 1e16, 2.0)],
)
def test_fresnel_imag_matches_textbook(m, xi, k_scaled):
    # at imaginary frequency both normal wavevectors are i times a decay
    # constant; the textbook form holds with the decay constants directly
    k_par = k_scaled * xi / C
    eps = permittivity_imag(m, xi)
    q = math.hypot(xi / C, k_par)
    q_m = math.sqrt(eps * (xi / C) ** 2 + k_par**2)
    r_s, r_p = _textbook(eps, q, q_m)
    got_s, got_p = reflection_imag(m, xi, k_par)
    assert got_s == pytest.approx(r_s, rel=1e-12)
    assert got_p == pytest.approx(r_p, rel=1e-12)


@pytest.mark.parametrize(
    "m, omega, k_scaled",
    [
        (GOLD_DRUDE, 1e15, 0.5),  # complex eps, propagating
        (GOLD_DRUDE, 1e15, 3.0),  # complex eps, evanescent
        (SILICON_DL, 1e15, 1.02),  # lossless, frustrated total reflection
        (SILICON_DL, 1e15, 2.0),  # lossless, evanescent in both media
        (GOLD_PLASMA, 2.0 * GOLD_PLASMA.omega_p, 0.95),  # 0 < eps < 1, beyond the kink
    ],
)
def test_fresnel_real_matches_textbook(m, omega, k_scaled):
    k_par = k_scaled * omega / C
    eps = permittivity_real(m, omega)
    k_z = _upper(cmath.sqrt((omega / C) ** 2 - k_par**2))
    k_m = _upper(cmath.sqrt(eps * (omega / C) ** 2 - k_par**2))
    r_s, r_p = _textbook(eps, k_z, k_m)
    got_s, got_p = reflection_real(m, omega, k_par)
    assert got_s == pytest.approx(r_s, rel=1e-12)
    assert got_p == pytest.approx(r_p, rel=1e-12)


# ------------------------------------------------- imaginary-axis Green


@pytest.mark.parametrize("x", [0.0, 0.05, 0.5, 3.0, 20.0])
def test_mirror_green_imag(x):
    z = 1e-6
    h_xx, h_zz = diag_imag(PC, z, x * C / z)
    ref_xx, ref_zz = mirror_imag(z, x)
    assert h_xx == pytest.approx(ref_xx, rel=1e-9)
    assert h_zz == pytest.approx(ref_zz, rel=1e-9)


def test_mirror_green_scale_invariance():
    # z^3 h depends on xi z/c only; checks the internal scaling of the k-integral by z
    x = 0.7
    for z1, z2 in [(1e-9, 1e-6), (1e-6, 1e-3)]:
        a_xx, a_zz = diag_imag(PC, z1, x * C / z1)
        b_xx, b_zz = diag_imag(PC, z2, x * C / z2)
        assert a_xx * z1**3 == pytest.approx(b_xx * z2**3, rel=1e-9)
        assert a_zz * z1**3 == pytest.approx(b_zz * z2**3, rel=1e-9)


def test_static_zz_is_twice_xx():
    for m in [PC, GOLD_PLASMA]:
        for z in (1e-9, 1e-7, 1e-5):
            h_xx, h_zz = diag_imag(m, z, 0.0)
            assert h_zz == pytest.approx(2.0 * h_xx, rel=1e-9)
            assert h_xx > 0.0


@pytest.mark.parametrize("z_derivative", [False, True])
@pytest.mark.parametrize(
    "m", [PC, *MODELS, FIG1_PLASMA], ids=["pc", "plasma", "drude", "drude-lorentz", "fig1-plasma"]
)
def test_static_zz_is_twice_xx_to_the_bit(m, z_derivative):
    # u_du takes u_dd from g(0) on this identity: at xi = 0 the
    # k-integrand has t^2 = rho^2, so h_zz(0) = 2 h_xx(0) holds bit for
    # bit, value and z-derivative, from 1 nm to 1 km
    for z in np.geomspace(1e-9, 1e3, 13):
        for rel_tol in (1e-7, 1e-13):
            h_xx, h_zz = (
                np.ravel(contracted_green_imag(m, z, 0.0, *w, rel_tol, z_derivative))
                for w in ((1.0, 0.0), (0.0, 1.0))
            )
            assert np.array_equal(h_zz, 2.0 * h_xx), (z, rel_tol, h_xx, h_zz)


def test_weights_are_scalars():
    xi = _first_batch()
    with pytest.raises(TypeError):
        contracted_green_imag(PC, 1e-8, xi, np.full(xi.shape, 4.0 / 3.0), 2.0 / 3.0)


def test_static_response_vanishes_without_dc_conductivity():
    for m in [GOLD_DRUDE, SILICON_DL]:
        assert diag_imag(m, 1e-7, 0.0) == (0.0, 0.0)


def test_imag_axis_sign_and_mirror_bound():
    # both diagonal components stay positive and below the ideal mirror
    for m in MODELS:
        for z in (1e-9, 1e-7, 1e-5):
            for x in (0.01, 0.3, 2.0):
                h_xx, h_zz = diag_imag(m, z, x * C / z)
                ref_xx, ref_zz = diag_imag(PC, z, x * C / z)
                assert 0.0 < h_xx <= ref_xx * (1 + 1e-9)
                assert 0.0 < h_zz <= ref_zz * (1 + 1e-9)


def test_static_limit_continuous():
    # approaching xi = 0 from above must agree with the xi = 0 branch
    z = 1e-7
    scale = diag_imag(PC, z, 0.0)[0]
    for m in [PC, GOLD_PLASMA, GOLD_DRUDE, SILICON_DL]:
        lo_xx, lo_zz = diag_imag(m, z, 1e-12 * C / z)
        at0_xx, at0_zz = diag_imag(m, z, 0.0)
        assert abs(lo_xx - at0_xx) < 1e-6 * scale
        assert abs(lo_zz - at0_zz) < 1e-6 * scale


@pytest.mark.parametrize("xi", [1e-60, 1.37e-84])
def test_plasma_far_below_omega_p_is_the_static_limit(xi):
    # eps - 1 is up to 1e200 here, past where (eps q + q_m)^2 would
    # overflow; _reflection's scaled r_p stays finite, and r_p x^2 is far
    # below the value
    static = contracted_green_imag(GOLD_PLASMA, 1e-9, 0.0, 1.0, 0.0)
    got = contracted_green_imag(GOLD_PLASMA, 1e-9, xi, 1.0, 0.0)
    assert abs(got - static) <= 1e-15 * abs(static)


def test_deep_evanescent_cutoff():
    # xi z / c beyond exp underflow is exactly zero, not an overflow trap
    assert diag_imag(GOLD_PLASMA, 1e-3, 400.0 * C / 1e-3) == (0.0, 0.0)


# ------------------------------------------------------ real-axis Green


@pytest.mark.parametrize("w", [0.01, 0.3, 2.0, 10.0])
def test_mirror_green_real(w):
    z = 1e-6
    h_xx, h_zz = diag_real(PC, z, w * C / z)
    ref_xx, ref_zz = mirror_real(z, w)
    assert h_xx == pytest.approx(ref_xx, rel=1e-9)
    assert h_zz == pytest.approx(ref_zz, rel=1e-9)


def test_real_axis_response_grows_with_frequency():
    # |Re h_xx| at omega z/c = 10 is ~145x the static value for a mirror
    z = 1e-6
    static = diag_imag(PC, z, 0.0)[0]
    h_xx = diag_real(PC, z, 10.0 * C / z)[0]
    ratio = h_xx.real / static
    expected = (math.cos(20.0) * (1 - 400.0) + 20.0 * math.sin(20.0)) / 1.0
    assert ratio == pytest.approx(expected, rel=1e-6)
    assert abs(ratio) > 100.0


def test_real_axis_static_continuity():
    z = 1e-7
    h_xx, h_zz = diag_real(PC, z, 1e-3 * C / z)
    static_xx, static_zz = diag_imag(PC, z, 0.0)
    assert h_xx.real == pytest.approx(static_xx, rel=1e-5)
    assert h_zz.real == pytest.approx(static_zz, rel=1e-5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_drude_real_axis_scales_down_to_vanishing_fields():
    # fig2's Drude metal at 1 nm: far below gamma, Re h goes like B^2 and
    # Im h like B, down to 1e-150 T, where eps - 1 is about 2.5e161 i and
    # r_p's (eps q + q_m)^2 would overflow
    z = 1e-9
    for weights in ((1.0, 0.0), (0.0, 1.0)):
        ref = None
        for b in 10.0 ** np.arange(-100.0, -151.0, -5.0):
            h = contracted_green_real(GOLD_DRUDE, z, transition_frequency(FieldConfig(b)), *weights)
            scaled = (h.real / b**2, h.imag / b)
            ref = ref or scaled
            assert scaled == pytest.approx(ref, rel=1e-14)


def test_surface_mode_region_rejected():
    # lossless permittivity <= -1 puts a pole on the integration path
    with pytest.raises(UnsupportedModelError):
        diag_real(GOLD_PLASMA, 1e-7, 0.5 * GOLD_PLASMA.omega_p)
    w_t = SILICON_DL.omega_t
    with pytest.raises(UnsupportedModelError):
        diag_real(SILICON_DL, 1e-7, 1.01 * w_t)


def test_real_axis_outside_surface_mode_region():
    # plasma is transparent above omega_p; dielectric below resonance
    h_xx, h_zz = diag_real(GOLD_PLASMA, 1e-7, 2.0 * GOLD_PLASMA.omega_p)
    assert math.isfinite(abs(h_xx)) and math.isfinite(abs(h_zz))
    assert math.isfinite(abs(diag_real(SILICON_DL, 1e-7, 1e15)[0]))
    assert math.isfinite(abs(diag_real(GOLD_DRUDE, 1e-7, 1e12)[0]))


def test_non_convergence_carries_result():
    # tolerance below the roundoff floor cannot be met; the error object
    # still exposes the best estimate for diagnostics
    with pytest.raises(IntegrationError) as info:
        diag_imag(GOLD_PLASMA, 1e-7, 1e15, rel_tol=1e-15)
    res = info.value.result
    assert res.abs_error > 0.0
    assert not res.converged


def test_non_convergence_reports_the_returned_quantity():
    # the error's value is the estimate of what the call returns, in
    # 1/m^3, not the raw integral in the quadrature variable
    z, xi = 1e-7, 1e15
    converged = contracted_green_imag(GOLD_PLASMA, z, xi, 1.0, 0.0, rel_tol=1e-13)
    with pytest.raises(IntegrationError) as info:
        contracted_green_imag(GOLD_PLASMA, z, xi, 1.0, 0.0, rel_tol=1e-15)
    res = info.value.result
    assert res.value == pytest.approx(converged, rel=1e-12)
    assert 0.0 < res.abs_error <= 1e-13 * converged


def test_real_axis_non_convergence_reports_each_segment_in_1_per_m3(monkeypatch):
    # each segment's error payload is that segment as it enters the
    # result, which is -1j * propagating - evanescent
    z, omega = 1e-7, 1e15
    converged = contracted_green_real(GOLD_DRUDE, z, omega, 1.3, 0.7)
    reported = {}
    for name in ("integrate_finite_oscillatory", "integrate_semi_infinite"):
        engine = getattr(greens, name)

        def unconverged(*args, engine=engine, **kw):
            return replace(engine(*args, **kw), converged=False)

        with monkeypatch.context() as patch:
            patch.setattr(greens, name, unconverged)
            with pytest.raises(IntegrationError) as info:
                contracted_green_real(GOLD_DRUDE, z, omega, 1.3, 0.7)
        reported[name] = info.value.result.value
    rebuilt = -1j * reported["integrate_finite_oscillatory"] - reported["integrate_semi_infinite"]
    assert rebuilt == pytest.approx(converged, rel=1e-14)


# ------------------------------------------------------------- xi batches

# At z = 1e-8 m the last entry has x = xi z / c ~ 1.7e3, past the
# underflow cutoff; Drude-type contrasts vanish at xi = 0.
BATCH_XI = np.array([0.0, 1e10, 1e13, 1e15, 1e16, 3e16, 1e17, 1e18, 5e19])


@pytest.mark.parametrize("m", [PC, GOLD_PLASMA, GOLD_DRUDE, SILICON_DL])
def test_batched_contraction_matches_scalar(m):
    z, rel_tol = 1e-8, 1e-10
    batch = contracted_green_imag(m, z, BATCH_XI, 1.3, 0.7, rel_tol=rel_tol)
    assert batch.shape == BATCH_XI.shape
    for xi, got in zip(BATCH_XI, batch):
        ref = contracted_green_imag(m, z, float(xi), 1.3, 0.7, rel_tol=rel_tol)
        assert abs(got - ref) <= rel_tol * abs(ref)
    assert batch[-1] == 0.0
    if isinstance(m, (Drude, DrudeLorentz)):
        assert batch[0] == 0.0


def _first_batch():
    # xi as u_du's first k-integral batch passes it at 2 T, with the
    # averaged cross weights for every entry: one xi = 0 entry, g(0),
    # then the grid
    omega = transition_frequency(FieldConfig(2.0))
    return np.append(0.0, omega * np.exp(np.arange(-6.0, 9.0)))


@pytest.mark.parametrize("z_derivative", [False, True])
@pytest.mark.parametrize("m", [PC, *MODELS], ids=["pc", "plasma", "drude", "drude-lorentz"])
def test_kernel_scratch_does_not_alias_its_inputs(m, z_derivative):
    # the k-integrand works in place on arrays of its own: a second
    # identical call returns the same bits, and the caller's xi array is
    # left as it was
    xi = _first_batch()
    cases = [
        (xi, 4.0 / 3.0, 2.0 / 3.0),  # u_du's first batch
        (xi[1:], 4.0 / 3.0, 2.0 / 3.0),  # a later batch, the grid alone
        (xi[1:].reshape(3, -1), 4.0 / 3.0, 2.0 / 3.0),  # an xi array of any shape
        (float(xi[4]), 4.0 / 3.0, 2.0 / 3.0),  # scalar xi
        (0.0, 2.0 / 3.0, 1.0 / 3.0),  # u_dd's one entry
    ]
    for args in cases:
        before = [np.copy(a) for a in args]
        first, again = (
            contracted_green_imag(m, 1e-8, *args, rel_tol=1e-9, z_derivative=z_derivative)
            for _ in range(2)
        )
        for a, b in zip(np.atleast_1d(first), np.atleast_1d(again)):
            assert np.array_equal(a, b)
        for a, b in zip(args, before):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("m", [PC, *MODELS], ids=["pc", "plasma", "drude", "drude-lorentz"])
def test_k_integrand_scratch_does_not_leak(monkeypatch, m):
    # the k-integrand's intermediates live in a scratch buffer that every
    # call reuses, and grows for a larger batch; the arrays it returns are
    # its own: each is unchanged after every later call, and a static
    # entry gives the same bits before and after a large z-derivative batch
    rule = greens.integrate_trapezoid
    returned = []

    def keeping(f, lo, hi, rel_tol):
        def g(w):
            out = f(w)
            returned.append((out, np.copy(out)))
            return out

        return rule(g, lo, hi, rel_tol)

    monkeypatch.setattr(greens, "integrate_trapezoid", keeping)
    static = contracted_green_imag(m, 1e-7, 0.0, 2.0 / 3.0, 1.0 / 3.0, rel_tol=1e-9)
    for z_derivative in (False, True):
        for z in (1e-9, 1e-6):
            u_du(z, FieldConfig(2.0), m, rel_tol=1e-9, z_derivative=z_derivative)
    contracted_green_imag(
        m, 1e-8, np.geomspace(1e10, 1e18, 400), 1.3, 0.7, rel_tol=1e-12, z_derivative=True
    )
    again = contracted_green_imag(m, 1e-7, 0.0, 2.0 / 3.0, 1.0 / 3.0, rel_tol=1e-9)
    assert np.array_equal(again, static)
    assert len(returned) > 5
    for out, copy in returned:
        assert np.array_equal(out, copy)


def test_reflection_takes_scalars_and_complex_arrays():
    # _reflection serves both axes: Python scalars, real or complex, and
    # arrays of the nodes' shape give the same r_s and r_p entry by entry,
    # and it writes to none of its arguments
    for m, omega in ((GOLD_DRUDE, 1e15), (SILICON_DL, 1e15), (GOLD_PLASMA, 3e16)):
        w2 = (omega / C) ** 2
        dq2 = wavevector_contrast_real(m, omega)
        k_par = np.array([0.3, 0.9, 1.02, 2.0, 5.0]) * omega / C
        k_z = np.sqrt((w2 - k_par**2).astype(complex))
        k_m = np.sqrt(k_z**2 + dq2)
        q, q2, q_m = -1j * k_z, -(k_z**2), -1j * k_m
        kept = [np.copy(a) for a in (q, q2, q_m)]
        reflect = greens._reflection(-dq2, -w2, weight_p=0.5)
        r_s, r_p = reflect(q, q2, q_m)
        for a, b in zip((q, q2, q_m), kept):
            assert np.array_equal(a, b)
        for j in range(q.size):
            s_j, p_j = reflect(complex(q[j]), complex(q2[j]), complex(q_m[j]))
            assert r_s[j] == pytest.approx(s_j, rel=1e-15)
            assert r_p[j] == pytest.approx(p_j, rel=1e-15)
    # the imaginary axis's call: a column of constants per entry against
    # an (entry, node) array, which gives each entry's row of r_s, r_p
    xi = np.array([1e13, 1e15, 3e16])
    k_par = np.geomspace(1e5, 1e9, 7)
    for m in MODELS:
        dq2, s2 = wavevector_contrast_imag(m, xi), (xi / C) ** 2
        q = np.hypot((xi / C)[:, None], k_par)
        q_m = np.sqrt(q * q + dq2[:, None])
        kept = [np.copy(a) for a in (dq2, s2, q, q_m)]
        column = greens._reflection(dq2[:, None], s2[:, None])
        r_s, r_p = column(q, q * q, q_m)
        for a, b in zip((dq2, s2, q, q_m), kept):
            assert np.array_equal(a, b)
        for i in range(xi.size):
            s_i, p_i = greens._reflection(dq2[i], s2[i])(q[i], q[i] ** 2, q_m[i])
            assert np.array_equal(r_s[i], s_i) and np.array_equal(r_p[i], p_i)
        # with out, the same bits are formed in out's first two arrays and
        # nothing but out is written
        out = np.full((3, *q.shape), np.nan)
        into = column(q, q * q, q_m, out=out)
        for a, b in zip((dq2, s2, q, q_m), kept):
            assert np.array_equal(a, b)
        for got, want, plane in zip(into, (r_s, r_p), out):
            assert np.shares_memory(got, plane) and np.array_equal(got, want)
    # the imaginary axis with Python floats, and with contrast = 0
    r_s, r_p = reflection_imag(GOLD_DRUDE, 1e15, 1e7)
    assert -1.0 < r_s < 0.0 < r_p < 1.0
    r_s, r_p = greens._reflection(0.0, 1.0)(2.0, 4.0, 2.0)
    assert r_s == 0.0 and r_p == 0.0


def test_batch_names_the_xi_that_did_not_converge(monkeypatch):
    # row 7 of 15 becomes noise, whose halved sums never agree; the
    # error must name its xi, not that of a row that settled
    xis = np.geomspace(1e12, 1e18, 15)
    z = 1e-8
    rule = greens.integrate_trapezoid
    rng = np.random.default_rng(3)

    def one_noisy(f, lo, hi, rel_tol):
        def rows(w):
            out = np.array(f(w))
            out[7] = rng.random(len(w))
            return out

        return rule(rows, lo, hi, rel_tol)

    monkeypatch.setattr(greens, "integrate_trapezoid", one_noisy)
    with pytest.raises(IntegrationError, match=re.escape(f"xi={xis[7]:.3e}, z={z:.3e}")) as info:
        contracted_green_imag(GOLD_DRUDE, z, xis, 1.3, 0.7)
    assert not info.value.result.converged


# The k-integrals of u_du at 2 T (fig2's field): xi = 0, then omega e^s
# from s_lo = ln(rel_tol/4 min(1, c/(z omega))) to ln(350 c/(z omega)),
# where e^(-2x) leaves the double range.  u_du's own sum stops sooner, at
# x = X(rel_tol) (27.25 at rel_tol 1e-14), and takes g(0) below its
# lower edges; the batch here still spans the whole range up to x = 350.
OMEGA_2T = transition_frequency(FieldConfig(2.0))


def u_du_xi_batch(z, rel_tol, nodes=30):
    ratio = C / (z * OMEGA_2T)
    s = np.linspace(math.log(rel_tol / 4.0 * min(1.0, ratio)), math.log(350.0 * ratio), nodes)
    return np.append(0.0, OMEGA_2T * np.exp(s))


@given(
    st.sampled_from([FIG1_PLASMA, GOLD_PLASMA, GOLD_DRUDE, SILICON_DL, PC]),
    st.floats(min_value=-12.0, max_value=3.0),
    st.floats(min_value=-11.0, max_value=-3.0),
)
@settings(max_examples=200, deadline=None)
def test_batch_meets_rel_tol_over_z_and_tolerance(m, log_z, log_tol):
    # every entry within its rel_tol of the rel_tol 1e-13 solve, for z
    # from 1 pm to 1 km; the ideal mirror against its closed form, which
    # is taken as zero past the cut-off x = 350 as the code takes it (the
    # last node can round past it).  Near x = 350 and z = 1 km the values
    # are subnormal, which adds a rounding of up to 2^-1075 to each
    z, rel_tol = 10.0**log_z, 10.0**log_tol
    xis = u_du_xi_batch(z, rel_tol)
    got = contracted_green_imag(m, z, xis, 4.0 / 3.0, 2.0 / 3.0, rel_tol=rel_tol)
    if m is PC:
        x = xis * z / C
        poly = 4.0 / 3.0 * (1 + 2 * x + 4 * x * x) / 32 + 2.0 / 3.0 * (1 + 2 * x) / 16
        closed = poly * np.exp(-2 * x) / (math.pi * z**3)
        ref = np.where(x <= greens._UNDERFLOW_X, closed, 0.0)
    else:
        ref = contracted_green_imag(m, z, xis, 4.0 / 3.0, 2.0 / 3.0, rel_tol=1e-13)
    assert (np.abs(got - ref) <= rel_tol * np.abs(ref) + 2**-1074).all()


@pytest.mark.parametrize("m", [GOLD_DRUDE, SILICON_DL, Drude(3.6e8, 1e6)], ids=repr)
@pytest.mark.parametrize("z", [1e-12, 1e-9, 1.0, 1e3])
def test_static_edge_is_zero_where_the_contrast_depends_on_xi(m, z):
    # a Drude or Drude-Lorentz contrast goes like xi or xi^2, so g has no
    # flat start and u_du has no row edge for it
    assert greens.static_min_d(m, z) == 0.0


@pytest.mark.parametrize(
    "log_d", [None, *range(-12, 7)], ids=lambda k: "mirror" if k is None else f"d=1e{k}"
)
def test_row_edge_bound_holds_over_decades_of_d(log_d):
    # static_min_d's docstring bounds |g(x)/g(0) - 1| by 13 x^2/min(d, 1)
    # for the mirror and the plasma, the bound of u_du's row edge, which
    # can land anywhere below X(1e-14) = 27.25 (at x = 0.5 for fig2's
    # mirror at 1 nm).  Measured with these solves: 12.78 at d = 1
    # exactly for h_xx alone (the cross weights at theta = 0, the static
    # ones at pi/2), at small x, 3.11 for the orientation average and
    # 7.04 for a z-derivative; the mirror stays at 2.02
    z = 1e-6
    m = PC if log_d is None else Plasma(C * math.sqrt(10.0**log_d) / z)
    d = math.inf if m is PC else (m.omega_p / C) ** 2 * z * z
    assert log_d != 0 or d == 1.0
    x = np.geomspace(1e-7, 27.25, 19)
    xis = np.append(0.0, x * C / z)
    bound = 13.0 * x * x / min(d, 1.0)
    for c2 in (1.0, 0.0, 1.0 / 3.0):  # theta = 0, pi/2 and the average
        for weights in ((1.0 + c2, 1.0 - c2), (1.0 - c2, c2)):  # cross, static
            rows = contracted_green_imag(m, z, xis, *weights, rel_tol=1e-13, z_derivative=True)
            for g in rows:  # value and z-derivative
                assert (np.abs(g[1:] / g[0] - 1.0) <= bound).all(), (c2, weights)


def _k_integral_steps(monkeypatch):
    """The finest step h of each k-integral the rule takes, in call order.

    h is read from the nodes f was called on, the grid h Z, so it does
    not depend on how the rule groups its calls.
    """
    rule = greens.integrate_trapezoid
    steps = []

    def stepped(f, lo, hi, tol):
        nodes = []

        def g(w):
            nodes.append(w)
            return f(w)

        res = rule(g, lo, hi, tol)
        steps.append(np.diff(np.unique(np.concatenate(nodes))).min())
        return res

    monkeypatch.setattr(greens, "integrate_trapezoid", stepped)
    return steps


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9])
@pytest.mark.parametrize(
    "m, zs",
    [
        (PC, (1e-9, 1e-6)),
        (GOLD_PLASMA, (1e-9, 1e-6)),
        (GOLD_DRUDE, (1e-9, 1e-6)),
        (SILICON_DL, (1e-9, 1e-6)),
        (FIG1_PLASMA, (8.2e-4, 0.82, 820.0)),
    ],
    ids=["pc", "plasma", "drude", "drude-lorentz", "fig1-plasma"],
)
def test_u_du_k_integrals_settle_within_four_calls(monkeypatch, m, zs, rel_tol):
    # every k-integral of u_du, over fig2's and fig1's distance ranges,
    # settles by h = 1/8 in ln v: four calls of a rule that starts on the
    # h = 1 grid, two of one that starts on h = 1/4.  Counts do not
    # depend on the machine
    steps = _k_integral_steps(monkeypatch)
    for z in zs:
        u_du(z, FieldConfig(2.0), m, rel_tol=rel_tol)
    assert len(steps) >= len(zs) and min(steps) >= 1 / 8


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9])
@pytest.mark.parametrize("m", [PC, SILICON_DL], ids=["pc", "drude-lorentz"])
def test_u_du_k_integrals_settle_within_three_calls(monkeypatch, m, rel_tol):
    # the rule's error model stops these k-integrals at h = 1/4 over
    # fig2's range (three calls from the h = 1 grid, one from h = 1/4);
    # Drude, both plasmas still reach h = 1/8 at some z
    steps = _k_integral_steps(monkeypatch)
    zs = np.geomspace(1e-9, 1e-6, 7)
    for z in zs:
        u_du(float(z), FieldConfig(2.0), m, rel_tol=rel_tol)
    assert len(steps) >= len(zs) and min(steps) >= 1 / 4


# ---------------------------------------------------------- frozen values
#
# 1.3 h_xx + 0.7 h_zz at the default rel_tol, as the code computed it
# before the reflection formulas were shared between the two axes.  At
# each point the values at rel_tol 1e-9 and 1e-11 agree to about 1e-10,
# so the 1e-9 bound below catches a change of algebra or of square-root
# branch, not quadrature noise.  The lossless Drude-Lorentz points below
# resonance integrate across the frustrated-total-reflection band, where
# the medium wavevector is real; taking the other square-root branch
# there moves Im h by more than 1e-3 of |h|.

FROZEN_IMAG = [
    (GOLD_PLASMA, 0.0, 1e-08, 1.465642138414742e21),
    (GOLD_PLASMA, 1e15, 1e-08, 1.4822140168417973e21),
    (GOLD_PLASMA, 1e17, 1e-08, 4.14038203975775e18),
    (GOLD_DRUDE, 1e12, 1e-07, 8.652053669169768e18),
    (GOLD_DRUDE, 1e16, 1e-09, 3.7189550367918254e22),
    (SILICON_DL, 1e16, 1e-09, 2.672038203973628e21),
    (SILICON_DL, 1e14, 1e-06, 127586971041518.2),
    (SILICON_DL, 3e17, 1e-08, 15937175653317.21),
]

FROZEN_REAL = [
    # plasma above omega_p: 0 < eps < 1, total-reflection kink in k
    (GOLD_PLASMA, 1.5e16, 1e-08, 3.356778119649114e21 + 6.232191232018868e21j),
    # lossless Drude-Lorentz below resonance: eps > 1
    (SILICON_DL, 1e12, 1e-07, -300254312026.2769 - 308305478.8716587j),
    (SILICON_DL, 1e14, 1e-07, -2973095840551781 - 297006026378976.8j),
    (SILICON_DL, 1e15, 5e-08, -5.122398852218108e17 - 2.5351912704810048e17j),
    (SILICON_DL, 3e16, 3e-09, -6.943265834086119e21 - 6.977675908298434e21j),
    # lossless Drude-Lorentz above the surface-mode band: 0 < eps < 1
    (SILICON_DL, 1e17, 5e-10, 5.554611992722492e23 + 2.6556062786987233e23j),
    # lossy Drude
    (GOLD_DRUDE, 1e12, 1e-07, 8.913938029514101e18 - 5.34934436256526e18j),
    (GOLD_DRUDE, 1e15, 1e-08, 1.4465737551916158e21 - 6.119184815253728e18j),
    (GOLD_DRUDE, 2e16, 1e-08, 2.7323848896442525e20 + 5.444278112359053e21j),
]


@pytest.mark.parametrize("m, xi, z, ref", FROZEN_IMAG)
def test_contracted_green_imag_frozen(m, xi, z, ref):
    got = contracted_green_imag(m, z, xi, 1.3, 0.7)
    assert abs(got - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("m, omega, z, ref", FROZEN_REAL)
def test_contracted_green_real_frozen(m, omega, z, ref):
    got = contracted_green_real(m, z, omega, 1.3, 0.7)
    assert abs(got - ref) <= 1e-9 * abs(ref)
