"""Potential assembly: dual routes, limits, closed forms, and angle handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutroncp import (
    CONSTANTS,
    NEUTRON,
    Drude,
    DrudeLorentz,
    FieldConfig,
    IntegrationError,
    PerfectConductor,
    Plasma,
    UnsupportedModelError,
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
from neutroncp import greens, potential
from neutroncp.cli import SweepRequest, run_sweep
from power_law import local_power_law

K = CONSTANTS
PC = PerfectConductor()
BASE = K.hbar**2 * NEUTRON.gamma_n**2 * K.mu0


def test_transition_frequency_and_critical_distance():
    assert transition_frequency(FieldConfig(2.0)) == pytest.approx(
        363494611.93541175, rel=1e-12
    )
    assert critical_distance(FieldConfig(2.0)) == pytest.approx(
        0.8247507615140914, rel=1e-12
    )
    assert critical_distance(FieldConfig(5.0)) == pytest.approx(
        0.3299003046056366, rel=1e-12
    )
    assert critical_distance(FieldConfig(0.0)) == math.inf


def test_u_dd_mirror_closed_form():
    # static contraction with weights (sin^2, cos^2) against the mirror:
    # u_dd = mu0 (hbar gamma / 2)^2 (1 + cos^2) / (64 pi z^3)
    z = 1e-7
    for theta in (0.0, 0.3, math.pi / 2):
        c2 = math.cos(theta) ** 2
        expected = BASE * (1.0 + c2) / (256.0 * math.pi * z**3)
        got = u_dd(z, FieldConfig(2.0, theta), PC)
        assert got == pytest.approx(expected, rel=1e-9)


def test_u_dd_field_independent():
    z = 1e-7
    a = u_dd(z, FieldConfig(0.0, 0.4), PC)
    b = u_dd(z, FieldConfig(5.0, 0.4), PC)
    assert a == b


def test_mirror_dual_route():
    # the general double-integral path against the reduced single
    # integral; independent routes, must agree to quadrature accuracy.
    # At 820 m and rel_tol 1e-11 inner tolerances fall below the smallest
    # normal float.
    cfg = FieldConfig(2.0, 0.7)
    for z, rel_tol in (
        (1e-8, 1e-9), (1e-3, 1e-9), (0.8247507615140914, 1e-9), (8.0, 1e-9), (820.0, 1e-11)
    ):
        general = u_du(z, cfg, PC, rel_tol=rel_tol)[1]
        single = u_du_mirror_single_integral(z, cfg, rel_tol=1e-11)
        assert general == pytest.approx(single, rel=1e-7)


def test_unsettled_outer_sum_raises(monkeypatch):
    # a contraction that differs at every node never lets the halved
    # trapezoidal sums agree: u_du must raise, and a sweep row through
    # it must say error but keep u_dd, whose own solve settles.  With the
    # z-derivative only the derivative is noisy, and both sums must settle
    rng = np.random.default_rng(7)

    def noisy(m, z, xi, w_xx, w_zz, rel_tol, z_derivative=False):
        g = 1.0 + rng.random(np.shape(xi))
        return (np.ones(np.shape(xi)), g) if z_derivative else g

    monkeypatch.setattr(potential, "contracted_green_imag", noisy)
    for z_derivative in (False, True):
        with pytest.raises(IntegrationError, match=r"z=3\.000e-08, B=2\.000e\+00"):
            u_du(3e-8, FieldConfig(2.0), PC, rel_tol=1e-9, z_derivative=z_derivative)
    for outputs in (("u_dd", "u_du", "u_ground"), ("u_dd", "exponent")):
        req = SweepRequest(model="pc", z_min=3e-8, z_max=3e-8, points=1, outputs=outputs)
        (row,) = run_sweep(req)
        assert row["status"] == "error" and math.isnan(row.get("u_du", math.nan))
        assert math.isfinite(row["u_dd"]) and math.isnan(row.get("exponent", math.nan))


@pytest.mark.parametrize("a", [1.5, 1.75, 1.9, 1.99, 1.999, 2.0, 2.001, 2.01, 2.1, 2.25, 2.5])
def test_mirror_series_and_continued_fraction_agree(a):
    # the mirror reference takes f, g and 1/a - f from the Si/Ci series
    # below a = 2 and from E1's continued fraction from there on; next to
    # the switch both routes must give the same numbers.  1/a - f is
    # compared on the scale 1/a, from which the series takes it
    ser = potential._si_ci_series(a)
    cf = potential._si_ci_continued_fraction(a)
    h_ser, h_cf = complex(*ser[:2]), complex(*cf[:2])
    assert abs(h_ser - h_cf) <= 1e-15 * abs(h_cf)
    assert abs(ser[2] - cf[2]) <= 1e-15 / a


@pytest.mark.parametrize("m", [PC, Plasma(1.37e16), Drude(1.37e16, 4.10e12)])
def test_u_du_below_the_roundoff_floor_raises(m):
    # its k-integrals are solved to at best the 1e-14 floor, and no
    # trapezoidal sum claims better than 1e-14: a rel_tol of 1e-15 cannot
    # be backed, so u_du raises instead of returning a number.  At 1e-14,
    # with its k-integrals solved to 1e-14, it settles
    cfg = FieldConfig(2.0)
    with pytest.raises(IntegrationError, match=r"z=1\.000e-08, B=2\.000e\+00") as info:
        u_du(1e-8, cfg, m, rel_tol=1e-15)
    _, settled = u_du(1e-8, cfg, m, rel_tol=1e-14)
    assert not info.value.result.converged
    assert info.value.result.value == pytest.approx(settled, rel=1e-13)


def test_fig1_plasma_u_du_settles_at_tight_tolerance():
    # eps - 1 taken as (1 + (omega_p/xi)^2) - 1 cancels far above the
    # plasma frequency; the node-to-node jitter that gives h_xx keeps
    # the trapezoidal sum from settling at these tolerances
    m = Plasma(omega_p=363494611.93541175)
    cfg = FieldConfig(2.0, None)
    for z, rel_tol in ((1e-9, 1e-12), (1e-6, 1e-13)):
        tight = u_du(z, cfg, m, rel_tol=rel_tol)[1]
        loose = u_du(z, cfg, m, rel_tol=1e-9)[1]
        assert abs(tight - loose) <= 1e-9 * abs(tight)


def test_zero_field_collapses_to_half_static():
    # the Lorentzian weight becomes a half delta at xi = 0
    z = 1e-6
    for theta in (0.0, 1.1, None):
        cfg0 = FieldConfig(0.0, theta)
        got = u_du(z, cfg0, PC)[1]
        c2 = 1.0 / 3.0 if theta is None else math.cos(theta) ** 2
        expected = BASE * (3.0 - c2) / (256.0 * math.pi * z**3)
        assert got == pytest.approx(expected, rel=1e-9)
    # u_dd is the static piece of that B = 0 solve, to the bit, at any field
    for m in (PC, GOLD_PLASMA, GOLD_DRUDE, SILICON_DL):
        for theta in (0.0, math.pi / 2, None):
            zero = u_du(z, FieldConfig(0.0, theta), m)[0]
            assert u_dd(z, FieldConfig(0.0, theta), m) == zero
            assert u_dd(z, FieldConfig(2.0, theta), m) == zero


def test_zero_field_continuity():
    # B -> 0 limit of the full integral matches the collapsed branch
    z = 1e-6
    cfg_tiny = FieldConfig(1e-9, 0.5)
    cfg_zero = FieldConfig(0.0, 0.5)
    a = u_du(z, cfg_tiny, PC, rel_tol=1e-9)[1]
    b = u_du(z, cfg_zero, PC, rel_tol=1e-9)[1]
    assert a == pytest.approx(b, rel=1e-6)


def test_zero_field_ground_state_angle_independent():
    # at B = 0 the static and cross weights sum to (2, 1) at every angle
    z = 1e-7
    vals = [
        u_dd(z, FieldConfig(0.0, th), PC) + u_du(z, FieldConfig(0.0, th), PC)[1]
        for th in (0.0, 0.9, math.pi / 2, None)
    ]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-9)


def test_nonretarded_ground_state_angle_independent():
    # the 1/z^3 coefficient is isotropic even though the pieces are not
    z = 1e-9
    cfg_a = FieldConfig(2.0, 0.0)
    cfg_b = FieldConfig(2.0, math.pi / 2)
    ua = u_dd(z, cfg_a, PC) + u_du(z, cfg_a, PC)[1]
    ub = u_dd(z, cfg_b, PC) + u_du(z, cfg_b, PC)[1]
    assert ua == pytest.approx(ub, rel=1e-6)


def test_asymptote_margins():
    z_c = critical_distance(FieldConfig(2.0))
    for theta in (0.0, None, math.pi / 2):
        cfg = FieldConfig(2.0, theta)
        near = z_c / 300.0
        dev = u_du(near, cfg, PC)[1] / nonretarded_mirror_u_du(near, cfg) - 1.0
        assert abs(dev) < 0.01
        far = 300.0 * z_c
        dev = u_du(far, cfg, PC)[1] / retarded_mirror_u_du(far, cfg) - 1.0
        assert abs(dev) < 0.01


@pytest.mark.parametrize("omega_p", [1e85, 1e100, 1e150, 1.3e154])
@pytest.mark.parametrize("z, b_ext", [(1.0, 1.0), (1e-6, 2.0), (1e-9, 2.0)])
@pytest.mark.parametrize("rel_tol", [1e-2, 1e-9])
def test_plasma_far_above_every_frequency_is_the_mirror(omega_p, z, b_ext, rel_tol):
    # eps - 1 = (omega_p/xi)^2 is above 1e130 on these rows, past where
    # r_p's (eps q + q_m)^2 would overflow; the plasma is then the ideal
    # mirror.  1.3e154 rad/s is about the largest omega_p whose square is
    # finite
    cfg = FieldConfig(b_ext)
    got = u_du(z, cfg, Plasma(omega_p), rel_tol=rel_tol)
    want = u_du(z, cfg, PC, rel_tol=rel_tol)
    for g, w in zip(got, want):
        assert abs(g - w) <= rel_tol * abs(w)


def test_retarded_asymptote_requires_field():
    with pytest.raises(ValueError):
        retarded_mirror_u_du(1.0, FieldConfig(0.0, 0.3))


def test_orientation_average_matches_exact_weights():
    # angle enters only through cos^2; the generic average must agree
    # with the closed-weight theta=None evaluation
    z = 1e-8
    avg = orientation_average(lambda th: u_dd(z, FieldConfig(2.0, th), PC))
    assert avg == pytest.approx(u_dd(z, FieldConfig(2.0, None), PC), rel=1e-10)
    cfg = FieldConfig(0.05, None)
    m = DrudeLorentz(omega_p=3e12, omega_t=1e13)
    avg2 = orientation_average(
        lambda th: nonretarded_leading(m, FieldConfig(0.05, th), z=3e-9)
    )
    assert avg2 == pytest.approx(nonretarded_leading(m, cfg, z=3e-9), rel=1e-12)


def test_leading_forms_frozen_values():
    # reference numbers from a separate closed-form evaluation
    assert nonretarded_leading(PC, FieldConfig(1e-3, None), z=1e-9) == pytest.approx(
        2.2959810741211063e-33, rel=1e-12
    )
    assert nonretarded_leading(
        Plasma(omega_p=1e9), FieldConfig(1e-3, None), z=1e-6
    ) == pytest.approx(1.2773117354094483e-53, rel=1e-12)
    assert nonretarded_leading(
        Drude(omega_p=1e14, gamma=1e11),
        FieldConfig(0.05502144830568696, None),
        z=3e-8,
    ) == pytest.approx(1.6643328742187468e-45, rel=1e-12)
    assert nonretarded_leading(
        DrudeLorentz(omega_p=3e12, omega_t=1e13), FieldConfig(0.01, None), z=3e-9
    ) == pytest.approx(9.184850621824072e-51, rel=1e-11)


def test_leading_form_drude_domain():
    m = Drude(omega_p=1e14, gamma=1e11)
    assert nonretarded_leading(m, FieldConfig(0.0, None), z=1e-8) == 0.0
    with pytest.raises(ValueError):
        # omega/gamma >= 1 is outside the validity of the x ln x law
        nonretarded_leading(m, FieldConfig(1000.0, None), z=1e-8)


def test_c3_coefficients():
    assert neutron_c3() == pytest.approx(2.2959810741211065e-60, rel=1e-12)
    d_sq = (K.e * K.a_bohr) ** 2
    assert atomic_c3(d_sq) == pytest.approx(5.383729281259783e-50, rel=1e-12)
    assert c3_ratio() == pytest.approx(4.264666654184323e-11, rel=1e-12)
    # closed-form ratio reproduces the quotient of the two coefficients
    assert c3_ratio() == pytest.approx(neutron_c3() / atomic_c3(d_sq), rel=1e-9)


def test_local_power_law_exact():
    assert local_power_law(2.0, lambda z: 7.0 / z**3) == pytest.approx(-3.0, rel=1e-9)
    with pytest.raises(ValueError):
        local_power_law(1.0, lambda z: 0.0)


def test_resonant_small_frequency_limit():
    # as the splitting vanishes, the resonant piece approaches twice the
    # collapsed cross piece (the same static contraction)
    z = 1e-7
    theta = 0.4
    r = u_resonant(z, FieldConfig(1e-6, theta), PC, rel_tol=1e-10)
    half = u_du(z, FieldConfig(0.0, theta), PC, rel_tol=1e-10)[1]
    assert r == pytest.approx(2.0 * half, rel=1e-6)


def test_resonant_requires_field():
    with pytest.raises(ValueError):
        u_resonant(1e-7, FieldConfig(0.0, 0.4), PC)


def test_resonant_unsupported_for_plasma():
    with pytest.raises(UnsupportedModelError):
        u_resonant(1e-7, FieldConfig(2.0, 0.4), Plasma(omega_p=1.37e16))


@given(
    st.floats(min_value=-15.0, max_value=-12.0),
    st.floats(min_value=-9.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_resonant_next_to_omega_t(log_delta, log_z):
    # fig2's Drude-Lorentz with omega_t a relative delta above the
    # transition frequency has eps of order 1/delta: a near-mirror, whose
    # resonant piece is within 2.0e-9 of the mirror's (delta = 1e-12,
    # 1 nm) and closer for smaller delta.  A delta below it puts eps far
    # under -1 with no loss, and that must raise before any quadrature
    cfg = FieldConfig(2.0)
    omega = transition_frequency(cfg)
    delta, z = 10.0**log_delta, 10.0**log_z
    above = DrudeLorentz(omega_p=2.3e16, omega_t=omega * (1.0 + delta))
    mirror = u_resonant(z, cfg, PC, rel_tol=1e-9)
    assert abs(u_resonant(z, cfg, above, rel_tol=1e-9) - mirror) <= 1e-6 * abs(mirror)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    below = DrudeLorentz(omega_p=2.3e16, omega_t=omega * (1.0 - delta))
    with pytest.MonkeyPatch.context() as patch:
        for name in ("integrate_finite_oscillatory", "integrate_semi_infinite"):
            patch.setattr(greens, name, no_quadrature)
        with pytest.raises(UnsupportedModelError, match="surface-mode pole"):
            u_resonant(z, cfg, below, rel_tol=1e-9)


def test_resonant_defined_for_lossy_and_dielectric():
    cfg = FieldConfig(2.0, 0.4)
    assert math.isfinite(u_resonant(1e-7, cfg, Drude(omega_p=1.37e16, gamma=4.1e12)))
    assert math.isfinite(
        u_resonant(1e-7, cfg, DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16))
    )


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(-1.0, 0.3)
    with pytest.raises(ValueError):
        FieldConfig(2.0, 3.5)
    # the models square the spin-flip frequency |gamma_n| B, which must stay finite
    FieldConfig(7e145)
    for b_ext in (1e146, 1e200):
        with pytest.raises(ValueError, match="square overflows"):
            FieldConfig(b_ext)


# ---------------------------------------------------------- frozen values
#
# u_du for the fig2 surfaces at 2 T, orientation averaged, and one fig1
# plasma point, as the per-node double quadrature computed them at
# rel_tol 1e-11.  At each point the values at rel_tol 1e-9 and 1e-11
# agree to 1e-10 or better, so the bound below is the requested
# tolerance, not quadrature noise.  The ideal mirror has its own oracle
# (test_mirror_dual_route); these pin the non-mirror models.

GOLD_PLASMA = Plasma(omega_p=1.37e16)
GOLD_DRUDE = Drude(omega_p=1.37e16, gamma=4.10e12)
SILICON_DL = DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16)
FIG1_PLASMA = Plasma(omega_p=363494611.93541175)

FROZEN_U_DU = [
    (GOLD_PLASMA, 1e-9, 1.4634324311219348e-36),
    (GOLD_PLASMA, 3e-8, 1.2611724294075038e-38),
    (GOLD_PLASMA, 1e-6, 1.434446170806248e-42),
    (GOLD_DRUDE, 1e-9, 8.257144252209017e-40),
    (GOLD_DRUDE, 3e-8, 2.0225888634654273e-41),
    (GOLD_DRUDE, 1e-6, 1.1903695152581635e-43),
    (SILICON_DL, 1e-9, 2.2870726275350594e-44),
    (SILICON_DL, 3e-8, 5.504047454599285e-47),
    (SILICON_DL, 1e-6, 4.991273567346724e-50),
    (FIG1_PLASMA, 8.247507615140914e-2, 1.2797666921788448e-59),
]


@pytest.mark.parametrize("m, z, ref", FROZEN_U_DU)
def test_u_du_frozen(m, z, ref):
    rel_tol = 1e-9
    got = u_du(z, FieldConfig(2.0, None), m, rel_tol=rel_tol)[1]
    assert abs(got - ref) <= rel_tol * abs(ref)


# ------------------------------------------------- oracle for the early stop
#
# The trapezoidal rule takes a converging sum's error from its last two
# differences and stops a halving sooner than the last difference alone
# would.  Over each model's distance range, extended ten times each way,
# u_dd, u_du and their z-derivatives must still lie within rel_tol of the
# rel_tol 1e-13 solve, and the ideal mirror within rel_tol of its reduced
# integral.

ORACLE_MODELS = {
    "pc": (PC, 1e-9, 1e-6),
    "plasma": (GOLD_PLASMA, 1e-9, 1e-6),
    "drude": (GOLD_DRUDE, 1e-9, 1e-6),
    "drude-lorentz": (SILICON_DL, 1e-9, 1e-6),
    "fig1-plasma": (FIG1_PLASMA, 8.247507615140914e-4, 8.247507615140914e2),
}


@given(
    st.sampled_from(sorted(ORACLE_MODELS)),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-11.0, max_value=-5.0),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=math.pi)),
)
@settings(max_examples=60, deadline=None)
def test_u_du_meets_rel_tol_of_the_tight_solve(name, u, log_tol, theta):
    m, z_lo, z_hi = ORACLE_MODELS[name]
    z = z_lo / 10.0 * (100.0 * z_hi / z_lo) ** u
    rel_tol = 10.0**log_tol
    cfg = FieldConfig(2.0, theta)
    got = u_du(z, cfg, m, rel_tol=rel_tol, z_derivative=True)
    ref = u_du(z, cfg, m, rel_tol=1e-13, z_derivative=True)
    for a, b in zip(np.ravel(got), np.ravel(ref)):
        assert abs(a - b) <= rel_tol * abs(b)
    if m is PC:
        single = u_du_mirror_single_integral(z, cfg, rel_tol=1e-12)
        assert abs(got[1][0] - single) <= rel_tol * single


# --------------------------------------------- the ends of the outer sum
#
# u_du's sum in s = ln(xi/omega) stops at x = xi z/c = X(rel_tol), where the
# mirror bound (1 + 2x + 4x^2) e^(-2x) falls below 1e-6 rel_tol, and takes
# g(0) for g(xi) below its lower edges.  The ideal mirror must stay within
# 0.05 rel_tol of its closed form at rel_tol 1e-14, where the margin is
# thinnest: a fixed X = 20 reads 0.167 at 820 m and 0.100 at 100 m.  The
# bound is a few ulp, so it is checked at the decades and 820 m only: a
# 121-point scan of the same range reaches 0.053 between them, and the
# sum up to x = 350 reaches 0.057.  Against that sum up to x = 350, the
# underflow cut-off, the cut-off must spend at most a tenth of rel_tol on
# every model, value and z-derivative (measured: 1e-5 rel_tol at 1e-7,
# where the z-derivative's tail leads, and rounding, 0.05, at 1e-14).


def test_cutoff_from_rel_tol():
    assert [potential._cutoff_x(t) for t in (1e-7, 1e-8, 1e-14)] == [18.75, 20.0, 27.25]
    # the mirror bound just below rel_tol 1e-6 at X, not yet a step before
    for rel_tol in (1e-7, 1e-10, 1e-14):
        x = potential._cutoff_x(rel_tol)
        bound = [(1 + 2 * y + 4 * y * y) * math.exp(-2 * y) for y in (x - 0.25, x)]
        assert bound[0] >= 1e-6 * rel_tol > bound[1]
    assert potential._cutoff_x(1e-320) == greens._UNDERFLOW_X


@pytest.mark.parametrize("z", [10.0**e for e in range(-9, 3)] + [820.0])
def test_mirror_u_du_meets_its_closed_form_at_the_cutoff(z):
    rel_tol = 1e-14
    cfg = FieldConfig(2.0)
    got = u_du(z, cfg, PC, rel_tol=rel_tol)[1]
    ref = u_du_mirror_single_integral(z, cfg)
    assert abs(got - ref) <= 0.05 * rel_tol * ref


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
@pytest.mark.parametrize("rel_tol", [1e-7, 1e-14])
def test_cutoff_spends_a_tenth_of_rel_tol(monkeypatch, name, rel_tol):
    m = ORACLE_MODELS[name][0]
    cfg = FieldConfig(2.0)
    for z in np.geomspace(1e-12, 1e3, 6):
        got = np.ravel(u_du(z, cfg, m, rel_tol=rel_tol, z_derivative=True))
        with monkeypatch.context() as patch:
            patch.setattr(potential, "_cutoff_x", lambda rel_tol: greens._UNDERFLOW_X)
            full = np.ravel(u_du(z, cfg, m, rel_tol=rel_tol, z_derivative=True))
        assert (np.abs(got - full) <= 0.1 * rel_tol * np.abs(full)).all()


# u_du's lower edges take g(0) for g below them: for the mirror and the
# plasma the row edge, from |g/g(0) - 1| < 13 x^2/min(d, 1) and
# sech(s)/2 <= min(e^s, e^-s); for Drude and Drude-Lorentz, where
# g(0) = 0, the contrast edge, from closed-form bounds on both sides.
# Each may spend 0.05 rel_tol of |u|.  Against the same solve with the
# share at 0 (no edge), every value and z-derivative must move by at most
# a tenth of rel_tol, over fields from 1 mT to 50 T and theta 0, pi/2 and
# the average.  The mirror and the plasmas run at d = contrast z^2 from
# 1e-8 to 1e6 (the mirror at the plasmas' heights); fig1's plasma also at
# the decades of its crossover z_c = c/omega at 2 T, from 1e-3 z_c to
# 1e3 z_c, where the row edge takes its cubic half; fig2's Drude and
# Drude-Lorentz, and one of each with its material frequency near the
# 2 T transition frequency (3.7e8 rad/s), at z by decades from 0.1 nm to
# 100 m.  Measured: 0.0524 rel_tol for fig2's plasma at d = 1, theta = 0,
# 2 T and rel_tol 1e-9, 0.0477 for fig1's plasma at z_c (theta = 0, 2 T,
# rel_tol 1e-9), 0.0087 for the mirror, and 0.0062 for fig2's Drude at
# 1 nm, 50 T, theta = 0 and rel_tol 1e-12.


def _plasma_heights(plasma):
    # d = (omega_p z/c)^2 = 10^-8 .. 10^6
    return [K.c * math.sqrt(10.0**log_d) / plasma.omega_p for log_d in range(-8, 7)]


_EDGE_FIELDS = (1e-3, 2.0, 50.0)
_Z_C = K.c / transition_frequency(FieldConfig(2.0))
EDGE_CASES = {
    "pc-at-plasma-heights": (PC, _plasma_heights(GOLD_PLASMA), _EDGE_FIELDS),
    "plasma": (GOLD_PLASMA, _plasma_heights(GOLD_PLASMA), _EDGE_FIELDS),
    "pc-at-fig1-plasma-heights": (PC, _plasma_heights(FIG1_PLASMA), _EDGE_FIELDS),
    "fig1-plasma": (FIG1_PLASMA, _plasma_heights(FIG1_PLASMA), _EDGE_FIELDS),
    "fig1-plasma-at-crossover": (FIG1_PLASMA, [_Z_C * 10.0**k for k in range(-3, 4)], (2.0,)),
    **{
        name: (m, list(np.geomspace(1e-10, 1e2, 13)), _EDGE_FIELDS)
        for name, m in [
            ("drude", GOLD_DRUDE),
            ("drude-lorentz", SILICON_DL),
            ("drude-gamma-near-omega", Drude(omega_p=1.37e16, gamma=4e8)),
            ("drude-lorentz-omega-t-near-omega", DrudeLorentz(2.3e16, 4e8)),
        ]
    },
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9, 1e-12])
def test_lower_edges_spend_a_tenth_of_rel_tol(monkeypatch, case, rel_tol):
    m, zs, fields = EDGE_CASES[case]
    for z in zs:
        for b_ext in fields:
            for theta in (0.0, math.pi / 2, None):
                cfg = FieldConfig(b_ext, theta)
                got = np.ravel(u_du(z, cfg, m, rel_tol=rel_tol, z_derivative=True))
                with monkeypatch.context() as patch:
                    patch.setattr(potential, "_ROW_EDGE_SHARE", 0.0)
                    full = np.ravel(u_du(z, cfg, m, rel_tol=rel_tol, z_derivative=True))
                assert (np.abs(got - full) <= 0.1 * rel_tol * np.abs(full)).all(), (
                    z, b_ext, theta
                )


# ------------------------------------------------------ u_dd in u_du's solve
#
# u_du returns u_dd as g(0), its one xi = 0 entry, times the ratio of the
# static and cross weights' w_xx + 2 w_zz (h_zz(0) = 2 h_xx(0)); g(0) is
# solved at the batch tolerance: rel_tol/10 raised to 1e-13, but never
# above rel_tol (nor below the 1e-14 floor).  Its u_dd and z-derivative
# must stay within rel_tol of the static contraction's, solved with the
# static weights, for their edge cases (w_xx = 0 at theta = 0, w_zz near
# 0 at pi/2) and between them, with and without a field.


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 1.0, None], ids=["0", "pi/2", "1", "avg"])
@pytest.mark.parametrize("b_ext", [0.0, 2.0])
@pytest.mark.parametrize("z_derivative", [False, True])
@pytest.mark.parametrize("rel_tol", [1e-8, 1e-14])
def test_folded_u_dd_meets_rel_tol(name, theta, b_ext, z_derivative, rel_tol):
    m, z_lo, z_hi = ORACLE_MODELS[name]
    cfg = FieldConfig(b_ext, theta)
    c2 = 1.0 / 3.0 if theta is None else math.cos(theta) ** 2
    half = 0.5 * K.mu0 * (K.hbar * NEUTRON.gamma_n / 2.0) ** 2
    for z in (z_lo, math.sqrt(z_lo * z_hi), z_hi):
        folded, _ = u_du(z, cfg, m, rel_tol=rel_tol, z_derivative=z_derivative)
        got = np.ravel(folded)
        # the static contraction (and its z-derivative), weights (sin^2, cos^2)
        ref = half * np.ravel(
            greens.contracted_green_imag(
                m, z, 0.0, 1.0 - c2, c2, rel_tol, z_derivative=z_derivative
            )
        )
        assert got.shape == ref.shape
        assert (np.abs(got - ref) <= rel_tol * np.abs(ref)).all(), (z, got, ref)


@pytest.mark.parametrize("b_ext", [0.0, 2.0])
@pytest.mark.parametrize("rel_tol", [1e-8, 1e-13, 1e-14])
def test_folded_u_dd_is_solved_to_rel_tol(monkeypatch, b_ext, rel_tol):
    # u_dd is taken from g(0), the solve's one xi = 0 entry, so its
    # k-integral must be asked for rel_tol or less, also below 1e-13,
    # where the batch tolerance is rel_tol itself
    asked = []

    def spy(m, z, xi, w_xx, w_zz, rel_tol, z_derivative=False):
        asked.extend([rel_tol] * np.count_nonzero(np.ravel(xi) == 0.0))
        return greens.contracted_green_imag(m, z, xi, w_xx, w_zz, rel_tol, z_derivative)

    monkeypatch.setattr(potential, "contracted_green_imag", spy)
    u_du(1e-8, FieldConfig(b_ext, 0.0), PC, rel_tol=rel_tol)
    assert len(asked) == 1 and asked[0] <= rel_tol


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
@pytest.mark.parametrize("rel_tol", [1e-14, 5e-14])
def test_u_du_below_1e_13_solves_u_dd_in_its_batch(monkeypatch, name, rel_tol):
    # below rel_tol 1e-13 the batch tolerance is rel_tol itself, so u_dd
    # still rides in u_du's first batch and is never solved on its own
    def no_u_dd(*args, **kwargs):
        raise AssertionError("u_dd solved on its own")

    monkeypatch.setattr(potential, "u_dd", no_u_dd)
    m, z_lo, z_hi = ORACLE_MODELS[name]
    z = math.sqrt(z_lo * z_hi)
    for z_derivative in (False, True):
        pieces = u_du(z, FieldConfig(2.0), m, rel_tol=rel_tol, z_derivative=z_derivative)
        assert len(pieces) == 2 and np.isfinite(pieces).all()
