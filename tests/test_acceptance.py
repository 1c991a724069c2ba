"""Acceptance battery for the library.

Each test is one numbered criterion; `pytest -v` prints one pass/fail
line per criterion.  03c checks the c3 ratio against CODATA values
that share no code with the package.  07a encodes a literature claim
that our independent evaluation contradicts; it is implemented
faithfully at the stated tolerance and is expected to fail, with the
analysis inline.
"""

import io
import math
import time

import numpy as np
import pytest

from neutroncp import (
    CONSTANTS,
    Drude,
    DrudeLorentz,
    FieldConfig,
    PerfectConductor,
    Plasma,
    atomic_c3,
    c3_ratio,
    critical_distance,
    earth_potential,
    integrate_semi_infinite,
    neutron_c3,
    nonretarded_leading,
    nonretarded_mirror_u_du,
    retarded_mirror_u_du,
    sphere_potential,
    u_dd,
    u_du,
    u_du_mirror_single_integral,
)
from neutroncp.cli import SweepRequest, run_sweep, write_csv
from power_law import local_power_law

PC = PerfectConductor()
GOLD_PLASMA = Plasma(omega_p=1.37e16)
GOLD_DRUDE = Drude(omega_p=1.37e16, gamma=4.10e12)
SILICON_DL = DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16)


def ground(z, cfg, m, rel_tol):
    return u_dd(z, cfg, m, rel_tol=rel_tol) + u_du(z, cfg, m, rel_tol=rel_tol)[1]


def test_criterion_01_mirror_dual_route_agreement():
    # general double-integral route vs the reference for the ideal mirror,
    # its reduced single integral in closed form (the auxiliary functions
    # of Si and Ci), across nine decades around the crossover and three
    # field angles, to 1e-6 relative, in under ten seconds
    start = time.monotonic()
    z_c = critical_distance(FieldConfig(2.0))
    worst = 0.0
    for k in range(-4, 5):
        z = z_c * 10.0**k
        for theta in (0.0, math.pi / 4, math.pi / 2):
            cfg = FieldConfig(2.0, theta)
            general = u_du(z, cfg, PC, rel_tol=1e-8)[1]
            single = u_du_mirror_single_integral(z, cfg, rel_tol=1e-10)
            worst = max(worst, abs(general / single - 1.0))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6, f"worst relative deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_mirror_asymptotes():
    # 1% agreement with the closed small- and large-distance forms at a
    # factor 300 inside each regime
    z_c = critical_distance(FieldConfig(2.0))
    for theta in (0.0, None, math.pi / 2):
        cfg = FieldConfig(2.0, theta)
        near = z_c / 300.0
        dev_near = u_du(near, cfg, PC, rel_tol=1e-8)[1] / nonretarded_mirror_u_du(
            near, cfg
        ) - 1.0
        assert abs(dev_near) <= 0.01, f"theta={theta}: near dev {dev_near:.3e}"
        far = 300.0 * z_c
        dev_far = u_du(far, cfg, PC, rel_tol=1e-8)[1] / retarded_mirror_u_du(
            far, cfg
        ) - 1.0
        assert abs(dev_far) <= 0.01, f"theta={theta}: far dev {dev_far:.3e}"


def test_criterion_03a_neutron_c3_closed_form():
    # orientation-averaged small-distance ground state times z^3
    z = 1e-9
    cfg = FieldConfig(2.0, None)
    c3_numeric = ground(z, cfg, PC, rel_tol=1e-9) * z**3
    assert c3_numeric == pytest.approx(neutron_c3(), rel=1e-6)


def test_criterion_03b_c3_ratio_identity():
    d_sq = (CONSTANTS.e * CONSTANTS.a_bohr) ** 2
    assert c3_ratio() == pytest.approx(neutron_c3() / atomic_c3(d_sq), rel=1e-6)


def test_criterion_03c_printed_ratio_magnitude():
    # neutron_c3 / atomic_c3(e^2 a_bohr^2) = 3 (mu_n / (c e a_bohr))^2,
    # which is 4.335e-11 from the CODATA 2018 values written out here
    # rather than read from the package; the closed form's 1.6% gap
    # comes from g rounded to -3.8 and from m_n where the nuclear
    # magneton has m_p
    mu_n = 0.96623651e-26  # J / T, magnitude of the neutron moment
    c = 299792458.0
    e = 1.602176634e-19
    a_bohr = 5.29177210903e-11
    assert c3_ratio() == pytest.approx(3.0 * (mu_n / (c * e * a_bohr)) ** 2, rel=0.03)
    # this confirms the moment's magnitude only: the identity itself,
    # with the 1/(64 pi) of neutron_c3, is the package's own (03b).  The
    # literature quotes 1.7e-10, a factor 4 larger.  Hypothesis, not
    # settled by the abstract: the quote takes the gyromagnetic ratio as
    # g e / m instead of g e / 2m, doubling the moment that enters squared


def test_criterion_04_leading_table_convergence():
    # each model's numeric ground state against its closed leading form
    # inside the stated validity window
    start = time.monotonic()

    cfg = FieldConfig(1e-3, None)
    dev = ground(1e-6, cfg, PC, rel_tol=1e-8) / nonretarded_leading(
        PC, cfg, z=1e-6
    ) - 1.0
    assert abs(dev) <= 1e-3, f"mirror: {dev:.3e}"

    plasma = Plasma(omega_p=1e9)
    for z in (1e-6, 1e-5, 1e-4):
        dev = ground(z, cfg, plasma, rel_tol=1e-8) / nonretarded_leading(
            plasma, cfg, z=z
        ) - 1.0
        assert abs(dev) <= 0.01, f"plasma z={z}: {dev:.3e}"

    drude = Drude(omega_p=1e14, gamma=1e11)
    cfg_dr = FieldConfig(0.05502144830568696, None)  # omega/gamma = 1e-4
    dev = ground(3e-8, cfg_dr, drude, rel_tol=1e-8) / nonretarded_leading(
        drude, cfg_dr, z=3e-8
    ) - 1.0
    assert abs(dev) <= 0.05, f"drude: {dev:.3e}"

    dl = DrudeLorentz(omega_p=3e12, omega_t=1e13)
    cfg_dl = FieldConfig(0.01, None)
    dev = ground(3e-9, cfg_dl, dl, rel_tol=1e-8) / nonretarded_leading(
        dl, cfg_dl, z=3e-9
    ) - 1.0
    assert abs(dev) <= 0.01, f"drude-lorentz: {dev:.3e}"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_ground_state_repulsive():
    # positive ground-state potential for every model, field, distance
    models = [PC, GOLD_PLASMA, GOLD_DRUDE, SILICON_DL]
    zs = np.geomspace(1e-9, 1e-3, 12)
    for m in models:
        for b in (0.0, 0.1, 2.0, 5.0):
            cfg = FieldConfig(b, None)
            for z in zs:
                val = ground(float(z), cfg, m, rel_tol=1e-6)
                if b == 0.0 and isinstance(m, (Drude, DrudeLorentz)):
                    assert val >= 0.0, f"{m} B=0 z={z}: {val}"
                else:
                    assert val > 0.0, f"{m} B={b} z={z}: {val}"


def test_criterion_06_power_law_exponents():
    # local log-slope: -3 for the mirror well inside the non-retarded
    # regime, -1 for a dilute plasma across 1-100 um, within 0.02
    cfg = FieldConfig(2.0, None)
    slope = local_power_law(1e-6, lambda z: ground(z, cfg, PC, rel_tol=1e-8))
    assert abs(slope + 3.0) <= 0.02, f"mirror slope {slope:.4f}"

    plasma = Plasma(omega_p=1e9)
    cfg_p = FieldConfig(1e-3, None)
    for z in (1e-6, 1e-5, 1e-4):
        slope = local_power_law(z, lambda zz: ground(zz, cfg_p, plasma, rel_tol=1e-8))
        assert abs(slope + 1.0) <= 0.02, f"plasma slope at z={z}: {slope:.4f}"


def test_criterion_07a_surface_beats_sphere_gravity():
    # claim under test: at 2 T the surface potential magnitude exceeds
    # the test sphere's gravitational potential for every model over
    # 1 nm - 1 um.  Our evaluation finds that every model falls below
    # the sphere's level somewhere in the window.  That level is nearly
    # flat (~G M m / r, r = 11.3 mm), while the ideal mirror, deep in its
    # c3 / z^3 regime (z_c = 0.82 m), crosses it at
    # (c3 / sphere(0))^(1/3) = 25.4 nm; the plasma crosses it below
    # 10 nm, the Drude metal is below it from 1 nm on, and the
    # dielectric is seven or more orders of magnitude below it.  The
    # abstract compares with the gravity of the same surface, whose
    # size it does not give, not with this sphere
    cfg = FieldConfig(2.0, None)
    models = {
        "pc": PC,
        "plasma": GOLD_PLASMA,
        "drude": GOLD_DRUDE,
        "drude-lorentz": SILICON_DL,
    }
    violations = []
    for name, m in models.items():
        for z in np.geomspace(1e-9, 1e-6, 7):
            u = ground(float(z), cfg, m, rel_tol=1e-6)
            g = sphere_potential(float(z))
            if not abs(u) > g:
                violations.append(f"{name} z={z:.2e}: |u|={abs(u):.3e} <= {g:.3e}")
    assert not violations, "; ".join(violations)


def test_criterion_07b_earth_ordering():
    # the mirror curve crosses above earth's potential somewhere in the
    # window while the lossy conductor never does
    cfg = FieldConfig(2.0, None)
    zs = np.geomspace(1e-9, 1e-6, 7)
    pc_above = any(
        ground(float(z), cfg, PC, rel_tol=1e-6) > earth_potential(float(z)) for z in zs
    )
    drude_above = any(
        ground(float(z), cfg, GOLD_DRUDE, rel_tol=1e-6) > earth_potential(float(z))
        for z in zs
    )
    assert pc_above
    assert not drude_above


def test_criterion_08_critical_distance_at_5T():
    z_c = critical_distance(FieldConfig(5.0))
    assert z_c == pytest.approx(0.3299003046056366, rel=1e-12)
    assert z_c >= 0.32


def _planck_tail(power):
    # t^power / (e^t - 1); guard the harmless overflow of e^t at huge t,
    # where the quotient is exactly zero in double precision
    def f(t):
        with np.errstate(over="ignore"):
            return t**power / np.expm1(t)

    return f


def test_criterion_09_quadrature_honesty_battery():
    # ten analytic integrals; the reported error bound must cover the
    # true error within a factor of ten, at rel_tol 1e-9
    battery = [
        (lambda t: np.exp(-t), (), 1.0),
        (lambda t: t**2 * np.exp(-t), (), 2.0),
        (lambda t: np.exp(-(t**2)), (), math.sqrt(math.pi) / 2.0),
        (lambda t: 1.0 / (1.0 + t * t), (), math.pi / 2.0),
        (_planck_tail(1), (), math.pi**2 / 6.0),
        (lambda t: np.exp(-t) * np.cos(10.0 * t), (), 1.0 / 101.0),
        (lambda t: np.exp(-t / 100.0) / 100.0, (), 1.0),
        (lambda t: np.sqrt(t) * np.exp(-t), (), math.sqrt(math.pi) / 2.0),
        (lambda t: np.exp(-((t - 1000.0) ** 2)), (990.0, 1000.0, 1010.0), math.sqrt(math.pi)),
        (_planck_tail(3), (), math.pi**4 / 15.0),
    ]
    for i, (f, bps, exact) in enumerate(battery):
        res = integrate_semi_infinite(f, 1e-9, breakpoints=bps)
        assert res.converged, f"integral {i} did not converge"
        true_err = abs(res.value - exact)
        assert true_err <= 10.0 * res.abs_error, (
            f"integral {i}: true error {true_err:.3e} vs reported {res.abs_error:.3e}"
        )


def test_criterion_10_sweep_determinism():
    req = SweepRequest(
        model="drude",
        omega_p=1.37e16,
        gamma=4.1e12,
        b_ext=2.0,
        z_min=1e-9,
        z_max=1e-7,
        points=5,
        outputs=("u_dd", "u_du", "u_ground"),
        rel_tol=1e-6,
    )
    first = run_sweep(req, jobs=1)
    second = run_sweep(req, jobs=1)
    parallel = run_sweep(req, jobs=2)
    assert first == second == parallel  # exact float equality

    def render(rows):
        buf = io.StringIO()
        write_csv(rows, ["z", "u_dd", "u_du", "u_ground", "status"], {"a": 1}, buf)
        return buf.getvalue()

    assert render(first) == render(parallel)
