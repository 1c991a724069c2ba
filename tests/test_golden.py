"""u_du and the inner k-integral against high-precision references.

tests/golden_values.json holds mpmath values (tanh-sinh at 30 digits,
textbook Fresnel forms) written by tests/make_golden_values.py; they
share no quadrature rule and no kernel code with the package.  Each
value must come out within the requested tolerance.  The inner values
include the z-derivatives z dh/dz, and at rel_tol 1e-13 the inner
values must reach double precision.  The static contractions of fig1's
plasma (xi = 0, z = 1e-12 to 1e-6 m) and the Drude-type models at small
xi (1e-3 to 1e6 rad/s) check that a medium decay constant decades below
v = 1 is still resolved.  The ideal mirror's u_du, from 1 nm to 1 km,
comes from its closed form in the sine and cosine integrals, at 40
digits, and from 10 to 100 km for the reference alone.  fig2's plasma
has u_du and its z-derivative z du_du/dz from 10 to 50 nm, where its
static decay constant omega_p z / c passes 1 (22 nm), orientation
averaged, and at 30 nm with the field along the normal and in the
surface.  The real-axis contractions of the resonant piece come from
the k-integral over the propagating segment, cut into periods, and the
evanescent tail, at 30 digits or more; those the original path cannot
reach (large w = omega z / c, eps - 1 up to 2e17) come from the same
integral on the vertical line k_z z = w + iu, which reproduces the
former to 1e-20.
"""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from neutroncp import (
    CONSTANTS,
    Drude,
    DrudeLorentz,
    FieldConfig,
    IntegrationError,
    PerfectConductor,
    Plasma,
    contracted_green_imag,
    contracted_green_real,
    transition_frequency,
    u_du,
    u_du_mirror_single_integral,
)

GOLDEN = json.loads(Path(__file__).with_name("golden_values.json").read_text(encoding="utf-8"))
MODELS = {"plasma": Plasma, "drude": Drude, "drude-lorentz": DrudeLorentz}
REL_TOL = 1e-9


def material(name):
    return MODELS[name](**GOLDEN["models"][name])


@pytest.mark.parametrize(
    "entry", GOLDEN["u_du"], ids=lambda e: f"{e['model']}-{e['z']:g}"
)
def test_u_du_golden(entry):
    ref = float(entry["u_du"])
    got = u_du(entry["z"], FieldConfig(2.0, None), material(entry["model"]), rel_tol=REL_TOL)[1]
    assert abs(got - ref) <= REL_TOL * abs(ref)


@pytest.mark.parametrize(
    "entry", GOLDEN["inner"], ids=lambda e: f"{e['model']}-{e['z']:g}-{e['xi']:g}"
)
def test_inner_golden(entry):
    m = material(entry["model"])
    for weights, key in (((1.0, 0.0), "h_xx"), ((0.0, 1.0), "h_zz")):
        ref = float(entry[key])
        got = contracted_green_imag(m, entry["z"], entry["xi"], *weights, rel_tol=REL_TOL)
        assert abs(got - ref) <= REL_TOL * abs(ref), key


@pytest.mark.parametrize(
    "entry", GOLDEN["inner"], ids=lambda e: f"{e['model']}-{e['z']:g}-{e['xi']:g}"
)
def test_inner_golden_z_derivative(entry):
    m = material(entry["model"])
    for weights, key in (((1.0, 0.0), "xx"), ((0.0, 1.0), "zz")):
        got, z_dgot = contracted_green_imag(
            m, entry["z"], entry["xi"], *weights, rel_tol=REL_TOL, z_derivative=True
        )
        for value, ref in ((got, entry[f"h_{key}"]), (z_dgot, entry[f"zdh_{key}"])):
            ref = float(ref)
            assert abs(value - ref) <= REL_TOL * abs(ref), key


@pytest.mark.parametrize(
    "entry", GOLDEN["inner"], ids=lambda e: f"{e['model']}-{e['z']:g}-{e['xi']:g}"
)
def test_inner_golden_double_precision(entry):
    # exact Gauss-Kronrod constants and r_p's eps - 1 taken as
    # contrast / s2: with 15-digit constants every value came out about
    # 3e-15 low, and drude-lorentz h_xx at xi = 3e19 (eps - 1 = 5.9e-7)
    # was 5.1e-11 off
    m = material(entry["model"])
    for weights, key in (((1.0, 0.0), "h_xx"), ((0.0, 1.0), "h_zz")):
        ref = float(entry[key])
        got = contracted_green_imag(m, entry["z"], entry["xi"], *weights, rel_tol=1e-13)
        assert abs(got - ref) <= 2e-15 * abs(ref), key


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-13])
@pytest.mark.parametrize("entry", GOLDEN["static"], ids=lambda e: f"fig1-plasma-{e['z']:g}")
def test_static_plasma_golden(entry, rel_tol):
    # the static medium decay constant kappa_m z = omega_p z / c is 1.2e-12
    # to 1.2e-6 here, far below the engine's lowest default edge; a run
    # that never puts a node near it converges on a value about
    # 2 kappa_m z too high
    m = Plasma(entry["omega_p"])
    for weights, key in (((1.0, 0.0), "h_xx"), ((0.0, 1.0), "h_zz")):
        ref = float(entry[key])
        got = contracted_green_imag(m, entry["z"], 0.0, *weights, rel_tol=rel_tol)
        assert abs(got - ref) <= rel_tol * abs(ref), key


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-13])
@pytest.mark.parametrize(
    "entry", GOLDEN["small_xi"], ids=lambda e: f"{e['model']}-{e['z']:g}-{e['xi']:g}"
)
def test_drude_small_xi_golden(entry, rel_tol):
    # xi -> 0, where a Drude-type contrast vanishes: at 1 nm and 1e-3 rad/s
    # kappa_m z = sqrt(x^2 + d) is 3.5e-21 for Drude-Lorentz (d ~ x^2),
    # below the rule's lower cut v = rel_tol e^-6, and 7e-10 for Drude
    # (d ~ xi), above it
    m = material(entry["model"])
    for weights, key in (((1.0, 0.0), "h_xx"), ((0.0, 1.0), "h_zz")):
        ref = float(entry[key])
        got = contracted_green_imag(m, entry["z"], entry["xi"], *weights, rel_tol=rel_tol)
        assert abs(got - ref) <= rel_tol * abs(ref), key


MIRROR = GOLDEN["mirror"]["entries"]


def entry_field(entry):
    return FieldConfig(2.0, None if entry["theta"] == "avg" else entry["theta"])


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-13, 1e-14])
@pytest.mark.parametrize(
    "entry", MIRROR + GOLDEN["mirror"]["far"], ids=lambda e: f"{e['theta']}-{e['z']:g}"
)
def test_mirror_reference_golden(entry, rel_tol):
    # the reference's closed form in double precision against the same
    # closed form at 40 digits; rel_tol has no effect on it.  The far
    # entries (a = 2 omega z / c = 2.4e4 and 2.4e5) are where 1/a - f(a),
    # about 2/a^3, would lose 8 to 10 digits if taken as a difference
    ref = float(entry["u_du"])
    got = u_du_mirror_single_integral(entry["z"], entry_field(entry), rel_tol=rel_tol)
    assert abs(got - ref) <= rel_tol * abs(ref)


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9, 1e-12])
@pytest.mark.parametrize("entry", MIRROR, ids=lambda e: f"{e['theta']}-{e['z']:g}")
def test_mirror_u_du_golden(entry, rel_tol):
    # the general double integral for the ideal mirror, against a value
    # that shares no quadrature with it
    ref = float(entry["u_du"])
    got = u_du(entry["z"], entry_field(entry), PerfectConductor(), rel_tol=rel_tol)[1]
    assert abs(got - ref) <= rel_tol * abs(ref)


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9, 1e-12])
@pytest.mark.parametrize(
    "entry", GOLDEN["u_du_slope"]["entries"], ids=lambda e: f"{e['theta']:.4}-{e['z']:g}"
)
def test_u_du_slope_golden(entry, rel_tol):
    # value and z-derivative from one solve, near d = 1, where the static
    # edge's bound peaks, and at the field's extreme angles; the
    # z-derivative is the exponent column's only independent check
    m = material(entry["model"])
    pair = u_du(entry["z"], entry_field(entry), m, rel_tol=rel_tol, z_derivative=True)[1]
    for got, key in zip(pair, ("u_du", "zdu_du")):
        ref = float(entry[key])
        assert abs(got - ref) <= rel_tol * abs(ref), key


OMEGA_2T = transition_frequency(FieldConfig(2.0))
LOSSLESS_MISS = pytest.mark.xfail(
    strict=True,
    reason="FOUND: contracted_green_real reports convergence but misses rel_tol "
    "on lossless media",
)
FIG1_MISS = pytest.mark.xfail(
    strict=True,
    reason="FOUND: contracted_green_real reports convergence but misses rel_tol "
    "on fig1's plasma (eps = 0) at 0.51 and 1.78 um",
)
LARGE_W_RAISES = pytest.mark.xfail(
    strict=True,
    raises=IntegrationError,
    reason="FOUND: contracted_green_real cannot settle the resonant term at large z "
    "(one panel per period of the propagating segment runs out of budget)",
)
# (model, z, omega, rel_tol) where the real-axis route reports convergence
# but misses rel_tol: 13.2, 10.8 and 15.8 times it on lossless Drude-Lorentz
REAL_XFAILS = {
    ("drude-lorentz", 1e-6, OMEGA_2T, 1e-7): LOSSLESS_MISS,
    ("drude-lorentz", 1e-9, OMEGA_2T, 1e-9): LOSSLESS_MISS,
    ("drude-lorentz", 1e-7, OMEGA_2T, 1e-9): LOSSLESS_MISS,
}
# the same on the points only the vertical line reaches: fig1's plasma is
# 1.65 and 18.8 times rel_tol off at 0.51 and 1.78 um, and in
# Drude-Lorentz's transparency band (w = 3.3e5 and 3.3e8) the route raises
CONTOUR_XFAILS = {
    ("plasma", 0.51e-6, OMEGA_2T, 1e-9): FIG1_MISS,
    ("plasma", 1.78e-6, OMEGA_2T, 1e-9): FIG1_MISS,
    **{
        ("drude-lorentz", z, 1e17, rel_tol): LARGE_W_RAISES
        for z in (1e-3, 1.0)
        for rel_tol in (1e-7, 1e-9)
    },
}


def real_cases():
    # the original-path entries, at the 2 T transition frequency, then the
    # vertical line's, which name their omega
    blocks = ((GOLDEN["real"], REAL_XFAILS), (GOLDEN["contour"], CONTOUR_XFAILS))
    for rel_tol in (1e-7, 1e-9):
        for block, xfails in blocks:
            for e in block["entries"]:
                omega = e.get("omega", OMEGA_2T)
                marks = xfails.get((e["model"], e["z"], omega, rel_tol), ())
                name = f"{e['model']}-{e['z']:g}" + (f"-{omega:.3g}" if "omega" in e else "")
                yield pytest.param(e, rel_tol, marks=marks, id=f"{name}-{rel_tol:g}")


@pytest.mark.parametrize("entry, rel_tol", real_cases())
def test_real_axis_golden(entry, rel_tol):
    # rel_tol bounds the complex value's error relative to its modulus
    params = {k: entry[k] for k in ("omega_p", "gamma", "omega_t") if k in entry}
    m = MODELS[entry["model"]](**params)
    omega = entry.get("omega", OMEGA_2T)
    w_xx, w_zz = 1.0 + 1.0 / 3.0, 1.0 - 1.0 / 3.0  # the averaged cross weights
    ref = complex(float(entry["re"]), float(entry["im"]))
    got = contracted_green_real(m, entry["z"], omega, w_xx, w_zz, rel_tol=rel_tol)
    assert abs(got - ref) <= rel_tol * abs(ref)


MIRROR_FAR_RAISES = pytest.mark.xfail(
    strict=True,
    raises=IntegrationError,
    reason="FOUND: contracted_green_real cannot settle the resonant term at large z "
    "(the ideal mirror's evanescent segment raises at 1e4 m and rel_tol 1e-9)",
)


def mirror_real_cases():
    for rel_tol in (1e-7, 1e-9):
        for z in [*np.geomspace(1e-9, 3e3, 13), 1e4]:
            marks = MIRROR_FAR_RAISES if (z, rel_tol) == (1e4, 1e-9) else ()
            yield pytest.param(float(z), rel_tol, marks=marks, id=f"{z:.3g}-{rel_tol:g}")


@pytest.mark.parametrize("z, rel_tol", mirror_real_cases())
def test_mirror_real_axis_golden(z, rel_tol):
    # the ideal mirror's real-axis contraction against its analytic
    # continuation, which is exact:
    #   h_xx = (1 - 2iw - 4w^2) e^(2iw) / (32 pi z^3),
    #   h_zz = (1 - 2iw) e^(2iw) / (16 pi z^3),   w = omega z / c,
    # evaluated at the same double w as the route, so the phase's rounding
    # is shared; rel_tol bounds the error relative to the modulus
    w = OMEGA_2T * z / CONSTANTS.c
    phase = cmath.exp(2j * w) / (32.0 * math.pi * z**3)
    w_xx, w_zz = 4.0 / 3.0, 2.0 / 3.0  # the averaged cross weights
    ref = (w_xx * (1.0 - 2j * w - 4.0 * w * w) + 2.0 * w_zz * (1.0 - 2j * w)) * phase
    got = contracted_green_real(PerfectConductor(), z, OMEGA_2T, w_xx, w_zz, rel_tol=rel_tol)
    assert abs(got - ref) <= rel_tol * abs(ref)
