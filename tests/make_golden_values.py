"""Write tests/golden_values.json: high-precision references for u_du.

The references come from mpmath alone (tanh-sinh quadrature at 30
significant digits) and the textbook Fresnel forms, so they share no
quadrature rule and no kernel code with the package.  Only the physical
constants are read from it.  The tests read the JSON file and do not
need mpmath.

    PYTHONPATH=src python tests/make_golden_values.py [--only NAME ...]

writes every block of BLOCKS in this order, the u_du and h entries in
two worker processes; the whole run takes about 75 minutes on two cores:

- inner: h_xx, h_zz and z dh/dz at imaginary xi, fig2's models; seconds
- u_du: fig2's orientation-averaged u_du, 1 nm to 1 um; about 40 min
- static: h_xx and h_zz of fig1's plasma at xi = 0; seconds
- small_xi: h_xx and h_zz of the Drude-type models at small xi; 15 s
- mirror: the ideal mirror's u_du from its closed form; seconds
- real: the real-axis contractions; about 15 s
- contour: the same past the original path's reach, on the line k_z z =
  w + iu; about 10 s.  It stops unless the line first reproduces every
  ``real`` entry to 1e-20
- u_du_slope: u_du and z du_du/dz of fig2's plasma near d = 1, and at
  theta = 0 and pi/2; about 35 min

``--only NAME [NAME ...]`` rereads the file and rewrites only the named
blocks, in the order above, and keeps every other entry byte for byte.
``--check`` recomputes the first u_du value at 36 digits with every xi
interval split in two and prints both values and their relative
difference.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import mpmath as mp

from neutroncp import CONSTANTS, NEUTRON, FieldConfig, transition_frequency

OUT = Path(__file__).with_name("golden_values.json")
DIGITS = 30

# the fig2 surfaces, parameters in rad/s
MODELS = {
    "plasma": {"omega_p": 1.37e16},
    "drude": {"omega_p": 1.37e16, "gamma": 4.10e12},
    "drude-lorentz": {"omega_p": 2.3e16, "omega_t": 7.1e16},
}
B_EXT = 2.0
U_DU = [{"model": m, "z": z} for m in MODELS for z in (1e-9, 3e-8, 1e-6)]
# fig1's plasma (plasma frequency = spin-flip frequency at 2 T): its static
# medium decay constant kappa_m z = omega_p z / c is 1.2e-12 to 1.2e-6 at
# these heights, a feature at v = 0 far narrower than any default panel
FIG1_PLASMA = {"omega_p": 363494611.93541175}
STATIC = [{"model": "plasma", **FIG1_PLASMA, "z": z} for z in (1e-12, 1e-9, 1e-6)]
# (z, xi) of the inner k-integrals; xi = 0 only where the static
# contraction survives (plasma).  The points after the first row of each
# model have x = xi z / c from 33 to 334, where the rounding of x in
# double precision would show in e^(-2x)
INNER_POINTS = {
    "plasma": (
        (3e-8, 0.0), (1e-9, 1e17), (3e-8, 1e15), (1e-6, 1e12),
        (1e-6, 1e17), (1e-9, 1e19), (2.7e-6, 3.1e16),
    ),
    "drude": (
        (1e-9, 1e17), (3e-8, 1e15), (1e-6, 1e12),
        (3e-8, 3e18), (1e-6, 3e16),
    ),
    "drude-lorentz": (
        (1e-9, 1e17), (1e-9, 3e19), (3e-8, 1e15), (1e-6, 1e12),
        (1e-7, 2e17),
    ),
}
INNER = [{"model": m, "z": z, "xi": xi} for m in MODELS for z, xi in INNER_POINTS[m]]
# xi -> 0 for the Drude-type models, where their contrast vanishes.  At
# these xi the medium decay constant kappa_m z = sqrt(x^2 + d) lies from
# 1e-21 (Drude-Lorentz, where d ~ x^2) to 1e-9 (Drude, d ~ xi) at 1 nm
SMALL_XI = [
    {"model": m, "z": z, "xi": xi}
    for m in ("drude", "drude-lorentz")
    for z in (1e-9, 1e-6)
    for xi in (1e-3, 1.0, 1e3, 1e6)
]
# the ideal mirror's u_du at B_EXT, 1 nm to 1 km, at these field angles
# (None is the orientation average)
MIRROR_HEIGHTS = tuple(10.0**p for p in range(-9, 4))
MIRROR_THETAS = (None, 0.3)
MIRROR_DIGITS = 40
# heights where only the closed-form reference is checked: a = 2.4e4 and
# 2.4e5, where 1/a - f(a), about 2/a^3, taken as a difference in double
# precision loses 8 to 10 digits
MIRROR_FAR_HEIGHTS = (1e4, 1e5)
# the real-axis contraction at B_EXT, orientation averaged: Drude-Lorentz
# below its resonance (lossless, eps = 1.1), fig1's plasma (lossless,
# eps = 0 at the transition frequency) and fig2's Drude
REAL_POINTS = (
    *(("drude-lorentz", MODELS["drude-lorentz"], z) for z in (1e-9, 1e-8, 1e-7, 1e-6)),
    *(("plasma", FIG1_PLASMA, z) for z in (8.25e-4, 1.0, 820.0)),
    *(("drude", MODELS["drude"], z) for z in (1e-9, 1e-6)),
)


def quad(f, pts):
    """Sum of tanh-sinh integrals over [pts[i], pts[i+1]], each to relative accuracy.

    mpmath stops refining on an absolute error of about 10^-dps, so each
    interval's integrand is first divided by a coarse estimate of its
    integral.
    """
    total = mp.mpf(0)
    for a, b in zip(pts[:-1], pts[1:]):
        scale = abs(mp.quad(f, [a, b], maxdegree=2)) or mp.mpf(1)
        total += scale * mp.quad(lambda v: f(v) / scale, [a, b])
    return total


def eps_minus_one(model: str, p: dict, xi):
    """eps(i xi) - 1 of each model, xi > 0."""
    wp2 = mp.mpf(p["omega_p"]) ** 2
    if model == "plasma":
        return wp2 / xi**2
    if model == "drude":
        return wp2 / (xi * (xi + mp.mpf(p["gamma"])))
    return wp2 / (xi**2 + mp.mpf(p["omega_t"]) ** 2)


def contraction(model: str, p: dict, z, xi, w_xx, w_zz, z_derivative=False):
    """w_xx h_xx(i xi) + w_zz h_zz(i xi) in 1/m^3, from the kappa-integral.

    With t = kappa z >= x = xi z / c, d = (eps - 1) x^2 and t_m = sqrt(t^2 + d):
    h_xx z^3 = (1/8 pi) Int dt e^(-2t) [r_p x^2 - r_s t^2],
    h_zz z^3 = -(1/4 pi) Int dt (t^2 - x^2) e^(-2t) r_s,
    r_s = (t - t_m)/(t + t_m), r_p = (eps t - t_m)/(eps t + t_m).
    z_derivative=True gives z d/dz of it: z enters the kappa-integral only
    through e^(-2 kappa z), so the integrand is multiplied by -2t.
    """
    z, xi = mp.mpf(z), mp.mpf(xi)
    x = xi * z / mp.mpf(CONSTANTS.c)
    if xi == 0:
        if model != "plasma":
            return mp.mpf(0)
        d = (mp.mpf(p["omega_p"]) * z / mp.mpf(CONSTANTS.c)) ** 2
        eps = None  # r_p is multiplied by x^2 = 0
    else:
        em1 = eps_minus_one(model, p, xi)
        d, eps = em1 * x**2, 1 + em1

    def f(u):  # t = x + u, with e^(-2x) taken out
        t = x + u
        tm = mp.sqrt(t * t + d)
        r_s = (t - tm) / (t + tm)
        r_p = 0 if eps is None else (eps * t - tm) / (eps * t + tm)
        h_xx = r_p * x**2 - r_s * t**2
        h_zz = -2 * (t * t - x * x) * r_s
        value = (w_xx * h_xx + w_zz * h_zz) * mp.exp(-2 * u)
        return -2 * t * value if z_derivative else value

    # split where e^(-2u) and r_s change scale
    pts = {mp.mpf(0), mp.mpf("0.5"), mp.mpf(4)}
    if mp.sqrt(d) > x + mp.mpf("1e-3"):
        pts.add(mp.sqrt(d) - x)
    if x < mp.mpf("1e-3"):
        # r_s changes scale at u = kappa_m z = sqrt(x^2 + d) however small
        # it is (sqrt(d) in the static limit): split geometrically from
        # there up to 0.5
        u = mp.sqrt(x * x + d)
        while u < mp.mpf("0.5"):
            pts.add(u)
            u *= 4
    value = quad(f, sorted(pts) + [mp.inf])
    return value * mp.exp(-2 * x) / (8 * mp.pi * z**3)


def surface(entry: dict) -> dict:
    """The surface parameters an entry names, else its model's fig2 ones."""
    named = {k: entry[k] for k in ("omega_p", "gamma", "omega_t") if k in entry}
    return named or MODELS[entry["model"]]


def u_du_reference(model, p, z, theta="avg", z_derivative=False, per_decade=1, digits=DIGITS):
    """u_du at B_EXT, or z du_du/dz: tanh-sinh over xi, decade by decade."""
    mp.mp.dps = digits
    omega = mp.mpf(transition_frequency(FieldConfig(B_EXT)))
    if theta == "avg":
        w_xx, w_zz = mp.mpf(4) / 3, mp.mpf(2) / 3  # (1 + cos^2, sin^2), averaged
    else:
        c2 = mp.cos(mp.mpf(theta)) ** 2
        w_xx, w_zz = 1 + c2, 1 - c2

    def integrand(xi):
        g = contraction(model, p, z, xi, w_xx, w_zz, z_derivative)
        return g * omega / (xi**2 + omega**2)

    # from 1e-4 omega to where e^(-2 xi z/c) < 1e-300
    lo, hi = omega * mp.mpf("1e-4"), 400 * mp.mpf(CONSTANTS.c) / mp.mpf(z)
    n = int(mp.ceil(mp.log10(hi / lo) * per_decade))
    pts = [mp.mpf(0)] + [lo * (hi / lo) ** (mp.mpf(i) / n) for i in range(n + 1)]
    value = quad(integrand, pts + [mp.inf])
    moment_sq = (mp.mpf(CONSTANTS.hbar) * mp.mpf(NEUTRON.gamma_n) / 2) ** 2
    return mp.mpf(CONSTANTS.mu0) / mp.pi * moment_sq * value


def u_du_entries(pool, leads: list, z_derivative: bool = False) -> list:
    """Each lead with its u_du, and its z du_du/dz (zdu_du), one job per value."""
    keys = {"u_du": False, "zdu_du": True} if z_derivative else {"u_du": False}
    args = [(e["model"], surface(e), e["z"], e.get("theta", "avg")) for e in leads]
    jobs = [{k: pool.submit(u_du_reference, *a, d) for k, d in keys.items()} for a in args]
    return [
        {**e, **{k: mp.nstr(f.result(), 25) for k, f in futures.items()}}
        for e, futures in zip(leads, jobs)
    ]


def h_entry(digits: int, lead: dict, z_derivative: bool = False) -> dict:
    """The lead (model, z, xi or 0) with h_xx, h_zz, and z dh/dz (zdh_*) if asked.

    r_s = (t - t_m)/(t + t_m) loses about log10(t^2/d) digits, up to 24
    for fig1's plasma at xi = 0 and 45 for Drude-Lorentz at xi = 1e-3
    rad/s and 1 nm, so such entries take digits above DIGITS.
    """
    mp.mp.dps = digits
    entry, at = dict(lead), (lead["model"], surface(lead), lead["z"], lead.get("xi", 0))
    for prefix, derivative in (("h", False), ("zdh", True))[: 1 + z_derivative]:
        for key, w in (("xx", (1, 0)), ("zz", (0, 1))):
            entry[f"{prefix}_{key}"] = mp.nstr(contraction(*at, *w, derivative), 25)
    return entry


def real_eps_minus_one(model: str, p: dict, omega):
    """eps(omega) - 1 of each model on the real axis, omega > 0."""
    wp2 = mp.mpf(p["omega_p"]) ** 2
    if model == "plasma":
        return -wp2 / omega**2
    if model == "drude":
        return -wp2 / (omega * (omega + 1j * mp.mpf(p["gamma"])))
    return wp2 / (mp.mpf(p["omega_t"]) ** 2 - omega**2)


def real_setup(model: str, p: dict, z: float, omega: float):
    """w = omega z / c and eps(omega) - 1, at the working precision it sets.

    On the tail r_s loses about log10(u^2/|d|) digits, d = (eps - 1) w^2,
    and e^(-2u) still counts up to u = 40, so that precision is DIGITS
    plus log10(1600/|d|).  Both are taken twice: at DIGITS to find it,
    then at it.
    """
    omega, zm = mp.mpf(omega), mp.mpf(z)
    mp.mp.dps = DIGITS
    for _ in range(2):
        w = omega * zm / mp.mpf(CONSTANTS.c)
        em1 = real_eps_minus_one(model, p, omega)
        mp.mp.dps = DIGITS + max(0, int(mp.ceil(mp.log10(1600 / abs(em1 * w * w)))))
    return w, em1


def real_reference(model: str, p: dict, z: float) -> dict:
    """(4/3) h_xx(omega) + (2/3) h_zz(omega) at B_EXT in 1/m^3, complex.

    The weights are the cross weights (1 + cos^2, sin^2) averaged over
    orientations.  With k_z the vacuum normal wavevector, v = k_z z on the
    propagating segment (0, w), w = omega z / c, and k_z z = i u on the
    evanescent tail, the continuation xi -> -i omega of the kappa-integral
    gives
    8 pi z^3 h_xx = i Int_0^w dv e^(2iv) [r_s v^2 - r_p w^2]
                    - Int_0^inf du e^(-2u) [r_s u^2 + r_p w^2],
    8 pi z^3 h_zz = -2i Int_0^w dv e^(2iv) (w^2 - v^2) r_s
                    - 2 Int_0^inf du e^(-2u) (w^2 + u^2) r_s,
    r_s = (k_z - k_m)/(k_z + k_m), r_p = (eps k_z - k_m)/(eps k_z + k_m),
    k_m z = sqrt((k_z z)^2 + d) on the principal branch, d = (eps - 1) w^2.
    The propagating segment is cut at every period pi of e^(2iv) and at
    the total-reflection kink; the tail at |sqrt(d)|, at w and
    geometrically from the smaller of them up to 0.5.  The working
    precision is real_setup's.
    """
    zm = mp.mpf(z)
    w, em1 = real_setup(model, p, z, transition_frequency(FieldConfig(B_EXT)))
    eps, d = 1 + em1, em1 * w * w
    w_xx, w_zz = mp.mpf(4) / 3, mp.mpf(2) / 3

    def reflection(kz):
        km = mp.sqrt(kz * kz + d)
        return (kz - km) / (kz + km), (eps * kz - km) / (eps * kz + km)

    def propagating(v):
        r_s, r_p = reflection(v)
        h_xx = 1j * (r_s * v * v - r_p * w * w)
        h_zz = -2j * (w * w - v * v) * r_s
        return (w_xx * h_xx + w_zz * h_zz) * mp.expj(2 * v)

    def evanescent(u):
        r_s, r_p = reflection(1j * u)
        h_xx = -(r_s * u * u + r_p * w * w)
        h_zz = -2 * (w * w + u * u) * r_s
        return (w_xx * h_xx + w_zz * h_zz) * mp.exp(-2 * u)

    prop = {mp.mpf(0), w} | {k * mp.pi for k in range(1, int(w / mp.pi) + 1)}
    if mp.im(d) == 0 and 0 < -mp.re(d) < w * w:
        prop.add(mp.sqrt(-mp.re(d)))
    scale = abs(mp.sqrt(d))
    tail = {mp.mpf(0), scale, w, mp.mpf("0.5"), mp.mpf(4)}
    u = min(scale, w)
    while u < mp.mpf("0.5"):
        tail.add(u)
        u *= 4
    value = quad(propagating, sorted(prop)) + quad(evanescent, sorted(tail) + [mp.inf])
    value /= 8 * mp.pi * zm**3
    entry = {"model": model, **p, "z": z}
    return {**entry, "re": mp.nstr(mp.re(value), 25), "im": mp.nstr(mp.im(value), 25)}


REAL_ABOUT = (
    f"(4/3) h_xx + (2/3) h_zz at the transition frequency for b_ext = {B_EXT} T "
    f"(the orientation-averaged resonant contraction), real and imaginary parts "
    f"in 1/m^3, by mpmath {mp.__version__} tanh-sinh quadrature on the real "
    f"k-axis at {DIGITS} digits or more (tests/make_golden_values.py --only real)"
)


OMEGA_2T = transition_frequency(FieldConfig(B_EXT))
# (model, parameters, z, omega) of the contour block: fig1's plasma below
# its configured range; Drude-Lorentz with omega_t 1.1 and 1.01 times the
# transition frequency (eps - 1 = 36 and 2e17), whose branch point
# i sqrt(d) the vertical line passes at a distance w; fig2's Drude and
# Drude-Lorentz at 820 m; and fig2's Drude-Lorentz in its transparency
# band (omega = 1e17 rad/s, eps = 0.89), where w reaches 3.3e8
CONTOUR_POINTS = (
    *(("plasma", FIG1_PLASMA, z, OMEGA_2T) for z in (0.51e-6, 1.78e-6)),
    ("drude-lorentz", {"omega_p": 1e9, "omega_t": 1.1 * OMEGA_2T}, 1.0, OMEGA_2T),
    *(
        ("drude-lorentz", {"omega_p": 2.3e16, "omega_t": 1.01 * OMEGA_2T}, z, OMEGA_2T)
        for z in (1e-9, 1e-8)
    ),
    *((model, MODELS[model], 820.0, OMEGA_2T) for model in ("drude", "drude-lorentz")),
    *(("drude-lorentz", MODELS["drude-lorentz"], z, 1e17) for z in (1e-6, 1e-3, 1.0)),
)
CONTOUR_CHECK = mp.mpf("1e-20")


def contour_value(model: str, p: dict, z: float, omega: float):
    """real_reference's contraction at any omega, on the vertical line.

    k_z z = w + iu, u from 0 to inf.  The k-integrand is analytic between
    the original path (k_z z from w down to 0, then up the imaginary
    axis) and this line for any passive medium, and e^(2i k_z z) closes
    the contour at the top, so
    8 pi z^3 h_xx = e^(2iw) Int_0^inf du e^(-2u) [r_s k^2 - r_p w^2],
    8 pi z^3 h_zz = -2 e^(2iw) Int_0^inf du e^(-2u) (w^2 - k^2) r_s,
    k = w + iu, with k_m z = sqrt(k^2 + d) on the principal branch, which
    Im d >= 0 keeps analytic in the first quadrant.  k^2 + d comes
    closest to 0 at u = Re sqrt(d), a distance w off the line; the line
    is cut there and at that point plus and minus w 4^j, geometrically
    from the smaller of |sqrt(d)| and w up to 0.5, and at 0.5, 4 and 60.
    w is taken from the double inputs in full precision, so the phase
    e^(2iw) is that of these inputs.  The working precision is
    real_setup's.
    """
    zm = mp.mpf(z)
    w, em1 = real_setup(model, p, z, omega)
    eps, d = 1 + em1, em1 * w * w
    w_xx, w_zz = mp.mpf(4) / 3, mp.mpf(2) / 3

    def integrand(u):
        k = w + 1j * u
        km = mp.sqrt(k * k + d)
        r_s, r_p = (k - km) / (k + km), (eps * k - km) / (eps * k + km)
        h_xx = r_s * k * k - r_p * w * w
        h_zz = -2 * (w * w - k * k) * r_s
        return (w_xx * h_xx + w_zz * h_zz) * mp.exp(-2 * u)

    top = mp.mpf(60)
    pts = {mp.mpf(0), mp.mpf("0.5"), mp.mpf(4), top}
    near = mp.re(mp.sqrt(d))
    step = w
    while step < near:
        pts |= {near - step, near + step}
        step *= 4
    pts.add(near)
    u = min(abs(mp.sqrt(d)), w)
    while u < mp.mpf("0.5"):
        pts.add(u)
        u *= 4
    pts = sorted(u for u in pts if 0 <= u <= top)
    return mp.expj(2 * w) * quad(integrand, pts + [mp.inf]) / (8 * mp.pi * zm**3)


def contour_reference(model: str, p: dict, z: float, omega: float) -> dict:
    value = contour_value(model, p, z, omega)
    entry = {"model": model, **p, "z": z, "omega": omega}
    return {**entry, "re": mp.nstr(mp.re(value), 25), "im": mp.nstr(mp.im(value), 25)}


CONTOUR_ABOUT = (
    f"(4/3) h_xx + (2/3) h_zz at omega (the orientation-averaged resonant "
    f"contraction), real and imaginary parts in 1/m^3, by mpmath {mp.__version__} "
    f"tanh-sinh quadrature on the vertical line k_z z = w + iu at {DIGITS} digits "
    f"or more, which reproduces every real-axis entry to {mp.nstr(CONTOUR_CHECK, 1)} "
    f"(tests/make_golden_values.py --only contour)"
)


def contour_block(real_entries: list) -> dict:
    """The contour entries, after checking the line against real_entries."""
    for e in real_entries:
        got = contour_value(e["model"], surface(e), e["z"], OMEGA_2T)
        ref = mp.mpc(e["re"], e["im"])
        diff = abs(got - ref) / abs(ref)
        print(f"{e['model']} z={e['z']:g}: contour vs real axis {mp.nstr(diff, 3)}")
        if diff > CONTOUR_CHECK:
            raise SystemExit(f"the contour misses the real-axis entry at z={e['z']:g}")
    entries = [contour_reference(*pt) for pt in CONTOUR_POINTS]
    return {"about": CONTOUR_ABOUT, "entries": entries}


def mirror_reference(z: float, theta) -> dict:
    """u_du of the ideal mirror at B_EXT, from the sine and cosine integrals.

    The cross piece's integral over x = xi z / c is exactly
    p0 f(a) + p1 b g(a) + p2 b^2 (1/a - f(a)), with b = omega z / c,
    a = 2b, p0 = 5 - c2t, p1 = 10 - 2 c2t, p2 = 12 + 4 c2t and
    c2t = cos(2 theta); f and g are the auxiliary functions of Si and Ci
    (Abramowitz & Stegun 5.2.6-5.2.7).  1/a - f(a) is about 2/a^3, so the
    last term loses about 2 log10(a) digits: 7 of the 40 at 1 km and 11
    at 100 km.
    """
    mp.mp.dps = MIRROR_DIGITS
    k = CONSTANTS
    omega = mp.mpf(transition_frequency(FieldConfig(B_EXT)))
    zm = mp.mpf(z)
    b = omega * zm / mp.mpf(k.c)
    a = 2 * b
    ci, si = mp.ci(a), mp.si(a) - mp.pi / 2
    f = ci * mp.sin(a) - si * mp.cos(a)
    g = -ci * mp.cos(a) - si * mp.sin(a)
    c2t = -mp.mpf(1) / 3 if theta is None else mp.cos(2 * mp.mpf(theta))
    p0, p1, p2 = 5 - c2t, 10 - 2 * c2t, 12 + 4 * c2t
    hbar, gamma, mu0 = (mp.mpf(v) for v in (k.hbar, NEUTRON.gamma_n, k.mu0))
    pref = hbar**2 * gamma**2 * mu0 / (256 * mp.pi**2 * zm**3)
    value = pref * (p0 * f + p1 * b * g + p2 * b**2 * (1 / a - f))
    return {"z": z, "theta": "avg" if theta is None else theta, "u_du": mp.nstr(value, 25)}


MIRROR_ABOUT = (
    f"u_du of the ideal mirror at b_ext = {B_EXT} T from its closed form in "
    f"the sine and cosine integrals, by mpmath {mp.__version__} at "
    f"{MIRROR_DIGITS} digits (tests/make_golden_values.py --only mirror); "
    f"the far entries check the closed-form reference alone"
)


ABOUT = (
    f"u_du at b_ext = {B_EXT} T, orientation averaged, and h_xx, h_zz and "
    f"their z-derivatives z dh/dz (zdh_xx, zdh_zz) at imaginary frequency xi, "
    f"and h_xx, h_zz at xi = 0 for fig1's plasma (static, at {DIGITS + 30} digits), "
    f"and h_xx, h_zz of Drude and Drude-Lorentz at small xi (at {DIGITS + 60} digits), "
    f"by mpmath {mp.__version__} tanh-sinh quadrature at {DIGITS} digits "
    f"(tests/make_golden_values.py)"
)


# u_du and z du_du/dz of fig2's plasma where its static decay constant
# omega_p z / c passes 1 (22 nm), orientation averaged, and at 30 nm with
# the field along the normal and in the surface
SLOPE = [
    *({"model": "plasma", "z": z, "theta": "avg"} for z in (1e-8, 2.2e-8, 5e-8)),
    *({"model": "plasma", "z": 3e-8, "theta": t} for t in (0.0, math.pi / 2)),
]
SLOPE_ABOUT = (
    f"u_du and z du_du/dz (zdu_du) of fig2's plasma at b_ext = {B_EXT} T, orientation "
    f"averaged or at the field angle theta, by mpmath {mp.__version__} tanh-sinh "
    f"quadrature at {DIGITS} digits (tests/make_golden_values.py --only u_du_slope)"
)

# block name -> builder(pool, payload), in the file's order; a builder may read those before it
BLOCKS = {
    "inner": lambda pool, payload: list(
        pool.map(partial(h_entry, DIGITS, z_derivative=True), INNER)
    ),
    "u_du": lambda pool, payload: u_du_entries(pool, U_DU),
    "static": lambda pool, payload: list(pool.map(partial(h_entry, DIGITS + 30), STATIC)),
    "small_xi": lambda pool, payload: list(pool.map(partial(h_entry, DIGITS + 60), SMALL_XI)),
    "mirror": lambda pool, payload: {
        "about": MIRROR_ABOUT,
        "entries": [mirror_reference(z, t) for t in MIRROR_THETAS for z in MIRROR_HEIGHTS],
        "far": [mirror_reference(z, t) for t in MIRROR_THETAS for z in MIRROR_FAR_HEIGHTS],
    },
    "real": lambda pool, payload: {
        "about": REAL_ABOUT,
        "entries": [real_reference(*pt) for pt in REAL_POINTS],
    },
    "contour": lambda pool, payload: contour_block(payload["real"]["entries"]),
    "u_du_slope": lambda pool, payload: {
        "about": SLOPE_ABOUT,
        "entries": u_du_entries(pool, SLOPE, z_derivative=True),
    },
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--only", nargs="+", choices=BLOCKS, metavar="NAME", help="these blocks")
    parser.add_argument("--check", action="store_true", help="recheck u_du at 36 digits")
    args = parser.parse_args()
    if args.check:
        model, z = U_DU[0]["model"], U_DU[0]["z"]
        a = u_du_reference(model, MODELS[model], z)
        b = u_du_reference(model, MODELS[model], z, per_decade=2, digits=DIGITS + 6)
        print(mp.nstr(a, 25), mp.nstr(b, 25), mp.nstr(abs(a / b - 1), 3))
        return
    payload = {"about": ABOUT, "models": MODELS}
    if args.only:
        payload = json.loads(OUT.read_text(encoding="utf-8"))
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        for name, build in BLOCKS.items():
            if args.only is None or name in args.only:
                start = time.perf_counter()
                payload[name] = build(pool, payload)
                print(f"{name}: {time.perf_counter() - start:.0f} s", flush=True)
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
