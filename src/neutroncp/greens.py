"""Fresnel coefficients and the magnetic response of a planar half-space.

Conventions
-----------
The object computed here is the diagonal of the double-curl scattering
Green's tensor that couples a magnetic dipole to its surface-reflected
field, evaluated at coincident points a height z above the interface.
Off-diagonal components vanish by planar symmetry and the xx and yy
components are equal, so only h_xx and h_zz are stored (units 1/m^3).

The overall sign is fixed so that both diagonal components are positive
on the positive imaginary frequency axis for every passive medium; the
binding check is the ideal-mirror closed form

    h_xx(i xi) = (1 + 2x + 4x^2) e^(-2x) / (32 pi z^3),
    h_zz(i xi) = (1 + 2x)        e^(-2x) / (16 pi z^3),   x = xi z / c,

which the general machinery must reproduce with r_s = -1, r_p = +1.
In integral form, with kappa = sqrt(xi^2/c^2 + k^2) the vacuum decay
constant of a transverse wavevector k:

    h_xx = (1/8pi) Int dk (k/kappa) e^(-2 kappa z) [r_p xi^2/c^2 - r_s kappa^2]
    h_zz = -(1/4pi) Int dk (k^3/kappa) e^(-2 kappa z) r_s

On the real frequency axis the k-integral splits into a propagating
segment (k < omega/c, oscillatory phase e^(2 i k_perp z)) and an
evanescent tail; the result is complex and its real part feeds the
resonant potential term.  Analytic continuation of the mirror forms
under xi -> -i omega gives the real-axis oracle.

Numerical form
--------------
All integrals are taken in dimensionless variables scaled by z, so one
set of rules covers nine decades of z.  On the imaginary axis the
variable is v = kappa z - x: with t = k z and rho = kappa z = x + v,
t^2 = v (2x + v) and (t/rho) dt = dv, so

    h_xx, h_zz = e^(-2x)/(8 pi z^3) Int_0^inf dv acc(v) e^(-2v),

where acc = r_p x^2 - r_s rho^2 for h_xx and -2 t^2 r_s for h_zz.
The integrand is analytic for |Im ln v| < pi/2, so the integral is
the trapezoidal rule in w = ln v (quadrature.integrate_trapezoid), whose
error then falls like exp(-pi^2/h).  The rule's error model takes the
error of a sum from its last two differences, so a k-integral settles
at h = 1/4 or 1/8: one integrand call on the h = 1/4 grid, and a second
on the h = 1/8 nodes only where a row needs them (h = 1/4 for the ideal
mirror and Drude-Lorentz over 1 nm - 1 um at 2 T, rel_tol 1e-7 and
1e-9).  The integrand forms its (entry, node) intermediates in one
grow-only scratch buffer of the process, _scratch, which every call and
batch reuses, and returns a fresh array, which the rule keeps.  Nodes
uniform in ln v resolve a medium decay constant kappa_m z =
sqrt(x^2 + d) at any scale, with no panel edges to place, and every xi
of a batch shares the nodes.  The rule runs over w from ln(rel_tol) - 6 to ln 24: cutting v below
v_lo = rel_tol e^-6 moves the integral by about 2 v_lo relative, and
e^(-2v) is below 1e-20 past v = 24.  e^(-2x) is applied after the
quadrature, from x in extended precision.  The real axis is integrated
over the vacuum normal wavevector k_z z with the adaptive rule.

Both axes share one reflection kernel, _reflection, written in the
vacuum and medium decay constants q, q_m of the imaginary axis and the
frequency term s2 = xi^2/c^2:

    r_s = -contrast / (q + q_m)^2
    r_p = (eps - 1) ((eps + 1) q^2 - s2) / (eps q + q_m)^2

It takes the per-entry constants once (contrast, s2, eps - 1 and the
weight of r_p) and returns the function of q, q^2 and q_m that a
quadrature calls per node.  With weights w_xx, w_zz and d = contrast z^2,
the imaginary-axis integrand of an entry is then, per node,

    rho = x + v,   t^2 = v (x + rho),   q_m = sqrt(rho^2 + d),
    acc = d (w_xx rho^2 + 2 w_zz t^2) / (rho + q_m)^2
          + (a rho^2 - b) / (eps rho + q_m)^2,

times e^(-2v) v, with a = w_xx x^2 (eps - 1)(2 + (eps - 1)),
b = w_xx x^2 (eps - 1) x^2 and eps = 1 + (eps - 1) formed once per
entry (the ideal mirror's acc is w_xx (rho^2 + x^2) + 2 w_zz t^2).

The wavevector contrast q_m^2 - q^2 = (eps - 1) s2 comes per model from
the materials module rather than from eps, which keeps r_s exact in the
xi -> 0 limit; neither numerator is a difference of nearly equal squares.
The kernel takes eps - 1 itself, as contrast / s2, so r_p keeps its
relative accuracy where eps is close to 1 (xi or omega far above the
material frequencies); 1 + (eps - 1) would cancel there.

z-derivative.  In the k variable z enters only through e^(-2 kappa z),
so z dh/dz is the same k-integral with the integrand times -2 kappa z
(-2 rho, rho = x + v): on the imaginary axis it is one more component
of the same quadrature.

Branch rule.  On the real axis k_z is the vacuum normal wavevector
(k_z = v on the propagating segment, i u on the evanescent tail) and the
medium one is k_m = sqrt(k_z^2 + (eps - 1) omega^2/c^2) on the principal
branch; the kernel gets q = -i k_z, q_m = -i k_m and s2 = -omega^2/c^2.
A root taken of q^2 + contrast instead can land on the other branch
where k_m is real and k_z imaginary (frustrated total reflection), which
flips the sign of Im h there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from typing import Union

import numpy as np

from .constants import CONSTANTS
from .materials import (
    Material,
    PerfectConductor,
    Plasma,
    UnsupportedModelError,
    wavevector_contrast_imag,
    wavevector_contrast_real,
)
from .quadrature import (
    QuadratureResult,
    integrate_finite_oscillatory,
    integrate_semi_infinite,
    integrate_trapezoid,
)

# Beyond this x = xi z / c the tensor is taken as zero: every entry
# carries the factor e^(-2x), which leaves the normal double range near
# x = 354.  The factor is applied after the quadrature, so the integrals
# the quadrature sees do not shrink with x toward subnormal values, where
# relative error control breaks down.
_UNDERFLOW_X = 350.0

# The imaginary-axis k-integrand's (entry, node) intermediates, one
# grow-only buffer per process: every call and batch reuses it, so of
# its (entry, node) arrays a call allocates only the one it returns.
# Nothing in it outlives one integrand call, and contracted_green_imag
# is never re-entered from its own integrand; the CLI's --jobs workers
# are processes, each with its own.  Without it, each call's freed
# planes go back to the OS and fault back in: about 100-160 minor page
# faults per row, in a process of its own.
_scratch = np.empty(0)


def _scratch_planes(k: int, n: int, m: int) -> np.ndarray:
    """k contiguous (n, m) planes of the scratch buffer, grown if needed."""
    global _scratch
    if _scratch.size < k * n * m:
        _scratch = np.empty(k * n * m)
    return _scratch[: k * n * m].reshape(k, n, m)


class IntegrationError(RuntimeError):
    """A quadrature did not reach its tolerance; carries the result."""

    def __init__(self, message: str, result: QuadratureResult):
        super().__init__(
            f"{message}: value={result.value!r}, abs_error={result.abs_error:.3e}, "
            f"evaluations={result.evaluations}"
        )
        self.result = result


def _require_height(z: float) -> None:
    if z <= 0.0 or not math.isfinite(z):
        raise ValueError("z must be positive and finite")


def _reflection(contrast, s2, eps_m1, weight_p=1.0):
    """r_s and r_p of fixed media entries, as a function of the decay constants.

    contrast, s2 and eps_m1 are the arguments of "Numerical form" above:
    scalars or columns with one entry per medium, real or complex.
    eps_m1 is eps - 1, which the caller takes as contrast / s2 (exact
    per model); eps_m1 = 0, for an entry without a finite permittivity,
    gives r_p = 0 exactly.  The per-entry products are formed here once;
    the returned function

        reflect(q, q2, q_m, out=None) -> (r_s, weight_p r_p)

    does the work per node, with q2 = q^2 from the caller.  It writes to
    none of its arguments.  out, if given, is three arrays of the
    result's shape: r_s and r_p are formed in the first two, the third
    is work space, and nothing else is allocated.
    """
    minus = -contrast
    # r_p weight_p = (a q^2 - b) / (eps q + q_m)^2
    scale = weight_p * eps_m1
    eps, a, b = 1.0 + eps_m1, scale * (2.0 + eps_m1), scale * s2

    def reflect(q, q2, q_m, out=None):
        r_s, r_p, work = (None, None, None) if out is None else out
        den = np.add(q, q_m, out=work)
        den *= den
        r_s = np.divide(minus, den, out=r_s)
        r_p = np.multiply(q2, a, out=r_p)
        r_p -= b
        den = np.multiply(eps, q, out=work)
        den += q_m
        den *= den
        r_p /= den
        return r_s, r_p

    return reflect


def static_min_d(m: Material, z: float) -> float:
    """min(d, 1), d = contrast z^2, of the flat start of g: 1 for the ideal
    mirror, from the plasma's contrast for the plasma, and 0 for a medium
    without one (Drude, Drude-Lorentz).

    g is any weighted contraction of contracted_green_imag, or its
    z-derivative.  For the ideal mirror and for a medium whose
    wavevector contrast does not depend on xi (the plasma), g depends on
    xi only through xi^2: measured, |g(x)/g(0) - 1| < 13 x^2/min(d, 1)
    at x = xi z/c (d infinite for the mirror).  The bound peaks, at
    12.78, for h_xx alone (the cross weights at theta = 0) on a plasma
    with d = 1 at small x; it stays below 3.2 for the orientation
    average and below 7.1 for any z-derivative (x from 1e-7 to 27.25,
    d from 1e-12 to 1e6, rel_tol 1e-13 solves; tests/test_greens.py).
    potential.u_du's row edge rests on it.  A Drude or Drude-Lorentz
    contrast goes like xi or xi^2, so g has no such flat start.
    """
    if isinstance(m, PerfectConductor):
        return 1.0
    if isinstance(m, Plasma):
        # d as contracted_green_imag forms it from the plasma's contrast
        return min((m.omega_p / CONSTANTS.c) ** 2 * z * z, 1.0)
    return 0.0


def contracted_green_imag(
    m: Material,
    z: float,
    xi: Union[float, np.ndarray],
    weight_xx: float,
    weight_zz: float,
    rel_tol: float = 1e-10,
    z_derivative: bool = False,
):
    """weight_xx * h_xx(i xi) + weight_zz * h_zz(i xi), in 1/m^3.

    The weighted sum is a single quadrature, which is what the potential
    assembly uses; unit weights recover the individual components.
    xi = 0 evaluates the exact static limit of the integrand (the plasma
    keeps a finite wavevector contrast there, Drude-type media lose it).

    xi may be an array: its k-integrals are then one trapezoidal rule,
    one row per entry, all on the same nodes, and the result is an array
    of xi's shape.  A scalar xi is the batch of one and returns a float.
    The weights are scalars, one pair for every entry (TypeError for an
    array).
    Entries whose tensor is zero at double precision (underflow,
    vanishing contrast) skip the quadrature.  Raises IntegrationError,
    naming the first entry that missed rel_tol, if the rule has not
    settled after its last halving.

    z_derivative=True returns the pair (value, z d/dz value).  Each entry
    then gets a partner row, its integrand times -2 rho, on the same
    nodes, so the kernel is evaluated once per node; each meets rel_tol
    on its own.
    """
    _require_height(z)
    xis = np.asarray(xi, dtype=float)
    flat = xis.ravel()
    c = CONSTANTS.c
    mirror = isinstance(m, PerfectConductor)

    # An entry is zero past the underflow cut-off, and for a medium where
    # it has no wavevector contrast (then r_s = r_p = 0)
    x = flat * z / c
    live = ~(x > _UNDERFLOW_X)
    if mirror:
        if np.count_nonzero(flat < 0.0):
            raise ValueError("xi must be >= 0")
    else:  # raises the same ValueError for xi < 0
        contrast = wavevector_contrast_imag(m, flat)
        live &= contrast != 0.0
    n = np.count_nonzero(live)
    if not n:
        zeros = [0.0 if xis.ndim == 0 else np.zeros(xis.shape) for _ in range(1 + z_derivative)]
        return tuple(zeros) if z_derivative else zeros[0]
    # the live entries, by a plain slice (no copies) when all are live
    pick = slice(None) if n == flat.size else live
    xl, x = flat[pick], x[pick]
    x2 = x * x
    w_xx, w_zz = float(weight_xx), float(weight_zz)  # raises for arrays
    # per-entry columns against the nodes of w = ln v
    weight_p = w_xx * x2[:, None]  # the weight of r_p in acc
    if not mirror:
        d = contrast[pick] * z * z
        # eps - 1 = contrast / s2.  It is set to 0, which zeroes r_p, where
        # r_p x^2 cannot reach the value: with |r_p| <= 1 that term
        # integrates to at most x^2/2, while for x this small the r_s part
        # is above min(d, 1)/600, so below x^2 = 2^-64 min(d, 1) the term
        # is under half an ulp.  That covers xi = 0, and xi so far below
        # the plasma frequency that (eps q + q_m)^2 overflows.  For a
        # contrast that does not depend on xi the entry then equals the
        # xi = 0 one to a few ulp
        s2 = (xl / c) ** 2
        keep_rp = (s2 > 0.0) & (x2 > 2.0**-64 * np.minimum(d, 1.0))
        eps_m1 = np.where(keep_rp, contrast[pick] / np.where(keep_rp, s2, 1.0), 0.0)
        d = d[:, None]
        reflect = _reflection(d, x2[:, None], eps_m1[:, None], weight_p)
    x = x[:, None]
    # acc = weight_p r_p - r_s (w_xx rho^2 + 2 w_zz t^2); the bracket is
    # formed with the sign of -r_s's factor: + for the mirror's r_s = -1,
    # - for a medium, whose -r_s is d / (q + q_m)^2
    sign = 1.0 if mirror else -1.0
    a_xx, a_zz = sign * w_xx, sign * 2.0 * w_zz

    def integrand(w: np.ndarray) -> np.ndarray:
        v = np.exp(w)
        # rho, rho^2, a work plane, reflect's three, and acc when the
        # returned array is the z-derivative pair: all in the scratch.
        # The array returned is fresh, since the rule holds on to it
        rho, rho2, tmp, *work, scratch_acc = _scratch_planes(7, n, v.size)
        np.add(x, v, out=rho)
        np.multiply(rho, rho, out=rho2)
        # t^2 = rho^2 - x^2 = v (x + rho)
        acc = np.add(rho, x, out=scratch_acc if z_derivative else None)
        acc *= v * a_zz
        acc += np.multiply(rho2, a_xx, out=tmp)
        if mirror:  # r_s = -1, r_p = 1
            acc += weight_p
        else:
            q_m = np.add(rho2, d, out=tmp)
            np.sqrt(q_m, out=q_m)
            r_s, r_p = reflect(rho, rho2, q_m, out=work)
            acc *= r_s
            acc += r_p
        decay = np.exp(-2.0 * v) * v
        if not z_derivative:
            acc *= decay
            return acc
        # the value rows, then their partners times -2 rho
        out = np.empty((2 * n, v.size))
        np.multiply(acc, decay, out=out[:n])
        np.multiply(rho, -2.0, out=out[n:])
        out[n:] *= out[:n]
        return out

    res = integrate_trapezoid(integrand, math.log(rel_tol) - 6.0, math.log(24.0), rel_tol)
    # e^(-2x) from x in extended precision: a rounded x would carry its
    # error times 2x into the value (up to 1.6e-13 at x = 350)
    decay = np.exp(-2.0 * (xl.astype(np.longdouble) * z / c)).astype(float)
    if not res.converged:
        j = int(np.argmin(res.abs_error <= rel_tol * np.abs(res.value)))
        what = "z-derivative of the " if j >= n else ""
        # the error reports the quantity the call returns, in 1/m^3
        scale = decay[j % n] / (8.0 * math.pi * z**3)
        raise IntegrationError(
            f"{what}transverse-wavevector integral did not converge "
            f"(xi={xl[j % n]:.3e}, z={z:.3e})",
            replace(
                res, value=float(res.value[j] * scale), abs_error=float(res.abs_error[j] * scale)
            ),
        )
    # one row of values, then one of z-derivatives if asked for
    values = res.value.reshape(-1, n) * decay / (8.0 * math.pi * z**3)
    if n < flat.size:
        out = np.zeros((len(values), flat.size))
        out[:, live] = values
        values = out
    parts = [float(v[0]) if xis.ndim == 0 else v.reshape(xis.shape) for v in values]
    return tuple(parts) if z_derivative else parts[0]


def contracted_green_real(
    m: Material,
    z: float,
    omega: float,
    weight_xx: float,
    weight_zz: float,
    rel_tol: float = 1e-10,
) -> complex:
    """weight_xx * h_xx(omega) + weight_zz * h_zz(omega), complex, 1/m^3.

    rel_tol bounds the error of the complex value relative to its
    modulus: each segment stops once its error estimate is at most
    rel_tol times its own modulus, so the result's estimate is at most
    rel_tol (|propagating| + |evanescent|).  The real and imaginary
    parts share that absolute error, so a part much smaller than the
    modulus is known to fewer digits.  Raises UnsupportedModelError for a
    lossless medium with eps(omega) <= -1 (surface-mode pole), ValueError
    for a medium at an omega so small that (omega/c)^2 underflows or
    (eps - 1)(eps + 1) overflows, and IntegrationError, with the
    segment's value in 1/m^3, if a segment misses rel_tol.
    """
    _require_height(z)
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    c = CONSTANTS.c
    w = omega * z / c
    w2 = w * w

    mirror = isinstance(m, PerfectConductor)
    if mirror:
        dq2z2 = complex(0.0)
    else:
        contrast = wavevector_contrast_real(m, omega)
        dq2z2 = contrast * z * z
        if dq2z2 == 0:
            return complex(0.0)
        s2 = (omega / c) ** 2
        if s2 == 0.0:
            raise ValueError(
                f"omega = {omega:.3e} rad/s is too small: (omega/c)^2 underflows to 0, "
                "so eps - 1 = contrast / (omega/c)^2 is undefined"
            )
        eps_m1 = contrast / s2
        # A lossless permittivity below -1 puts the p-polarized surface-mode
        # pole directly on the evanescent integration path; the integral
        # does not exist there without dissipation.
        eps = 1.0 + eps_m1
        if eps.imag == 0.0 and eps.real <= -1.0:
            raise UnsupportedModelError(
                f"eps({omega:.3e} rad/s) = {eps.real:.3e} <= -1 for a lossless medium: "
                "the surface-mode pole lies on the evanescent integration path and the "
                "real-frequency response is undefined without dissipation"
            )
        if not cmath.isfinite(eps_m1 * (2.0 + eps_m1)):  # in r_p; a product does not raise
            raise ValueError(f"omega = {omega:.3e} rad/s is too small: (eps - 1)(eps + 1) overflows")

        reflect = _reflection(-dq2z2, -w2, eps_m1)

    # k-integrand at vacuum normal wavevector k_z (times z): k_z = v in
    # (0, w) on the propagating segment, k_z = i u on the evanescent tail
    def integrand(kz: np.ndarray) -> np.ndarray:
        kz2 = kz * kz
        if mirror:
            r_s, r_p = -1.0, 1.0
        else:
            km = np.sqrt(kz2 + dq2z2)
            r_s, r_p = reflect(-1j * kz, -kz2, -1j * km)
        bracket = weight_xx * (r_p * w2 - r_s * kz2) + 2.0 * weight_zz * (w2 - kz2) * r_s
        return bracket * np.exp(2.0j * kz)

    prop_bps: list[float] = []
    if not mirror and dq2z2.imag == 0.0 and dq2z2.real < 0.0:
        v_edge = math.sqrt(-dq2z2.real)  # total-reflection kink
        if v_edge < w:
            prop_bps.append(v_edge)
    pref = 1.0 / (8.0 * math.pi * z**3)

    def failed(segment: str, res: QuadratureResult) -> IntegrationError:
        # the error reports the segment integral in 1/m^3, as it enters the result
        return IntegrationError(
            f"{segment}-segment integral did not converge (omega={omega:.3e}, z={z:.3e})",
            replace(res, value=res.value * pref, abs_error=res.abs_error * pref),
        )

    res_prop = integrate_finite_oscillatory(
        integrand, 0.0, w, phase_scale=w / math.pi, rel_tol=rel_tol, breakpoints=prop_bps
    )
    if not res_prop.converged:
        raise failed("propagating", res_prop)

    evan_bps = [0.25, 1.0, 4.0]
    scale = abs(np.sqrt(dq2z2)) if not mirror else 0.0
    if 0.04 < scale < 50.0:
        evan_bps.append(float(scale))
    if w < 50.0:
        evan_bps.append(max(w, 1e-6))
    res_evan = integrate_semi_infinite(lambda u: integrand(1j * u), rel_tol, breakpoints=evan_bps)
    if not res_evan.converged:
        raise failed("evanescent", res_evan)
    return pref * (-1j * res_prop.value - res_evan.value)

