"""Assembly of the neutron-surface dispersion potential and its limits.

The neutron is a two-level magnetic dipole: an external field B at angle
theta to the surface normal splits the spin states by the transition
frequency omega = |gamma_n| B.  The potential of each state decomposes
into a static piece (the state's own moment against the zero-frequency
surface response), a cross piece from the opposite state summed over the
Wick-rotated spectrum with Lorentzian weight omega/(xi^2 + omega^2), and,
for the upper state only, a resonant piece oscillating at the real
transition frequency:

    u_ground  = u_dd + u_du            (positive: repulsive)
    u_excited = u_dd - u_du + u_resonant

Because the surface response diagonal is (h_xx, h_xx, h_zz), the angle
enters only through quadratic weights: the static contraction carries
(sin^2 theta, cos^2 theta) and the cross/resonant contraction carries
(1 + cos^2 theta, sin^2 theta).  theta=None in FieldConfig selects the
uniform average over field orientations, which replaces cos^2 theta by
1/3 exactly (the weights are linear in it).

B = 0 is taken as a limit: the Lorentzian becomes a half-delta at the
origin and the cross term collapses to half the static contraction.
Surfaces whose zero-frequency reflection survives (ideal mirror, plasma)
then still bind; Drude-type media do not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .constants import CONSTANTS, NEUTRON
from .greens import (
    _UNDERFLOW_X,
    IntegrationError,
    contracted_green_imag,
    contracted_green_real,
    static_edge,
    static_min_d,
)
from .materials import (
    Drude,
    DrudeLorentz,
    Material,
    PerfectConductor,
    Plasma,
    longitudinal_frequency,
)
from .quadrature import integrate_trapezoid

_DEFAULT_REL_TOL = 1e-9
# (hbar gamma_n / 2)^2, the neutron's squared magnetic moment in J^2/T^2
_MOMENT_SQ = (CONSTANTS.hbar * NEUTRON.gamma_n / 2.0) ** 2
# hbar^2 gamma_n^2 mu0, the coupling of the closed forms, in J m^3
_COUPLING = CONSTANTS.hbar**2 * NEUTRON.gamma_n**2 * CONSTANTS.mu0


@dataclass(frozen=True)
class FieldConfig:
    """External field strength and orientation.

    theta is the angle between the field direction and the surface
    normal, in [0, pi]; None averages uniformly over orientations.
    """

    b_ext: float
    theta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.b_ext < 0.0 or not math.isfinite(self.b_ext):
            raise ValueError("b_ext must be >= 0 and finite")
        # the models square the spin-flip frequency, as they do their own
        omega = NEUTRON.spin_flip_frequency(self.b_ext)
        if not math.isfinite(omega * omega):
            raise ValueError("b_ext must be below 7e145 T, or its frequency's square overflows")
        if self.theta is not None and not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")


def transition_frequency(cfg: FieldConfig) -> float:
    """Spin-flip frequency |gamma_n| B in rad/s."""
    return NEUTRON.spin_flip_frequency(cfg.b_ext)


def critical_distance(cfg: FieldConfig) -> float:
    """Retardation crossover c/omega; +inf when the field vanishes."""
    omega = transition_frequency(cfg)
    if omega == 0.0:
        return math.inf
    return CONSTANTS.c / omega


def _cos2(theta: Optional[float]) -> float:
    # uniform orientation average of cos^2 is exactly 1/3
    return 1.0 / 3.0 if theta is None else math.cos(theta) ** 2


def _cross_weights(theta: Optional[float]) -> tuple[float, float]:
    c2 = _cos2(theta)
    return 1.0 + c2, 1.0 - c2


def u_dd(
    z: float,
    cfg: FieldConfig,
    m: Material,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> float:
    """Static same-state piece; equal for both spin states.

    It does not depend on the field strength, so this is u_du's B = 0
    solve: g(0) alone, at rel_tol.  With a field, u_du(...) returns it
    too, with its z-derivative, from the g(0) entry of its own batch.
    """
    return u_du(z, FieldConfig(0.0, cfg.theta), m, rel_tol=rel_tol)[0]


@functools.lru_cache(maxsize=None)
def _cutoff_x(rel_tol: float) -> float:
    """X, the end of u_du's outer sum in x = xi z/c, for a rel_tol.

    The smallest multiple of 1/4 at which the ideal mirror's
    g(x)/g(0) = (1 + 2x + 4x^2) e^(-2x) falls below rel_tol * 1e-6
    (18.75 at rel_tol 1e-7, 20 at 1e-8, 27.25 at 1e-14), at most
    _UNDERFLOW_X.  Since |r_s|, |r_p| <= 1 on the imaginary axis, every
    model's |g(x)| is below the mirror's g(0) times that bound.
    """
    x = 0.25
    while x < _UNDERFLOW_X:
        if (1.0 + 2.0 * x + 4.0 * x * x) * math.exp(-2.0 * x) < 1e-6 * rel_tol:
            break
        x += 0.25
    return x


# The share of rel_tol |u| that each of u_du's lower edges, the row edge
# and the contrast edge, may spend
_ROW_EDGE_SHARE = 0.05


def _softplus(t: float) -> float:
    """ln(1 + e^t) without overflow."""
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _contrast_edge(m, z, omega, ln_ratio, w_xx, w_zz, budget, s_lo, s_hi) -> float:
    """u_du's lower edge s_e for a Drude or Drude-Lorentz medium, else -inf.

    The nodes below s_e move u_du and its z-derivative by at most budget
    (share times rel_tol) of their own size; u_du's docstring gives the
    bounds.  All in logs, so that no scalar of an accepted request
    overflows.  budget = 0 gives -inf.
    """
    if isinstance(m, Drude):
        p, xi_m = 1, m.gamma
    elif isinstance(m, DrudeLorentz):
        p, xi_m = 2, m.omega_t
    else:
        return -math.inf
    if not (budget > 0.0 and m.omega_p > 0.0):
        return -math.inf
    # d(xi) = d0 / (1 + (xi_m/xi)^p) <= d0 (xi/xi_m)^p, d0 = (omega_p z/c)^2
    ln_d0 = 2.0 * (math.log(m.omega_p) + math.log(z / CONSTANTS.c))
    s_m = math.log(xi_m) - math.log(omega)
    # the lower bound: six terms of the h = 1 sum, at integer s up to the knee
    top = min(max(math.floor(min(s_m, ln_ratio)), math.ceil(s_lo) + 5), math.floor(s_hi))
    terms = []
    for n in range(max(top - 5, math.ceil(s_lo)), top + 1):
        ln_d = ln_d0 - _softplus(p * (s_m - n))
        # f = 1 - e^(-y)(1 + y), y = 2 sqrt(d): 1 to double precision past
        # y = 40, and at least e^(-y) y^2/2 = 2 d e^(-y)
        y = 2.0 * math.exp(0.5 * min(ln_d, 6.0))
        ln_f = ln_d + math.log(2.0) - y
        if y > 1e-3:
            ln_f = math.log(-math.expm1(-y) - y * math.exp(-y))
        # ln of sech(n)/2 e^(-2x) f
        terms.append(ln_f + n - _softplus(2.0 * n) - 2.0 * math.exp(n - ln_ratio))
    if not terms:
        return -math.inf
    top_term = max(terms)
    ln_low = top_term + math.log(sum(math.exp(t - top_term) for t in terms) * w_xx / 36.0)
    # the dropped bound A e^(3 s_e) + B e^((p + 1) s_e), times 3 for the
    # z-derivative, within budget of the lower bound; h/(1 - e^(-k h)) at
    # h = 1/4 sums each geometric series
    ln_t = ln_low + math.log(budget / 3.0)
    sums = [0.25 / -math.expm1(-0.25 * k) for k in (3, p + 1)]
    ln_a = math.log(sums[0] * w_xx / 2.0) - 2.0 * ln_ratio
    ln_b = math.log(sums[1] * (w_xx + 2.0 * w_zz) / 8.0) + ln_d0 - p * s_m
    s_b = (ln_t - ln_b) / (p + 1)  # where B's term alone meets the budget
    s_e = s_b - _softplus(ln_a + 3.0 * s_b - ln_t) / (p + 1)
    return min(s_e, ln_ratio, s_hi)


def u_du(
    z: float,
    cfg: FieldConfig,
    m: Material,
    rel_tol: float = _DEFAULT_REL_TOL,
    z_derivative: bool = False,
):
    """Static and cross pieces, (u_dd, u_du), from one solve.

    The cross piece is a Lorentzian-weighted imaginary-frequency sum: the
    integral over xi of g(xi), the k-integral of contracted_green_imag,
    is the trapezoidal rule in s = ln(xi/omega)
    (quadrature.integrate_trapezoid): the weight is sech(s)/2 and g is
    analytic for |Im s| < pi/2, so the error falls like exp(-pi^2/h)
    (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  The rule's first
    call takes the h = 1/4 grid, and each halving after it the odd nodes,
    until the rule's error estimate is at most rel_tol: the last
    difference of the sums, or, once they converge, d^2/d' from the last
    two; the rule's roundoff floor of 1e-14 makes a rel_tol below it
    fail.  The sum ends at s_hi = ln(X c/(z omega)), at x = xi z/c =
    X(rel_tol) (_cutoff_x: 18.75 at rel_tol 1e-7, 27.25 at 1e-14), past
    which every model's |g| is below 1e-6 rel_tol of the ideal mirror's
    g(0).  Measured against the sum up to x = _UNDERFLOW_X, that moves
    u_du by 1e-5 rel_tol or less at rel_tol 1e-7 (the z-derivative, whose
    tail carries a further factor of about 2x, leads) and by rounding at
    1e-14.  Below s_lo = ln(rel_tol/4 min(1, c/(z omega))), and below the
    static edge ln(x_static c/(z omega)) where that is higher
    (greens.static_edge: the mirror and the plasma, where g(x) equals
    g(0) to a few ulp), g is its static value g(0), taken down to
    s_lo - 40 without a k-integral.  For those two media, where
    ratio = c/(z omega) > 1, g(0) also stands in below the row edge
    x_a = (pi/2) 0.05 rel_tol ratio min(d, 1)/13, capped at X, where
    that is higher still (0.05 is _ROW_EDGE_SHARE; min(d, 1) is
    greens.static_min_d's).  Its basis: sech(s)/2 <= e^(-s), and
    |g/g(0) - 1| < 13 x^2/min(d, 1) (static_edge's bound), so with
    x = e^s/ratio the nodes below x_a move the sum by at most
    13 x_a g(0)/(ratio min(d, 1)); against |u| ~ g(0) pi/2, which holds
    where ratio > 1, that is 0.05 rel_tol.  The edge drops nodes of a sum
    that grows like e^s, not a piece of the integral, so on the h = 1/4
    grid the share is at most h/(1 - e^(-h)) = 1.13 times that.
    Measured against the same solve without it, u_du and its
    z-derivative move by at most 0.0524 rel_tol (fig2's plasma at d = 1,
    theta = 0), the mirror's by 0.0087.
    For Drude and Drude-Lorentz, g(0) = 0 (their xi = 0 entry has no
    contrast), and g(0) stands in below the contrast edge s_e
    (_contrast_edge), capped at x = 1 and at s_hi, where that is above
    s_lo.  Its basis: every term of the sum has one sign, the value's
    and the z-derivative's alike, and on the imaginary axis
    0 <= -r_s = d/(rho + q_m)^2 <= min(1, d/(4 rho^2)) and 0 <= r_p <= 1,
    so 8 pi z^3 g(x) <= e^(-2x) [w_xx x^2/2 + (w_xx + 2 w_zz) d(x)/8],
    and the z-derivative's terms, times 2 rho, are at most (1 + 2x) <= 3
    times that.  d(xi) is at most (omega_p z/c)^2 (xi/xi_m)^p, with
    xi_m = gamma and p = 1 for Drude, xi_m = omega_t and p = 2 for
    Drude-Lorentz, and sech(s)/2 <= e^s, so the h = 1/4 nodes below s_e
    add up to at most A e^(3 s_e) + B e^((p + 1) s_e), two geometric
    series (a finer grid's h/(1 - e^(-n h)) is smaller).  From below,
    -r_s rho^2 >= min(v^2, d)/9 gives 8 pi z^3 g(x) >=
    e^(-2x) w_xx (1 - e^(-2a)(1 + 2a))/36, a = sqrt(d), with w_xx >= 1;
    the z-derivative's terms stay above it too (2 rho >= 2v).  Summed at
    the six integer s up to the knee ln(min(xi_m, c/z)/omega), terms of
    the h = 1 sum, that is a lower bound of |u| and |z du/dz| (the h = 1
    sum is within 2.5% of the converged one; measured, both are at
    least 2.6 times the bound).  s_e is the highest edge at which
    3 (A e^(3 s_e) + B e^((p + 1) s_e)) is within 0.05 rel_tol of that
    lower bound (_ROW_EDGE_SHARE again; a share of 0 switches both edges
    off).  Measured against the same solve without it (fig2's Drude and
    Drude-Lorentz, and ones with gamma or omega_t near omega or at
    omega_p; z from 1e-10 to 1e2 m; B = 1e-3, 2 and 50 T), u_du and its
    z-derivative move by at most 0.0062 rel_tol (fig2's Drude at 1 nm,
    50 T, theta = 0, rel_tol 1e-12).  No edge moves a node: those that
    remain are the nodes of the full sum.
    The k-integrals of one call of the rule are one batch of
    contracted_green_imag, itself a trapezoidal rule in ln v, at
    tolerance rel_tol/10 raised to 1e-13, but never above rel_tol nor
    below the 1e-14 floor (rel_tol itself from 1e-14 to 1e-13).  The
    first batch, every xi of the h = 1/4 grid and at the benchmark's
    tolerances nearly always the only one, is led by one xi = 0 entry,
    g(0), and every entry takes the cross weights.  At xi = 0 the
    response has h_zz = 2 h_xx, so a contraction there is
    (w_xx + 2 w_zz) h_xx(0), and u_dd and its z-derivative are g(0)'s
    times the ratio of the static and cross weights' w_xx + 2 w_zz,
    (1 + cos^2 theta) / (3 - cos^2 theta), solved to the batch
    tolerance.  At B = 0 both pieces come from g(0) alone, at rel_tol;
    u_dd() is that solve's static piece.
    Raises IntegrationError if a k-integral misses its tolerance (naming
    xi and z) or the sum has not settled after the last halving (naming
    z and B), and ValueError, before any k-integral, where B > 0 is so
    weak that c/(z omega) overflows.

    z_derivative=True returns each piece as the pair (u, z du/dz) from the
    same solve: every k-integral carries its z-derivative as a partner
    row, the nodes do not depend on z, and both sums must settle.
    """
    k = CONSTANTS
    w_xx, w_zz = _cross_weights(cfg.theta)
    c2 = _cos2(cfg.theta)
    half = 0.5 * k.mu0 * _MOMENT_SQ  # u_dd per unit static contraction
    static = half * (1.0 + c2) / (3.0 - c2)  # u_dd per unit g(0)

    def pieces(dd: np.ndarray, du: np.ndarray):
        # one entry per sum: the value, then its z-derivative
        return tuple(tuple(p.tolist()) if z_derivative else float(p[0]) for p in (dd, du))

    omega = transition_frequency(cfg)
    if omega == 0.0:
        g0 = contracted_green_imag(
            m, z, 0.0, w_xx, w_zz, rel_tol=rel_tol, z_derivative=z_derivative
        )
        g0 = np.ravel(g0)
        return pieces(static * g0, half * g0)

    inner_tol = min(max(rel_tol / 10.0, 1e-13), max(rel_tol, 1e-14))
    ratio = k.c / (z * omega) if z * omega > 0.0 else math.inf  # xi/omega at x = 1
    s_hi = math.log(_cutoff_x(rel_tol) * ratio)
    if math.isinf(s_hi):
        # not the B = 0 branch: for Drude-type media g(0) = 0 is not the
        # limit of so weak a field
        raise ValueError(
            f"c/(z omega) overflows at z={z:.3e}, B={cfg.b_ext:.3e}: "
            "the field is too weak for the imaginary-frequency sum"
        )
    s_lo = math.log(rel_tol / 4.0 * min(1.0, ratio))
    # the static edge (at most x = 2^-32) and the row edge x_a are at
    # most X, so at most s_hi
    x_static = static_edge(m, z)
    if ratio > 1.0:  # static_min_d is 0 where the static edge is
        x_a = math.pi / 2.0 * _ROW_EDGE_SHARE * rel_tol * ratio * static_min_d(m, z) / 13.0
        x_static = max(x_static, min(x_a, _cutoff_x(rel_tol)))
    s_static = max(s_lo, math.log(x_static * ratio)) if x_static else s_lo
    # Drude and Drude-Lorentz, where g(0) = 0: the contrast edge
    s_static = max(s_static, _contrast_edge(
        m, z, omega, math.log(ratio), w_xx, w_zz, _ROW_EDGE_SHARE * rel_tol, s_lo, s_hi
    ))
    g0 = None  # g(0), one row per sum: value, z-derivative

    def integrand(s: np.ndarray) -> np.ndarray:
        nonlocal g0
        # the nodes ascend, so the static ones, s < s_static, come first
        k0 = int(np.searchsorted(s, s_static))
        xi = omega * np.exp(s[k0:])
        if g0 is None:  # the first batch is led by xi = 0
            xi = np.concatenate(((0.0,), xi))
        g = contracted_green_imag(
            m, z, xi, w_xx, w_zz, rel_tol=inner_tol, z_derivative=z_derivative
        )
        g = np.reshape(g, (1 + z_derivative, -1))
        if g0 is None:
            g0, g = g[:, :1], g[:, 1:]
        f = np.empty((len(g), s.size))
        f[:, :k0] = g0
        f[:, k0:] = g
        f *= 0.5 / np.cosh(s)
        return f

    res = integrate_trapezoid(integrand, s_lo - 40.0, s_hi, rel_tol)
    scale = k.mu0 / math.pi * _MOMENT_SQ
    if not res.converged:
        raise IntegrationError(
            f"imaginary-frequency integral did not converge (z={z:.3e}, B={cfg.b_ext:.3e})",
            replace(
                res,
                value=float(scale * res.value[0]),
                abs_error=float(scale * res.abs_error.max()),
            ),
        )
    return pieces(static * g0[:, 0], scale * res.value)


def u_resonant(
    z: float,
    cfg: FieldConfig,
    m: Material,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> float:
    """Excited-state resonant piece at the real transition frequency.

    Undefined for a lossless medium whose permittivity is below -1 at
    the transition frequency (surface-mode pole); the plasma model is in
    that regime for any realistic field strength.

    This is the real part of a contracted_green_real value, whose rel_tol
    bounds the error relative to the complex modulus.  The real part
    carries that absolute error, rel_tol |h| in energy units, so where
    |Re h| is far below |h| its relative error can exceed rel_tol.
    """
    if cfg.b_ext <= 0.0:
        raise ValueError("the resonant piece requires b_ext > 0")
    w_xx, w_zz = _cross_weights(cfg.theta)
    omega = transition_frequency(cfg)
    contraction = contracted_green_real(m, z, omega, w_xx, w_zz, rel_tol=rel_tol)
    return CONSTANTS.mu0 * _MOMENT_SQ * contraction.real


def orientation_average(fn: Callable[[float], float]) -> float:
    """Uniform average of fn(theta) over field orientations on the sphere.

    Gauss-Legendre in cos(theta) with two nodes, which is exact for
    polynomials of degree up to 3 in cos(theta).  Every potential in this
    package depends on the angle only through cos^2(theta), linearly
    (see the module docstring), so two nodes give its exact average.
    """
    nodes, weights = np.polynomial.legendre.leggauss(2)
    return 0.5 * sum(w * fn(math.acos(x)) for x, w in zip(nodes, weights))


def _si_ci_series(a: float) -> tuple[float, float, float]:
    """f(a), g(a) and 1/a - f(a), the auxiliary functions of the sine and
    cosine integrals (Abramowitz & Stegun 5.2.6-5.2.7), for 0 < a < 2.

    From the power series of Si and Ci (5.2.14, 5.2.16) to the a^29 term,
    below 1e-23 at a = 2, each summed with its constants by math.fsum.
    """
    # Euler's gamma and ln a start Ci's sum, -pi/2 starts Si's
    term, si, ci = 1.0, [-math.pi / 2.0], [0.5772156649015329, math.log(a)]
    for n in range(1, 30):
        term *= a / n  # a^n / n!
        (si if n % 2 else ci).append((-1) ** (n // 2) * term / n)
    si, ci = math.fsum(si), math.fsum(ci)  # Si(a) - pi/2 and Ci(a)
    sin, cos = math.sin(a), math.cos(a)
    f = ci * sin - si * cos
    return f, -ci * cos - si * sin, 1.0 / a - f


def _si_ci_continued_fraction(a: float) -> tuple[float, float, float]:
    """f(a), g(a) and 1/a - f(a) as _si_ci_series gives them, for a >= 2.

    f + i g = i e^(ia) E1(ia) = 1/(a - i r), where r is the tail of the
    even continued fraction of e^z E1(z) (A&S 5.1.22) at z = ia:
        e^z E1(z) = 1/(z + r),  r = 1 - 1/(z + 3 - 4/(z + 5 - 9/(z + 7 - ...))),
    evaluated from its level 20 + 200/a down, which settles it to 1e-16.
    Then 1/a - f = -Re[i r / (a (a - i r))], about 2/a^3, comes without
    the cancellation of 1/a - f.
    """
    n = 20 + int(200.0 / a)
    t = complex(2 * n + 1, a)
    for j in range(n - 1, 0, -1):
        t = complex(2 * j + 1, a) - (j + 1) ** 2 / t
    ir = 1j * (1.0 - 1.0 / t)
    h = 1.0 / (a - ir)
    return h.real, h.imag, -(ir / (a * (a - ir))).real


def u_du_mirror_single_integral(
    z: float,
    cfg: FieldConfig,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> float:
    """Ideal-mirror cross piece in closed form: the reference for u_du.

    Independent reference route for the general double-integral path:
    the transverse-wavevector integral done first leaves a single
    integral in x = xi z / c over the polynomial

        (5 - c2t) + (10 - 2 c2t) x + (12 + 4 c2t) x^2,   c2t = cos(2 theta),

    times e^(-2x), against the Lorentzian weight b/(x^2 + b^2) with
    b = omega z / c.  With a = 2b its three moments are f(a), b g(a) and
    b^2 (1/a - f(a)) (Abramowitz & Stegun 5.2.12-5.2.13), f and g the
    auxiliary functions of the sine and cosine integrals: a power series
    below a = 2 and a continued fraction from there on, within 1e-15
    relative.  u_du for the ideal mirror must agree with it to u_du's
    rel_tol; the two routes share no code.  No quadrature runs, so it
    never raises; rel_tol has no effect and is kept so that existing
    callers run unchanged.
    """
    c2t = 2.0 * _cos2(cfg.theta) - 1.0  # cos(2 theta)
    pref = _COUPLING / (256.0 * math.pi**2 * z**3)
    omega = transition_frequency(cfg)
    if omega == 0.0:
        return pref * (math.pi / 2.0) * (5.0 - c2t)
    b = omega * z / CONSTANTS.c
    a = 2.0 * b
    f, g, tail = (_si_ci_series if a < 2.0 else _si_ci_continued_fraction)(a)
    moments = (5.0 - c2t) * f + (10.0 - 2.0 * c2t) * b * g + (12.0 + 4.0 * c2t) * b * b * tail
    return pref * moments


def nonretarded_mirror_u_du(z: float, cfg: FieldConfig) -> float:
    """Small-distance limit of the ideal-mirror cross piece."""
    c2t = 2.0 * _cos2(cfg.theta) - 1.0
    return _COUPLING * (5.0 - c2t) / (512.0 * math.pi * z**3)


def retarded_mirror_u_du(z: float, cfg: FieldConfig) -> float:
    """Large-distance limit of the ideal-mirror cross piece (needs B > 0)."""
    omega = transition_frequency(cfg)
    if omega == 0.0:
        raise ValueError("the retarded asymptote requires b_ext > 0")
    return _COUPLING * CONSTANTS.c / (32.0 * math.pi**2 * omega * z**4)


def nonretarded_leading(m: Material, cfg: FieldConfig, z: float = 1e-9) -> float:
    """Leading small-distance ground-state closed form per model.

    Ideal mirror: hbar^2 gamma^2 mu0 / (64 pi z^3), orientation
    independent.  Plasma: field independent, ~1/z.  Drude: the x ln x
    law in x = omega/gamma, valid only for x well below 1 (raises at
    x >= 1, returns the x -> 0 limit 0 at B = 0).  Drude-Lorentz:
    linear in the field; the angle-resolved coefficient reduces to the
    standard orientation-averaged form at theta=None (raises where
    omega_t^2 + omega_p^2/2 underflows to 0).
    """
    if z <= 0.0:
        raise ValueError("z must be > 0")
    k = CONSTANTS
    if isinstance(m, PerfectConductor):
        return _COUPLING / (64.0 * math.pi * z**3)
    if isinstance(m, Plasma):
        return _COUPLING * m.omega_p**2 / (128.0 * math.pi * k.c**2 * z)
    omega = transition_frequency(cfg)
    if isinstance(m, Drude):
        x = omega / m.gamma
        if x == 0.0:
            return 0.0
        if x >= 1.0:
            raise ValueError("leading-order Drude form requires omega/gamma < 1")
        sin2 = 1.0 - _cos2(cfg.theta)
        return (
            -_COUPLING * m.omega_p**2 * (2.0 + sin2)
            / (256.0 * math.pi**2 * k.c**2 * z)
            * x * math.log(x)
        )
    if isinstance(m, DrudeLorentz):
        c2 = _cos2(cfg.theta)
        w_l = longitudinal_frequency(m.omega_t, m.omega_p)
        if w_l == 0.0:
            raise ValueError("omega_t^2 + omega_p^2/2 underflows: no leading Drude-Lorentz form")
        angular = (1.0 + c2) * (1.0 / w_l + 0.5 / m.omega_t) + (1.0 - c2) / m.omega_t
        return _COUPLING * m.omega_p**2 * omega / (256.0 * math.pi * k.c**2 * z) * angular
    raise TypeError(f"unknown material {m!r}")


def neutron_c3() -> float:
    """Coefficient of the 1/z^3 small-distance ground-state potential."""
    return _COUPLING / (64.0 * math.pi)


def atomic_c3(d_squared: float) -> float:
    """Small-distance coefficient for an electric dipole of mean square d^2."""
    if d_squared <= 0.0:
        raise ValueError("d_squared must be > 0")
    return d_squared / (48.0 * math.pi * CONSTANTS.eps0)


def c3_ratio() -> float:
    """neutron_c3 over atomic_c3(e^2 a_bohr^2), in closed form.

    Algebraically (3/16) g^2 (m_e/m_n)^2 alpha^2 when the dipole scale
    is e * a_bohr; about 4.3e-11.
    """
    k = CONSTANTS
    return 3.0 / 16.0 * NEUTRON.g_factor**2 * (k.m_e / NEUTRON.mass) ** 2 * k.alpha**2
