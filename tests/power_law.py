"""Finite-difference references for the local power law d ln|u| / d ln z.

The package computes the `exponent` column from the exact z-derivative
of one solve; these re-solve u at neighbouring heights instead, so they
share nothing with that route but u itself.
"""

import math


def local_power_law(z, u, h=1e-3):
    """d ln|u| / d ln z by central log-difference with relative step h."""
    if z <= 0.0:
        raise ValueError("z must be > 0")
    hi = u(z * (1.0 + h))
    lo = u(z * (1.0 - h))
    if hi == 0.0 or lo == 0.0 or not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("potential vanishes or is not finite near z; exponent undefined")
    return (math.log(abs(hi)) - math.log(abs(lo))) / (math.log1p(h) - math.log1p(-h))


def richardson_power_law(z, u):
    """local_power_law at h = 1e-2 and 1e-3, Richardson-extrapolated.

    The central difference errs by O(h^2), so (100 D(1e-3) - D(1e-2)) / 99
    cancels the leading term and leaves O(h^4), about 1e-12 here.
    """
    return (100.0 * local_power_law(z, u, 1e-3) - local_power_law(z, u, 1e-2)) / 99.0
