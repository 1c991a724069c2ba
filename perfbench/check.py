"""Output check: classify each sweep row the program returned.

A row fails when

* its status is ``error``;
* a requested column is not finite in a ``status=ok`` row (for example
  ``u_resonant = nan`` when the real-frequency quadrature raised and the
  CLI took that for "no field");
* it breaks an invariant: ``u_ground > 0``; ``u_dd``, ``u_du`` and
  ``u_ground`` no larger than the ideal mirror's at the same z and field;
  ideal-mirror (``pc``) rows equal to the static mirror closed form plus
  the independent ``u_du_mirror_single_integral`` route within the
  request's ``rel_tol``.

The first two are missing answers.  The third is a wrong finite answer,
which :func:`is_wrong_answer` singles out.
"""

from __future__ import annotations

import math
from typing import Optional

from neutroncp.cli import SweepRequest
from neutroncp.constants import NEUTRON
from neutroncp.potential import FieldConfig, u_du_mirror_single_integral

_WRONG = "invariant"
_MIRROR_BOUNDED = ("u_dd", "u_du", "u_ground")


def parse_csv_row(text: str) -> dict[str, str]:
    """The single data row of ``write_csv`` output, keyed by column."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if len(lines) != 2:
        raise ValueError(f"expected a column line and one row, got {len(lines)} lines")
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def static_mirror_u_dd(z: float, theta: Optional[float]) -> float:
    """u_dd of the ideal mirror in closed form.

    0.5 mu0 (hbar gamma_n / 2)^2 (sin^2 h_xx(0) + cos^2 h_zz(0)) with
    h_xx(0) = 1/(32 pi z^3) and h_zz(0) = 1/(16 pi z^3); the orientation
    average replaces cos^2 by 1/3.
    """
    k = NEUTRON.constants
    cos2 = 1.0 / 3.0 if theta is None else math.cos(theta) ** 2
    moment_sq = (k.hbar * NEUTRON.gamma_n / 2.0) ** 2
    return 0.5 * k.mu0 * moment_sq * ((1.0 - cos2) + 2.0 * cos2) / (32.0 * math.pi * z**3)


def mirror_values(req: SweepRequest) -> dict[str, float]:
    """Ideal-mirror u_dd, and u_du and u_ground if requested, at the
    request's z and field.  The u_du quadrature runs only when needed."""
    z = req.z_min
    out = {"u_dd": static_mirror_u_dd(z, req.theta)}
    if {"u_du", "u_ground"} & set(req.outputs):
        out["u_du"] = u_du_mirror_single_integral(
            z,
            FieldConfig(b_ext=req.b_ext, theta=req.theta),
            rel_tol=max(req.rel_tol * 1e-2, 1e-13),
        )
        out["u_ground"] = out["u_dd"] + out["u_du"]
    return out


def classify(
    row: dict[str, str],
    req: SweepRequest,
    mirror: Optional[dict[str, float]] = None,
) -> Optional[str]:
    """None for a good row, else the reason it failed.

    ``mirror`` defaults to :func:`mirror_values` of ``req``; tests pass
    their own to check the rule without the quadrature.
    """
    if row.get("status") != "ok":
        return f"status={row.get('status')}"
    values = {c: float(row[c]) for c in req.outputs}
    for col, value in values.items():
        if not math.isfinite(value):
            return f"non-finite {col}"
    if "u_ground" in values and not values["u_ground"] > 0.0:
        return f"{_WRONG}: u_ground <= 0"
    bounded = [c for c in _MIRROR_BOUNDED if c in values]
    if not bounded:
        return None
    if mirror is None:
        mirror = mirror_values(req)
    for col in bounded:
        if values[col] > mirror[col] * (1.0 + req.rel_tol):
            return f"{_WRONG}: {col} above the ideal mirror"
        if req.model == "pc" and abs(values[col] - mirror[col]) > req.rel_tol * abs(mirror[col]):
            return f"{_WRONG}: pc {col} off the mirror oracle"
    return None


def is_wrong_answer(reason: Optional[str]) -> bool:
    """A finite answer that breaks an invariant, as opposed to a missing one."""
    return reason is not None and reason.startswith(_WRONG)
