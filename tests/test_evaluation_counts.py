"""Exact k-integral work of fixed u_du solves.

Counts of batches, integrand calls and kernel values pin the nodes the
imaginary axis places: a change that should leave every node where it
was must leave these numbers exactly as they are.  They are counted by
``counting`` of scripts/ab_rows.py, which wraps greens.integrate_trapezoid
and the other quadrature rules and prints the same counts for the
benchmark row sets of two trees.

The counts are reproducible on one NumPy build and CPU.  The rules' stop
and gate decisions compare error estimates built from np.exp and
np.sqrt, whose implementation NumPy picks per CPU, so another machine
may round them differently in the last bit.  That moves an estimate by
far less than 1e-6 of itself, and
test_pinned_counts_sit_clear_of_the_thresholds checks that moving every
threshold by 1e-6 leaves each count as it is.
"""

import importlib.util
from pathlib import Path

import pytest

import neutroncp
from neutroncp import DrudeLorentz, Drude, FieldConfig, PerfectConductor, Plasma, u_du, u_resonant
from neutroncp import greens, potential, quadrature

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_rows", ROOT / "scripts" / "ab_rows.py")
ab_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_rows)

FIG2 = {
    "pc": PerfectConductor(),
    "plasma": Plasma(omega_p=1.37e16),
    "drude": Drude(omega_p=1.37e16, gamma=4.10e12),
    "drude-lorentz": DrudeLorentz(omega_p=2.3e16, omega_t=7.1e16),
}
# fig1's plasma: omega_p equal to the spin-flip frequency at 2 T
FIG1_PLASMA = Plasma(omega_p=363494611.93541175)

# (batches, integrand calls, kernel values) of one u_du solve at 2 T,
# orientation averaged
FIG2_COUNTS = {
    ("pc", 1e-9): (1, 1, 1650),
    ("pc", 1e-6): (1, 1, 4730),
    ("plasma", 1e-9): (1, 1, 4400),
    ("plasma", 1e-6): (1, 1, 4730),
    ("drude", 1e-9): (1, 1, 14630),
    ("drude", 1e-6): (1, 2, 25194),
    ("drude-lorentz", 1e-9): (1, 1, 11000),
    ("drude-lorentz", 1e-6): (1, 1, 9020),
}


# the same for fig1's plasma at 1 m, rel_tol 1e-8, with z-derivative rows
FIG1_COUNTS = (1, 1, 10472)


def _counts(m, z, rel_tol, z_derivative=False):
    with ab_rows.counting(neutroncp) as counts:
        u_du(z, FieldConfig(b_ext=2.0), m, rel_tol=rel_tol, z_derivative=z_derivative)
    return counts["batches"], counts["integrand_calls"], counts["kernel_values"]


@pytest.mark.parametrize("model, z", list(FIG2_COUNTS), ids=[f"{m}-{z:g}" for m, z in FIG2_COUNTS])
def test_fig2_u_du_counts(model, z):
    assert _counts(FIG2[model], z, 1e-7) == FIG2_COUNTS[(model, z)]


def test_fig1_u_du_z_derivative_counts():
    # the z-derivative rows double the kernel values, not the nodes
    assert _counts(FIG1_PLASMA, 1.0, 1e-8, z_derivative=True) == FIG1_COUNTS


@pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 + 1e-6])
def test_pinned_counts_sit_clear_of_the_thresholds(monkeypatch, scale):
    # both rules, the inner k-integral's and the outer xi one's, stop at
    # error <= rel_tol |T| and trust their error model below
    # d' <= _MODEL_GATE_REL |T|; scaling every such threshold, with the
    # nodes left where they are, must not move a decision.  u_du's lower
    # edges (the mirror's and the plasma's row edge, the Drude-type
    # contrast edge) are set by _ROW_EDGE_SHARE, so scaling it the same
    # way must not move an edge across a node
    for module in (greens, potential):
        rule = module.integrate_trapezoid
        monkeypatch.setattr(
            module,
            "integrate_trapezoid",
            lambda f, lo, hi, rel_tol, rule=rule: rule(f, lo, hi, rel_tol * scale),
        )
    monkeypatch.setattr(quadrature, "_MODEL_GATE_REL", quadrature._MODEL_GATE_REL * scale)
    monkeypatch.setattr(potential, "_ROW_EDGE_SHARE", potential._ROW_EDGE_SHARE * scale)
    for (model, z), counts in FIG2_COUNTS.items():
        assert _counts(FIG2[model], z, 1e-7) == counts
    assert _counts(FIG1_PLASMA, 1.0, 1e-8, z_derivative=True) == FIG1_COUNTS


def test_counting_restores_the_rule():
    names = [
        (greens, "integrate_trapezoid"),
        (potential, "integrate_trapezoid"),
        (greens, "integrate_finite_oscillatory"),
        (greens, "integrate_semi_infinite"),
    ]
    rules = [getattr(module, name) for module, name in names]
    with ab_rows.counting(neutroncp):
        for (module, name), rule in zip(names, rules):
            assert getattr(module, name) is not rule
    for (module, name), rule in zip(names, rules):
        assert getattr(module, name) is rule


def test_counting_sees_the_real_axis():
    # a resonant piece is two real-axis segments and no k-batch; a ground
    # solve is one k-batch under the outer xi sum and no real-axis work
    with ab_rows.counting(neutroncp) as counts:
        u_resonant(1e-7, FieldConfig(b_ext=2.0), FIG2["drude"], rel_tol=1e-7)
    assert counts["propagating_evaluations"] > 0 and counts["evanescent_evaluations"] > 0
    assert counts["batches"] == counts["xi_nodes"] == 0
    with ab_rows.counting(neutroncp) as counts:
        u_du(1e-7, FieldConfig(b_ext=2.0), FIG2["drude"], rel_tol=1e-7)
    assert counts["propagating_evaluations"] == counts["evanescent_evaluations"] == 0
    assert counts["batches"] == 1 and counts["xi_nodes"] > 0
