"""Exact k-integral work of fixed u_du solves.

Counts of batches, integrand calls and kernel values pin the nodes the
imaginary axis places: a change that should leave every node where it
was must leave these numbers exactly as they are.  They are counted by
scripts/count_evaluations.py, which wraps greens.integrate_trapezoid.

The counts are reproducible on one NumPy build and CPU.  The rules' stop
and gate decisions compare error estimates built from np.exp and
np.sqrt, whose implementation NumPy picks per CPU, so another machine
may round them differently in the last bit.  That moves an estimate by
far less than 1e-6 of itself, and
test_pinned_counts_sit_clear_of_the_thresholds checks that moving every
threshold by 1e-6 leaves each count as it is.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from neutroncp import DrudeLorentz, Drude, FieldConfig, PerfectConductor, Plasma, u_du
from neutroncp import greens, potential, quadrature

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "count_evaluations", ROOT / "scripts" / "count_evaluations.py"
)
count_evaluations = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_evaluations)

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
    ("pc", 1e-9): (1, 1, 11110),
    ("pc", 1e-6): (1, 1, 11220),
    ("plasma", 1e-9): (1, 1, 12430),
    ("plasma", 1e-6): (1, 1, 11220),
    ("drude", 1e-9): (1, 1, 18040),
    ("drude", 1e-6): (1, 2, 30277),
    ("drude-lorentz", 1e-9): (1, 1, 18040),
    ("drude-lorentz", 1e-6): (1, 1, 15070),
}


# the same for fig1's plasma at 1 m, rel_tol 1e-8, with z-derivative rows
FIG1_COUNTS = (1, 1, 21896)


def _counts(m, z, rel_tol, z_derivative=False):
    with count_evaluations.counting() as counts:
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
    # nodes left where they are, must not move a decision
    for module in (greens, potential):
        rule = module.integrate_trapezoid
        monkeypatch.setattr(
            module,
            "integrate_trapezoid",
            lambda f, lo, hi, rel_tol, rule=rule: rule(f, lo, hi, rel_tol * scale),
        )
    monkeypatch.setattr(quadrature, "_MODEL_GATE_REL", quadrature._MODEL_GATE_REL * scale)
    for (model, z), counts in FIG2_COUNTS.items():
        assert _counts(FIG2[model], z, 1e-7) == counts
    assert _counts(FIG1_PLASMA, 1.0, 1e-8, z_derivative=True) == FIG1_COUNTS


def test_counting_restores_the_rule():
    rule = count_evaluations.greens.integrate_trapezoid
    with count_evaluations.counting():
        assert count_evaluations.greens.integrate_trapezoid is not rule
    assert count_evaluations.greens.integrate_trapezoid is rule


def test_script_reports_the_fig2_ground_row_set():
    # per-row means over the 64 rows of fig2_ground's seed-1 row set
    out = io.StringIO()
    path = list(sys.path)
    with redirect_stdout(out):
        assert count_evaluations.main(["--workload", "fig2_ground", "--seed", "1"]) == 0
    assert sys.path == path
    report = json.loads(out.getvalue())
    assert report["rows"] == 64
    assert report["k_integral_batches"] == 1.0
    assert report["k_integrand_calls"] == 1.156
    assert report["kernel_values"] == 16120.938
    # the xi entries of a batch, fig2_ground having no z-derivative rows
    assert report["k_integrals_per_batch"] == 126.688
    assert report["max_batches_in_a_row"] == 1
    assert len(report["csv_sha256"]) == 64
    # printed, not pinned: it depends on the allocator
    assert report["minor_faults_per_row"] >= 0.0
    # several seeds: one line each, in the order given, the first as the
    # one-seed run printed it
    out = io.StringIO()
    with redirect_stdout(out):
        assert count_evaluations.main(["--workload", "fig2_ground", "--seed", "1", "2"]) == 0
    first, second = map(json.loads, out.getvalue().splitlines())
    del first["minor_faults_per_row"], report["minor_faults_per_row"]
    assert first == report
    assert (second["seed"], second["rows"]) == (2, 64)
    assert second["kernel_values"] == 15895.844
    assert second["csv_sha256"] != report["csv_sha256"]
