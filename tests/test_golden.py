"""u_du and the inner k-integral against high-precision references.

tests/golden_values.json holds mpmath values (tanh-sinh at 30 digits,
textbook Fresnel forms) written by tests/make_golden_values.py; they
share no quadrature rule and no kernel code with the package.  Each
value must come out within the requested tolerance.
"""

import json
from pathlib import Path

import pytest

from neutroncp import Drude, DrudeLorentz, FieldConfig, Plasma, contracted_green_imag, u_du

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
    got = u_du(entry["z"], FieldConfig(2.0, None), material(entry["model"]), rel_tol=REL_TOL)
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
