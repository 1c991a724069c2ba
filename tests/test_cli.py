"""CLI: request handling, serialization, determinism, exit codes."""

import concurrent.futures
import dataclasses
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import neutroncp
from neutroncp import (
    CONSTANTS,
    Drude,
    FieldConfig,
    Plasma,
    neutron_c3,
    u_dd,
    u_du,
    u_resonant,
)
from neutroncp import cli
from neutroncp.cli import SweepRequest, main, run_sweep, run_table1
from power_law import richardson_power_law

FAST = dict(rel_tol=1e-6)
ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, cwd):
    # the child runs in another directory, where a relative PYTHONPATH
    # does not reach the package; put the directory of the package this
    # process imported first, so the child also runs the same code
    package_root = str(Path(neutroncp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "neutroncp.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_run_sweep_rows():
    req = SweepRequest(
        model="pc",
        b_ext=2.0,
        z_min=1e-8,
        z_max=1e-7,
        points=3,
        outputs=("u_dd", "u_du", "u_ground"),
        rel_tol=1e-7,
    )
    rows = run_sweep(req)
    assert len(rows) == 3
    assert rows[0]["z"] == pytest.approx(1e-8)
    assert rows[-1]["z"] == pytest.approx(1e-7)
    for row in rows:
        assert row["status"] == "ok"
        assert row["u_ground"] == pytest.approx(row["u_dd"] + row["u_du"], rel=1e-12)


def test_run_sweep_parallel_identical():
    req = SweepRequest(
        model="plasma",
        omega_p=1e9,
        z_min=1e-7,
        z_max=1e-6,
        points=4,
        outputs=("u_ground",),
        rel_tol=1e-6,
    )
    serial = run_sweep(req, jobs=1)
    parallel = run_sweep(req, jobs=3)
    assert serial == parallel  # bitwise equality, not approx


def test_run_sweep_caps_workers_at_points(monkeypatch):
    # a fork-started pool forks every worker it may use at the first
    # submit; this stand-in records the pool size and starts no process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # run_sweep imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    req = SweepRequest(z_min=1e-8, z_max=1e-7, points=3, outputs=("gravity_earth",))
    serial = run_sweep(req)
    assert run_sweep(req, jobs=64) == serial
    assert sizes == [3]
    one = SweepRequest(z_min=1e-8, z_max=1e-8, points=1, outputs=("gravity_earth",))
    assert run_sweep(one, jobs=8) == run_sweep(one)
    assert sizes == [3]  # one point runs in this process


def test_cli_import_leaves_out_the_process_pool():
    # the worker pool is imported only by a run that uses one, so a fresh
    # interpreter importing the CLI does not load concurrent.futures.process
    code = "import sys, neutroncp.cli; print('concurrent.futures.process' in sys.modules)"
    package_root = str(Path(neutroncp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "False"


def test_run_sweep_assembly():
    # the rows the CLI writes are assembled from the potential pieces:
    # u_dd and u_du come from u_du's one solve that also gives their
    # z-derivatives, and u_dd is within rel_tol of its own solve; exponent is
    # z u'/u of u = u_dd + u_du from that solve, and it agrees with the
    # Richardson-extrapolated central difference of u
    req = SweepRequest(
        model="drude",
        omega_p=1.37e16,
        gamma=4.1e12,
        b_ext=2.0,
        theta=0.4,
        z_min=1e-8,
        z_max=1e-7,
        points=2,
        outputs=("u_dd", "u_du", "u_resonant", "u_ground", "u_excited", "exponent"),
        rel_tol=1e-7,
    )
    cfg = FieldConfig(b_ext=2.0, theta=0.4)
    m = Drude(omega_p=1.37e16, gamma=4.1e12)

    def ground(z):
        return u_dd(z, cfg, m, rel_tol=1e-12) + u_du(z, cfg, m, rel_tol=1e-12)[1]

    rows = run_sweep(req)
    assert len(rows) == 2
    for row in rows:
        z = row["z"]
        (dd, z_ddd), (du, z_ddu) = u_du(z, cfg, m, rel_tol=1e-7, z_derivative=True)
        assert row["status"] == "ok"
        assert row["u_dd"] == dd and row["u_du"] == du
        assert abs(dd - u_dd(z, cfg, m, rel_tol=1e-7)) <= 1e-7 * abs(dd)
        assert row["u_resonant"] == u_resonant(z, cfg, m, rel_tol=1e-7)
        assert row["u_ground"] == row["u_dd"] + row["u_du"]
        assert row["u_excited"] == row["u_dd"] - row["u_du"] + row["u_resonant"]
        assert row["exponent"] == (z_ddd + z_ddu) / (dd + du)
        assert abs(row["exponent"] - richardson_power_law(z, ground)) <= 1e-9


def test_run_sweep_ground_state_positive_across_models():
    base = dict(omega_p=1.37e16, gamma=4.1e12, omega_t=7.1e16, b_ext=2.0)
    for model in ("pc", "plasma", "drude", "drude-lorentz"):
        req = SweepRequest(
            model=model, z_min=3e-8, z_max=3e-8, points=1,
            outputs=("u_ground",), rel_tol=1e-7, **base,
        )
        (row,) = run_sweep(req)
        assert row["status"] == "ok" and row["u_ground"] > 0.0, model


def test_run_table1_rows():
    req = SweepRequest(
        omega_p=1e14, gamma=1e11, omega_t=1e13, b_ext=0.01, z_min=3e-8, z_max=3e-8
    )
    rows = run_table1(req)
    assert [r["model"] for r in rows] == ["pc", "plasma", "drude", "drude-lorentz"]
    pc_expected = neutron_c3() / (3e-8) ** 3
    assert rows[0]["table1"] == pytest.approx(pc_expected, rel=1e-12)


def test_cli_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--model",
            "pc",
            "--b-ext",
            "2",
            "--z-min",
            "1e-8",
            "--z-max",
            "1e-7",
            "--points",
            "2",
            "--rel-tol",
            "1e-6",
            "--outputs",
            "u_ground,gravity_earth",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# model=pc") for l in header)
    cols = [l for l in lines if not l.startswith("#")][0]
    assert cols == "z,u_ground,gravity_earth,status"
    first = lines[-2].split(",")
    assert first[0] == "1.00000000000e-08"
    assert first[-1] == "ok"


def test_cli_energy_unit_conversion(tmp_path):
    args = [
        "sweep", "--model", "pc", "--z-min", "1e-8", "--z-max", "1e-8",
        "--points", "1", "--rel-tol", "1e-6", "--outputs", "u_ground",
        "--format", "json",
    ]
    a = tmp_path / "j.json"
    b = tmp_path / "n.json"
    assert main([*args, "--energy-unit", "J", "--out", str(a)]) == 0
    assert main([*args, "--energy-unit", "neV", "--out", str(b)]) == 0
    in_j = json.loads(a.read_text())["rows"][0]["u_ground"]
    in_nev = json.loads(b.read_text())["rows"][0]["u_ground"]
    assert in_nev == pytest.approx(in_j / (CONSTANTS.e * 1e-9), rel=1e-12)
    # run_sweep and run_table1 return rows in the request's unit: the J
    # rows' energies divided by the unit, exactly, and the rest as they are
    factor = CONSTANTS.e * 1e-9
    req = SweepRequest(
        omega_p=1.37e16, gamma=4.1e12, omega_t=7.1e16, z_min=1e-8, z_max=1e-7, points=2,
        outputs=("u_dd", "u_du", "u_ground", "nonret_asymptote", "gravity_earth", "exponent"),
        **FAST,
    )
    for run in (run_sweep, run_table1):
        in_j = run(req)
        in_nev = run(dataclasses.replace(req, energy_unit="neV"))
        assert [r.keys() for r in in_nev] == [r.keys() for r in in_j]
        for row_j, row_nev in zip(in_j, in_nev):
            for key, value in row_j.items():
                energy = key in cli._ENERGY_COLUMNS
                assert row_nev[key] == (value / factor if energy else value), (run, key)


def test_cli_json_mirror(tmp_path):
    out = tmp_path / "t.json"
    code = main(
        [
            "table1", "--omega-p", "1e14", "--gamma", "1e11", "--omega-t",
            "1e13", "--b-ext", "0.01", "--z", "3e-8", "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["model", "z", "table1", "status"]
    assert len(payload["rows"]) == 4
    assert payload["header"]["energy_unit"] == "J"
    assert isinstance(payload["rows"][0]["z"], float)


def test_cli_nan_serialization(tmp_path):
    # Drude leading form undefined at omega/gamma >= 1: nan cell, ok row
    base = [
        "table1", "--omega-p", "1e14", "--gamma", "1e2", "--omega-t",
        "1e13", "--b-ext", "2", "--z", "3e-8",
    ]
    out_csv = tmp_path / "t.csv"
    assert main([*base, "--out", str(out_csv)]) == 0
    drude_line = [l for l in out_csv.read_text().splitlines() if l.startswith("drude,")]
    assert drude_line and drude_line[0].split(",")[2] == "nan"
    out_json = tmp_path / "t.json"
    assert main([*base, "--format", "json", "--out", str(out_json)]) == 0
    rows = json.loads(out_json.read_text())["rows"]
    assert [r for r in rows if r["model"] == "drude"][0]["table1"] is None


def test_cli_config_defaults_and_override(tmp_path):
    cfg = tmp_path / "req.cfg"
    cfg.write_text(
        "# sweep request\n"
        "model = pc\n"
        "b-ext = 2.0\n"
        "z-min = 1e-8\n"
        "z-max = 1e-7\n"
        "points = 2\n"
        "outputs = u_ground\n"
        "rel-tol = 1e-6\n"
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert (
        main(["sweep", "--config", str(cfg), "--points", "3", "--out", str(b)]) == 0
    )
    rows_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    rows_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
    assert len(rows_a) == 3 and len(rows_b) == 4  # column row plus data


def test_cli_usage_errors(tmp_path):
    assert main([]) == 2
    assert main(["sweep", "--model", "nosuch"]) == 2
    assert main(["sweep", "--model", "drude"]) == 2  # missing damping rate
    assert main(["sweep", "--theta", "bogus"]) == 2
    assert main(["sweep", "--outputs", "nosuch"]) == 2
    assert main(["sweep", "--z-min", "-1"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["sweep", "--config", str(bad)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_rejects_a_tolerance_below_the_roundoff_floor(tmp_path, capsys):
    # no quadrature claims a relative error below 1e-14, so a column
    # that needs one cannot meet a tighter rel_tol: usage error at once.
    # Closed-form columns and table1 do not integrate and take it
    out = str(tmp_path / "o.csv")
    one = ["--points", "1", "--out", out]
    for cols in ("u_dd", "u_du", "u_resonant", "u_ground", "u_excited", "exponent"):
        argv = ["sweep", *one, "--rel-tol", "9.9e-15", "--outputs", f"gravity_earth,{cols}"]
        assert main(argv) == 2
        assert "rel_tol must be >= 1e-14" in capsys.readouterr().err
    assert main(["sweep", *one, "--rel-tol", "1e-14", "--outputs", "u_dd"]) == 0
    closed = "nonret_asymptote,ret_asymptote,table1,gravity_earth,gravity_sphere"
    assert main(["sweep", *one, "--rel-tol", "1e-300", "--outputs", closed]) == 0
    table = ["table1", "--config", str(ROOT / "configs" / "table1.cfg")]
    assert main([*table, "--rel-tol", "1e-300", "--out", out]) == 0


def test_cli_runtime_failure_exit_code(tmp_path):
    # the plasma model has no resonant response at reachable splittings
    out = tmp_path / "r.csv"
    code = main(
        [
            "sweep", "--model", "plasma", "--omega-p", "1e16", "--b-ext", "2",
            "--z-min", "1e-8", "--z-max", "1e-8", "--points", "1",
            "--outputs", "u_resonant", "--out", str(out),
        ]
    )
    assert code == 1
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[1].endswith(",error")


def test_cli_resonant_failures_are_errors(tmp_path, monkeypatch):
    # the fig1 plasma has eps = 0 at the transition frequency, so the
    # total-reflection kink of the resonant k-integral sits 1-2 ulp below
    # the light line; that must cost no panel of its own, and every row
    # of the sweep is a finite ok value
    config = ROOT / "configs" / "fig1.cfg"
    req = SweepRequest(
        model="plasma",
        omega_p=363494611.93541175,
        b_ext=2.0,
        z_min=8.247507615140914e-4,
        z_max=8.247507615140914e2,
        points=61,
        outputs=("u_dd", "u_resonant"),
        rel_tol=1e-8,
    )
    rows = run_sweep(req)
    assert len(rows) == 61
    for row in rows:
        assert row["status"] == "ok", row
        assert math.isfinite(row["u_dd"]) and math.isfinite(row["u_resonant"])
    out = tmp_path / "fig1.csv"
    args = ["sweep", "--config", str(config), "--outputs", "u_dd,u_resonant"]
    assert main([*args, "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 62
    assert all(l.endswith(",ok") and "nan" not in l for l in data[1:])
    # without a field there is no resonant channel: nan, but not a failure
    assert main([*args, "--b-ext", "0", "--points", "2", "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert all(l.endswith(",nan,ok") for l in data[1:])

    # a resonant evaluation that fails makes its row say error, never
    # nan under status ok, and the run exit 1
    def failing(*a, **k):
        raise ValueError("integrand returned non-finite values")

    monkeypatch.setattr(cli, "u_resonant", failing)
    assert main([*args, "--points", "2", "--out", str(out)]) == 1
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 3
    assert all(l.endswith(",nan,error") for l in data[1:])


@pytest.mark.parametrize(
    "model",
    [["--model", "plasma"], ["--model", "drude", "--gamma", "4.1e12"]],
    ids=["plasma", "drude"],
)
def test_cli_vanishing_field_gives_an_error_row(tmp_path, capsys, model):
    # at 1e-163 T, (omega/c)^2 underflows to 0: eps - 1 = contrast over it
    # is no number, so the resonant row is an error with its reason
    out = tmp_path / "r.csv"
    argv = [
        "sweep", *model, "--omega-p", "1.37e16", "--b-ext", "1e-163",
        "--points", "1", "--outputs", "u_resonant", "--out", str(out),
    ]
    assert main(argv) == 1
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[1:] == ["1.00000000000e-09,nan,error"]
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: z=1.00000000000e-09: omega = 1.817e-155 rad/s is too small")


def test_cli_vanishing_drude_field_names_the_overflow(tmp_path, capsys):
    # at 1e-150 T a Drude metal's eps - 1 is about 2.5e161 i, so the
    # (eps - 1)(eps + 1) of its r_p overflows: the error row names that,
    # not a quadrature panel
    out = tmp_path / "r.csv"
    argv = [
        "sweep", "--model", "drude", "--omega-p", "1.37e16", "--gamma", "4.1e12",
        "--b-ext", "1e-150", "--points", "1", "--outputs", "u_resonant", "--out", str(out),
    ]
    assert main(argv) == 1
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[1:] == ["1.00000000000e-09,nan,error"]
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(
        "error: z=1.00000000000e-09: omega = 1.817e-142 rad/s is too small: "
        "(eps - 1)(eps + 1) overflows"
    )


def test_cli_rejects_non_finite_material_parameters():
    for args in (
        ["--model", "plasma", "--omega-p", "nan"],
        ["--model", "plasma", "--omega-p", "inf"],
        ["--model", "drude", "--omega-p", "1e16", "--gamma", "nan"],
        ["--model", "drude-lorentz", "--omega-p", "1e16", "--omega-t", "inf"],
    ):
        assert main(["sweep", *args, "--points", "1"]) == 2, args


@pytest.mark.parametrize("z", ["1e-50", "1e50"])
def test_cli_distance_limits_give_finite_columns(tmp_path, z):
    # at each end of the allowed range every column of the mirror is a
    # finite number, so the JSON writer takes the row
    closed = "nonret_asymptote,ret_asymptote,table1,gravity_earth,gravity_sphere"
    out = tmp_path / "row.json"
    argv = ["sweep", "--z-min", z, "--z-max", z, "--points", "1", "--format", "json"]
    cols = f"u_dd,u_du,u_ground,exponent,{closed}"
    assert main([*argv, "--outputs", cols, "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())["rows"]
    assert row.pop("status") == "ok"
    assert all(math.isfinite(v) for v in row.values()), row


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--z-min", "1e-120", "--z-max", "1e-120", "--outputs", "nonret_asymptote"],
        ["sweep", "--z-min", "1e-120", "--z-max", "1e-120", "--outputs", "table1"],
        ["sweep", "--z-min", "1e-120", "--z-max", "1e-120", "--outputs", "u_dd"],
        ["sweep", "--z-min", "1e80", "--z-max", "1e80"],
        ["sweep", "--z-max", "1e51"],
        ["table1", "--z", "1e-51"],
        ["table1", "--z", "1e51"],
    ],
)
def test_cli_rejects_distances_beyond_the_limits(argv, capsys):
    # past 1e-50 or 1e50 m, z^3 or z^4 of a closed form leaves the double
    # range: a ZeroDivisionError, an inf under status ok (which JSON
    # refuses), or an OverflowError.  A usage error instead
    assert main([*argv, "--points", "1"] if argv[0] == "sweep" else argv) == 2
    assert "1e+50] m" in capsys.readouterr().err


def test_cli_error_rows_say_why(tmp_path, capsys, monkeypatch):
    # the fig2 plasma's permittivity is far below -1 at the transition
    # frequency, so each u_resonant fails; stderr gives the reason of
    # each error row in grid order, and the output bytes stay those of
    # the rows alone
    argv = [
        "sweep", "--model", "plasma", "--omega-p", "1.37e16", "--points", "3",
        "--outputs", "u_dd,u_resonant", "--rel-tol", "1e-6",
    ]
    out = tmp_path / "o.csv"
    assert main([*argv, "--out", str(out)]) == 1
    req = cli._build_request(cli._parse_args(argv))
    rows = run_sweep(req)
    buf = io.StringIO()
    cli.write_csv(rows, ["z", *req.outputs, "status"], cli._sweep_header(req, "sweep"), buf)
    assert out.read_text() == buf.getvalue()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    for line, row in zip(err, rows):
        assert line.startswith(f"error: z={cli._format_cell(row['z'])}: eps(3.635e+08 rad/s)")
        assert "surface-mode pole" in line
    # a quadrature that misses rel_tol names its layer and its value
    failing = neutroncp.quadrature.QuadratureResult(1.5, 0.5, 30, False)

    def unsettled(*a, **k):
        raise neutroncp.IntegrationError("outer integral did not converge", failing)

    monkeypatch.setattr(cli, "u_dd", unsettled)
    assert main([*argv, "--points", "1", "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "error: z=1.00000000000e-09: outer integral did not converge: "
        "value=1.5, abs_error=5.000e-01, evaluations=30"
    )


def test_cli_too_weak_a_field_gives_an_error_row(tmp_path, capsys):
    # at 1e-300 T, c/(z omega) overflows a double, so u_du cannot place
    # its sum; the row is an error row whose u_dd comes from its own solve
    out = tmp_path / "r.csv"
    argv = [
        "sweep", "--model", "pc", "--b-ext", "1e-300", "--z-min", "1e-9",
        "--z-max", "1e-9", "--points", "1", "--outputs", "u_dd,u_du", "--out", str(out),
    ]
    assert main(argv) == 1
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[1:] == ["1.00000000000e-09,7.65327024707e-34,nan,error"]
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: z=1.00000000000e-09: c/(z omega) overflows")


def test_table1_drude_outside_its_leading_form_is_nan_not_error(tmp_path):
    # omega/gamma >= 1: the Drude leading form is undefined, which the
    # table's _sweep_point row gives as nan under status ok
    out = tmp_path / "t.csv"
    argv = ["table1", "--omega-p", "1.37e16", "--gamma", "1e11", "--omega-t", "1e16"]
    assert main([*argv, "--b-ext", "1000", "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[3].startswith("drude,") and data[3].endswith(",nan,ok")
    assert all(l.endswith(",ok") and "nan" not in l for l in data[1:3] + data[4:])


def test_cli_too_strong_a_field_is_a_usage_error(capsys):
    # above about 7.4e145 T the square of the spin-flip frequency overflows:
    # one error line and exit 2, not an OverflowError from a resonant row
    argv = [
        "sweep", "--model", "drude", "--omega-p", "1.37e16", "--gamma", "4.1e12",
        "--b-ext", "1e200", "--points", "1", "--outputs", "u_resonant",
    ]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: b_ext must be below") and "overflows" in line


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--gamma", "1e13", "--omega-p", "0", "--omega-t", "1e-170"],
        [
            "sweep", "--model", "drude-lorentz", "--omega-p", "0", "--omega-t", "5e-324",
            "--points", "1", "--outputs", "table1",
        ],
    ],
    ids=["table1", "sweep"],
)
def test_drude_lorentz_leading_form_with_underflowing_frequency_is_nan(tmp_path, argv):
    # omega_t^2 + omega_p^2/2 underflows to 0: the leading form is
    # undefined, a nan cell under status ok, not a ZeroDivisionError
    out = tmp_path / "t.csv"
    assert main([*argv, "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[-1].endswith(",nan,ok")
    if argv[0] == "table1":
        assert data[-1].startswith("drude-lorentz,")


@pytest.mark.parametrize("omega_p", ["0", "1e16"])
def test_drude_lorentz_with_underflowing_frequency_gives_quadrature_rows(tmp_path, omega_p):
    # omega_t^2 underflows to 0, so the xi = 0 contrast was 0/0: g(0) and
    # the rows' u_dd and u_du were nan error rows; g(0) is 0, as for any
    # omega_t > 0
    out = tmp_path / "s.csv"
    argv = [
        "sweep", "--model", "drude-lorentz", "--omega-p", omega_p, "--omega-t", "1e-170",
        "--points", "1", "--outputs", "u_dd,u_du", "--out", str(out),
    ]
    assert main(argv) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    z, dd, du, status = data[-1].split(",")
    assert float(dd) == 0.0 and math.isfinite(float(du)) and status == "ok"
    assert (float(du) == 0.0) == (omega_p == "0")


def test_resonant_piece_with_underflowing_pole_gives_an_error_row(tmp_path, capsys):
    # omega_t^2 - omega^2 underflows to 0 on the real axis: an error row
    # naming the pole, not a ZeroDivisionError
    out = tmp_path / "r.csv"
    argv = [
        "sweep", "--model", "drude-lorentz", "--omega-p", "0", "--omega-t", "1e-162",
        "--b-ext", "1e-171", "--z-min", "1", "--z-max", "1", "--points", "1",
        "--outputs", "u_resonant", "--out", str(out),
    ]
    assert main(argv) == 1
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[-1].endswith(",nan,error")
    (line,) = capsys.readouterr().err.splitlines()
    assert "singular at omega^2 = omega_t^2" in line


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


QUADRATURE_COLUMNS = ("u_dd", "u_du", "u_resonant", "u_ground", "u_excited", "exponent")
# any finite model parameter: zero, or log-uniform over the positive doubles
PARAMETER = st.just(0.0) | log_uniform(5e-324, 1.7e308)


@st.composite
def one_point_requests(draw):
    outputs = draw(st.sets(st.sampled_from(QUADRATURE_COLUMNS), min_size=1))
    lo, hi = (1e-12, 1.0) if outputs & {"u_resonant", "u_excited"} else cli._Z_LIMITS
    z = draw(log_uniform(lo, hi))
    return SweepRequest(
        model=draw(st.sampled_from(cli._MODEL_ORDER)),
        omega_p=draw(PARAMETER),
        gamma=draw(PARAMETER),
        omega_t=draw(PARAMETER),
        b_ext=draw(st.just(0.0) | log_uniform(1e-310, 1e3)),
        theta=draw(st.none() | st.floats(0.0, math.pi)),
        z_min=z,
        z_max=z,
        points=1,
        outputs=tuple(o for o in QUADRATURE_COLUMNS if o in outputs),
        rel_tol=draw(log_uniform(1e-14, 1e-2)),
    )


WEAK_FIELD = SweepRequest(
    b_ext=1e-300, z_min=1e-9, z_max=1e-9, points=1, outputs=("u_dd", "u_du")
)
# c/(z omega) = 1.6e-195, whose cube underflows: u_du's row edge is formed
# in logs, so these rows keep status ok
STRONG_FIELD_FAR = [
    SweepRequest(b_ext=1e145, z_min=1e50, z_max=1e50, points=1, outputs=("u_dd", "u_du")),
    SweepRequest(
        model="plasma", omega_p=1e15, b_ext=1e145, z_min=1e50, z_max=1e50, points=1,
        outputs=("u_dd", "u_du"),
    ),
]


@given(one_point_requests())
@example(WEAK_FIELD)  # c/(z omega) overflows
@example(dataclasses.replace(WEAK_FIELD, z_min=1e-40, z_max=1e-40))  # z omega underflows to 0
@example(STRONG_FIELD_FAR[0])
@example(STRONG_FIELD_FAR[1])
@settings(max_examples=150, deadline=None)
def test_no_accepted_request_makes_a_row_raise(req):
    # whatever fails in a row the CLI accepts makes it an error row with
    # its reason, never a traceback
    try:
        cli._validate_request(req, True)
    except cli.UsageError:
        assume(False)
    row = cli._sweep_point((req, req.z_min))
    assert row["status"] in ("ok", "error")
    assert row["status"] == "ok" or row["error"]
    if req in STRONG_FIELD_FAR:
        assert row["status"] == "ok", row


FIG1 = ROOT / "configs" / "fig1.cfg"
FIG2 = ROOT / "configs" / "fig2.cfg"


def test_cli_fig1_row_with_subnormal_inner_tolerance(tmp_path):
    # at rel_tol 1e-9 an inner component just below the underflow cut
    # has a tolerance of order 1e-315; its refinement weight must not
    # overflow
    out = tmp_path / "row.csv"
    args = ["--rel-tol", "1e-9", "--z-min", "1.038e-3", "--points", "1"]
    assert main(["sweep", "--config", str(FIG1), *args, "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 2 and data[1].endswith(",ok")
    assert all(math.isfinite(float(v)) for v in data[1].split(",")[:-1])


@given(
    st.floats(min_value=-13.0, max_value=-3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_fig1_rows_are_ok_at_any_tolerance(log_rel_tol, log_z_over_zc):
    # rel_tol over ten decades and z over fig1's range, the crossover
    # z_c = c/omega three decades each way
    z_c = 8.247507615140914e-1
    req = request(["sweep", "--config", str(FIG1), "--points", "1"])
    req = dataclasses.replace(
        req, z_min=z_c * 10.0**log_z_over_zc, rel_tol=10.0**log_rel_tol
    )
    (row,) = run_sweep(req)
    assert row["status"] == "ok", row
    assert all(math.isfinite(row[c]) for c in req.outputs), row
    assert row["u_du"] > 0.0 and row["u_ground"] > row["u_du"]


# the four fig2 surfaces (flags of scripts/reproduce_fig2.sh) and fig1's
# plasma, each over its config's distance range
EXPONENT_CASES = {
    "pc": (FIG2, ["--model", "pc"]),
    "plasma": (FIG2, ["--model", "plasma", "--omega-p", "1.37e16"]),
    "drude": (FIG2, ["--model", "drude", "--omega-p", "1.37e16", "--gamma", "4.10e12"]),
    "drude-lorentz": (
        FIG2, ["--model", "drude-lorentz", "--omega-p", "2.3e16", "--omega-t", "7.1e16"]
    ),
    "fig1-plasma": (FIG1, []),
}


@given(st.sampled_from(sorted(EXPONENT_CASES)), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_exponent_matches_richardson(case, frac):
    # the exponent column, at the config's rel_tol, against the
    # Richardson-extrapolated central difference of u_dd + u_du solved
    # at rel_tol 1e-12
    config, flags = EXPONENT_CASES[case]
    req = request(["sweep", "--config", str(config), *flags])
    z = req.z_min * (req.z_max / req.z_min) ** frac
    req = dataclasses.replace(req, z_min=z, points=1, outputs=("exponent",))
    (row,) = run_sweep(req)
    assert row["status"] == "ok", row
    m = cli._material(req)
    cfg = FieldConfig(req.b_ext, req.theta)

    def ground(zz):
        return u_dd(zz, cfg, m, rel_tol=1e-12) + u_du(zz, cfg, m, rel_tol=1e-12)[1]

    assert abs(row["exponent"] - richardson_power_law(z, ground)) <= 1e-9


@pytest.mark.parametrize("case", ["pc", "plasma", "drude", "drude-lorentz"])
def test_ground_row_is_one_solve(monkeypatch, case):
    # over fig2's range a u_ground row gets u_dd from u_du's first batch:
    # at most two k-integral batches of contracted_green_imag, and no
    # separate u_dd solve
    config, flags = EXPONENT_CASES[case]
    req = request(["sweep", "--config", str(config), *flags])
    rule = neutroncp.greens.integrate_trapezoid
    batches = []

    def counted(*args):
        batches.append(args)
        return rule(*args)

    def no_u_dd(*args, **kwargs):
        raise AssertionError("a u_ground row solved u_dd on its own")

    monkeypatch.setattr(neutroncp.greens, "integrate_trapezoid", counted)
    monkeypatch.setattr(cli, "u_dd", no_u_dd)
    for z in np.geomspace(req.z_min, req.z_max, 7):
        del batches[:]
        (row,) = run_sweep(dataclasses.replace(req, z_min=float(z), points=1))
        assert row["status"] == "ok" and row["u_ground"] > 0.0, row
        assert 1 <= len(batches) <= 2, z


@pytest.mark.parametrize(
    "column, function",
    [
        ("nonret_asymptote", "nonretarded_mirror_u_du"),
        ("ret_asymptote", "retarded_mirror_u_du"),
        ("table1", "nonretarded_leading"),
        ("gravity_earth", "earth_potential"),
        ("gravity_sphere", "sphere_potential"),
    ],
)
def test_closed_form_that_does_not_apply_is_nan_not_error(monkeypatch, column, function):
    # a ValueError of a closed-form column's function makes its cell nan
    # under status ok; the row's other cells keep their values
    closed = ("nonret_asymptote", "ret_asymptote", "table1", "gravity_earth", "gravity_sphere")
    req = SweepRequest(
        model="pc", z_min=1e-8, z_max=1e-8, points=1, outputs=("u_dd", *closed), rel_tol=1e-6
    )
    (before,) = run_sweep(req)

    def does_not_apply(*a, **k):
        raise ValueError("the form does not apply here")

    monkeypatch.setattr(cli, function, does_not_apply)
    (row,) = run_sweep(req)
    assert row["status"] == "ok" and "error" not in row
    assert math.isnan(row[column])
    assert all(math.isfinite(before[o]) for o in req.outputs)
    assert {k: v for k, v in row.items() if k != column} == {
        k: v for k, v in before.items() if k != column
    }


def test_resonant_failure_keeps_the_ground_pieces(monkeypatch):
    # the fig2 plasma's resonant piece fails at its surface-mode pole: the
    # row is an error row that keeps the finite u_dd and u_du of its one
    # ground solve, and solves u_dd no second time
    req = SweepRequest(
        model="plasma", omega_p=1.37e16, z_min=1e-8, z_max=1e-8, points=1,
        outputs=("u_dd", "u_du", "u_resonant"), rel_tol=1e-6,
    )

    def no_u_dd(*args, **kwargs):
        raise AssertionError("the error row solved u_dd again")

    monkeypatch.setattr(cli, "u_dd", no_u_dd)
    (row,) = run_sweep(req)
    assert row["status"] == "error" and "surface-mode pole" in row["error"]
    dd, du = u_du(1e-8, FieldConfig(b_ext=2.0), Plasma(omega_p=1.37e16), rel_tol=1e-6)
    assert math.isfinite(dd) and math.isfinite(du)
    assert (row["u_dd"], row["u_du"]) == (dd, du)
    assert math.isnan(row["u_resonant"])


def test_cli_subprocess_determinism(tmp_path):
    args = [
        "sweep", "--model", "drude", "--omega-p", "1.37e16", "--gamma",
        "4.1e12", "--b-ext", "2", "--z-min", "1e-9", "--z-max", "1e-7",
        "--points", "4", "--rel-tol", "1e-6", "--outputs",
        "u_dd,u_du,u_ground,table1,gravity_sphere",
    ]
    one = run_cli([*args, "--jobs", "1"], cwd=tmp_path)
    two = run_cli([*args, "--jobs", "3"], cwd=tmp_path)
    three = run_cli([*args, "--jobs", "1"], cwd=tmp_path)
    assert one.returncode == two.returncode == three.returncode == 0
    assert one.stdout == two.stdout == three.stdout
    assert "jobs" not in one.stdout  # header stays execution independent


# The committed outputs in out/.  A change that moves a cell must
# regenerate the file and say which cell moved.
COMMITTED_OUTPUTS = (
    "smoke.csv",
    "smoke_entry.csv",
    "smoke_par.csv",
    "smoke_ser.csv",
    "smoke_t1.json",
)


def committed_request(text, suffix):
    """(command, request, columns) recorded in an output's header and column row."""
    if suffix == ".json":
        payload = json.loads(text)
        header, columns = payload["header"], payload["columns"]
    else:
        lines = text.splitlines()
        header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        columns = next(line for line in lines if not line.startswith("#")).split(",")
    command = header.pop("tool").removeprefix("neutroncp ")
    given = {}
    for key, value in header.items():
        parse = cli._theta if key == "theta" else type(getattr(SweepRequest, key))
        given[key] = parse(value)
    outputs = ("table1",) if command == "table1" else tuple(columns[1:-1])
    return command, SweepRequest(**given, outputs=outputs), columns


@pytest.mark.parametrize("name", COMMITTED_OUTPUTS)
def test_committed_outputs_reproduce(name):
    path = ROOT / "out" / name
    text = path.read_bytes().decode("utf-8")
    command, req, columns = committed_request(text, path.suffix)
    rows = run_sweep(req) if command == "sweep" else run_table1(req)
    buf = io.StringIO()
    writer = cli.write_json if path.suffix == ".json" else cli.write_csv
    writer(rows, columns, cli._sweep_header(req, command), buf)
    assert buf.getvalue() == text


def script_calls():
    """Arguments of each neutroncp.cli call in scripts/reproduce_*.sh."""
    calls = []
    for script in sorted((ROOT / "scripts").glob("reproduce_*.sh")):
        text = script.read_text(encoding="utf-8").replace("\\\n", " ")
        for line in text.splitlines():
            tokens = shlex.split(line, comments=True)
            if "neutroncp.cli" in tokens:
                calls.append(tokens[tokens.index("neutroncp.cli") + 1 :])
    return calls


def config_lines(path):
    """(key, value) of each line of a config file."""
    pairs = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            pairs.append((key, value))
    return pairs


def request(argv):
    return cli._build_request(cli._parse_args(argv))


def test_configs_parse_under_their_scripts_subcommand(monkeypatch):
    monkeypatch.chdir(ROOT)
    used = {}
    for call in script_calls():
        used[call[call.index("--config") + 1]] = call[0]
        request(call)  # raises on any key or value the subcommand rejects
    assert sorted(used) == sorted(
        str(p.relative_to(ROOT)) for p in (ROOT / "configs").glob("*.cfg")
    )
    for path, command in used.items():
        # a config line and the same flag on the command line give the
        # same request
        flags = [t for k, v in config_lines(ROOT / path) for t in (f"--{k}", v)]
        assert request([command, "--config", path]) == request([command, *flags])


def test_sweep_rejects_table1_config(capsys):
    # table1.cfg names the distance z, which sweep does not have; the
    # sweep must not fall back to its default grid
    assert main(["sweep", "--config", str(ROOT / "configs" / "table1.cfg")]) == 2
    assert "--z=3e-8" in capsys.readouterr().err


def test_cli_config_usage_errors(tmp_path):
    fast = ["--points", "1", "--outputs", "gravity_earth", "--out", os.devnull]
    assert main(["sweep", *fast]) == 0
    assert main(["sweep", *fast, "--rel", "1e-6"]) == 2  # no abbreviations
    cfg = tmp_path / "req.cfg"
    for text in (
        "rel = 1e-6\n",  # abbreviated key
        "config = other.cfg\n",
        "points\n",
        "points = many\n",
        "energy_unit = kJ\n",
    ):
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), *fast]) == 2, text
    # a key one subcommand has and the other lacks
    cfg.write_text("jobs = 2\n")
    assert main(["sweep", "--config", str(cfg), *fast]) == 0
    assert main(["table1", "--config", str(cfg), "--out", os.devnull]) == 2
    # keys may be spelled with '_' or '-'; explicit flags win
    cfg.write_text("z_min = 2e-8\nz-max = 3e-8\npoints = 4\n")
    req = request(["sweep", "--config", str(cfg), "--points", "2"])
    assert (req.z_min, req.z_max, req.points) == (2e-8, 3e-8, 2)


# (subcommand, float key, sweep model); table1 checks all four
# materials, a sweep uses a model whose material takes the key or the
# ideal mirror, which takes none of them
COMMON_FLOATS = ("omega-p", "gamma", "omega-t", "b-ext", "theta", "rel-tol")
FLOAT_KEYS = (
    [
        ("sweep", k, "drude-lorentz" if k == "omega-t" else "drude")
        for k in (*COMMON_FLOATS, "z-min", "z-max")
    ]
    + [("sweep", k, "pc") for k in ("omega-p", "gamma", "omega-t")]
    + [("table1", k, None) for k in (*COMMON_FLOATS, "z")]
)


@given(
    st.sampled_from(FLOAT_KEYS),
    st.sampled_from(["nan", "NaN", "inf", "+inf", "-inf", "Infinity", "-Infinity"]),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_non_finite_values_are_usage_errors(
    tmp_path_factory, command_key, value, in_config
):
    command, key, model = command_key
    flags = {"omega-p": "1e16", "gamma": "1e13", "omega-t": "1e16"}
    if command == "sweep":
        flags.update(model=model, points="1", outputs="gravity_earth")
    argv = [command, "--out", os.devnull]
    assert main([*argv, *(f"--{k}={v}" for k, v in flags.items())]) == 0
    if in_config:
        flags.pop(key, None)  # a flag would override the config line
        cfg = tmp_path_factory.mktemp("cfg") / "req.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        flags[key] = value
    assert main([*argv, *(f"--{k}={v}" for k, v in flags.items())]) == 2
