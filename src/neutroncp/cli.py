"""Command line interface: distance sweeps and the leading-order table.

Two subcommands.  `sweep` evaluates selected potential columns on a
distance grid for one surface model; `table1` evaluates the closed-form
small-distance coefficient for all four models at a single distance.
Output is CSV (comment header lines starting with '#', then a column
row, 12 significant digits) or a JSON mirror of the same data.

Exit codes: 0 success, 1 runtime failure in at least one row (quadrature
non-convergence or an unsupported model request), 2 usage error.

A config file (`key = value` lines, '#' comments, keys named like the
long flags) is read as `--key=value` flags placed before the command
line's own, so one parser checks both and explicit flags win.  The
header never records argv, job counts, or timestamps, so output bytes
depend only on the physics request; serial and parallel runs are
identical.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import json
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence, TextIO

from .constants import CONSTANTS
from .gravity import earth_potential, sphere_potential
from .greens import IntegrationError
from .materials import (
    Drude,
    DrudeLorentz,
    Material,
    PerfectConductor,
    Plasma,
)
from .potential import (
    FieldConfig,
    nonretarded_leading,
    nonretarded_mirror_u_du,
    retarded_mirror_u_du,
    u_dd,
    u_du,
    u_resonant,
)
from .quadrature import _ERROR_FLOOR_REL

ALL_OUTPUTS = (
    "u_dd",
    "u_du",
    "u_resonant",
    "u_ground",
    "u_excited",
    "nonret_asymptote",
    "ret_asymptote",
    "table1",
    "gravity_earth",
    "gravity_sphere",
    "exponent",
)
_ENERGY_COLUMNS = frozenset(ALL_OUTPUTS) - {"exponent"}
_QUADRATURE_OUTPUTS = frozenset(
    ("u_dd", "u_du", "u_resonant", "u_ground", "u_excited", "exponent")
)
_MODEL_ORDER = ("pc", "plasma", "drude", "drude-lorentz")
# what makes a row an error row rather than a traceback
_ROW_FAILURES = (IntegrationError, ValueError)
_UNIT_FACTORS = {"J": 1.0, "eV": CONSTANTS.e, "neV": CONSTANTS.e * 1e-9}
# distances in m; beyond them z^3 or z^4 of a closed-form column under- or
# overflows a double
_Z_LIMITS = (1e-50, 1e50)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SweepRequest:
    model: str = "pc"
    omega_p: float = 0.0
    gamma: float = 0.0
    omega_t: float = 0.0
    b_ext: float = 2.0
    theta: Optional[float] = None
    z_min: float = 1e-9
    z_max: float = 1e-6
    points: int = 25
    scale: str = "log"
    outputs: tuple[str, ...] = ("u_dd", "u_du", "u_ground")
    rel_tol: float = 1e-9
    energy_unit: str = "J"


def _material(req: SweepRequest) -> Material:
    if req.model == "pc":
        return PerfectConductor()
    if req.model == "plasma":
        return Plasma(omega_p=req.omega_p)
    if req.model == "drude":
        return Drude(omega_p=req.omega_p, gamma=req.gamma)
    if req.model == "drude-lorentz":
        return DrudeLorentz(omega_p=req.omega_p, omega_t=req.omega_t)
    raise ValueError(f"unknown model {req.model!r}")


def _grid(req: SweepRequest) -> list[float]:
    n = req.points
    if n == 1:
        return [req.z_min]
    if req.scale == "log":
        ratio = req.z_max / req.z_min
        return [req.z_min * ratio ** (i / (n - 1)) for i in range(n)]
    step = (req.z_max - req.z_min) / (n - 1)
    return [req.z_min + i * step for i in range(n)]


def _sweep_point(payload: tuple[SweepRequest, float]) -> dict[str, object]:
    """Evaluate one grid point.  Top level so it pickles for worker pools.

    A failed row has status "error" and carries the reason under "error",
    a key that no output column reads.  Every piece fails the same way:
    an IntegrationError or a ValueError (an unsupported model, or a field
    too weak for the sum) makes the row an error row, never a traceback.
    """
    req, z = payload
    m = _material(req)
    cfg = FieldConfig(b_ext=req.b_ext, theta=req.theta)
    want = set(req.outputs)
    row: dict[str, object] = {}
    status = "ok"
    reason = ""

    # u_du solves u_dd with it, and the exponent z u'/u takes u and z u'
    # from that solve too
    slope = "exponent" in want
    both = slope or want & {"u_du", "u_ground", "u_excited"}
    dd = du = zdd = zdu = math.nan
    try:
        if slope:
            (dd, zdd), (du, zdu) = u_du(z, cfg, m, rel_tol=req.rel_tol, z_derivative=True)
        elif both:
            dd, du = u_du(z, cfg, m, rel_tol=req.rel_tol)
        elif "u_dd" in want:
            dd = u_dd(z, cfg, m, rel_tol=req.rel_tol)
    except _ROW_FAILURES as exc:
        status, reason = "error", str(exc)
        if both and "u_dd" in want:
            # an error row still carries a u_dd that settles on its own
            with contextlib.suppress(*_ROW_FAILURES):
                dd = u_dd(z, cfg, m, rel_tol=req.rel_tol)

    # without a field there is no resonant channel: nan, not a failure
    resonant = math.nan
    if want & {"u_resonant", "u_excited"} and status == "ok" and req.b_ext > 0.0:
        try:
            resonant = u_resonant(z, cfg, m, rel_tol=req.rel_tol)
        except _ROW_FAILURES as exc:
            status, reason = "error", str(exc)

    row["u_dd"] = dd
    row["u_du"] = du
    row["u_resonant"] = resonant
    row["u_ground"] = dd + du
    row["u_excited"] = dd - du + resonant

    if "nonret_asymptote" in want:
        row["nonret_asymptote"] = nonretarded_mirror_u_du(z, cfg)
    if "ret_asymptote" in want:
        try:
            row["ret_asymptote"] = retarded_mirror_u_du(z, cfg)
        except ValueError:
            row["ret_asymptote"] = math.nan
    if "table1" in want:
        try:
            row["table1"] = nonretarded_leading(m, cfg, z=z)
        except ValueError:
            row["table1"] = math.nan
    if "gravity_earth" in want:
        row["gravity_earth"] = earth_potential(z)
    if "gravity_sphere" in want:
        row["gravity_sphere"] = sphere_potential(z)
    if slope:
        # undefined, not a failure, where the potential vanishes
        ground = dd + du
        ok = ground != 0.0 and math.isfinite(ground)
        row["exponent"] = (zdd + zdu) / ground if ok else math.nan

    # the energies in the request's unit; the exponent has none
    factor = _UNIT_FACTORS[req.energy_unit]
    out: dict[str, object] = {"z": z}
    for o in ALL_OUTPUTS:
        if o in want:
            out[o] = row[o] / factor if o in _ENERGY_COLUMNS else row[o]
    out["status"] = status
    if reason:
        out["error"] = reason
    return out


def run_sweep(req: SweepRequest, jobs: int = 1) -> list[dict[str, object]]:
    """Rows in grid order, energies in req.energy_unit."""
    payloads = [(req, z) for z in _grid(req)]
    # a fork-started pool forks all its workers at the first submit, so
    # never ask for more than there are points
    workers = min(jobs, len(payloads))
    if workers <= 1:
        return [_sweep_point(p) for p in payloads]
    # imported here, so a serial run never loads the multiprocessing machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_point, payloads, chunksize=1))


def run_table1(req: SweepRequest) -> list[dict[str, object]]:
    """Closed-form small-distance coefficient for all four models at z_min,
    in req.energy_unit: one _sweep_point row per model."""
    per_model = (replace(req, model=name, outputs=("table1",)) for name in _MODEL_ORDER)
    return [{"model": r.model, **_sweep_point((r, req.z_min))} for r in per_model]


def _format_cell(value: object) -> str:
    if isinstance(value, str):
        return value
    x = float(value)
    if math.isnan(x):
        return "nan"
    return f"{x:.11e}"


def write_csv(
    rows: list[dict[str, object]],
    columns: Sequence[str],
    header: dict[str, object],
    stream: TextIO,
) -> None:
    for key, value in header.items():
        stream.write(f"# {key}={value}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(row[c]) for c in columns) + "\n")


def write_json(
    rows: list[dict[str, object]],
    columns: Sequence[str],
    header: dict[str, object],
    stream: TextIO,
) -> None:
    def cell(value: object) -> object:
        if isinstance(value, float) and math.isnan(value):
            return None
        return value

    payload = {
        "header": header,
        "columns": list(columns),
        "rows": [{c: cell(row[c]) for c in columns} for row in rows],
    }
    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


_WRITERS = {"csv": write_csv, "json": write_json}


def _sweep_header(req: SweepRequest, command: str) -> dict[str, object]:
    """The request's fields in order; the column row names the outputs."""
    header: dict[str, object] = {"tool": f"neutroncp {command}"}
    for f in fields(SweepRequest):
        # the table always spans all four models
        if f.name == "outputs" or (f.name == "model" and command == "table1"):
            continue
        value = getattr(req, f.name)
        if value is None:  # theta: the orientation average
            value = "avg"
        header[f.name] = repr(value) if isinstance(value, float) else value
    return header


def _theta(raw: str) -> Optional[float]:
    if raw == "avg":
        return None
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid theta {raw!r}: use radians or 'avg'"
        ) from None


def _outputs(raw: str) -> tuple[str, ...]:
    names = [s.strip() for s in raw.split(",") if s.strip()]
    unknown = [s for s in names if s not in ALL_OUTPUTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown outputs {unknown}; choose from {','.join(ALL_OUTPUTS)}"
        )
    if not names:
        raise argparse.ArgumentTypeError("outputs must name at least one column")
    # canonical column order regardless of how the request spells it
    return tuple(o for o in ALL_OUTPUTS if o in set(names))


def _request_flag(p: argparse.ArgumentParser, field: str, help: str, **kw) -> None:
    """--field-name for a SweepRequest field, with the field's default."""
    flag = "--" + field.replace("_", "-")
    p.add_argument(flag, default=getattr(SweepRequest, field), help=help, **kw)


def build_parser() -> argparse.ArgumentParser:
    """The one option schema; config file keys are its long flag names."""
    parser = argparse.ArgumentParser(
        prog="neutroncp",
        description="Neutron-surface dispersion potential sweeps and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="config file with key = value defaults")
        _request_flag(p, "model", "surface response model", choices=_MODEL_ORDER)
        _request_flag(p, "omega_p", "plasma frequency in rad/s", type=float)
        _request_flag(p, "gamma", "Drude damping rate in rad/s", type=float)
        _request_flag(
            p, "omega_t", "transverse resonance frequency in rad/s", type=float
        )
        _request_flag(p, "b_ext", "external field in tesla", type=float)
        _request_flag(
            p, "theta", "field angle to the normal in radians, or 'avg'", type=_theta
        )
        _request_flag(p, "rel_tol", "relative quadrature tolerance", type=float)
        _request_flag(
            p, "energy_unit", "output energy unit", choices=tuple(_UNIT_FACTORS)
        )
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument(
            "--format", choices=tuple(_WRITERS), default="csv", help="output format"
        )

    sweep = sub.add_parser(
        "sweep", help="sweep the potential over distance", allow_abbrev=False
    )
    add_common(sweep)
    _request_flag(sweep, "z_min", "smallest distance in m", type=float)
    _request_flag(sweep, "z_max", "largest distance in m", type=float)
    _request_flag(sweep, "points", "number of grid points", type=int)
    _request_flag(sweep, "scale", "grid spacing", choices=("log", "linear"))
    _request_flag(
        sweep,
        "outputs",
        "comma-separated subset of: " + ",".join(ALL_OUTPUTS),
        type=_outputs,
    )
    sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )

    table = sub.add_parser(
        "table1",
        help="leading small-distance coefficient for all four models",
        allow_abbrev=False,
    )
    add_common(table)
    table.add_argument(
        "--z", type=float, default=SweepRequest.z_min, help="distance in m"
    )
    return parser


def _config_flags(path: str) -> list[str]:
    """A config file's `key = value` lines as `--key=value` flags."""
    flags = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = (part.strip() for part in line.partition("="))
                if not (sep and key):
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key = key.replace("_", "-")
                if key == "config":
                    raise UsageError(f"{path}:{lineno}: config files do not nest")
                flags.append(f"--{key}={value}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return flags


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv; a --config file's lines count as flags given before argv's.

    Exits through argparse (SystemExit) on a bad flag, also one from the
    config file; raises UsageError if the config file cannot be read.
    """
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        rest = argv[argv.index(args.command) + 1 :]
        args = parser.parse_args([args.command, *_config_flags(args.config), *rest])
    return args


_REQUEST_FIELDS = frozenset(f.name for f in fields(SweepRequest))


def _build_request(args: argparse.Namespace) -> SweepRequest:
    given = {k: v for k, v in vars(args).items() if k in _REQUEST_FIELDS}
    if args.command == "table1":
        given.update(z_min=args.z, z_max=args.z, points=1, outputs=("table1",))
    req = SweepRequest(**given)
    _validate_request(req, args.command == "sweep")
    return req


def _validate_request(req: SweepRequest, is_sweep: bool) -> None:
    lo, hi = _Z_LIMITS
    if not lo <= req.z_min <= hi:
        raise UsageError(f"{'z_min' if is_sweep else 'z'} must lie in [{lo:g}, {hi:g}] m")
    if is_sweep:
        if not req.z_min <= req.z_max <= hi:
            raise UsageError(f"z_max must lie in [z_min, {hi:g}] m")
        if req.points < 1:
            raise UsageError("points must be >= 1")
    if not (req.rel_tol > 0.0 and math.isfinite(req.rel_tol)):
        raise UsageError("rel_tol must be > 0 and finite")
    if req.rel_tol < _ERROR_FLOOR_REL and _QUADRATURE_OUTPUTS.intersection(req.outputs):
        # no quadrature claims a relative error below its roundoff floor
        raise UsageError(f"rel_tol must be >= {_ERROR_FLOOR_REL:g} for quadrature outputs")
    for name in ("omega_p", "gamma", "omega_t"):  # all are in the header
        if not math.isfinite(getattr(req, name)):
            raise UsageError(f"{name} must be finite")
    try:
        FieldConfig(b_ext=req.b_ext, theta=req.theta)
        for name in (req.model,) if is_sweep else _MODEL_ORDER:
            _material(replace(req, model=name))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        req = _build_request(args)
        jobs = args.jobs if args.command == "sweep" else 1
        if jobs < 1:
            raise UsageError("jobs must be >= 1")
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "sweep":
            rows = run_sweep(req, jobs=jobs)
            columns = ["z", *req.outputs, "status"]
        else:
            rows = run_table1(req)
            columns = ["model", "z", "table1", "status"]
        header = _sweep_header(req, args.command)
        writer = _WRITERS[args.format]
        if args.out == "-":
            writer(rows, columns, header, sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                writer(rows, columns, header, fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # after the output, so its bytes do not depend on the failures
    failed = [row for row in rows if row["status"] == "error"]
    for row in failed:
        print(f"error: z={_format_cell(row['z'])}: {row['error']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
