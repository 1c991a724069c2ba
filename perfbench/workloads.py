"""Seeded sweep-row requests for the three benchmark workloads.

Every request is a one-point ``SweepRequest`` built from the repository's
own sweep definitions: ``configs/fig1.cfg`` (plasma across the
retardation crossover), ``configs/fig2.cfg`` (shared ground-state
settings) and the four surface models that ``scripts/reproduce_fig2.sh``
passes on top of it.  The benchmark reads those files and nothing else,
so the program under test sees only the generated requests.

Distances are drawn log-uniformly in each model's range.  The draw is
stratified: model j's k-th row sits at u = frac(vdc(k) + shift_j), with
vdc the base-2 van der Corput sequence and shift_j drawn from the seed.
Each z is still log-uniform over the seeds, but every prefix of the
stream covers the range evenly.

A run answers one fixed row set, the first ``ROWS[workload]`` rows of
the stream, round after round until its time is up.  Which requests are
attempted, and so which of them fail, then depends on the seed alone and
not on how many rows the machine managed in the time; a run that stops
in the middle of a round has still seen an even mix of cheap and costly
rows, because the set is sent in stream order.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shlex
from dataclasses import replace
from typing import Iterator, Sequence

from neutroncp.cli import ALL_OUTPUTS, SweepRequest, build_parser

from . import ROOT

WORKLOADS = ("fig2_ground", "crossover_exponent", "resonant")

# Rows in a run's row set: whole model rounds.  One round took about two
# thirds of a 30 s run at the time the benchmark was written: enough
# distinct distances for the row costs, and for resonant's failed share,
# to be much the same whatever the seed.
ROWS = {"fig2_ground": 64, "crossover_exponent": 32, "resonant": 6144}

# Rows replayed under the tracer, a prefix of the row set: whole model
# rounds, about ten seconds of traced work each.
TRACE_ROWS = {"fig2_ground": 24, "crossover_exponent": 16, "resonant": 1536}


def read_config(name: str) -> dict[str, str]:
    """``key = value`` lines of ``configs/<name>``, keys spelled with '_'."""
    out: dict[str, str] = {}
    text = (ROOT / "configs" / name).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def fig2_models() -> list[dict[str, object]]:
    """Model flags of each ``sweep`` call in ``scripts/reproduce_fig2.sh``."""
    text = (ROOT / "scripts" / "reproduce_fig2.sh").read_text(encoding="utf-8")
    parser = build_parser()
    models = []
    for command in text.replace("\\\n", " ").splitlines():
        tokens = shlex.split(command, comments=True)
        if "neutroncp.cli" not in tokens:
            continue
        args = parser.parse_args(tokens[tokens.index("neutroncp.cli") + 1 :])
        models.append(
            {
                "model": args.model,
                "omega_p": args.omega_p or 0.0,
                "gamma": args.gamma or 0.0,
                "omega_t": args.omega_t or 0.0,
            }
        )
    if [m["model"] for m in models] != ["pc", "plasma", "drude", "drude-lorentz"]:
        raise ValueError(f"unexpected fig2 models in reproduce_fig2.sh: {models}")
    return models


def _outputs(names: Sequence[str]) -> tuple[str, ...]:
    wanted = set(names)
    return tuple(o for o in ALL_OUTPUTS if o in wanted)


def _base(cfg: dict[str, str], outputs: Sequence[str], **model) -> SweepRequest:
    if cfg.get("energy_unit", "J") != "J":
        raise ValueError("the output check works in joules")
    theta = cfg.get("theta", "avg")
    return SweepRequest(
        b_ext=float(cfg["b_ext"]),
        theta=None if theta == "avg" else float(theta),
        z_min=float(cfg["z_min"]),
        z_max=float(cfg["z_max"]),
        points=1,
        outputs=_outputs(outputs),
        rel_tol=float(cfg["rel_tol"]),
        energy_unit="J",
        **model,
    )


def templates(workload: str) -> list[SweepRequest]:
    """One request per model share; z_min..z_max is the distance range."""
    fig1 = read_config("fig1.cfg")
    fig2 = read_config("fig2.cfg")
    fig1_model = {"model": fig1["model"], "omega_p": float(fig1["omega_p"])}
    if workload == "fig2_ground":
        cols = fig2["outputs"].split(",")
        return [_base(fig2, cols, **m) for m in fig2_models()]
    if workload == "crossover_exponent":
        return [_base(fig1, [*fig1["outputs"].split(","), "exponent"], **fig1_model)]
    if workload == "resonant":
        cols = ["u_dd", "u_resonant"]
        lossy = [m for m in fig2_models() if m["model"] in ("drude", "drude-lorentz")]
        return [_base(fig1, cols, **fig1_model), *(_base(fig2, cols, **m) for m in lossy)]
    raise ValueError(f"unknown workload {workload!r}")


def _van_der_corput(k: int) -> float:
    u, denom = 0.0, 1.0
    while k:
        denom *= 2.0
        k, bit = divmod(k, 2)
        u += bit / denom
    return u


def at_distance(template: SweepRequest, z: float) -> SweepRequest:
    return replace(template, z_min=z, z_max=z, points=1)


def requests(workload: str, seed: int) -> Iterator[SweepRequest]:
    """Endless seeded row stream; the models take turns in equal shares."""
    tmpl = templates(workload)
    rng = random.Random(f"{workload}:{seed}")
    shifts = [rng.random() for _ in tmpl]
    for k in itertools.count():
        base = _van_der_corput(k)
        for t, shift in zip(tmpl, shifts):
            u = (base + shift) % 1.0
            yield at_distance(t, t.z_min * (t.z_max / t.z_min) ** u)


def row_set(workload: str, seed: int) -> list[SweepRequest]:
    """The rows a run of ``workload`` sends: a fixed prefix of the stream."""
    return list(itertools.islice(requests(workload, seed), ROWS[workload]))


def warmup_request(workload: str) -> SweepRequest:
    """Fixed row used for set-up: the first model at mid-range (log)."""
    t = templates(workload)[0]
    return at_distance(t, math.sqrt(t.z_min * t.z_max))


def request_line(req: SweepRequest) -> bytes:
    """The fields the benchmark sets, as one line of the request hash."""
    key = [
        req.model,
        req.omega_p,
        req.gamma,
        req.omega_t,
        req.b_ext,
        req.theta,
        req.z_min,
        req.rel_tol,
        list(req.outputs),
    ]
    return json.dumps(key).encode() + b"\n"
