"""Outside-in layer tracing: spans around the package's own lookups.

The tracer replaces module-level names where the package looks them up
(``cli.u_du`` is what ``_sweep_point`` calls, ``greens.integrate_semi_infinite``
is the inner k quadrature, and so on) with wrappers that record a span and
pass the call through unchanged.  Integrands handed to a quadrature engine
are wrapped too, so their calls and nodes are counted.  Nothing inside
``src/`` changes; every original name is put back on exit.

A span is ``[name, start, end, parent, row]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1
at the top).  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable

_NAME, _START, _END, _PARENT, _ROW = range(5)

# (module attribute, span name); "quadrature" spans also count their
# integrand's calls and nodes and their result's evaluations.
CLI_TARGETS = (
    ("run_sweep", "cli.run_sweep"),
    ("write_csv", "cli.write_csv"),
    ("u_dd", "potential.u_dd"),
    ("u_du", "potential.u_du"),
    ("u_resonant", "potential.u_resonant"),
    ("local_power_law", "potential.local_power_law"),
)
POTENTIAL_TARGETS = (
    ("contracted_green_imag", "greens.contracted_green_imag"),
    ("contracted_green_real", "greens.contracted_green_real"),
    ("integrate_semi_infinite", "quadrature.outer_xi"),
)
GREENS_TARGETS = (
    ("integrate_semi_infinite", "quadrature.inner_k"),
    ("integrate_finite_oscillatory", "quadrature.oscillatory"),
    ("permittivity_imag", "materials.permittivity_imag"),
    ("permittivity_real", "materials.permittivity_real"),
    ("wavevector_contrast_imag", "materials.wavevector_contrast_imag"),
    ("wavevector_contrast_real", "materials.wavevector_contrast_real"),
)


class Tracer:
    """Records spans and counters while installed; restores names on exit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.row = -1
        self._stack: list[int] = []
        self._last_raised: BaseException | None = None
        self._restore: list[tuple[ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Pass-through wrapper that records a span named ``name``."""
        quadrature = name.startswith("quadrature.")

        def traced(*args, **kwargs):
            if quadrature:
                if args:
                    args = (self._count_integrand(name, args[0]), *args[1:])
                else:
                    kwargs["f"] = self._count_integrand(name, kwargs["f"])
            rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, self.row]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, at the span it first leaves
                if exc is not self._last_raised:
                    self.counts[name, "raised." + type(exc).__name__] += 1
                    self._last_raised = exc
                raise
            finally:
                rec[_END] = self.clock()
                self._stack.pop()
            if quadrature:
                self.counts[name, "evaluations"] += result.evaluations
                self.counts[name, "unconverged"] += not result.converged
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_integrand(self, name: str, f: Callable) -> Callable:
        counts = self.counts

        def counted(x):
            counts[name, "integrand_calls"] += 1
            counts[name, "nodes"] += len(x)
            return f(x)

        return counted

    # -- installing --------------------------------------------------------

    def install(self, module: ModuleType, targets: Iterable[tuple[str, str]]) -> None:
        """Wrap each ``module.attr`` that exists; absent names are skipped."""
        for attr, name in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        from neutroncp import cli, greens, potential

        self.install(cli, CLI_TARGETS)
        self.install(potential, POTENTIAL_TARGETS)
        self.install(greens, GREENS_TARGETS)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV, times in ms from the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ms\tend_ms\tparent\trow\n")
            for i, (name, start, end, parent, row) in enumerate(self.spans):
                fh.write(
                    f"{i}\t{name}\t{(start - t0) * 1e3:.4f}\t{(end - t0) * 1e3:.4f}"
                    f"\t{parent}\t{row}\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so covered time is never counted twice.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[_PARENT] >= 0:
            children[s[_PARENT]].append((s[_START], s[_END]))
    out = []
    for s, kids in zip(spans, children):
        start, end = s[_START], s[_END]
        covered = 0.0
        reach = start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def _under(spans: list[list], i: int, ancestor: str) -> bool:
    p = spans[i][_PARENT]
    while p >= 0:
        if spans[p][_NAME] == ancestor:
            return True
        p = spans[p][_PARENT]
    return False


# Per-layer metrics reported from a traced run, by span name.  calls, ms
# and self_ms come from the spans; evaluations, integrand_calls and
# unconverged from the counters the quadrature wrappers keep.
LAYER_FIELDS = {
    "quadrature.inner_k": (
        "calls", "ms", "self_ms", "evaluations", "integrand_calls", "nodes_per_call",
        "unconverged",
    ),
    "quadrature.outer_xi": ("calls", "ms", "self_ms", "evaluations"),
    "potential.u_du": ("calls", "ms", "self_ms", "inner_per_call"),
    "potential.local_power_law": ("calls", "ms"),
    "potential.u_dd": ("calls", "ms"),
    "greens.contracted_green_imag": ("calls", "ms", "self_ms", "skipped_frac"),
    "greens.contracted_green_real": ("calls", "ms", "self_ms"),
    "quadrature.oscillatory": ("calls", "ms", "evaluations", "integrand_calls"),
    "potential.u_resonant": ("calls", "ms"),
    "materials": ("calls", "ms"),
    "cli.run_sweep": ("self_ms",),
    "cli.write_csv": ("ms",),
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ms"):
        return "ms"
    if name == "trace.rows":
        return "rows"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("nodes_per_call"):
        return "nodes/call"
    if name.endswith("inner_per_call"):
        return "calls/call"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    spans, counts = tracer.spans, tracer.counts
    per_name: dict[str, Counter] = {name: Counter() for name in LAYER_FIELDS}
    for s, own in zip(spans, self_times(spans)):
        name = "materials" if s[_NAME].startswith("materials.") else s[_NAME]
        c = per_name.setdefault(name, Counter())
        c["calls"] += 1
        c["ms"] += (s[_END] - s[_START]) * 1e3
        c["self_ms"] += own * 1e3
    for (name, key), n in counts.items():
        per_name.setdefault(name, Counter())[key] += n

    # useful-work ratios: inner quadratures per u_du call, and the share
    # of contracted_green_imag calls that return without a quadrature
    with_inner = {s[_PARENT] for s in spans if s[_NAME] == "quadrature.inner_k"}
    inner_in_du = sum(
        _under(spans, i, "potential.u_du")
        for i, s in enumerate(spans)
        if s[_NAME] == "quadrature.inner_k"
    )
    green_imag = [i for i, s in enumerate(spans) if s[_NAME] == "greens.contracted_green_imag"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    inner = per_name["quadrature.inner_k"]
    inner["nodes_per_call"] = ratio(inner["nodes"], inner["integrand_calls"])
    per_name["potential.u_du"]["inner_per_call"] = ratio(
        inner_in_du, per_name["potential.u_du"]["calls"]
    )
    per_name["greens.contracted_green_imag"]["skipped_frac"] = ratio(
        sum(i not in with_inner for i in green_imag), len(green_imag)
    )

    m = {
        f"{name}.{field}": per_name[name][field]
        for name, fields in LAYER_FIELDS.items()
        for field in fields
    }
    # an exception is counted once, at the span it first left
    m["greens.integration_errors"] = sum(
        c["raised.IntegrationError"] for name, c in per_name.items() if name.startswith("greens.")
    )
    m["quadrature.nonfinite_raises"] = sum(
        c["raised.ValueError"] for name, c in per_name.items() if name.startswith("quadrature.")
    )
    return m
