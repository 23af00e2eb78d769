"""Span recorders around the public functions of each fracwave layer.

A span has a name, a start, an end, the index of its parent span and a few
attributes computed from argument and result shapes.  Spans are kept in
memory and written once, when the traced run ends.  A layer's self time is
a span's duration minus the part of its interval that child spans cover.

Functions are wrapped where their callers look them up, that is in the
caller's module namespace (`TARGETS`).  A name that a later version no
longer has is skipped, so its counts read 0 and the run goes on.

Usage (the traced child that bench/run.py starts):
    PYTHONPATH=src python3 bench/tracing.py SPANS.json K_MODES table1 --config ...
runs `fracwave.cli.main` on the arguments after K_MODES with every target
wrapped, then the Philox probe (`probe.philox` spans, outside every layer),
and writes the spans to SPANS.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("cli", "experiments", "spectral", "ml", "fem", "noise")
PHILOX_REPEATS = 15


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self._clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx].end = self._clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield self.spans[idx]
        finally:
            self._end(idx)

    def wrap(self, name: str, fn, attrs=None):
        """fn with a span around each call; attrs(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if attrs is not None:
                self.spans[idx].attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, attrs=None) -> bool:
        """Replace module.attr by its traced wrapper; False when it is absent."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        setattr(module, attr, self.wrap(name, fn, attrs))
        return True


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((spans[j].start, spans[j].end) for j in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(span.duration - covered)
    return out


# ---------------------------------------------------------------------------
# attributes computed from argument and result shapes
# ---------------------------------------------------------------------------

def _ml_attrs(args, kwargs, result) -> dict:
    import numpy as np

    z = args[2] if len(args) > 2 else kwargs.get("z")
    if z is None:
        return {}
    z = np.abs(np.asarray(z, dtype=float)).ravel()
    return {"args": int(z.size), "contour_args": int((z > 1.0).sum()),
            "max_abs_z": float(z.max(initial=0.0))}


def _noise_attrs(args, kwargs, result) -> dict:
    """Bytes of increments a call produced; coarsening by 1 returns its input."""
    produced = result is not (args[0] if args else None)
    data = getattr(result, "increments", None)
    return {"bytes": int(getattr(data, "nbytes", 0)) if produced else 0}


#: (module, attribute, span name, attribute function), one per call site.
TARGETS = (
    ("fracwave.cli", "modeling_error_tables", "experiments.table", None),
    ("fracwave.cli", "fem_error_experiment", "experiments.table", None),
    ("fracwave.cli", "write_rate_table", "cli.write", None),
    ("fracwave.experiments", "_modeling_traj", "experiments.traj", None),
    ("fracwave.experiments", "_fem_traj", "experiments.traj", None),
    ("fracwave.experiments", "generate", "noise.generate", _noise_attrs),
    ("fracwave.experiments", "coarsen", "noise.coarsen", _noise_attrs),
    ("fracwave.experiments", "convolution_weights", "spectral.convolution_weights", None),
    ("fracwave.experiments", "homogeneous_solution", "spectral.homogeneous_solution", None),
    ("fracwave.experiments", "kernel_weights", "ml.kernel_weights", None),
    ("fracwave.experiments", "ml_values", "ml.ml_values", _ml_attrs),
    ("fracwave.experiments", "discrete_spectrum", "fem.discrete_spectrum", None),
    ("fracwave.experiments", "sine_products", "fem.sine_products", None),
    ("fracwave.spectral", "kernel_weights", "ml.kernel_weights", None),
    ("fracwave.fem", "fractional_stiffness", "fem.fractional_stiffness", None),
    ("fracwave.fem", "kernel_weights", "ml.kernel_weights", None),
    ("fracwave.mittag_leffler", "ml_values", "ml.ml_values", _ml_attrs),
)


def install_targets(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; returns the ones that do not."""
    missing = []
    for module_name, attr, name, attrs in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if module is None or not tracer.install(module, attr, name, attrs):
            missing.append(f"{module_name}.{attr}")
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics that the spans of one traced run give."""
    selfs = self_times(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def dur(name):
        return sum(spans[i].duration for i in named(name))

    def self_of(name):
        return sum(selfs[i] for i in named(name))

    def attr(name, key):
        return [spans[i].attrs.get(key, 0) for i in named(name)]

    gen_ms = [1e3 * spans[i].duration for i in named("noise.generate")]
    philox_ms = [1e3 * spans[i].duration for i in named("probe.philox")]
    n_gen = len(gen_ms)
    n_traj = len(named("experiments.traj"))
    ml_top = sum(s.duration for s in spans
                 if s.layer == "ml" and (s.parent < 0 or spans[s.parent].layer != "ml"))
    ml_args = sum(attr("ml.ml_values", "args"))
    out = {
        "cli.write_s": dur("cli.write"),
        "ml.busy_s": ml_top,
        "ml.args": ml_args,
        "ml.args_per_s": _ratio(ml_args, dur("ml.ml_values")),
        "ml.contour_args": sum(attr("ml.ml_values", "contour_args")),
        "ml.max_abs_z": max(attr("ml.ml_values", "max_abs_z"), default=0.0),
        "spectral.weights_self_s": self_of("spectral.convolution_weights"),
        "spectral.weight_calls": len(named("spectral.convolution_weights")),
        "fem.stiffness_s": dur("fem.fractional_stiffness"),
        "fem.eigensolve_s": self_of("fem.discrete_spectrum"),
        "fem.sine_products_s": dur("fem.sine_products"),
        "fem.meshes": len(named("fem.discrete_spectrum")),
        "noise.generate_ms.p50": _quantile(gen_ms, 50),
        "noise.generate_ms.p90": _quantile(gen_ms, 90),
        "noise.philox_setup_ms": _quantile(philox_ms, 50),
        "noise.draw_ms": _quantile(gen_ms, 50) - _quantile(philox_ms, 50),
        "noise.coarsen_ms": _ratio(1e3 * dur("noise.coarsen"), n_gen),
        "noise.bytes_per_traj": _ratio(sum(attr("noise.generate", "bytes"))
                                       + sum(attr("noise.coarsen", "bytes")), n_gen),
        "experiments.setup_self_s": self_of("experiments.table"),
        "experiments.traj_self_ms": _ratio(1e3 * self_of("experiments.traj"), n_traj),
        "experiments.traj_per_s": _ratio(n_traj, dur("experiments.traj")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for t, s in zip(selfs, spans) if s.layer == layer)
    return out


def load_spans(path: str) -> tuple[list[Span], list[str]]:
    """Spans and the targets that were not found, as `main` wrote them."""
    with open(path) as fh:
        data = json.load(fh)
    return [Span(*row) for row in data["spans"]], data["missing"]


def philox_probe(tracer: Tracer, k_modes: int) -> None:
    """Spans of `generate` at one step per mode: almost all Philox set-up.

    It runs in the traced process, so it sees the same machine state as the
    `noise.generate` spans it is compared with.
    """
    try:
        from fracwave.noise import NoiseSpec, generate, inverse_cubic_sigma
    except ImportError:
        return
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=k_modes, K_modes=k_modes,
                     T=1.0, N_fine=1)
    for seed in range(PHILOX_REPEATS):
        with tracer.span("probe.philox"):
            generate(spec, seed)


def main(argv: list[str]) -> int:
    spans_path, k_modes, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import fracwave.cli as cli
    missing = install_targets(tracer)
    with tracer.span("cli.main"):
        code = cli.main(cli_argv)
    philox_probe(tracer, k_modes)
    with open(spans_path, "w") as fh:
        json.dump({"missing": missing,
                   "spans": [[s.name, s.start, s.end, s.parent, s.attrs] for s in tracer.spans]},
                  fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
