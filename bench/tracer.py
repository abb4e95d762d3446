"""Spans around the public functions of each `hybridcat` layer.

The tracer finds each listed function by name in whichever `hybridcat`
module defines it, and rebinds it in every `hybridcat` module that holds a
reference to it, so a call made through `from .fock_core import apply` is
traced as well as one made through `fock_core.apply`, and a span survives the
function moving to another module. Spans are kept in memory while tracing is
on and summarised when it stops; a layer's self time is its spans' duration
minus the part covered by their child spans. Tracing assumes one thread.
"""

from __future__ import annotations

import statistics
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _amps_bytes(state) -> int:
    return int(state.amps.nbytes)


def _herald_bytes(args, kwargs, result) -> int:
    source = _arg(args, kwargs, 0, "source")
    branches = getattr(source, "branches", None)
    if branches is None:
        return _amps_bytes(source)
    return sum(_amps_bytes(state) for _, state in branches)


def _apply_bytes(args, kwargs, result) -> int:
    return _amps_bytes(_arg(args, kwargs, 2, "state")) + _amps_bytes(result)


def _tensor_bytes(args, kwargs, result) -> int:
    return _amps_bytes(result)


def _kernel_key(args, kwargs, result):
    scattering = np.asarray(_arg(args, kwargs, 0, "scattering"))
    return (
        tuple(complex(x) for x in scattering.ravel()),
        int(_arg(args, kwargs, 1, "dim_i")),
        int(_arg(args, kwargs, 2, "dim_j")),
    )


def _displacement_key(args, kwargs, result):
    return complex(_arg(args, kwargs, 0, "alpha")), int(_arg(args, kwargs, 1, "cutoff"))


def _negativity_dim(args, kwargs, result) -> int:
    return int(_arg(args, kwargs, 0, "rho").register.size)


def _table_rows(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 0, "table").rows)


@dataclass(frozen=True)
class Target:
    """A traced function: its layer (the module named in the metrics), its
    name, and what to measure from its arguments and result."""

    layer: str
    name: str
    size: Optional[Callable] = None  # summed per call, as `bytes` or `rows`
    peak: Optional[Callable] = None  # maximum over calls
    key: Optional[Callable] = None  # distinct keys counted as `builds`


TARGETS: Tuple[Target, ...] = (
    Target("cli", "save_table", size=_table_rows),
    Target("pipeline", "sweep"),
    Target("pipeline", "run_scheme"),
    Target("pipeline", "spdc_decomposition"),
    Target("detection", "herald", size=_herald_bytes),
    Target("fock_core", "apply", size=_apply_bytes),
    Target("fock_core", "tensor", peak=_tensor_bytes),
    Target("optics", "apply_beam_splitter"),
    Target("optics", "polarization_rotation"),
    Target("optics", "two_mode_kernel", key=_kernel_key),
    Target("optics", "apply_displacement"),
    Target("optics", "displacement_matrix", key=_displacement_key),
    Target("metrics", "negativity", peak=_negativity_dim),
    Target("metrics", "fidelity"),
    Target("metrics", "target_hybrid"),
)
# Every public function of these modules is traced and summed per module.
WHOLE_MODULES = ("resource_states",)


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


@dataclass
class Summary:
    """Per-function totals of one traced repetition."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    size: Dict[str, int]
    peak: Dict[str, int]
    builds: Dict[str, int]
    covered: float  # time inside top-level spans


def _hybridcat_modules() -> List[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "hybridcat" or name.startswith("hybridcat.")
    ]


def _whole_module_targets(modules) -> List[Target]:
    targets = []
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        if layer not in WHOLE_MODULES:
            continue
        for name, value in sorted(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and not name.startswith("_")
                and value.__module__ == module.__name__
            ):
                targets.append(Target(layer, name))
    return targets


def _find(target: Target, modules) -> Optional[types.FunctionType]:
    """The one `hybridcat` function of that name, preferring the layer's own
    module when several modules define one."""
    found = {}
    for module in modules:
        value = vars(module).get(target.name)
        if isinstance(value, types.FunctionType) and value.__module__.startswith(
            "hybridcat"
        ):
            found[id(value)] = value
    if len(found) > 1:
        home = f"hybridcat.{target.layer}"
        found = {k: v for k, v in found.items() if v.__module__ == home}
    return next(iter(found.values())) if len(found) == 1 else None


class Tracer:
    """Install with `start`, remove with `stop`, which returns the Summary.

    `missing` lists targets no `hybridcat` module defines; `never_called`
    lists the installed targets no traced repetition has called so far.
    """

    def __init__(self):
        modules = _hybridcat_modules()
        self.targets: Dict[str, Target] = {}
        self.functions: Dict[str, types.FunctionType] = {}
        self.missing: List[str] = []
        for target in TARGETS + tuple(_whole_module_targets(modules)):
            key = f"{target.layer}.{target.name}"
            func = _find(target, modules)
            if func is None:
                self.missing.append(key)
            else:
                self.targets[key] = target
                self.functions[key] = func
        self.never_called = set(self.targets)
        self._patches: List[Tuple[types.ModuleType, str, object]] = []

    def start(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.size = {key: 0 for key, t in self.targets.items() if t.size}
        self.peak = {key: 0 for key, t in self.targets.items() if t.peak}
        self.keys = {key: set() for key, t in self.targets.items() if t.key}
        wrappers = {
            id(func): self._wrap(key, func) for key, func in self.functions.items()
        }
        for module in _hybridcat_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def stop(self) -> Summary:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []
        summary = self._summarise()
        self.spans = []
        return summary

    def _wrap(self, key: str, func: Callable) -> Callable:
        target = self.targets[key]
        spans, stack = self.spans, self.stack
        size, peak, keys = self.size, self.peak, self.keys

        def traced(*args, **kwargs):
            span = Span(key, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child += span.end - span.start
            if target.size:
                size[key] += target.size(args, kwargs, result)
            if target.peak:
                peak[key] = max(peak[key], target.peak(args, kwargs, result))
            if target.key:
                keys[key].add(target.key(args, kwargs, result))
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def _summarise(self) -> Summary:
        self_s = {key: 0.0 for key in self.targets}
        calls = {key: 0 for key in self.targets}
        covered = 0.0
        for span in self.spans:
            self_s[span.name] += span.self_time
            calls[span.name] += 1
            if span.parent is None:
                covered += span.end - span.start
        self.never_called -= {key for key, n in calls.items() if n}
        return Summary(
            self_s=self_s,
            calls=calls,
            size=dict(self.size),
            peak=dict(self.peak),
            builds={key: len(found) for key, found in self.keys.items()},
            covered=covered,
        )


# Per-layer metrics: name -> (unit, better). The README maps each one to the
# end-to-end metric it should move.
PER_LAYER = {
    "detection.herald.self_s": ("s", "lower"),
    "detection.herald.calls": ("count", "lower"),
    "detection.herald.bytes": ("B", "lower"),
    "fock_core.apply.self_s": ("s", "lower"),
    "fock_core.apply.calls": ("count", "lower"),
    "fock_core.apply.bytes": ("B", "lower"),
    "fock_core.tensor.self_s": ("s", "lower"),
    "fock_core.tensor.max_bytes": ("B", "lower"),
    "optics.apply_beam_splitter.self_s": ("s", "lower"),
    "optics.apply_beam_splitter.calls": ("count", "lower"),
    "optics.polarization_rotation.self_s": ("s", "lower"),
    "optics.polarization_rotation.calls": ("count", "lower"),
    "optics.two_mode_kernel.self_s": ("s", "lower"),
    "optics.two_mode_kernel.calls": ("count", "lower"),
    "optics.two_mode_kernel.builds": ("count", "lower"),
    "optics.apply_displacement.self_s": ("s", "lower"),
    "optics.displacement_matrix.self_s": ("s", "lower"),
    "optics.displacement_matrix.builds": ("count", "lower"),
    "metrics.negativity.self_s": ("s", "lower"),
    "metrics.negativity.calls": ("count", "lower"),
    "metrics.negativity.max_dim": ("count", "lower"),
    "metrics.fidelity.self_s": ("s", "lower"),
    "pipeline.run_scheme.self_s": ("s", "lower"),
    "pipeline.run_scheme.calls": ("count", "lower"),
    "pipeline.spdc_decomposition.self_s": ("s", "lower"),
    "pipeline.spdc_decomposition.calls": ("count", "lower"),
    "pipeline.sweep.self_s": ("s", "lower"),
    "pipeline.rows_per_herald": ("rows/bundle", "higher"),
    "resource_states.self_s": ("s", "lower"),
    "resource_states.calls": ("count", "lower"),
    "cli.save_table.self_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    "traced.untraced_s": ("s", "lower"),
    "traced.overhead_s": ("s", "lower"),
    "traced.never_called": ("count", "lower"),
}


def layer_metrics(tracer: Tracer, summaries: List[Summary], walls: List[float],
                  rows: int) -> Dict[str, float]:
    """Per-layer metrics as medians over the traced repetitions. `walls` are
    their wall times and `rows` the operations one repetition serves."""

    def median(values) -> float:
        return float(statistics.median(values))

    def self_time(*keys) -> float:
        return median([sum(s.self_s.get(k, 0.0) for k in keys) for s in summaries])

    def per_rep(field: str, key: str) -> float:
        return median([getattr(s, field).get(key, 0) for s in summaries])

    metrics: Dict[str, float] = {}
    for name in PER_LAYER:
        key, _, kind = name.rpartition(".")
        if key in WHOLE_MODULES:
            members = [k for k in tracer.targets if k.rpartition(".")[0] == key]
            if kind == "self_s":
                metrics[name] = self_time(*members)
            else:
                metrics[name] = median([sum(s.calls[k] for k in members) for s in summaries])
        elif kind == "self_s":
            extra = ("metrics.target_hybrid",) if key == "metrics.fidelity" else ()
            metrics[name] = self_time(key, *extra)
        elif kind == "calls":
            metrics[name] = per_rep("calls", key)
        elif kind == "bytes":
            metrics[name] = per_rep("size", key)
        elif kind in ("max_bytes", "max_dim"):
            metrics[name] = per_rep("peak", key)
        elif kind == "builds":
            metrics[name] = per_rep("builds", key)
    bundles = per_rep("calls", "detection.herald") / 2.0  # one herald per click pattern
    metrics["pipeline.rows_per_herald"] = rows / bundles if bundles else 0.0
    metrics["cli.rows"] = per_rep("size", "cli.save_table")
    metrics["traced.untraced_s"] = median(
        [wall - s.covered for wall, s in zip(walls, summaries)]
    )
    metrics["traced.never_called"] = float(len(tracer.never_called) + len(tracer.missing))
    return metrics
