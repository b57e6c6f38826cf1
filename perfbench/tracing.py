"""Per-layer tracing by wrapping the program's functions from outside.

`Tracer.install()` replaces every public function of the eight pqcgeo
modules (and the public methods of their classes) by a timing wrapper, and
rebinds each name wherever a module looks it up: `optimize` binds
`concurrence` and `ricci_closed` with `from .geometry import ...`, so
patching only `geometry` would miss those calls. Each wrapper is a span; a
span's self time is its duration minus the spans it encloses. Spans are
aggregated per function in memory, never written out one by one.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "harness", "optimize", "qgt", "vqe", "ansatz", "geometry", "simulator")
FAMILIES = ("hea", "ldca", "qgan", "shea", "qgan-aug")
STATE_MAPS = ("prepare_state", "state_jacobian", "state_and_jacobian")
VALIDATE_SUITES = {"concurrence": "_suite_concurrence", "hopf": "_suite_hopf",
                   "curvature": "_suite_curvature", "qgt": "_suite_qgt",
                   "gradient": "_suite_gradients", "chart": "_suite_chart"}
WRITERS = ("harness.write_trace_csv", "harness._write_grid_csv")
PRIVATE_SPANS = {"harness": ("_write_grid_csv", *VALIDATE_SUITES.values())}

# name -> unit of every per-layer metric, in the order they are reported
METRICS = {
    "ansatz.state_evals": "count",
    "ansatz.state_evals_per_step": "count",
    **{f"ansatz.state_eval_us.{f}": "us" for f in FAMILIES},
    "ansatz.self_s": "s",
    "ansatz.grid_s": "s",
    "vqe.hamiltonian_matrix_calls": "count",
    "vqe.hamiltonian_matrix_s": "s",
    "vqe.exact_ground_s": "s",
    "vqe.self_s": "s",
    "simulator.calls": "count",
    "simulator.self_s": "s",
    "qgt.fs_metric_calls": "count",
    "qgt.fs_metric_s": "s",
    "qgt.invert_metric_calls": "count",
    "qgt.invert_metric_s": "s",
    "qgt.qng_fallback_steps": "count",
    "optimize.steps": "count",
    "optimize.self_s": "s",
    "optimize.instrument_s": "s",
    "optimize.step_us": "us",
    "geometry.calls": "count",
    "geometry.self_s": "s",
    "harness.write_s": "s",
    "harness.bytes_written": "bytes",
    "harness.summarize_s": "s",
    **{f"harness.validate.{s}_s": "s" for s in VALIDATE_SUITES},
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Aggregated spans of the pqcgeo layers; install, run, uninstall, report."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)     # inclusive seconds per span key
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []        # [key, seconds covered by child spans]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, key: str, fn, keyfn=None, after=None):
        stack, calls, total, layer_self = self._stack, self.calls, self.total, self.layer_self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                k = keyfn(args, kwargs, stack[-1][0] if stack else None) if keyfn else key
                calls[k] += 1
                total[k] += d
                layer_self[layer] += d - frame[1]
                if stack:
                    stack[-1][1] += d
            if after is not None:
                after(result)
            return result

        return span

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pqcgeo.{layer}")
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                        not name.startswith("_") or name in PRIVATE_SPANS.get(layer, ())):
                    wrapped[obj] = self._wrap(layer, f"{layer}.{name}", obj,
                                              **self._hooks(layer, name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        # rebind each wrapped function under every name a pqcgeo module holds it by
        for layer in LAYERS:
            mod = importlib.import_module(f"pqcgeo.{layer}")
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
        harness = importlib.import_module("pqcgeo.harness")
        self._set(harness, "VALIDATION_SUITES",
                  tuple((n, wrapped.get(fn, fn)) for n, fn in harness.VALIDATION_SUITES))
        self._set(pathlib.Path, "write_text", self._wrap(
            "harness", "harness.write_text", pathlib.Path.write_text,
            keyfn=lambda a, k, parent: "io.in_writer" if parent in WRITERS else "io.direct",
            after=self._count_bytes))

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(layer, key, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(layer, key, attr.__func__)))

    def _hooks(self, layer: str, name: str) -> dict:
        if layer == "ansatz" and name in STATE_MAPS:
            return {"keyfn": lambda a, k, parent: f"ansatz.state.{a[0] if a else k['kind']}"}
        if layer == "optimize" and name == "instrument":
            return {"after": self._count_fallback}
        return {}

    def _count_fallback(self, record) -> None:
        self.counts["qng_fallback_steps"] += bool(record.qng_fallback)

    def _count_bytes(self, written) -> None:
        self.counts["bytes_written"] += int(written)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def report(self, passes: int, traced_wall: float, untraced_wall: float) -> dict:
        """Every per-layer metric, per traced pass over the workload. The overhead
        compares `traced_wall` with `untraced_wall`: for each, the sum over the
        commands of each command's median time across the run's rounds."""
        calls, total = self.calls, self.total

        def per(x):
            return x / passes

        def calls_in(prefix):
            return sum(v for k, v in calls.items() if k.startswith(prefix))

        def mean_us(key):
            return total[key] / calls[key] * 1e6 if calls[key] else 0.0

        evals = sum(calls[f"ansatz.state.{f}"] for f in FAMILIES)
        steps = calls["optimize.instrument"]
        values = {
            "ansatz.state_evals": per(evals),
            "ansatz.state_evals_per_step": evals / steps if steps else 0.0,
            **{f"ansatz.state_eval_us.{f}": mean_us(f"ansatz.state.{f}") for f in FAMILIES},
            "ansatz.self_s": per(self.layer_self["ansatz"]),
            "ansatz.grid_s": per(total["ansatz.ricci_circuit_grid"]
                                 + total["ansatz.concurrence_closed"]),
            "vqe.hamiltonian_matrix_calls": per(calls["vqe.Hamiltonian.matrix"]),
            "vqe.hamiltonian_matrix_s": per(total["vqe.Hamiltonian.matrix"]),
            "vqe.exact_ground_s": per(total["vqe.exact_ground"]),
            "vqe.self_s": per(self.layer_self["vqe"]),
            "simulator.calls": per(calls_in("simulator.")),
            "simulator.self_s": per(self.layer_self["simulator"]),
            "qgt.fs_metric_calls": per(calls["qgt.fs_metric"]),
            "qgt.fs_metric_s": per(total["qgt.fs_metric"]),
            "qgt.invert_metric_calls": per(calls["qgt.invert_metric"]),
            "qgt.invert_metric_s": per(total["qgt.invert_metric"]),
            "qgt.qng_fallback_steps": per(self.counts["qng_fallback_steps"]),
            "optimize.steps": per(steps),
            "optimize.self_s": per(self.layer_self["optimize"]),
            "optimize.instrument_s": per(total["optimize.instrument"]),
            "optimize.step_us": total["optimize.run_optimization"] / steps * 1e6 if steps else 0.0,
            "geometry.calls": per(calls_in("geometry.")),
            "geometry.self_s": per(self.layer_self["geometry"]),
            "harness.write_s": per(sum(total[k] for k in (*WRITERS, "io.direct"))),
            "harness.bytes_written": per(self.counts["bytes_written"]),
            "harness.summarize_s": per(total["harness.summarize"]),
            **{f"harness.validate.{s}_s": per(total[f"harness.{fn}"])
               for s, fn in VALIDATE_SUITES.items()},
            "cli.self_s": per(self.layer_self["cli"]),
            "trace.wall_s": traced_wall,
            "trace.overhead_pct": (traced_wall / untraced_wall - 1.0) * 100.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
