"""Outside-in per-layer timing for a traced perfbench repetition.

:func:`install` wraps public functions and methods of ``repro`` at every
place that binds them: a function is replaced in every loaded ``repro.*``
module whose attribute *is* that function (``engine/worker.py`` imports
``dumps_trace`` and friends by name, so patching only the defining module
would miss those calls), and a method is replaced on its class and on
every subclass that overrides it.  Each wrapper counts calls and
accumulates *busy* seconds: the wall time during which at least one call
of that layer is active, so recursion or a subclass calling ``super()``
is never counted twice.  Layers nest (``Workload.trace`` runs
``Machine.run``); their times are reported side by side, never summed.

Work that runs in worker processes is invisible to these wrappers; the
harness reads it from the run telemetry the engine writes instead.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

#: (layer name, defining module, function or ``Class.method``).
TARGETS = (
    ("isa.run", "repro.isa.machine", "Machine.run"),
    ("workloads.trace", "repro.workloads.base", "Workload.trace"),
    ("trace.encode_binary", "repro.trace.io", "dumps_trace_binary"),
    ("trace.render_text", "repro.trace.io", "dumps_trace"),
    ("trace.decode_records", "repro.trace.io", "loads_trace_binary"),
    ("engine.trace_task", "repro.engine.worker", "execute_trace_task"),
    ("engine.simulate_task", "repro.engine.worker", "execute_simulate_task"),
    ("engine.cache_get", "repro.engine.cache", "ResultCache.get"),
    ("engine.cache_put", "repro.engine.cache", "ResultCache.put"),
    ("engine.dispatch", "repro.engine.backends", "ExecutorBackend.map"),
    ("simulation.vector_shard", "repro.simulation.vectorized", "simulate_shard_vector"),
    ("simulation.merge", "repro.simulation.simulator", "merge_shards"),
    ("simulation.value_profile", "repro.simulation.value_profile", "value_profile"),
    ("artifact.check", "repro.artifact.check", "check_deliverable"),
)

#: ``run_experiment(identifier, ...)`` is timed per experiment, as
#: ``reporting.<identifier>``.
EXPERIMENT_TARGET = ("reporting", "repro.reporting.experiments", "run_experiment")


class Layer:
    """Busy seconds and call count of one layer."""

    __slots__ = ("seconds", "calls", "depth")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.depth = 0


class Tracer:
    """Holds the layers of one traced run; :meth:`install` patches ``repro``."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def _wrap(self, function, name_of):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            layer = self.layer(name_of(args, kwargs))
            layer.calls += 1
            if layer.depth:
                return function(*args, **kwargs)
            layer.depth = 1
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                layer.seconds += time.perf_counter() - started
                layer.depth = 0

        return timed

    def install(self) -> None:
        """Import every ``repro`` module, then wrap every target binding."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name != "repro.__main__":
                importlib.import_module(info.name)
        for name, module, target in TARGETS:
            self._patch(module, target, lambda args, kwargs, name=name: name)
        prefix, module, target = EXPERIMENT_TARGET
        self._patch(
            module,
            target,
            lambda args, kwargs: f"{prefix}.{args[0] if args else kwargs['identifier']}",
        )
        for name, _, _ in TARGETS:
            self.layer(name)

    def _patch(self, module_name: str, target: str, name_of) -> None:
        owner = sys.modules[module_name]
        if "." in target:
            class_name, method = target.split(".")
            self._patch_method(getattr(owner, class_name), method, name_of)
            return
        original = getattr(owner, target)
        wrapper = self._wrap(original, name_of)
        bound = 0
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{module_name}.{target} is bound nowhere")

    def _patch_method(self, cls: type, method: str, name_of) -> None:
        pending = [cls]
        while pending:
            current = pending.pop()
            pending.extend(current.__subclasses__())
            if method in current.__dict__:
                setattr(current, method, self._wrap(current.__dict__[method], name_of))

    def metrics(self) -> dict[str, float]:
        """``<layer>_s`` and ``<layer>_calls`` for every layer."""
        out: dict[str, float] = {}
        for name, layer in sorted(self.layers.items()):
            out[f"{name}_s"] = layer.seconds
            out[f"{name}_calls"] = layer.calls
        return out
