"""Per-layer timing wrappers installed on package attributes from outside.

A span is one call of a wrapped function. Each wrapper records busy
(inclusive) seconds and a call count, and charges its duration to the span
that encloses it, so a layer's self time is its busy time minus the busy
time of the wrapped calls made inside it.

A function can be bound under several names (``from x import f`` copies the
binding), so each recorder wraps every binding site its callers may use; the
callers look the name up when they call it. A binding site that no longer
exists is skipped, and a recorder with no site left reports ``None``.
"""

from __future__ import annotations

import importlib
import time

# recorder name -> binding sites, as (module, attribute path)
RECORDERS = {
    "cli.load_config": [("excitonsim.cli", "load_config")],
    "cli.read_csv": [("excitonsim.cli", "read_csv")],
    "cli.write_csv": [("excitonsim.cli", "write_csv")],
    "noise.run_ensemble": [("excitonsim.noise", "run_ensemble")],
    "noise.run_frequencies": [("excitonsim.noise", "_run_frequencies")],
    "noise.generate_trajectory": [("excitonsim.noise", "generate_trajectory")],
    "circuits.build_iteration_circuit": [
        ("excitonsim.noise", "build_iteration_circuit"),
        ("excitonsim.circuits", "build_iteration_circuit"),
    ],
    "model.eigendecompose": [
        ("excitonsim.circuits", "eigendecompose"),
        ("excitonsim.model", "eigendecompose"),
    ],
    "qcore.packed": [("excitonsim.qcore", "QuantumCircuit.packed")],
    "qcore.execute_packed": [
        ("excitonsim.noise", "_execute_packed"),
        ("excitonsim.qcore", "_execute_packed"),
    ],
    "qcore.apply_ops": [("excitonsim.qcore", "_apply_ops")],
    "qcore.apply_dense": [("excitonsim.qcore", "_apply_dense")],
    "kernels.site_probs": [
        ("excitonsim.noise", "_site_probs"),
        ("excitonsim.qcore", "_site_probs"),
        ("excitonsim._kernels", "site_probs"),
    ],
    "reference.fit_dephasing_rate": [("excitonsim.reference", "fit_dephasing_rate")],
    "reference.lindblad_populations": [("excitonsim.reference", "lindblad_populations")],
    "reference.lindblad_integrate": [("excitonsim.reference", "lindblad_integrate")],
}

# per_layer metric -> (recorder, field); "self_s" is busy minus wrapped children
LAYER_METRICS = {
    "qcore.execute_packed.busy_s": ("qcore.execute_packed", "busy_s"),
    "qcore.execute_packed.calls": ("qcore.execute_packed", "calls"),
    "kernels.site_probs.busy_s": ("kernels.site_probs", "busy_s"),
    "kernels.site_probs.calls": ("kernels.site_probs", "calls"),
    "noise.shot_sampling.self_s": ("noise.run_frequencies", "self_s"),
    "noise.reduction.self_s": ("noise.run_ensemble", "self_s"),
    "noise.generate_trajectory.busy_s": ("noise.generate_trajectory", "busy_s"),
    "noise.generate_trajectory.calls": ("noise.generate_trajectory", "calls"),
    "circuits.build_iteration_circuit.busy_s": ("circuits.build_iteration_circuit", "busy_s"),
    "circuits.build_iteration_circuit.calls": ("circuits.build_iteration_circuit", "calls"),
    "qcore.packed.busy_s": ("qcore.packed", "busy_s"),
    "model.eigendecompose.calls": ("model.eigendecompose", "calls"),
    "reference.fit_dephasing_rate.busy_s": ("reference.fit_dephasing_rate", "busy_s"),
    "reference.lindblad_populations.busy_s": ("reference.lindblad_populations", "busy_s"),
    "reference.lindblad_integrate.busy_s": ("reference.lindblad_integrate", "busy_s"),
    "cli.load_config.busy_s": ("cli.load_config", "busy_s"),
    "cli.read_csv.busy_s": ("cli.read_csv", "busy_s"),
    "cli.write_csv.busy_s": ("cli.write_csv", "busy_s"),
}

DERIVED_METRICS = ["qcore.gates_applied", "reference.fit_evaluations", "circuits.compile_hit_ratio"]
# every per-layer metric a traced sample reports
TRACED_METRICS = list(LAYER_METRICS) + DERIVED_METRICS
# metrics that must repeat exactly between traced runs of one seed
COUNT_METRICS = [m for m in TRACED_METRICS if m.endswith(".calls")] + [
    "qcore.gates_applied",
    "reference.fit_evaluations",
]


# recorder -> work units one call adds: gates applied, or fit evaluations
UNITS = {
    "qcore.apply_ops": lambda args, result: len(args[2]),
    "qcore.apply_dense": lambda args, result: 1,
    "reference.fit_dephasing_rate": lambda args, result: getattr(result, "n_evaluations", 0),
}


class Tracer:
    """Installs the wrappers; ``metrics`` reads them out."""

    def __init__(self):
        self.busy = {}
        self.calls = {}
        self.child = {}
        self.units = {}
        self._stack = []

    def install(self) -> None:
        for name, sites in RECORDERS.items():
            for module_name, path in sites:
                try:
                    owner = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    continue
                setattr(owner, attr, self._wrap(name, original))
                for table in (self.busy, self.calls, self.child, self.units):
                    table.setdefault(name, 0)

    def _wrap(self, name, fn):
        stack = self._stack
        unit = UNITS.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.busy[name] += elapsed
                self.child[name] += children
                self.calls[name] += 1
            if unit is not None:
                self.units[name] += unit(args, result)
            return result

        return wrapper

    def _field(self, name, field):
        if name not in self.calls:
            return None
        if field == "calls":
            return self.calls[name]
        if field == "busy_s":
            return self.busy[name]
        return self.busy[name] - self.child[name]

    def metrics(self, steps_requested: int) -> dict:
        """Per-layer metrics; ``steps_requested`` is the Trotter steps the workload asks for."""
        out = {m: self._field(*spec) for m, spec in LAYER_METRICS.items()}
        gate_sites = [r for r in ("qcore.apply_ops", "qcore.apply_dense") if r in self.calls]
        out["qcore.gates_applied"] = sum(self.units[r] for r in gate_sites) if gate_sites else None
        fit = "reference.fit_dephasing_rate"
        out["reference.fit_evaluations"] = self.units[fit] if fit in self.calls else None
        builds = out["circuits.build_iteration_circuit.calls"]
        if builds is None:
            out["circuits.compile_hit_ratio"] = None
        else:
            # no Trotter step requested: nothing served from the cache
            out["circuits.compile_hit_ratio"] = 1.0 - builds / steps_requested if steps_requested else 0.0
        return out
