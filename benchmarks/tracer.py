"""Spans around the calls into each layer's public functions.

``Tracer.install`` replaces every public function named in ``LAYERS`` by a
timing wrapper, in every loaded ``selfishlab`` module namespace that binds
it (``selfishlab.sweep.stationary``, ``selfishlab.cli.simulate``, ...), so
calls between modules are caught without editing the package.
``Tracer.remove`` puts the original objects back.  Spans are kept in
memory as parallel arrays and aggregated, or written out, after the run.

A span's self time is its duration minus the time covered by its direct
child spans; the self times of all spans under one ``cli.run`` root add up
to that root's duration.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

import numpy as np

# layer -> (defining module, public functions); errors does no work
LAYERS = {
    "cli": ("selfishlab.cli", ("run",)),
    "probmodel": ("selfishlab.probmodel",
                  ("derive_transition_probs", "round_success_probs",
                   "lambda_from_protocol", "apply_fix")),
    "markov.closed_form": ("selfishlab.markov",
                           ("stationary", "revenue_ratio", "revenue_rates", "q_at",
                            "is_profitable")),
    "sweep": ("selfishlab.sweep", ("profit_threshold", "resistance_sweep")),
    "simulator": ("selfishlab.simulator", ("simulate",)),
}


class Tracer:
    """Records one span per wrapped call, with its parent span and op id."""

    def __init__(self) -> None:
        self.names: list[str] = []           # span name table, "module.function"
        self.layer_of: list[str] = []        # layer of each name
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        # counts read at the layer boundaries
        self.evaluations = 0
        self.sweep_cells = 0
        self.sweep_thresholds = 0
        self.sim_rounds = 0
        self.sim_chunks = 0
        self.max_lead = 0
        self._chunk_rounds = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function in every selfishlab namespace binding it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._chunk_rounds = sys.modules["selfishlab.simulator"].CHUNK_ROUNDS
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "selfishlab" or n.startswith("selfishlab."))]
        for layer, (module_name, functions) in LAYERS.items():
            home = sys.modules[module_name]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{module_name.split('.')[-1]}.{function}", layer,
                                     original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Restore every original function object."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, layer: str, function):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.current_op)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(index, args, kwargs, result)
            return result

        return traced

    # -- counters observed at the boundaries -------------------------------

    def _observe_sweep_profit_threshold(self, index, args, kwargs, result):
        self.evaluations += result.evaluations
        parent = self.parent[index]
        if parent >= 0 and self.names[self.name_id[parent]] == "sweep.resistance_sweep":
            self.sweep_thresholds += 1

    def _observe_sweep_resistance_sweep(self, index, args, kwargs, result):
        self.sweep_cells += len(result)

    def _observe_simulator_simulate(self, index, args, kwargs, result):
        rounds = (args[0] if args else kwargs["config"]).rounds
        self.sim_rounds += rounds
        self.sim_chunks += math.ceil(rounds / self._chunk_rounds)
        self.max_lead = max(self.max_lead, len(result.occupancy) - 1)

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per layer."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = np.zeros_like(duration)
        nested = spans["parent"] >= 0
        np.add.at(child, spans["parent"][nested], duration[nested])
        own = duration - child
        seconds = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        per_name_s = np.bincount(spans["name_id"], weights=own, minlength=len(self.names))
        per_name_n = np.bincount(spans["name_id"], minlength=len(self.names))
        for name_id, layer in enumerate(self.layer_of):
            seconds[layer] += float(per_name_s[name_id])
            calls[layer] += int(per_name_n[name_id])
        return seconds, calls

    def calls_to(self, name: str) -> int:
        """Number of spans of one function, such as "sweep.profit_threshold"."""
        return self.name_id.tolist().count(self.names.index(name))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layer_of),
                 **self.arrays())
