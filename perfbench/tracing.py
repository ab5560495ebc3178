"""In-memory spans around beamcap's public module-level functions.

The engine calls these functions through module attributes, so replacing
the attribute with a timing wrapper puts a span at each layer boundary
without changing anything under ``src/``.  Private names are never wrapped.
"""

from __future__ import annotations

import time
from collections import defaultdict

from beamcap import cli_rows, queueing, scenario, simulator, throughput

# wrapped attribute -> layer it belongs to
LAYER_OF = {
    "scenario.build_scenario": "scenario",
    "queueing.steady_state": "queueing",
    "queueing.mean_pairs_closed_form": "queueing",
    "throughput.rate_components": "throughput",
    "throughput.optimize_power": "throughput",
    "simulator.run": "fanout",
    "simulator.run_replication": "simulator.loop",
    "simulator.place_pair": "simulator.placement",
    "simulator.aggregate": "simulator.aggregate",
    "cli_rows.analyze_rows": "cli",
    "cli_rows.simulate_rows": "cli",
    "cli_rows.sweep_power_rows": "cli",
    "cli_rows.render_csv": "cli",
    "cli.main": "cli",
}
LAYERS = ("scenario", "queueing", "throughput", "simulator.placement", "simulator.loop",
          "simulator.aggregate", "fanout", "cli")
_MODULES = {"scenario": scenario, "queueing": queueing, "throughput": throughput,
            "simulator": simulator, "cli_rows": cli_rows}

# span fields
NAME, START, END, PARENT, OP, PHASE, STATES = range(7)


class Tracer:
    """Records spans (name, start ns, end ns, parent index, op id, phase, states)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = None
        self.phase = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1,
                           self.op, self.phase, 0])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def install(self) -> None:
        for qual in LAYER_OF:
            mod_name, _, attr = qual.partition(".")
            if mod_name not in _MODULES:        # cli.main: the driver opens that span itself
                continue
            module = _MODULES[mod_name]
            orig = getattr(module, attr)
            setattr(module, attr, self._wrapper(qual, orig))
            self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _wrapper(self, name, orig):
        count_states = name == "queueing.steady_state"

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if count_states:
                self.spans[idx][STATES] = int(result.probs.size)
            return result

        traced.__wrapped__ = orig
        return traced


def self_times(spans) -> list[int]:
    """Each span's duration minus the part covered by its direct children [ns]."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans, phase=None) -> dict:
    """Per-name call counts, total and self ns, and per-layer self ns, for one phase."""
    own = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "states": 0})
    by_layer = {layer: 0 for layer in LAYERS}
    for s, own_ns in zip(spans, own):
        if phase is not None and s[PHASE] != phase:
            continue
        rec = by_name[s[NAME]]
        rec["calls"] += 1
        rec["total_ns"] += s[END] - s[START]
        rec["self_ns"] += own_ns
        rec["states"] += s[STATES]
        by_layer[LAYER_OF[s[NAME]]] += own_ns
    return {"by_name": dict(by_name), "by_layer": by_layer}
