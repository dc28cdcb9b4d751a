"""In-memory span recorder for the traced benchmark pass.

The recorder wraps callables of the `sinegate` modules from the outside:
no code of the package changes. Each call of a wrapped callable becomes one
span (name, start, end, parent). Spans stay in memory until the run ends,
when `layer_metrics` folds them into the per-layer numbers.

`from module import name` copies a binding, so `sinegate.cli` and
`sinegate.qkd_budget` hold their own references to `run_simulation` and
friends. `install` therefore rebinds every attribute of every loaded
`sinegate` module that refers to a wrapped function, not only the one in
the defining module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# Modules whose public callables (the functions in their `__all__`) get spans.
TRACED_MODULES = ("config", "signal_chain", "mc_engine", "qkd_budget", "cli")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    spans: list[Span] = field(default_factory=list)
    # counts taken at the same boundaries as the spans
    counts: dict[str, float] = field(default_factory=dict)
    # (records, holdoff_gates, anchor) of each simulation, for the hold-off probe
    runs: list[tuple] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple] = field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        """`fn` recorded as span `name`; a hook in `_HOOKS` then takes counts."""
        spans, stack, hook = self.spans, self._stack, _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap `module.attr` and every `sinegate` binding of the same object."""
        original = getattr(module, attr, None)
        if original is None:
            return  # a later version dropped it; its metrics read 0
        wrapper = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sinegate" or mod_name.startswith("sinegate."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def install(self) -> None:
        for short in TRACED_MODULES:
            module = sys.modules[f"sinegate.{short}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self.patch_function(module, attr, f"{short}.{attr}")
        # private, but it is the afterpulse layer of the engine
        self.patch_function(sys.modules["sinegate.mc_engine"], "_afterpulse_pass",
                            "mc_engine.afterpulse_pass")
        cli = sys.modules["sinegate.cli"]
        for attr, method in list(vars(cli.Emitter).items()):
            if inspect.isfunction(method) and not attr.startswith("_"):
                self._patch(cli.Emitter, attr, self.wrap(f"cli.{attr}", method))
        # main() reads the subcommand handlers from this table
        handlers = getattr(cli, "_HANDLERS", {})
        for command, handler in list(handlers.items()):
            self._patch(handlers, command, self.wrap("cli.handler", handler))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Time in spans `name` not covered by their direct child spans."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        return sum(s.duration - covered.get(i, 0.0)
                   for i, s in enumerate(self.spans) if s.name == name)


# ---------------------------------------------------------------------------
# Count hooks: run after a wrapped call returns, outside its span.

def _on_run_simulation(rec: SpanRecorder, args, result) -> None:
    c = result.counters
    rec.add("gates", c["n_gates"])
    rec.add("records", c["generated_total"])
    rec.add("accepted", c["accepted_total"])
    rec.add("afterpulses", c.get("generated_afterpulse", 0))
    rec.runs.append((result.records, result.config.holdoff_gates,
                     result.config.holdoff_anchor))


def _on_afterpulse_pass(rec: SpanRecorder, args, result) -> None:
    rec.add("afterpulse_pass_avalanches", len(args[1]))


def _on_mc_link_run(rec: SpanRecorder, args, result) -> None:
    rec.add("link_accepted_total", result["accepted_total"])
    rec.add("link_accepted_in_windows", result["accepted_in_windows"])


def _on_emit_table(rec: SpanRecorder, args, result) -> None:
    rec.add("table_rows", len(args[3]))


_HOOKS = {
    "mc_engine.run_simulation": _on_run_simulation,
    "mc_engine.afterpulse_pass": _on_afterpulse_pass,
    "qkd_budget.mc_link_run": _on_mc_link_run,
    "cli.emit_table": _on_emit_table,
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def holdoff_probe(rec: SpanRecorder) -> float:
    """Re-apply each run's hold-off to its records; returns the seconds spent.

    The probe calls the unwrapped `apply_holdoff`, so call it after
    `uninstall`. It also checks the flags against the engine's own.
    """
    from sinegate.mc_engine import apply_holdoff

    elapsed = 0.0
    for records, holdoff_gates, anchor in rec.runs:
        t0 = time.perf_counter()
        again = apply_holdoff(records, holdoff_gates, anchor)
        elapsed += time.perf_counter() - t0
        if not (again["accepted"] == records["accepted"]).all():
            raise RuntimeError("apply_holdoff disagrees with the engine's hold-off flags")
    return elapsed


def layer_metrics(rec: SpanRecorder, holdoff_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced call, keyed by BENCHMARK.json names."""
    c = rec.counts.get
    emit_s = rec.total("cli.emit_table")
    return {
        "config.load_config.s": _ratio(rec.total("config.load_config"),
                                       rec.calls("config.load_config")),
        "signal_chain.verify_filter_contract.s": rec.total("signal_chain.verify_filter_contract"),
        "signal_chain.apply_filter.s": rec.total("signal_chain.apply_filter"),
        "signal_chain.apply_filter.calls": rec.calls("signal_chain.apply_filter"),
        "signal_chain.power_spectrum.s": rec.total("signal_chain.power_spectrum"),
        "mc_engine.gates": c("gates", 0),
        "mc_engine.records": c("records", 0),
        "mc_engine.afterpulses": c("afterpulses", 0),
        "mc_engine.accept_ratio": _ratio(c("accepted", 0), c("records", 0)),
        "mc_engine.run_simulation.s": rec.total("mc_engine.run_simulation"),
        "mc_engine.ns_per_gate": _ratio(rec.total("mc_engine.run_simulation"),
                                        c("gates", 0), 1e9),
        "mc_engine.us_per_avalanche": _ratio(rec.total("mc_engine.afterpulse_pass"),
                                             c("afterpulse_pass_avalanches", 0), 1e6),
        "mc_engine.apply_holdoff.s": holdoff_s,
        "mc_engine.tcspc_histogram.s": rec.total("mc_engine.tcspc_histogram"),
        "mc_engine.inter_detection_correlation.s":
            rec.total("mc_engine.inter_detection_correlation"),
        "qkd_budget.stability_run.s": rec.total("qkd_budget.stability_run"),
        "qkd_budget.mc_link_run.s": rec.total("qkd_budget.mc_link_run"),
        "qkd_budget.mc_link_run.self_s": rec.self_time("qkd_budget.mc_link_run"),
        "qkd_budget.window_ratio": _ratio(c("link_accepted_in_windows", 0),
                                          c("link_accepted_total", 0)),
        "cli.emit_table.s": emit_s,
        "cli.emit_table.rows": c("table_rows", 0),
        "cli.us_per_row": _ratio(emit_s, c("table_rows", 0), 1e6),
        "cli.emit_histogram.s": rec.total("cli.emit_histogram"),
        "cli.emit_waveform.s": rec.total("cli.emit_waveform"),
        "cli.handler.self_s": rec.self_time("cli.handler"),
    }
