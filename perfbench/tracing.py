"""Per-layer spans and counters, recorded from outside the library.

:class:`Tracer` replaces each layer's public entry points with timing
wrappers while it is installed and puts the originals back when it is
removed, so untraced units run the library exactly as shipped. A function
that other modules imported by name is wrapped at each importer's binding,
which is the one the call resolves.

Spans nest on one stack: a span's *self* time is its duration minus the
spans that ran inside it, and the unit's root span (the app driver and its
glue, ``apps``) gets the rest. Self times therefore add up to the unit time,
which :meth:`Tracer.accounted_ratio` checks; :meth:`Tracer.metrics` reports
every layer's inclusive time, counts and per-call costs.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from collections.abc import Callable

__all__ = ["Tracer"]

# (layer, module, attribute path, counter hook). One row per binding: every
# importer of a wrapped function appears, so whichever binding a call
# resolves through is timed. A hook names the ``_on_<hook>`` method that
# counts the layer's work from the call's arguments and result; "grants"
# instead counts the grant callbacks EdgeArbiter.resolve makes.
_ENTRY_POINTS = (
    ("core.providers", "repro.apps.mst", "build_shortcut", "build"),
    ("core.providers", "repro.apps.connectivity", "build_shortcut", "build"),
    ("core.providers", "repro.apps.partwise", "build_shortcut", "build"),
    ("core.providers", "repro.serve", "build_shortcut", "build"),
    ("core.providers", "repro.core.providers", "build_shortcut", "build"),
    ("sched.partwise", "repro.sched.partwise", "partwise_aggregate", "aggregate"),
    ("sched.partwise", "repro.apps.mst", "partwise_aggregate", "aggregate"),
    ("sched.partwise", "repro.apps.connectivity", "partwise_aggregate", "aggregate"),
    ("sched.partwise", "repro.apps.partwise", "partwise_aggregate", "aggregate"),
    ("congest.network", "repro.congest.network", "SyncNetwork.run", "network_run"),
    ("congest.engine", "repro.congest.engine", "MessageFabric.deliver", "deliver"),
    ("congest.engine", "repro.congest.engine", "MessageFabric.deliver_timed",
     "deliver_timed"),
    ("util.bitsize", "repro.congest.engine", "payload_bits", None),
    ("util.bitsize", "repro.sched.partwise", "payload_bits", None),
    ("util.rng", "repro.congest.engine", "derive_node_rng", None),
    ("util.rng", "repro.congest.asynchronous", "derive_node_rng", None),
    ("util.rng", "repro.congest.jobs", "derive_node_rng", None),
    ("congest.jobs", "repro.congest.jobs", "JobScheduler.run", "jobs_run"),
    ("congest.jobs.arbiter", "repro.congest.jobs", "EdgeArbiter.resolve", "grants"),
    ("congest.asynchronous", "repro.congest.asynchronous", "LinkSchedule.transit",
     None),
)


class Tracer:
    """Spans and counters per layer, summed over many traced units."""

    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.queue_waits: list[int] = []
        self.job_ticks: list[int] = []
        self.units = 0
        self.unit_time = 0.0
        self._stack: list[float] = []  # child time accumulated per open span
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point."""
        for layer, module_name, path, hook in _ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original, hook))

    def restore(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # --- spans -------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, hook: str | None) -> Callable:
        on_call = getattr(self, f"_on_{hook}", None)
        stack, depth = self._stack, self._depth
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            depth[layer] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                depth[layer] -= 1
                if depth[layer] == 0:
                    inclusive[layer] += elapsed
                self_time[layer] += elapsed - children
                stack[-1] += elapsed
                calls[layer] += 1
            if on_call is not None:
                on_call(args, result)
            return result

        return self._count_grants(traced) if hook == "grants" else traced

    def _count_grants(self, resolve: Callable) -> Callable:
        """``EdgeArbiter.resolve`` with its grant callback counted."""
        counts = self.counts

        def counted_resolve(arbiter, now, grant):
            def counted_grant(*args):
                counts["grants"] += 1
                return grant(*args)

            return resolve(arbiter, now, counted_grant)

        return counted_resolve

    def unit(self, fn: Callable[[], object]) -> tuple[object, float]:
        """Run one unit traced, as the root span; return ``(result, seconds)``.

        The wrappers are installed for exactly the duration of the unit.
        """
        if self._stack:
            raise RuntimeError("a traced unit cannot nest inside another")
        self.install()
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            children = self._stack.pop()
            self.restore()
            self.self_time["apps"] += elapsed - children
        self.units += 1
        self.unit_time += elapsed
        return result, elapsed

    # --- counter hooks (args, result) ----------------------------------------

    def _on_build(self, args, outcome) -> None:
        self.counts["parts"] += len(args[0].partition)

    def _on_aggregate(self, args, result) -> None:
        self.counts["packets"] += result.stats.messages

    def _on_network_run(self, args, result) -> None:
        self.counts["activations"] += result[1].activations

    def _on_deliver(self, args, result) -> None:
        self.counts["messages"] += len(args[2])  # (fabric, sender, outbox, ...)

    def _on_deliver_timed(self, args, result) -> None:
        self.counts["messages"] += len(args[3])  # (..., sender_index, outbox, ...)

    def _on_jobs_run(self, args, result) -> None:
        self.counts["stalls"] += result.stats.arbitration_stalls
        for outcome in result.outcomes.values():
            self.queue_waits.append(outcome.admitted_tick)
            self.job_ticks.append(outcome.completed_tick - outcome.admitted_tick)

    # --- report --------------------------------------------------------------

    def metrics(self, speed: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each ``name -> (value, unit)``, per traced unit.

        Times are multiplied by ``speed``, the caller's host-to-nominal
        time ratio over the traced units.
        """
        units = max(self.units, 1)
        calls, counts = self.calls, self.counts
        inclusive = {layer: value * speed for layer, value in self.inclusive.items()}
        inclusive = defaultdict(float, inclusive)

        def per_unit(value: float) -> float:
            return value / units

        def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
            return scale * numerator / denominator if denominator else 0.0

        arbiter_s = inclusive["congest.jobs.arbiter"]
        messages = counts["messages"]
        return {
            "apps.self_s": (per_unit(self.self_time["apps"] * speed), "s"),
            "core.providers.build_s": (per_unit(inclusive["core.providers"]), "s"),
            "core.providers.builds": (per_unit(calls["core.providers"]), "count"),
            "core.providers.ms_per_part": (
                ratio(inclusive["core.providers"], counts["parts"], 1e3), "ms"),
            "sched.partwise.aggregate_s": (per_unit(inclusive["sched.partwise"]), "s"),
            "sched.partwise.packets": (per_unit(counts["packets"]), "count"),
            "sched.partwise.ns_per_packet": (
                ratio(inclusive["sched.partwise"], counts["packets"], 1e9), "ns"),
            "congest.network.run_s": (per_unit(inclusive["congest.network"]), "s"),
            "congest.network.runs": (per_unit(calls["congest.network"]), "count"),
            "congest.network.activations": (per_unit(counts["activations"]), "count"),
            "congest.network.ns_per_activation": (
                ratio(inclusive["congest.network"], counts["activations"], 1e9), "ns"),
            "congest.engine.fabric_s": (per_unit(inclusive["congest.engine"]), "s"),
            "congest.engine.messages": (per_unit(messages), "count"),
            "congest.engine.ns_per_message": (
                ratio(inclusive["congest.engine"], messages, 1e9), "ns"),
            "util.bitsize.calls": (per_unit(calls["util.bitsize"]), "count"),
            "util.bitsize.s": (per_unit(inclusive["util.bitsize"]), "s"),
            "util.bitsize.calls_per_message": (
                ratio(calls["util.bitsize"], messages + counts["packets"]), "ratio"),
            "util.rng.derive_calls": (per_unit(calls["util.rng"]), "count"),
            "util.rng.derive_s": (per_unit(inclusive["util.rng"]), "s"),
            "congest.jobs.run_s": (per_unit(inclusive["congest.jobs"]), "s"),
            "congest.jobs.arbiter_s": (per_unit(arbiter_s), "s"),
            "congest.jobs.grants": (per_unit(counts["grants"]), "count"),
            "congest.jobs.ns_per_grant": (ratio(arbiter_s, counts["grants"], 1e9), "ns"),
            "congest.jobs.stalls": (per_unit(counts["stalls"]), "count"),
            "congest.jobs.queue_wait_ticks.p50": (_median(self.queue_waits), "ticks"),
            "congest.jobs.job_ticks.p50": (_median(self.job_ticks), "ticks"),
            "congest.asynchronous.transit_calls": (
                per_unit(calls["congest.asynchronous"]), "count"),
            "congest.asynchronous.transit_s": (
                per_unit(inclusive["congest.asynchronous"]), "s"),
        }

    def accounted_ratio(self) -> float:
        """Self times of every span, the root's included, over unit time."""
        if not self.unit_time:
            return 0.0
        return sum(self.self_time.values()) / self.unit_time

    def negative_self_times(self) -> list[str]:
        """Layers whose self time came out negative: spans that did not nest."""
        return sorted(layer for layer, value in self.self_time.items() if value < -1e-9)


def _median(values: list[int]) -> float:
    return float(statistics.median(values)) if values else 0.0
