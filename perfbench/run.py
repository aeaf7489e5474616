#!/usr/bin/env python3
"""The repository benchmark: the paper's pipeline end to end, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload mst-centralized --seed 1 --seconds 25 --trace 0

A run is a closed loop with one client: it makes unit 0, 1, 2, ... of the
workload from ``--seed`` (see ``workloads.py``), clears the shortcut cache so
every query pays for construction, times the library call, and checks the
result against networkx. It stops once ``--seconds`` have passed and the
first ``SIM_UNITS`` units are done; those fix the exact ``sim_*`` totals.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every unit
twice on the same inputs, untraced and then under :class:`tracing.Tracer`,
and prints the per-layer metrics plus the tracing overhead. End-to-end
figures only ever come from untraced units. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).

Failures are never dropped: a unit that raises or fails its check, traced
results that differ from untraced ones, and ``sim_*`` totals that differ
between runs of the same seed and the same code all count in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Cross-run records of the exact sim totals, per code version and seed.
RECORD_DIR = ROOT / ".bench_build" / "perfbench"

SIM_UNITS = 32  # the first units of every run, whose sim totals are exact
SETUP_REPS = 5  # fresh-interpreter set-ups per run; setup_s is their median

# The benchmark shares its host, whose speed for one and the same work
# drifts by tens of percent within seconds. Fixed pure-Python reference
# work, timed between consecutive timed calls, measures the speed each call
# ran at, and every reported time is rescaled to the nominal speed at which
# the reference work takes REFERENCE_S seconds. The reference uses no
# library code, so a change to the program moves only the calls' times.
REFERENCE_S = 0.025


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _reference_work() -> int:
    """Two halves that a busy host slows by different amounts, bracketing
    the workloads: table and heap updates on a cache-resident working set,
    and a breadth-first search over a freshly built 6000-node random graph,
    which misses caches. Their sum slows down in step with the workloads."""
    table: dict[int, _Cell] = {}
    heap: list[tuple[int, int]] = []
    for i in range(20000):
        key = (i * 7919) % 1543
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, 0)
        cell.value += i & 15
        heapq.heappush(heap, (cell.value, key))
        if len(heap) > 64:
            heapq.heappop(heap)

    rng = random.Random(7)
    nodes = 6000
    adjacency: dict[int, list[int]] = {v: [] for v in range(nodes)}
    for v in range(nodes):
        for _ in range(2):
            w = rng.randrange(nodes)
            adjacency[v].append(w)
            adjacency[w].append(v)
    distance = {0: 0}
    frontier = [0]
    while frontier:
        following = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in distance:
                    distance[w] = distance[v] + 1
                    following.append(w)
        frontier = following
    return sum(value for value, _ in heap) + len(distance)


class HostSpeed:
    """Rescales host seconds to nominal seconds by timing the reference work."""

    def __init__(self):
        self._last = self._probe()

    @staticmethod
    def _probe() -> float:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start

    def nominal(self, seconds: float) -> float:
        """``seconds`` measured since the last probe, at nominal speed."""
        before, self._last = self._last, self._probe()
        return seconds * 2 * REFERENCE_S / (before + self._last)


def _import_path() -> None:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def _setup_probe(workload: str, seed: int) -> None:
    """Child mode: time the imports and unit 0's instance; print seconds."""
    start = time.perf_counter()
    _import_path()
    from workloads import WORKLOADS

    WORKLOADS[workload].make(seed, 0)
    print(repr(time.perf_counter() - start))


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times in fresh interpreters: ``(nominal, host seconds)``."""
    speed = HostSpeed()
    nominal, measured = [], []
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        measured.append(float(child.stdout.strip().splitlines()[-1]))
        nominal.append(speed.nominal(measured[-1]))
    return nominal, measured


class Tally:
    """Units attempted and failed; each failure's reason goes to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAIL {what}", file=sys.stderr)


def _timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def _attempt(workload, instance, measure, speed: HostSpeed, tally: Tally, label: str):
    """One checked unit: ``(result, nominal seconds, host seconds)``, or
    None when it failed."""
    from repro.core.providers import clear_shortcut_cache

    clear_shortcut_cache()
    tally.attempted += 1
    try:
        result, elapsed = measure(lambda: workload.run(instance))
    except Exception:
        traceback.print_exc()
        tally.fail(f"{label} raised")
        return None
    nominal = speed.nominal(elapsed)
    reason = workload.check(instance, result)
    if reason is not None:
        tally.fail(f"{label}: {reason}")
        return None
    return result, nominal, elapsed


def _code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_record(workload: str, seed: int, sims: list, tally: Tally) -> None:
    """Compare this run's exact sim totals with earlier runs of the same seed."""
    record = RECORD_DIR / f"sims-{workload}-{seed}-{_code_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != sims:
            tally.fail(f"sim totals {sims} differ from an earlier run's {earlier}")
        return
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(sims))


def _percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _measure(workload, seed: int, seconds: float, tracer, tally: Tally) -> dict:
    from workloads import sim_counts

    times: list[float] = []  # nominal seconds per untraced unit
    measured: list[float] = []  # the same units in host seconds
    traced_times: list[float] = []
    traced_measured: list[float] = []
    unit_sims: list = []
    sim_messages = 0
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < SIM_UNITS or time.perf_counter() < deadline:
        instance = workload.make(seed, index)
        plain = _attempt(workload, instance, _timed, speed, tally, f"unit {index}")
        sims = None
        if plain is not None:
            times.append(plain[1])
            measured.append(plain[2])
            sims = sim_counts(plain[0])
            sim_messages += sims[1]
        if index < SIM_UNITS:
            unit_sims.append(sims)
        if tracer is not None:
            traced = _attempt(
                workload, instance, tracer.unit, speed, tally, f"traced unit {index}"
            )
            if traced is not None:
                traced_times.append(traced[1])
                traced_measured.append(traced[2])
                if sims is not None and sim_counts(traced[0]) != sims:
                    tally.fail(f"traced unit {index} changed the sim counts")
        index += 1

    # Determinism: unit 0 again, in this process, and the totals across runs.
    again = _attempt(
        workload, workload.make(seed, 0), _timed, speed, tally, "unit 0 rerun"
    )
    first = unit_sims[0]
    if again is not None and first is not None and sim_counts(again[0]) != first:
        tally.fail(f"unit 0 rerun gave {sim_counts(again[0])}, first {first}")
    totals = [sum(s[k] for s in unit_sims if s is not None) for k in range(3)]
    if None not in unit_sims:
        _check_record(workload.name, seed, totals, tally)
    return {
        "times": times, "measured": measured, "traced_times": traced_times,
        "traced_measured": traced_measured, "totals": totals,
        "sim_messages": sim_messages,
    }


def _end_to_end(workload, run: dict, setup: tuple[list, list], tally: Tally) -> dict:
    times = run["times"]
    busy = sum(times)
    tail, beyond = _percentile(times, workload.tail_pct)
    print(f"# unit_s.tail is p{workload.tail_pct}: {beyond} of {len(times)} units beyond it")
    print(f"# fail_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} attempted)")
    rounds, messages, virtual_time = run["totals"]
    print(f"# sim_* are totals over units 0..{SIM_UNITS - 1}")
    print(f"# times are nominal; host seconds: unit_s.p50 "
          f"{statistics.median(run['measured']):.4f}, setup_s {statistics.median(setup[1]):.4f}")
    return {
        "unit_s.p50": (statistics.median(times), "s"),
        "unit_s.tail": (tail, "s"),
        "throughput": (len(times) / busy, "units/s"),
        "setup_s": (statistics.median(setup[0]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_msgs_per_s": (run["sim_messages"] / busy, "msgs/s"),
        "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "sim_rounds": (rounds, "rounds"),
        "sim_messages": (messages, "msgs"),
        "sim_virtual_time": (virtual_time, "ticks"),
    }


def _per_layer(run: dict, tracer, tally: Tally) -> dict:
    metrics = tracer.metrics(sum(run["traced_times"]) / sum(run["traced_measured"]))
    plain = statistics.median(run["times"])
    traced = statistics.median(run["traced_times"])
    accounted = tracer.accounted_ratio()
    if abs(accounted - 1.0) > 1e-6 or tracer.negative_self_times():
        tally.fail(f"layer self times account for {accounted:.9f} of unit time; "
                   f"negative: {tracer.negative_self_times()}")
    print("# self time per layer, share of traced unit time:")
    for layer, value in sorted(tracer.self_time.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:<24} {value / tracer.unit_time:7.2%}")
    print(f"# layer self times plus apps.self_s account for {accounted:.9f} of unit time")
    print(f"# tracing overhead: traced unit_s.p50 {traced:.4f} s vs untraced {plain:.4f} s")
    metrics["trace.unit_s.p50"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    _import_path()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    setup = None if tracer else _setup_seconds(args.workload, args.seed)
    tally = Tally()
    run = _measure(workload, args.seed, args.seconds, tracer, tally)
    if not run["times"] or (tracer and not run["traced_times"]):
        tally.fail("no unit completed")
        metrics = {}
    elif tracer is None:
        metrics = _end_to_end(workload, run, setup, tally)
    else:
        metrics = _per_layer(run, tracer, tally)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<17} {name:<38} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
