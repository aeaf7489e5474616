"""The benchmark's workloads: instances, one unit each, and its check.

A *unit* is one query through the library's public API on an instance made
from ``(workload, seed, unit index)`` alone, so the same seed replays the
same inputs and the program under test sees only the generated graph,
weights and sources. Sizes are chosen so one unit takes a few hundred
milliseconds on a 2-core host: long enough to be timed, short enough that a
run holds the dozens of units its median and tail need.

Every unit is checked against an independent networkx computation; a unit
that raises or fails its check counts as failed, never as noise.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable
from dataclasses import dataclass

import networkx as nx

from repro.apps import distributed_mincut, distributed_mst, sssp_job
from repro.apps.mst import assign_random_weights
from repro.graphs.generators import grid_graph
from repro.graphs.generators.planar import delaunay_graph
from repro.serve import JobServer

__all__ = ["Workload", "WORKLOADS", "sim_counts", "unit_seed"]


def unit_seed(workload: str, seed: int, index: int) -> int:
    """The seed of unit ``index``: a hash of the workload, run seed and index."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``BENCHMARK.json`` and ``--workload`` use.
        tail_pct: the percentile ``unit_s.tail`` reports — the highest one
            with at least ten units beyond it in a run of the committed
            length at the commit that fixed it.
        make: ``(seed, index) -> instance``.
        run: ``instance -> result`` — the timed call into the library.
        check: ``(instance, result) -> reason or None``.
    """

    name: str
    tail_pct: int
    make: Callable[[int, int], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], str | None]


def sim_counts(result) -> tuple[int, int, int]:
    """A unit's exact ``(rounds, messages, virtual time)`` from its RoundStats.

    Lockstep executions run every edge at unit latency, where virtual time
    equals the round count (the RoundStats convention); they leave the
    field at 0, so the rounds stand in for it.
    """
    stats = result.stats
    return stats.rounds, stats.messages, stats.virtual_time or stats.rounds


# --- MST (Corollary 1.6) -----------------------------------------------------


def _mst_instance(name: str, side: int) -> Callable[[int, int], dict]:
    def make(seed: int, index: int) -> dict:
        rng = unit_seed(name, seed, index)
        graph = grid_graph(side, side)
        return {"graph": graph, "weights": assign_random_weights(graph, rng), "rng": rng}

    return make


def _mst_run(provider: str) -> Callable[[dict], object]:
    def run(instance: dict):
        return distributed_mst(
            instance["graph"], instance["weights"], provider=provider,
            rng=instance["rng"],
        )

    return run


def _mst_check(instance: dict, result) -> str | None:
    graph = instance["graph"]
    reference = nx.Graph()
    reference.add_weighted_edges_from(
        (u, v, weight) for (u, v), weight in instance["weights"].items()
    )
    expected = int(nx.minimum_spanning_tree(reference).size(weight="weight"))
    if result.weight != expected:
        return f"MST weight {result.weight} != networkx {expected}"
    if len(result.edges) != graph.number_of_nodes() - 1:
        return f"MST has {len(result.edges)} edges for {graph.number_of_nodes()} nodes"
    return None


# --- Multi-tenant SSSP on the job service -----------------------------------

_SERVE_SIDE = 20
_SERVE_TENANTS = 8


def _serve_make(seed: int, index: int) -> dict:
    rng = random.Random(unit_seed("serve-contention", seed, index))
    graph = grid_graph(_SERVE_SIDE, _SERVE_SIDE)
    sources = rng.sample(sorted(graph.nodes()), _SERVE_TENANTS)
    return {
        "graph": graph,
        "tenants": [(f"tenant-{k}", source, rng.randrange(2**31))
                    for k, source in enumerate(sources)],
    }


def _serve_run(instance: dict):
    graph = instance["graph"]
    server = JobServer(
        graph, scheduler="async", latency_model="contention:1.0", max_inflight=4
    )
    for job_id, source, rng in instance["tenants"]:
        server.submit(sssp_job(graph, source, rng=rng, job_id=job_id))
    return server.drain()


def _serve_check(instance: dict, result) -> str | None:
    graph = instance["graph"]
    for job_id, source, _ in instance["tenants"]:
        outcome = result.outcomes.get(job_id)
        if outcome is None or outcome.status != "completed":
            return f"{job_id} did not complete"
        expected = nx.single_source_shortest_path_length(graph, source)
        if outcome.results != expected:
            return f"{job_id}: distances from {source} differ from networkx"
    return None


# --- Min cut (Corollary 1.7) --------------------------------------------------

_MINCUT_POINTS = 48
# A fixed packing size: the library default scales with the minimum degree,
# which splits Delaunay instances into two clusters of unit times.
_MINCUT_TREES = 4


def _mincut_make(seed: int, index: int) -> dict:
    rng = unit_seed("mincut-jitter", seed, index)
    return {"graph": delaunay_graph(_MINCUT_POINTS, rng), "rng": rng}


def _mincut_run(instance: dict):
    return distributed_mincut(
        instance["graph"], provider="theorem31-simulated", scheduler="async",
        latency_model="seeded-jitter", rng=instance["rng"], num_trees=_MINCUT_TREES,
    )


def _mincut_check(instance: dict, result) -> str | None:
    graph = instance["graph"]
    expected = nx.edge_connectivity(graph)
    if result.value != expected:
        return f"min cut {result.value} != edge connectivity {expected}"
    crossing = nx.cut_size(graph, result.side)
    if crossing != result.value:
        return f"reported side crosses {crossing} edges, not {result.value}"
    return None


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "mst-centralized", 75, _mst_instance("mst-centralized", 28),
            _mst_run("theorem31-centralized"), _mst_check,
        ),
        Workload(
            "mst-simulated", 75, _mst_instance("mst-simulated", 20),
            _mst_run("theorem31-simulated"), _mst_check,
        ),
        Workload("serve-contention", 85, _serve_make, _serve_run, _serve_check),
        Workload("mincut-jitter", 85, _mincut_make, _mincut_run, _mincut_check),
    )
}
