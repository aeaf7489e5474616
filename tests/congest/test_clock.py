"""The virtual clock needs no event loop.

The ``async`` backend and the job layer run on
:class:`repro.congest.clock.VirtualClock`, a plain tick heap: with
asyncio's loop constructors patched to raise, a latency-model run and a
contended job-server drain still finish, with the same results and
``RoundStats`` as an unpatched run.
"""

import asyncio

import networkx as nx

from repro.apps.sssp import sssp_job
from repro.congest.primitives.bfs import distributed_bfs
from repro.serve import JobServer


def _grid(side=6):
    return nx.convert_node_labels_to_integers(
        nx.grid_2d_graph(side, side), ordering="sorted"
    )


def _jitter_bfs(graph):
    tree, stats = distributed_bfs(
        graph, 0, rng=7, scheduler="async", latency_model="seeded-jitter"
    )
    return {v: tree.parent_of(v) for v in graph}, stats


def _contended_drain(graph):
    server = JobServer(
        graph, scheduler="async", latency_model="contention:1.0", max_inflight=2
    )
    for k, source in enumerate((0, 7, 20, 35)):
        server.submit(sssp_job(graph, source, rng=k, job_id=f"tenant-{k}"))
    result = server.drain()
    outcomes = {
        job_id: (o.results, o.stats, o.admitted_tick, o.completed_tick, o.status)
        for job_id, o in result.outcomes.items()
    }
    return outcomes, result.stats


def test_async_and_job_layer_run_without_an_event_loop(monkeypatch):
    graph = _grid()
    expected_bfs = _jitter_bfs(graph)
    expected_drain = _contended_drain(graph)

    def no_event_loop(*args, **kwargs):
        raise AssertionError("the virtual clock must not start an asyncio loop")

    monkeypatch.setattr(asyncio, "new_event_loop", no_event_loop)
    monkeypatch.setattr(asyncio, "run", no_event_loop)

    assert _jitter_bfs(graph) == expected_bfs
    assert _contended_drain(graph) == expected_drain
