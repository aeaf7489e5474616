"""The per-node ``ctx.rng`` stream is derived on first read, not up front.

Every backend hands its contexts a deferred derivation of
``(run_seed, node_index)``. Covered here:

* a run in which no node reads ``ctx.rng`` derives no stream, on every
  in-process backend, the job layer and the vectorized tiers;
* a run in which only some nodes draw yields identical draws and results on
  every backend, and derives exactly once per drawing node;
* a context built with a ready generator hands back that very generator.
"""

import functools
import multiprocessing
import random

import networkx as nx
import pytest

from repro.congest import NodeAlgorithm, SyncNetwork
from repro.congest import asynchronous, engine, jobs, sharded, vectorized
from repro.congest.engine import NodeContext
from repro.congest.jobs import Job, JobScheduler
from repro.congest.primitives.bfs import BfsNode, distributed_bfs
from repro.util import rng as rng_module

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

# Every module that builds NodeContexts binds derive_node_rng by name.
_BINDINGS = (engine, asynchronous, jobs, sharded, vectorized)


@pytest.fixture
def derive_calls(monkeypatch):
    """Count in-process calls to ``derive_node_rng``, as ``(seed, index)``."""
    calls = []

    def counting(run_seed, node_index):
        calls.append((run_seed, node_index))
        return rng_module.derive_node_rng(run_seed, node_index)

    for module in _BINDINGS:
        monkeypatch.setattr(module, "derive_node_rng", counting)
    return calls


def _grid():
    return nx.convert_node_labels_to_integers(nx.grid_2d_graph(5, 4))


class TestNothingDrawsNothingDerived:
    @pytest.mark.parametrize("scheduler, latency_model", [
        ("event", None),
        ("dense", None),
        ("async", "seeded-jitter"),
    ])
    def test_bfs(self, derive_calls, scheduler, latency_model):
        distributed_bfs(
            _grid(), 0, rng=3, scheduler=scheduler, latency_model=latency_model
        )
        assert derive_calls == []

    def test_bfs_as_a_solo_job(self, derive_calls):
        graph = _grid()
        outcome = JobScheduler(graph).run(
            [Job("solo", {v: BfsNode(v, v == 0) for v in graph}, rng=3)]
        ).outcomes["solo"]
        assert outcome.status == "completed"
        assert derive_calls == []

    def test_bfs_vectorized(self, derive_calls):
        pytest.importorskip("numpy")
        _, stats = distributed_bfs(_grid(), 0, rng=3, scheduler="vectorized")
        assert stats.notes == ()  # the kernel ran, no event delegation
        assert derive_calls == []

    def test_vectorized_interpreted_tier(self, derive_calls):
        # The ack sweep's leaf tier runs columnar and the rest of the
        # population on the interpreted tier, which builds NodeContexts.
        pytest.importorskip("numpy")
        from repro.core.distributed import distributed_partial_shortcut
        from repro.graphs.generators import grid_graph
        from repro.graphs.partition import grid_rows_partition

        graph = grid_graph(5, 5)
        distributed_partial_shortcut(
            graph, grid_rows_partition(graph), delta=3.0, rng=7,
            scheduler="vectorized",
        )
        assert derive_calls == []


class _SomeDraw(NodeAlgorithm):
    """Node 0 floods one wave; only nodes with ``node % 3 == 0`` draw, once
    in ``on_start`` and once when the wave first reaches them."""

    def __init__(self, node):
        self.node = node
        self.draws = []
        self.reached = node == 0

    def on_start(self, ctx):
        if self.node % 3 == 0:
            self.draws.append(ctx.rng.randrange(2**30))
        if self.reached:
            return {neighbor: (1,) for neighbor in ctx.neighbors}
        return {}

    def on_round(self, ctx, inbox):
        if not inbox or self.reached:
            return {}
        self.reached = True
        if self.node % 3 == 0:
            self.draws.append(ctx.rng.randrange(2**30))
        return {neighbor: (1,) for neighbor in ctx.neighbors}

    def result(self):
        return tuple(self.draws)


class _UnclaimedKernel(vectorized.VectorKernel):
    """Claims no node, so the whole population runs on the interpreted
    tier of the vectorized backend instead of delegating to ``event``."""

    def claim(self, csr, members, algorithms):
        return members[:0]


class _SomeDrawVectorized(_SomeDraw):
    vector_kernel = _UnclaimedKernel


_IN_PROCESS = [
    ("event", None, _SomeDraw),
    ("dense", None, _SomeDraw),
    ("async", None, _SomeDraw),
    ("async", "seeded-jitter", _SomeDraw),
    ("vectorized", None, _SomeDrawVectorized),
]


def _run(scheduler, latency_model, algorithm, workers=None):
    graph = _grid()
    return SyncNetwork(
        graph, rng=9, scheduler=scheduler, workers=workers,
        latency_model=latency_model,
    ).run({v: algorithm(v) for v in graph})


class TestSomeNodesDraw:
    @pytest.mark.parametrize("scheduler, latency_model, algorithm", _IN_PROCESS)
    def test_identical_draws_and_one_derivation_per_drawer(
        self, derive_calls, scheduler, latency_model, algorithm
    ):
        if scheduler == "vectorized":
            pytest.importorskip("numpy")
        results, stats = _run(scheduler, latency_model, algorithm)
        reference, _ = _run("dense", None, _SomeDraw)
        assert results == reference
        assert stats.notes == ()
        drawers = sorted(v for v in results if v % 3 == 0)
        assert all(len(results[v]) == (1 if v == 0 else 2) for v in drawers)
        assert all(results[v] == () for v in results if v % 3)
        derived = [index for _, index in derive_calls]
        # Each run (this one, then the dense reference) derives once per
        # drawing node; node ids equal their indices on the relabeled grid.
        assert derived == drawers + drawers

    def test_solo_job_matches(self, derive_calls):
        graph = _grid()
        outcome = JobScheduler(graph).run(
            [Job("solo", {v: _SomeDraw(v) for v in graph}, rng=9)]
        ).outcomes["solo"]
        reference, _ = _run("event", None, _SomeDraw)
        assert outcome.results == reference
        drawers = sorted(v for v in graph if v % 3 == 0)
        assert [index for _, index in derive_calls] == drawers + drawers

    @pytest.mark.skipif(not HAVE_FORK, reason="sharded needs fork")
    def test_sharded_matches(self):
        results, _ = _run("sharded", None, _SomeDraw, workers=2)
        assert results == _run("dense", None, _SomeDraw)[0]

    def test_draws_are_the_derived_streams(self):
        graph = _grid()
        run_seed = random.Random(9).randrange(2**62)
        results, _ = SyncNetwork(graph, rng=9).run({v: _SomeDraw(v) for v in graph})
        for v, draws in results.items():
            if draws:
                stream = rng_module.derive_node_rng(run_seed, v)
                assert draws == tuple(stream.randrange(2**30) for _ in draws)


class TestReadyGenerator:
    def test_given_generator_is_returned_as_is(self):
        generator = random.Random(0)
        ctx = NodeContext(1, (0,), 2, generator)
        assert ctx.rng is generator

    def test_deferred_stream_is_derived_once_and_kept(self):
        calls = []

        def derive():
            calls.append(1)
            return random.Random(5)

        ctx = NodeContext(1, (0,), 2, derive)
        first = ctx.rng
        assert ctx.rng is first
        assert calls == [1]

    def test_rng_is_read_only(self):
        ctx = NodeContext(1, (0,), 2, functools.partial(random.Random, 0))
        with pytest.raises(AttributeError):
            ctx.rng = random.Random(1)
