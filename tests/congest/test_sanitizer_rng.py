"""The runtime sanitizer's ``ctx.rng`` clause under lazily derived streams.

A node's stream is derived on the first read of ``ctx.rng``, so a spurious
wake may be the activation that creates it. The sanitizer must not create
the stream itself, and must judge only draws: reading the stream (deriving
it included) passes, while drawing raises whether the stream was created
by this wake or by an earlier, real activation. Each case runs on both
degrade backends, ``dense`` and ``sharded``; there the node's own far-out
timer makes every empty-inbox wake before it fires a spurious one.
"""

import multiprocessing

import networkx as nx
import pytest

from repro.congest import NodeAlgorithm, SyncNetwork, engine
from repro.util.errors import CongestViolation

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = [
    ("dense", None),
    pytest.param(
        "sharded", 2,
        marks=pytest.mark.skipif(not HAVE_FORK, reason="sharded needs fork"),
    ),
]


class _Timer(NodeAlgorithm):
    """Arms one wake 5 rounds out; optionally draws in ``on_start`` (a real
    activation, outside the sanitizer's reach) to create its stream early."""

    def __init__(self, draw_at_start=False):
        self.draw_at_start = draw_at_start

    def on_start(self, ctx):
        if self.draw_at_start:
            ctx.rng.random()
        ctx.schedule_wake(5)
        return {}

    def on_round(self, ctx, inbox):
        return {}


class _ReadsRng(_Timer):
    def on_round(self, ctx, inbox):
        if not inbox:
            ctx.rng.getstate()
        return {}


class _DrawsRng(_Timer):
    def on_round(self, ctx, inbox):
        if not inbox:
            ctx.rng.random()
        return {}


def _run(algorithm, scheduler, workers):
    graph = nx.path_graph(2)
    network = SyncNetwork(
        graph, scheduler=scheduler, workers=workers, rng=1, sanitize=True
    )
    return network.run({0: _Timer(), 1: algorithm})


@pytest.mark.parametrize("scheduler, workers", BACKENDS)
class TestSpuriousWakeRng:
    @pytest.mark.parametrize("draw_at_start", [False, True])
    def test_reading_without_drawing_passes(self, scheduler, workers, draw_at_start):
        _, stats = _run(_ReadsRng(draw_at_start), scheduler, workers)
        assert stats.rounds == 5

    def test_first_ever_draw_raises(self, scheduler, workers):
        with pytest.raises(CongestViolation, match="drew from ctx.rng") as excinfo:
            _run(_DrawsRng(), scheduler, workers)
        # Caught at the first spurious wake, not at a later draw.
        assert "violation at node 1 (round 1)" in str(excinfo.value)

    def test_draw_on_a_stream_created_earlier_raises(self, scheduler, workers):
        with pytest.raises(CongestViolation, match="drew from ctx.rng") as excinfo:
            _run(_DrawsRng(draw_at_start=True), scheduler, workers)
        # Caught at the first spurious wake, not at a later draw.
        assert "violation at node 1 (round 1)" in str(excinfo.value)


def test_the_check_itself_derives_no_stream(monkeypatch):
    # Spurious wakes that never touch ctx.rng leave every stream underived:
    # the sanitizer inspects the stream only once the wake has created it.
    calls = []
    monkeypatch.setattr(
        engine, "derive_node_rng", lambda *pair: calls.append(pair)
    )
    _, stats = _run(_Timer(), "dense", None)
    assert stats.rounds == 5
    assert calls == []
