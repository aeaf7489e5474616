"""``LatencyModel.link_view``: the one per-run view every engine prices
sends through.

``uniform`` has no view, a static model a :class:`LatencyTable` frozen from
the run seed, a load-dependent model a fresh :class:`LinkSchedule`. The
seed is a callable so a caller can draw it from a shared generator: only a
static, non-uniform model calls it, and only once.
"""

import json

import pytest

from repro.congest.asynchronous import (
    ContentionLatency,
    LatencyTable,
    LinkSchedule,
    SeededJitterLatency,
    TraceDrivenLatency,
    UniformLatency,
)
from repro.graphs.generators import grid_graph


class _Seed:
    """A seed callable that counts its calls."""

    def __init__(self, value: int):
        self.value = value
        self.calls = 0

    def __call__(self) -> int:
        self.calls += 1
        return self.value


@pytest.fixture
def graph():
    return grid_graph(4, 4)


def test_uniform_has_no_view_and_draws_no_seed(graph):
    seed = _Seed(5)
    assert UniformLatency().link_view(graph, seed) is None
    assert seed.calls == 0


def test_static_view_is_the_seeded_table(graph):
    model = SeededJitterLatency(spread=6)
    seed = _Seed(11)
    view = model.link_view(graph, seed)
    assert seed.calls == 1
    assert isinstance(view, LatencyTable)
    table = model.build(graph, 11)
    for u, v in graph.edges():
        for a, b in ((u, v), (v, u)):
            assert view.transit(a, b, 0) == table[(a, b)]
            assert view.transit(a, b, 97) == table[(a, b)]
    assert view.worst_transit(0) == view.worst_transit(50) == max(table.values())


def test_load_dependent_view_is_a_fresh_schedule(graph):
    model = ContentionLatency(weight=1.0)
    seed = _Seed(3)
    first = model.link_view(graph, seed)
    second = model.link_view(graph, seed)
    assert seed.calls == 0
    assert isinstance(first, LinkSchedule) and isinstance(second, LinkSchedule)
    assert first is not second
    assert first.transit(0, 1, 0) == 1
    assert first.transit(1, 0, 0) == 2
    # The second view has its own in-flight counts: the link is idle there.
    assert second.load(0, 1, 0) == 0
    assert second.transit(0, 1, 0) == 1


def test_load_dependent_worst_transit_passes_through(graph):
    model = ContentionLatency(base=2, weight=0.5)
    view = model.link_view(graph, _Seed(0))
    for max_load in (0, 1, 4, 9):
        assert view.worst_transit(max_load) == model.worst_transit(max_load)


def test_trace_driven_links_stay_the_trace_dict(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"default": [1, 2], "links": {"0-1": [3, 4]}}))
    model = TraceDrivenLatency(path)
    assert model.links == {"0-1": [3, 4]}
    view = model.link_view(grid_graph(2, 2), _Seed(0))
    assert view.transit(0, 1, 1) == 4
    assert view.transit(2, 3, 1) == 2
