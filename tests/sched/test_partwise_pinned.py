"""The packet scheduler's exact output, pinned on one instance.

The other tests of :func:`repro.sched.partwise.partwise_aggregate` check
its aggregates and its bounds, which any fair per-edge queue order meets.
This module pins what the FIFO schedule itself produces: completion
rounds, round and message counts, and the per-round and per-edge message
counts, with no latency model, a static one and a load-dependent one. A
change to the queue order, the delivery tick or the rng stream moves at
least one of them.

The two per-round and per-edge dicts are pinned by the SHA-256 of
``repr(sorted(d.items()))``; every other field is pinned literally.
"""

import hashlib

import pytest

from repro.core.providers import ShortcutRequest, build_shortcut
from repro.graphs.generators import grid_graph
from repro.graphs.partition import grid_rows_partition
from repro.sched import partwise_aggregate

# Every part is one grid row, whose minimum is its first node, 10 * part.
# The order is the order in which the part roots finished the convergecast.
_LOCKSTEP_VALUES = [
    (0, 0), (2, 20), (5, 50), (6, 60), (3, 30),
    (1, 10), (4, 40), (8, 80), (7, 70), (9, 90),
]
_LOCKSTEP_COMPLETION = [
    (0, 21), (2, 24), (3, 29), (1, 30), (5, 31),
    (6, 32), (4, 33), (8, 38), (7, 40), (9, 46),
]
_EDGE_MESSAGES = "ac3a335337be72b3879d374a7db5c57101b66a8c65055cf62767ec952c74cc6e"

PINNED = {
    None: {
        "values": _LOCKSTEP_VALUES,
        "completion_rounds": _LOCKSTEP_COMPLETION,
        "rounds": 46,
        "virtual_time": 0,
        "messages_by_round": (
            "eed95b52828975156e275abd36fd208e2dce3d4c6eceb0df7034424da6fff645"
        ),
    },
    "seeded-jitter": {
        "values": [
            (0, 0), (1, 10), (2, 20), (3, 30), (6, 60),
            (4, 40), (5, 50), (8, 80), (7, 70), (9, 90),
        ],
        "completion_rounds": [
            (0, 69), (1, 83), (2, 99), (6, 108), (3, 112),
            (4, 132), (5, 139), (8, 148), (7, 151), (9, 161),
        ],
        "rounds": 161,
        "virtual_time": 161,
        "messages_by_round": (
            "c2b890a8d782590114d7c7a4b2b3a1f884711828b09f41d71bd09e77a4d3fcb6"
        ),
    },
    "contention:1.0": {
        "values": _LOCKSTEP_VALUES,
        "completion_rounds": _LOCKSTEP_COMPLETION,
        "rounds": 46,
        "virtual_time": 46,
        "messages_by_round": (
            "bb66667deb0b8657e6a62f9c1ceebc3ee78ea68ba80c6df164265e3a55167615"
        ),
    },
}


@pytest.fixture(scope="module")
def instance():
    graph = grid_graph(10, 10)
    partition = grid_rows_partition(graph)
    shortcut = build_shortcut(ShortcutRequest(graph, partition, delta=3.0)).shortcut
    return graph, partition, shortcut


def _digest(counts: dict) -> str:
    return hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()


@pytest.mark.parametrize("model", list(PINNED))
def test_exact_output(instance, model):
    graph, partition, shortcut = instance
    result = partwise_aggregate(
        graph, partition, shortcut, {v: v for v in graph.nodes()}, min,
        rng=3, latency_model=model,
    )
    pinned = PINNED[model]
    stats = result.stats
    # Both dicts fill as the run goes, so their item order is pinned too.
    assert list(result.values.items()) == pinned["values"]
    assert list(result.completion_rounds.items()) == pinned["completion_rounds"]
    assert stats.rounds == pinned["rounds"]
    assert stats.virtual_time == pinned["virtual_time"]
    assert stats.messages == 1080
    assert stats.message_bits == 9854
    assert _digest(stats.messages_by_round) == pinned["messages_by_round"]
    assert _digest(stats.edge_messages) == _EDGE_MESSAGES
