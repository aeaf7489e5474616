"""Differential oracle for the packet scheduler.

:func:`repro.sched.partwise.partwise_aggregate` runs on dense per-plan
arrays and visits only the edges with a queued packet. The reference below
is the scheduler as it was before that rewrite, kept verbatim: per-part
``nx.Graph`` planning, a dict of per-edge queues scanned in full every
tick, and every packet sized at send time. The property test compares the
two on generated instances across the whole output: values, completion
rounds, incomplete parts, the planned load and depth, every
:class:`RoundStats` field with dict order included, and the rng state
after the call.
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.asynchronous import resolve_latency_model
from repro.congest.stats import RoundStats
from repro.core.full import build_full_shortcut
from repro.core.shortcut import Shortcut
from repro.graphs.generators import grid_graph
from repro.graphs.generators.planar import delaunay_graph
from repro.graphs.partition import Partition, grid_rows_partition, voronoi_partition
from repro.graphs.trees import bfs_tree
from repro.sched.partwise import partwise_aggregate
from repro.util.bitsize import payload_bits
from repro.util.errors import ShortcutError
from repro.util.rng import ensure_rng

# --- the reference scheduler (verbatim, apart from the names) --------------


def _reference_augmented_subgraph(shortcut: Shortcut, index: int) -> nx.Graph:
    part = shortcut.partition[index]
    augmented = nx.Graph()
    augmented.add_nodes_from(part)
    for u in part:
        for v in shortcut.graph.neighbors(u):
            if v in part:
                augmented.add_edge(u, v)
    for u, v in shortcut.subgraphs[index]:
        augmented.add_edge(u, v)
    return augmented


@dataclass
class _ReferencePlan:
    index: int
    root: int
    parent: dict[int, int | None]
    children: dict[int, list[int]] = field(default_factory=dict)
    depth: int = 0


def _reference_plan_routing_trees(
    graph: nx.Graph,
    partition: Partition,
    shortcut: Shortcut,
) -> list[_ReferencePlan]:
    plans: list[_ReferencePlan] = []
    for index in range(len(partition)):
        communication = _reference_augmented_subgraph(shortcut, index)
        root = partition.leader_of(index)
        parent: dict[int, int | None] = {root: None}
        order = [root]
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor in communication.neighbors(node):
                if neighbor not in parent:
                    parent[neighbor] = node
                    order.append(neighbor)
                    queue.append(neighbor)
        if len(parent) != communication.number_of_nodes():
            raise ShortcutError(
                f"part {index}: G[P_i] + H_i is disconnected; cannot aggregate"
            )
        children: dict[int, list[int]] = {node: [] for node in parent}
        depth_of: dict[int, int] = {root: 0}
        depth = 0
        for node in order[1:]:
            par = parent[node]
            children[par].append(node)
            depth_of[node] = depth_of[par] + 1
            depth = max(depth, depth_of[node])
        plans.append(_ReferencePlan(index, root, parent, children, depth))
    return plans


def _reference_partwise_aggregate(
    graph: nx.Graph,
    partition: Partition,
    shortcut: Shortcut,
    values: dict[int, object],
    combine: Callable[[object, object], object],
    rng: int | random.Random | None = None,
    delay_mode: str = "random",
    max_rounds: int | None = None,
    latency_model: object = None,
):
    rng = ensure_rng(rng)
    links = resolve_latency_model(latency_model, ShortcutError).link_view(
        graph, lambda: rng.randrange(2**62)
    )
    plans = _reference_plan_routing_trees(graph, partition, shortcut)

    load: dict[tuple[int, int], int] = {}
    for plan in plans:
        for node, par in plan.parent.items():
            if par is None:
                continue
            load[(node, par)] = load.get((node, par), 0) + 1
            load[(par, node)] = load.get((par, node), 0) + 1
    max_load = max(load.values(), default=0)
    max_depth = max((plan.depth for plan in plans), default=0)

    delays = _reference_make_delays(len(plans), max_load, max_depth, delay_mode, rng)
    n = max(graph.number_of_nodes(), 2)
    if max_rounds is None:
        max_rounds = int(
            8 * (max_load + (max_depth + 1) * (2 + math.log2(n))) + max(delays, default=0) + 64
        )
        if links is not None:
            max_rounds *= max(1, links.worst_transit(2 * max_load))

    pending: list[dict[int, int]] = []
    accumulator: list[dict[int, object]] = []
    for plan in plans:
        pending.append({node: len(kids) for node, kids in plan.children.items()})
        acc: dict[int, object] = {}
        part_nodes = partition[plan.index]
        for node in plan.parent:
            acc[node] = values.get(node) if node in part_nodes else None
        accumulator.append(acc)

    queues: dict[tuple[int, int], deque] = {}

    def enqueue(source: int, target: int, packet: tuple) -> None:
        queues.setdefault((source, target), deque()).append(packet)

    def merge(part: int, node: int, value: object) -> None:
        current = accumulator[part][node]
        if value is None:
            return
        accumulator[part][node] = value if current is None else combine(current, value)

    start_schedule: dict[int, list[tuple[int, int]]] = {}
    for plan in plans:
        for node, kids in plan.children.items():
            if not kids and plan.parent[node] is not None:
                start_schedule.setdefault(delays[plan.index], []).append(
                    (plan.index, node)
                )

    finished_nodes: list[int] = [0] * len(plans)
    results: dict[int, object] = {}
    completion: dict[int, int] = {}
    stats = RoundStats()

    def finish_check(part: int, current_round: int) -> None:
        plan = plans[part]
        if finished_nodes[part] == len(plan.parent) and part not in completion:
            completion[part] = current_round

    for plan in plans:
        if len(plan.parent) == 1:
            results[plan.index] = accumulator[plan.index][plan.root]
            finished_nodes[plan.index] = 1
            completion[plan.index] = delays[plan.index]

    in_flight: dict[int, list] = {}
    current_round = 0
    while len(completion) < len(plans) and current_round < max_rounds:
        for part, node in start_schedule.get(current_round, ()):
            plan = plans[part]
            enqueue(node, plan.parent[node], ("up", part, accumulator[part][node]))
        current_round += 1
        for edge, queue in queues.items():
            if not queue:
                continue
            packet = queue.popleft()
            send_tick = current_round - 1
            stats.record_message(edge[0], edge[1], _reference_packet_bits(packet), send_tick)
            arrive = send_tick + (
                links.transit(edge[0], edge[1], send_tick) if links is not None else 1
            )
            in_flight.setdefault(arrive, []).append((edge, packet))
        for (source, target), packet in in_flight.pop(current_round, ()):
            kind, part, value = packet
            plan = plans[part]
            if kind == "up":
                merge(part, target, value)
                pending[part][target] -= 1
                if pending[part][target] == 0:
                    parent = plan.parent[target]
                    if parent is None:
                        results[part] = accumulator[part][target]
                        finished_nodes[part] += 1
                        for child in plan.children[target]:
                            enqueue(target, child, ("down", part, results[part]))
                        finish_check(part, current_round)
                    else:
                        enqueue(target, parent, ("up", part, accumulator[part][target]))
            else:
                finished_nodes[part] += 1
                for child in plan.children[target]:
                    enqueue(target, child, ("down", part, value))
                finish_check(part, current_round)
    stats.rounds = max(completion.values(), default=0) if len(completion) == len(
        plans
    ) else current_round
    if links is not None:
        stats.virtual_time = stats.rounds
    incomplete = tuple(
        plan.index for plan in plans if plan.index not in completion
    )
    return results, completion, incomplete, stats, max_load, max_depth


def _reference_make_delays(
    num_parts: int,
    max_load: int,
    max_depth: int,
    delay_mode: str,
    rng: random.Random,
) -> list[int]:
    if delay_mode == "zero":
        return [0] * num_parts
    if delay_mode == "random":
        spread = max(1, max_load)
        return [rng.randrange(spread) for _ in range(num_parts)]
    if delay_mode == "sequential":
        window = 2 * (max_depth + 1)
        return [i * window for i in range(num_parts)]
    raise ShortcutError(f"unknown delay_mode {delay_mode!r}")


def _reference_packet_bits(packet: tuple) -> int:
    kind, part, value = packet
    try:
        return 2 + payload_bits(part) + payload_bits(value)
    except TypeError:
        return 64


# --- the projection both schedulers are compared on ------------------------


def _stats_projection(stats: RoundStats) -> dict:
    """Every field, with dicts as item lists so their order counts."""
    projected = {}
    for spec in fields(stats):
        value = getattr(stats, spec.name)
        projected[spec.name] = list(value.items()) if isinstance(value, dict) else value
    return projected


def _projection(result: tuple, rng: random.Random) -> dict:
    values, completion, incomplete, stats, max_load, max_depth = result
    return {
        "values": list(values.items()),
        "completion_rounds": list(completion.items()),
        "incomplete": incomplete,
        "stats": _stats_projection(stats),
        "max_edge_load": max_load,
        "max_tree_depth": max_depth,
        "rng_state": rng.getstate(),
    }


# --- generated instances ---------------------------------------------------

_LATENCY_MODELS = (None, "uniform", "seeded-jitter", "heavy-tailed", "contention:1.0")
_DELAY_MODES = ("random", "zero", "sequential")


def _union(left: frozenset, right: frozenset) -> frozenset:
    return left | right


def _add(left: int, right: int) -> int:
    return left + right


try:  # Delaunay graphs need numpy and scipy, which tier-1 does not install
    import scipy.spatial  # noqa: F401
    _HAVE_SCIPY = True
except ImportError:
    _HAVE_SCIPY = False


@st.composite
def instances(draw, family):
    """A graph, partition and shortcut, with node values and a combiner."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if family == "grid":
        graph = grid_graph(draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    else:
        graph = delaunay_graph(draw(st.integers(4, 40)), rng=seed)
    n = graph.number_of_nodes()
    if family == "grid" and draw(st.booleans()):
        partition = grid_rows_partition(graph)
    else:
        partition = voronoi_partition(graph, draw(st.integers(1, n)), rng=seed)
    if draw(st.booleans()):
        tree = bfs_tree(graph)
        shortcut = build_full_shortcut(graph, tree, partition, delta=3.0).shortcut
    else:
        shortcut = Shortcut(graph, partition, [[] for _ in range(len(partition))])
    kind = draw(st.sampled_from(["int", "frozenset", "sparse"]))
    if kind == "int":
        values, combine = {v: (v * 7919) % 1000 for v in graph.nodes()}, min
    elif kind == "frozenset":
        # Unsizable values: every packet takes the flat 64-bit charge.
        values, combine = {v: frozenset([v]) for v in graph.nodes()}, _union
    else:
        # Nodes without a value send None upward.
        values, combine = {v: v for v in graph.nodes() if v % 3 == 0}, _add
    return graph, partition, shortcut, values, combine


def _runs(family: str):
    """Hypothesis arguments: an instance and how to schedule it."""
    return given(
        instances(family),
        st.sampled_from(_LATENCY_MODELS),
        st.sampled_from(_DELAY_MODES),
        st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
        st.integers(min_value=0, max_value=2**31 - 1),
    )


def _assert_matches_reference(instance, latency_model, delay_mode, max_rounds, seed):
    graph, partition, shortcut, values, combine = instance
    expected_rng = random.Random(seed)
    expected = _reference_partwise_aggregate(
        graph, partition, shortcut, values, combine, rng=expected_rng,
        delay_mode=delay_mode, max_rounds=max_rounds,
        latency_model=latency_model,
    )
    actual_rng = random.Random(seed)
    result = partwise_aggregate(
        graph, partition, shortcut, values, combine, rng=actual_rng,
        delay_mode=delay_mode, max_rounds=max_rounds,
        latency_model=latency_model,
    )
    actual = (
        result.values, result.completion_rounds, result.incomplete,
        result.stats, result.max_edge_load, result.max_tree_depth,
    )
    assert _projection(actual, actual_rng) == _projection(expected, expected_rng)


class TestDifferentialOracle:
    @_runs("grid")
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_the_reference_scheduler(
        self, instance, latency_model, delay_mode, max_rounds, seed
    ):
        _assert_matches_reference(instance, latency_model, delay_mode, max_rounds, seed)

    @pytest.mark.skipif(not _HAVE_SCIPY, reason="triangulation needs numpy/scipy")
    @_runs("delaunay")
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_the_reference_scheduler_on_delaunay_graphs(
        self, instance, latency_model, delay_mode, max_rounds, seed
    ):
        _assert_matches_reference(instance, latency_model, delay_mode, max_rounds, seed)

    def test_covers_the_incomplete_and_fallback_paths(self):
        graph = grid_graph(6, 6)
        partition = grid_rows_partition(graph)
        # No shortcut edges, so no Steiner node sends None: every packet
        # carries a frozenset.
        shortcut = Shortcut(graph, partition, [[] for _ in range(len(partition))])
        values = {v: frozenset([v]) for v in graph.nodes()}
        result = partwise_aggregate(
            graph, partition, shortcut, values, _union, rng=3, max_rounds=4,
        )
        expected = _reference_partwise_aggregate(
            graph, partition, shortcut, values, _union, rng=3, max_rounds=4,
        )
        assert result.incomplete and result.incomplete == expected[2]
        assert result.stats.message_bits == 64 * result.stats.messages
        assert _stats_projection(result.stats) == _stats_projection(expected[3])

    def test_disconnected_part_raises_in_both(self, small_grid):
        partition = Partition(small_grid, [[0, 1]])
        shortcut = Shortcut(small_grid, partition, [[(34, 35)]])
        for run in (partwise_aggregate, _reference_partwise_aggregate):
            with pytest.raises(ShortcutError):
                run(small_grid, partition, shortcut, {}, min, rng=1)
