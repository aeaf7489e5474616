"""Packet-level simulation of simultaneous part-wise aggregations.

For each part ``P_i`` with shortcut subgraph ``H_i``, the communication
graph is ``C_i = G[P_i] + H_i``. The engine:

1. plans a routing tree ``R_i`` (BFS tree of ``C_i`` from the part leader);
2. runs a *convergecast* (every node sends one packet to its ``R_i`` parent
   once all children reported) followed by a *broadcast* of the aggregate
   back down;
3. moves packets under the CONGEST capacity constraint — one packet per
   directed edge per round, FIFO per edge — with every part's start time
   shifted by a random delay in ``[0, congestion)`` (the LMR94 technique).
   A tick visits only the edges holding a packet, in the order packets
   first entered them; that order is part of the output (see
   ``docs/architecture.md``).

The measured completion round is the part-wise aggregation time ``T_PA``;
with a quality-``Q`` shortcut it is ``O(Q log n)`` whp, which is exactly
the paper's claim about the usefulness of shortcuts.

With a :class:`~repro.congest.asynchronous.LatencyModel` the engine runs
latency-realistically, under the **one shared delivery convention** of the
whole codebase (:meth:`repro.congest.engine.MessageFabric.deliver_timed`):
a packet *sent* at tick ``t`` — ``t`` being the send tick recorded in
``RoundStats.messages_by_round`` — is delivered at ``t + latency(e)``,
priced by one ``transit`` call on the model's link view
(:meth:`~repro.congest.asynchronous.LatencyModel.link_view`) as in the
message fabric, with ``latency(e) = 1`` reproducing the lockstep sent-in-``r``,
delivered-in-``r + 1`` schedule exactly (asserted by the test suite: a
forced all-ones latency table is byte-identical to running with no model
at all, in both this engine and the async scheduler backend). One packet
may still *enter* a directed edge per tick — the CONGEST capacity
constraint — and the result's :class:`RoundStats` reports the wall-model
``virtual_time`` dimension. Latencies are deterministic from a seed drawn
once per run, so latency-mode executions replay byte-identically per
seed; without a model the engine is byte-identical to its lockstep
behavior (no extra rng draws).

The convergecast/broadcast waves this engine schedules are the packet-level
mirror of the ack protocol the event algorithms use
(:mod:`repro.core.distributed`): a node reports to its parent exactly when
all children have reported — completion is signalled, never inferred from
tick counting — which is why the measured completion stays correct under
any latency assignment.

Faithfulness note: the routing trees are planned
centrally. A distributed plan costs one extra broadcast-shaped wave over
``C_i`` with identical congestion characteristics, so the asymptotics and
the measured shapes are unaffected; the constant is one extra pass.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass

import networkx as nx

from repro.congest.asynchronous import resolve_latency_model
from repro.congest.stats import RoundStats
from repro.core.shortcut import Shortcut
from repro.graphs.partition import Partition
from repro.util.bitsize import payload_bits
from repro.util.errors import ShortcutError
from repro.util.rng import ensure_rng

__all__ = ["PartwiseAggregationResult", "partwise_aggregate", "plan_routing_trees"]


@dataclass
class PartwiseAggregationResult:
    """Outcome of a simulated simultaneous part-wise aggregation.

    Attributes:
        values: aggregate per part index (as computed at — and broadcast
            from — the part leader); parts that did not finish are absent.
        completion_rounds: per part, the round its broadcast finished.
        incomplete: parts that did not finish within ``max_rounds``.
        stats: measured rounds (= max completion) and messages.
        max_edge_load: planned congestion (max packets assigned to one
            directed edge), the ``c`` in the ``O(c + d log n)`` bound.
        max_tree_depth: deepest routing tree, proxy for the dilation ``d``.
    """

    values: dict[int, object]
    completion_rounds: dict[int, int]
    incomplete: tuple[int, ...]
    stats: RoundStats
    max_edge_load: int
    max_tree_depth: int


@dataclass
class _PartPlan:
    """Routing plan for one part: a rooted tree over its communication graph.

    Dense by BFS position: ``order[i]`` is the node at position ``i``
    (``order[0]`` is the root), ``up[i]`` the position of its parent
    (``-1`` at the root) and ``down[i]`` the positions of its children,
    in BFS order.
    """

    index: int
    order: list[int]
    up: list[int]
    down: list[list[int]]
    depth: int = 0

    @property
    def root(self) -> int:
        return self.order[0]

    @property
    def parent(self) -> dict[int, int | None]:
        """Routing-tree parent per node, in BFS order (``None`` at the root)."""
        order = self.order
        return {
            node: order[up] if up >= 0 else None for node, up in zip(order, self.up)
        }


def plan_routing_trees(
    graph: nx.Graph,
    partition: Partition,
    shortcut: Shortcut,
) -> list[_PartPlan]:
    """BFS routing tree of ``G[P_i] + H_i`` per part, rooted at the leader.

    The BFS visits neighbours in the order of
    :meth:`~repro.core.shortcut.Shortcut.augmented_adjacency`, which is the
    order of :meth:`~repro.core.shortcut.Shortcut.augmented_subgraph`.

    Raises:
        ShortcutError: if some part's communication graph is disconnected
            (infinite dilation — the shortcut is unusable for aggregation).
    """
    plans: list[_PartPlan] = []
    for index in range(len(partition)):
        adjacency = shortcut.augmented_adjacency(index)
        root = partition.leader_of(index)
        seen = {root}
        order = [root]
        up = [-1]
        depth_at = [0]
        head = 0
        while head < len(order):  # ``order`` doubles as the BFS queue
            for neighbor in adjacency[order[head]]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append(neighbor)
                    up.append(head)
                    depth_at.append(depth_at[head] + 1)
            head += 1
        if len(order) != len(adjacency):
            raise ShortcutError(
                f"part {index}: G[P_i] + H_i is disconnected; cannot aggregate"
            )
        down: list[list[int]] = [[] for _ in order]
        for child in range(1, len(order)):
            down[up[child]].append(child)
        plans.append(_PartPlan(index, order, up, down, depth_at[-1]))
    return plans


def partwise_aggregate(
    graph: nx.Graph,
    partition: Partition,
    shortcut: Shortcut,
    values: dict[int, object],
    combine: Callable[[object, object], object],
    rng: int | random.Random | None = None,
    delay_mode: str = "random",
    max_rounds: int | None = None,
    latency_model: object = None,
) -> PartwiseAggregationResult:
    """Simulate all parts aggregating simultaneously through the shortcut.

    Args:
        graph, partition, shortcut: the instance; ``shortcut.subgraphs[i]``
            is ``H_i``.
        values: input value per node (nodes outside every part are ignored;
            nodes of a part missing from ``values`` contribute nothing).
        combine: associative-commutative combiner (min, max, +, …).
        rng: seed or generator for the random delays.
        delay_mode: ``"random"`` (LMR94 delays in ``[0, congestion)``),
            ``"zero"`` (all parts start at once — the ablation arm), or
            ``"sequential"`` (part ``i`` starts after ``i`` planned windows —
            the trivial schedule).
        max_rounds: hard stop; defaults to a generous
            ``8·(load + (depth+1)·(2+log2 n)) + 64``.
        latency_model: per-edge latency model (name or
            :class:`~repro.congest.asynchronous.LatencyModel` instance) for
            latency-realistic packet transit; ``None`` = one tick per edge
            (the lockstep behavior, byte-identical to before).

    Returns:
        A :class:`PartwiseAggregationResult` with measured rounds.

    Raises:
        ShortcutError: on disconnected communication graphs, an unknown
            ``delay_mode`` or ``latency_model``.
    """
    rng = ensure_rng(rng)
    # The seed is drawn only by a static, non-uniform model, so "uniform"
    # stays byte-identical to no model at all, rng stream included.
    links = resolve_latency_model(latency_model, ShortcutError).link_view(
        graph, lambda: rng.randrange(2**62)
    )
    plans = plan_routing_trees(graph, partition, shortcut)

    # Planned per-directed-edge load: each routing-tree edge carries exactly
    # one convergecast packet (up) and one broadcast packet (down). Every
    # directed edge a plan uses gets a link id here; ``up_link[part][i]``
    # is the link from position ``i`` to its parent, ``down_link[part][i]``
    # the link from its parent to it.
    link_of: dict[tuple[int, int], int] = {}
    up_link: list[list[int]] = []
    down_link: list[list[int]] = []
    load: Counter = Counter()
    for plan in plans:
        children = plan.order[1:]
        parents = [plan.order[up] for up in plan.up[1:]]
        ups = [link_of.setdefault(edge, len(link_of)) for edge in zip(children, parents)]
        downs = [link_of.setdefault(edge, len(link_of)) for edge in zip(parents, children)]
        load.update(ups)
        load.update(downs)
        up_link.append([-1, *ups])
        down_link.append([-1, *downs])
    link_edge = list(link_of)
    max_load = max(load.values(), default=0)
    max_depth = max((plan.depth for plan in plans), default=0)

    delays = _make_delays(len(plans), max_load, max_depth, delay_mode, rng)
    n = max(graph.number_of_nodes(), 2)
    if max_rounds is None:
        max_rounds = int(
            8 * (max_load + (max_depth + 1) * (2 + math.log2(n))) + max(delays, default=0) + 64
        )
        if links is not None:
            # At most 2*max_load packets share a link at once (one entry
            # per directed edge per tick, both directions), so every hop
            # takes at most the view's worst transit under that load.
            # Loose only risks a later timeout, never wrong results.
            max_rounds *= max(1, links.worst_transit(2 * max_load))

    # --- Per-part execution state, indexed by BFS position -----------------
    # A packet is ``(up, part, position, value, bits)``: its direction, and
    # where it is delivered. Its size is charged once, when it is made: an
    # up packet's from its value, a down packet's from the part's broadcast
    # value, sized once at the root.
    pending: list[list[int]] = []  # children still to report
    accumulator: list[list[object]] = []  # partial aggregates
    header_bits: list[int] = []  # the packet's framing and part id
    start_schedule: dict[int, list[tuple[int, int]]] = {}  # leaves per tick
    results: dict[int, object] = {}
    completion: dict[int, int] = {}
    for plan in plans:
        part = plan.index
        part_nodes = partition[part]
        accumulator.append(
            [values.get(node) if node in part_nodes else None for node in plan.order]
        )
        pending.append([len(kids) for kids in plan.down])
        if len(plan.order) == 1:
            # Parts whose routing tree is a single node complete at their
            # delay.
            header_bits.append(0)
            results[part] = accumulator[part][0]
            completion[part] = delays[part]
            continue
        header_bits.append(2 + payload_bits(part))
        # Seed the convergecast: nodes with no children fire at their delay.
        leaves = [(part, i) for i, kids in enumerate(plan.down) if not kids]
        start_schedule.setdefault(delays[part], []).extend(leaves)
    finished_nodes = [0] * len(plans)  # broadcast receipts

    def sized(part: int, value: object) -> int:
        try:
            return header_bits[part] + payload_bits(value)
        except TypeError:
            # Arbitrary python values (e.g. frozensets in tests): charge a
            # conservative flat size.
            return 64

    # Per-edge FIFO queues. A directed edge gets a queue id when a packet
    # first enters it, so ascending ids are first-use order. Each tick
    # sends from the busy queues (the non-empty ones) in that order: the
    # order a load-dependent link view prices sends in, packets arriving
    # in one tick are handled in, and ``edge_messages`` keys follow.
    queue_of = [-1] * len(link_edge)  # link id -> queue id
    queues: list[deque] = []
    queue_edge: list[tuple[int, int]] = []
    queue_sent: list[int] = []
    busy: list[int] = []  # queue ids that stayed non-empty after a send
    woken: list[int] = []  # queue ids that became non-empty since

    def enqueue(link: int, packet: tuple) -> None:
        queue_id = queue_of[link]
        if queue_id < 0:
            queue_of[link] = len(queues)
            woken.append(len(queues))
            queues.append(deque((packet,)))
            queue_edge.append(link_edge[link])
            queue_sent.append(0)
            return
        queue = queues[queue_id]
        if not queue:
            woken.append(queue_id)
        queue.append(packet)

    messages = 0
    message_bits = 0
    messages_by_round: dict[int, int] = {}
    in_flight: dict[int, list] = {}  # arrival tick -> [packet, ...]
    num_parts = len(plans)
    current_round = 0
    while len(completion) < num_parts and current_round < max_rounds:
        # Fire freshly-due convergecast leaves.
        for part, leaf in start_schedule.get(current_round, ()):
            value = accumulator[part][leaf]
            enqueue(
                up_link[part][leaf],
                (True, part, plans[part].up[leaf], value, sized(part, value)),
            )
        current_round += 1
        if woken:
            busy += woken
            busy.sort()
            woken.clear()
        # One packet may *enter* each directed edge per tick (the CONGEST
        # capacity constraint); it is delivered after the edge's transit
        # time (one tick without a latency model — the lockstep behavior).
        # Transmission happens during round ``current_round``; the
        # send-round key convention of RoundStats.messages_by_round (sent
        # in r, delivered in r+1, initial wave at 0) makes that
        # ``current_round - 1``.
        send_tick = current_round - 1
        if busy:
            still_busy = []
            for queue_id in busy:
                queue = queues[queue_id]
                packet = queue.popleft()
                if queue:
                    still_busy.append(queue_id)
                queue_sent[queue_id] += 1
                message_bits += packet[4]
                # Shared delivery convention with the async scheduler
                # backend (MessageFabric.deliver_timed): sent at tick t,
                # delivered at t + transit; transit 1 == the lockstep
                # r -> r+1 schedule. A load-dependent view needs sends in
                # tick order: ticks are monotone across rounds, and queue
                # ids ascend within one.
                arrive = send_tick + (
                    1 if links is None
                    else links.transit(*queue_edge[queue_id], send_tick)
                )
                in_flight.setdefault(arrive, []).append(packet)
            messages += len(busy)
            messages_by_round[send_tick] = len(busy)
            busy = still_busy
        arrivals = in_flight.pop(current_round, ())
        for up, part, at, value, bits in arrivals:
            if up:
                partial = accumulator[part]
                if value is not None:
                    current = partial[at]
                    partial[at] = value if current is None else combine(current, value)
                waiting = pending[part]
                waiting[at] -= 1
                if waiting[at]:
                    continue
                value = partial[at]
                if at:
                    enqueue(
                        up_link[part][at],
                        (True, part, plans[part].up[at], value, sized(part, value)),
                    )
                    continue
                # Root has the aggregate; start the broadcast.
                results[part] = value
                bits = sized(part, value)
            plan = plans[part]
            finished_nodes[part] += 1
            for child in plan.down[at]:
                enqueue(down_link[part][child], (False, part, child, value, bits))
            if finished_nodes[part] == len(plan.order):
                completion[part] = current_round
    stats = RoundStats(
        messages=messages,
        message_bits=message_bits,
        messages_by_round=messages_by_round,
        # First-send order is first-use order: a queue sends in the first
        # tick after it was made. Queues never sent from are left out.
        edge_messages={
            queue_edge[queue_id]: sent
            for queue_id, sent in enumerate(queue_sent)
            if sent
        },
    )
    stats.rounds = max(completion.values(), default=0) if len(completion) == len(
        plans
    ) else current_round
    if links is not None:
        # Latency-realistic run: ticks are virtual time, the wall-model
        # dimension round counts cannot express.
        stats.virtual_time = stats.rounds
    incomplete = tuple(
        plan.index for plan in plans if plan.index not in completion
    )
    return PartwiseAggregationResult(
        values=results,
        completion_rounds=completion,
        incomplete=incomplete,
        stats=stats,
        max_edge_load=max_load,
        max_tree_depth=max_depth,
    )


def _make_delays(
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
