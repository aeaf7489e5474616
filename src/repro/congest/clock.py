"""The virtual clock every timer-native execution runs on.

The paper's round counts are priced in *virtual time*: a message sent on
edge ``e`` at tick ``t`` arrives at ``t + latency(e)`` (one tick per edge
at unit latency, which is lockstep). One :class:`VirtualClock` drives one
node population through that schedule, and four drivers share it:

* the ``event`` backend — the clock at unit latency
  (:class:`~repro.congest.engine.EventBackend`);
* the ``async`` backend — the same clock with the latency model's link
  view on its fabric, recording the wall-model ``RoundStats`` dimension
  (:class:`~repro.congest.asynchronous.AsyncBackend`);
* the multi-tenant job layer — one clock per job in job-local ticks, with
  sends granted by the :class:`~repro.congest.jobs.EdgeArbiter` and staged
  back through :meth:`VirtualClock.stage`;
* the vectorized backend's interpreted tier, beside its kernel tier.

The clock owns the per-tick arrival, keep-alive and timer buckets; the
tick heap; stale-timer validation; fast-forward to the next live tick;
the activation step; and the ``max_rounds`` timeout rule. Within a tick,
nodes activate in node-index order and every inbox is materialized in
sender-index order, so each driver reproduces the ``dense`` lockstep
reference byte for byte.
"""

from __future__ import annotations

import heapq

from repro.util.errors import CongestViolation

__all__ = ["VirtualClock"]


class VirtualClock:
    """Tick buckets, the tick heap and the activation step of one population.

    Args:
        index: node -> position in node order (activation and inbox order).
        contexts: node -> :class:`~repro.congest.engine.NodeContext`.
        algorithms: node -> :class:`~repro.congest.node.NodeAlgorithm`.
        fabric: the population's :class:`~repro.congest.engine.
            MessageFabric` (``None`` when no node of it ever sends).
        stats: the :class:`~repro.congest.stats.RoundStats` the clock
            advances (``rounds``, ``activations``, and under ``wall_model``
            ``virtual_time`` and ``completion_times``).
        max_rounds: the last tick that may execute; work due later is a
            timeout.
        raise_on_timeout: raise on timeout instead of recording the bound
            and dropping the pending work (:attr:`timed_out`).
        wall_model: record ``virtual_time`` and per-node
            ``completion_times`` (the ``async`` backend's dimension).
        label: prefix of the timeout message (a job names itself).
    """

    __slots__ = (
        "index", "contexts", "algorithms", "fabric", "stats", "max_rounds",
        "raise_on_timeout", "wall_model", "label", "timed_out", "_timed",
        "_arrivals", "_woken", "_timers", "_heap", "_resort",
    )

    def __init__(
        self, index, contexts, algorithms, fabric, stats, max_rounds,
        raise_on_timeout, wall_model=False, label="",
    ):
        self.index = index
        self.contexts = contexts
        self.algorithms = algorithms
        self.fabric = fabric
        self.stats = stats
        self.max_rounds = max_rounds
        self.raise_on_timeout = raise_on_timeout
        self.wall_model = wall_model
        self.label = label
        self.timed_out = False
        # At unit latency with one tenant, tick t + 1's arrivals come only
        # from tick t's activations, which run in node-index order — so
        # sends go straight into per-target inbox dicts. A link view or an
        # arbiter can deliver out of send order: arrivals are then staged
        # as (sender_index, sender, payload) entries and sorted when the
        # receiver activates.
        self._timed = fabric is not None and (
            fabric.links is not None or fabric.arbiter is not None
        )
        # tick -> target -> inbox dict (unit latency) or entry list (timed)
        self._arrivals: dict[int, dict] = {}
        # tick -> nodes woken by a keep-alive latch (at unit latency every
        # receiver is added here too, so arrivals need no second pass)
        self._woken: dict[int, set] = {}
        # tick -> nodes whose timer was armed for it; validated lazily
        # against ctx._wake_at (re-arming earlier leaves a stale entry)
        self._timers: dict[int, set] = {}
        # every tick with a bucket (possibly more than once)
        self._heap: list[int] = []
        # unit-latency ticks whose inboxes took a staged entry out of
        # sender-index order (see stage)
        self._resort: set[int] = set()

    def run(self, nodes) -> None:
        """Start every node, then step tick by tick until quiescence."""
        self.start(nodes)
        while (tick := self.next_tick()) is not None:
            self.step(tick)

    def start(self, nodes) -> None:
        """Tick 0: ``on_start`` on every node (in ``nodes`` order)."""
        contexts, algorithms = self.contexts, self.algorithms
        inboxes, woken = self._open(0)
        for v in nodes:
            ctx = contexts[v]
            outbox = algorithms[v].on_start(ctx) or {}
            if outbox:
                self._send(v, outbox, 0, inboxes, woken)
            if ctx._keep_alive:
                woken.add(v)
            if ctx._wake_at is not None:
                self._arm(v, ctx._wake_at)
        self._close(0)

    def next_tick(self) -> int | None:
        """The earliest tick with live work, or ``None`` at quiescence.

        Timer buckets whose every entry went stale are dropped on the way,
        so an idle stretch fast-forwards straight to the next live wake.
        """
        heap, timers, contexts = self._heap, self._timers, self.contexts
        while heap:
            tick = heap[0]
            if tick in self._arrivals or tick in self._woken:
                return tick
            bucket = timers.get(tick)
            if bucket and any(contexts[v]._wake_at == tick for v in bucket):
                return tick
            timers.pop(tick, None)
            heapq.heappop(heap)
        return None

    def step(self, tick: int) -> None:
        """Execute ``tick``: activate every due node in node-index order.

        A tick past ``max_rounds`` is the timeout instead: it raises, or
        records the bound as the round count and drops all pending work.
        """
        if tick > self.max_rounds:
            self._time_out()
            return
        heap = self._heap
        while heap and heap[0] == tick:
            heapq.heappop(heap)
        stats, contexts, algorithms = self.stats, self.contexts, self.algorithms
        index, timed, wall_model = self.index, self._timed, self.wall_model
        completion_times = stats.completion_times
        stats.rounds = tick
        if wall_model:
            stats.virtual_time = tick
        arrivals = self._arrivals.pop(tick, None) or {}
        if tick in self._resort:
            self._resort.discard(tick)
            for target, inbox in arrivals.items():
                arrivals[target] = dict(
                    sorted(inbox.items(), key=lambda item: index[item[0]])
                )
        current = self._woken.pop(tick, None) or set()
        if timed:
            current.update(arrivals)
        for v in self._timers.pop(tick, ()):
            if contexts[v]._wake_at == tick:
                current.add(v)
        inboxes, woken = self._open(tick)
        for v in sorted(current, key=index.__getitem__):
            ctx = contexts[v]
            ctx.round = tick
            ctx._keep_alive = False
            if ctx._wake_at is not None and ctx._wake_at <= tick:
                ctx._wake_at = None  # the timer fires with this wake
            inbox = arrivals.get(v)
            if inbox is None:
                inbox = {}
            elif timed:
                # Sender-index order: canonical inbox insertion order, no
                # matter when each message was sent.
                inbox.sort()
                inbox = {sender: payload for _, sender, payload in inbox}
            outbox = algorithms[v].on_wake(ctx, inbox) or {}
            stats.activations += 1
            if wall_model:
                completion_times[v] = tick
            if outbox:
                self._send(v, outbox, tick, inboxes, woken)
            if ctx._keep_alive:
                woken.add(v)
            if ctx._wake_at is not None:
                self._arm(v, ctx._wake_at)
        self._close(tick)

    def stage(self, tick: int, target, sender_index: int, sender, payload) -> None:
        """Stage one arrival from outside this population's activations.

        The job layer stages arbiter grants here; the vectorized backend
        stages its kernel tier's messages to interpreted nodes. Either
        way the receiver still sees its inbox in sender-index order.
        """
        bucket = self._arrivals.get(tick)
        if bucket is None:
            bucket = self._arrivals[tick] = {}
            heapq.heappush(self._heap, tick)
        if self._timed:
            bucket.setdefault(target, []).append((sender_index, sender, payload))
        else:
            bucket.setdefault(target, {})[sender] = payload
            self._woken.setdefault(tick, set()).add(target)
            self._resort.add(tick)

    # -- internals ----------------------------------------------------------

    def _open(self, tick: int):
        """The buckets tick ``tick``'s activations fill for ``tick + 1``."""
        following = tick + 1
        woken = self._woken.setdefault(following, set())
        if self._timed:
            return None, woken
        return self._arrivals.setdefault(following, {}), woken

    def _close(self, tick: int) -> None:
        """Drop ``tick + 1``'s buckets if they stayed empty, else queue it."""
        following = tick + 1
        if not self._woken[following]:
            del self._woken[following]
        if not self._timed and not self._arrivals[following]:
            del self._arrivals[following]
        if following in self._woken or following in self._arrivals:
            heapq.heappush(self._heap, following)

    def _send(self, v, outbox, tick: int, inboxes, woken) -> None:
        """Stage ``v``'s sends: straight into ``tick + 1``'s inboxes at unit
        latency, else into the arrival buckets the fabric's link view picks."""
        if inboxes is not None:
            self.fabric.deliver(v, outbox, inboxes, woken, tick)
            return
        for arrive in self.fabric.deliver_timed(
            v, self.index[v], outbox, self._arrivals, tick
        ):
            heapq.heappush(self._heap, arrive)

    def _arm(self, v, wake: int) -> None:
        bucket = self._timers.get(wake)
        if bucket is None:
            bucket = self._timers[wake] = set()
            heapq.heappush(self._heap, wake)
        bucket.add(v)

    def _time_out(self) -> None:
        """Work remains past ``max_rounds``.

        The round count reports the bound itself, matching the lockstep
        loops, which execute the empty rounds a fast-forward skips.
        """
        if self.raise_on_timeout:
            raise CongestViolation(
                f"{self.label}execution did not quiesce within "
                f"{self.max_rounds} rounds"
            )
        self.stats.rounds = self.max_rounds
        if self.wall_model:
            self.stats.virtual_time = self.max_rounds
        self.timed_out = True
        for pending in (
            self._arrivals, self._woken, self._timers, self._heap, self._resort,
        ):
            pending.clear()
