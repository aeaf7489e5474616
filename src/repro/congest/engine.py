"""The execution-engine layer: shared semantics, pluggable scheduler backends.

:class:`~repro.congest.network.SyncNetwork` defines *what* a CONGEST
execution means; this module defines *how* one is driven. The split is:

* :class:`MessageFabric` owns the per-message semantics every backend must
  enforce identically — adjacency validation, the bandwidth budget, inbox
  staging for next-round delivery, and :class:`~repro.congest.stats.
  RoundStats` accounting (messages are charged at *send* time, keyed by the
  send round).
* :class:`SchedulerBackend` subclasses own the activation strategy — which
  nodes run in a round, in which process. The contract is strict: every
  backend must produce byte-identical results, round counts, and message
  counts for conforming algorithms; only the *cost profile* (activations,
  wall clock, parallelism) may differ. The equivalence suite in
  ``tests/congest/test_scheduler.py`` enforces this across all backends.

Two invariants make backend equivalence possible:

* **Deterministic per-node randomness** — each node's ``ctx.rng`` stream is
  derived from ``(run_seed, node_index)`` via
  :func:`repro.util.rng.derive_node_rng`, never drawn from a shared
  generator in iteration order. A node's stream is therefore independent of
  scheduler, activation order, and worker process. The derivation happens
  on the first read of ``ctx.rng``, not when the context is built: being a
  pure function of the pair, it yields the same numbers whenever it runs,
  and a run in which no node draws pays for no stream.
* **Canonical inbox order** — within a round, activation follows the
  graph's node order, so each inbox's insertion order (observable through
  dict iteration) is sender-index order under every backend.

These invariants are mechanically enforced twice over: statically by
``repro lint`` (:mod:`repro.analysis`) and — for the spurious-wake
conformance contract of :meth:`NodeContext.schedule_wake` — dynamically by
the opt-in runtime sanitizer (``SyncNetwork(..., sanitize=True)`` or
``REPRO_SANITIZE=1``), which wraps every empty-inbox pre-readiness
activation on the degrade backends in :func:`checked_spurious_wake`.

Backends register themselves here (:func:`register_backend`), mirroring
the :mod:`repro.core.providers` registry: an unknown scheduler name fails
with a message listing every registered backend, uniformly at every API
boundary. The ``event`` and ``dense`` backends live in this module; the
multi-process ``sharded`` backend lives in :mod:`repro.congest.sharded`
and the latency-realistic ``async`` backend in
:mod:`repro.congest.asynchronous`. ``event``, ``async``, the job layer
and the vectorized backend's interpreted tier all run on the one
:class:`~repro.congest.clock.VirtualClock`.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import partial

from repro.congest.clock import VirtualClock
from repro.congest.stats import RoundStats
from repro.util.bitsize import payload_bits
from repro.util.errors import CongestViolation
from repro.util.rng import derive_node_rng

__all__ = [
    "NodeContext",
    "MessageFabric",
    "SchedulerBackend",
    "EventBackend",
    "DenseBackend",
    "register_backend",
    "register_unavailable_backend",
    "get_backend",
    "available_schedulers",
    "checked_spurious_wake",
]

# Scheduler-backend registry; backends self-register at import time (the
# out-of-module backends when repro.congest.network imports them).
_BACKENDS: dict[str, type["SchedulerBackend"]] = {}

# Backends whose module imported but whose optional dependency is missing:
# name -> install hint. Not listed by available_schedulers() (nothing can
# run them), but get_backend() turns the generic unknown-name error into
# the hint, so `scheduler="vectorized"` without numpy says how to fix it
# instead of looking like a typo.
_UNAVAILABLE: dict[str, str] = {}


def register_backend(
    backend: type["SchedulerBackend"], replace_existing: bool = False
) -> None:
    """Register a backend class under ``backend.name``.

    Registration is the only doorway into the scheduler surface: the
    name immediately works as ``SyncNetwork(scheduler=...)``, the CLI
    ``--scheduler`` flag, and a row in ``python -m repro registry`` —
    and the byte-equivalence suite (``tests/congest/test_scheduler.py``)
    parametrizes over the registry, so a registered backend is held to
    the same results-and-``RoundStats`` identity as the built-ins.
    Backends whose optional dependency is missing should call
    :func:`register_unavailable_backend` instead, so naming them raises
    the install hint rather than an unknown-name error. A minimal
    working example lives in ``docs/extending.md``.

    Raises:
        ValueError: when the name is taken and ``replace_existing`` is
            False.
    """
    if backend.name in _BACKENDS and not replace_existing:
        raise ValueError(f"scheduler backend {backend.name!r} is already registered")
    _BACKENDS[backend.name] = backend
    _UNAVAILABLE.pop(backend.name, None)


def register_unavailable_backend(name: str, hint: str) -> None:
    """Record a backend that exists but cannot run (missing optional dep).

    ``hint`` is the remedy shown by :func:`get_backend` — e.g. the
    ``pip install 'repro[vectorized]'`` line for the numpy-backed
    vectorized backend.
    """
    if name not in _BACKENDS:
        _UNAVAILABLE[name] = hint


def get_backend(name: str) -> type["SchedulerBackend"]:
    """Look up a registered backend class by name.

    Raises:
        ValueError: unknown name (the message lists the registry, matching
            the :mod:`repro.core.providers` error convention) or a known
            name whose optional dependency is missing (the message carries
            the install hint instead).
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        hint = _UNAVAILABLE.get(name)
        if hint is not None:
            raise ValueError(
                f"scheduler {name!r} is unavailable: {hint}; "
                f"registered schedulers: {', '.join(available_schedulers())}"
            ) from None
        raise ValueError(
            f"unknown scheduler {name!r}; registered schedulers: "
            f"{', '.join(available_schedulers())}"
        ) from None


def available_schedulers() -> tuple[str, ...]:
    """Sorted names of all registered scheduler backends."""
    return tuple(sorted(_BACKENDS))


class NodeContext:
    """Read-only view of a node's environment plus the wake-up controls.

    ``rng`` is either the node's generator or a zero-argument callable
    that derives it (the backends pass
    ``functools.partial(derive_node_rng, run_seed, node_index)``); a
    deferred stream is derived on the first read of :attr:`rng`, so a run
    in which no node draws derives nothing.
    """

    __slots__ = (
        "node", "neighbors", "round", "num_nodes", "_rng", "_derive_rng",
        "_keep_alive", "_wake_at",
    )

    def __init__(
        self,
        node: int,
        neighbors: tuple[int, ...],
        num_nodes: int,
        rng: random.Random | Callable[[], random.Random],
    ):
        self.node = node
        self.neighbors = neighbors
        self.round = 0
        self.num_nodes = num_nodes
        if isinstance(rng, random.Random):
            self._rng, self._derive_rng = rng, None
        else:
            self._rng, self._derive_rng = None, rng
        self._keep_alive = False
        self._wake_at: int | None = None

    @property
    def rng(self) -> random.Random:
        """The node's random stream; a deferred one is derived on first read."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._derive_rng()
        return rng

    def keep_alive(self) -> None:
        """Prevent quiescence this round even without sending a message.

        Needed by algorithms that poll (be woken *every* round although the
        network is silent). Under the event-driven and sharded schedulers
        this is one of the two ways for a silent node to be activated next
        round; :meth:`schedule_wake` is the other — prefer it, so deep idle
        stretches cost no activations on the timer-native backends.
        """
        self._keep_alive = True

    def schedule_wake(self, delay: int = 1) -> None:
        """Request a wake-up ``delay`` rounds (virtual ticks) from now.

        The timer-native backends (``event``, ``async``) activate the node
        at exactly ``round + delay`` — no polling in between. The remaining
        lockstep backends (``dense``, ``sharded``) *degrade the timer to
        keep-alive*: the node stays schedulable (and, on ``sharded``, is
        woken with an empty inbox) every round until the wake round, so a
        conforming algorithm must treat a wake before its deadline as a
        no-op (no sends, no state changes, no ``ctx.rng`` draws) — with
        ``delay=1``, the common stream-pacing case, there is no early round
        to observe and the backends are trivially byte-identical.

        A pending timer persists across message-triggered activations and
        is cleared when it fires; calling again takes the *earlier* of the
        pending and requested wake rounds (timers cannot be pushed back or
        cancelled — a spurious fire on an algorithm that no longer cares is
        a no-op by the contract above).

        Raises:
            CongestViolation: if ``delay < 1`` (a same-round wake would
                break the round abstraction).
        """
        if delay < 1:
            raise CongestViolation(
                f"schedule_wake delay must be >= 1 round, got {delay}"
            )
        wake = self.round + delay
        if self._wake_at is None or wake < self._wake_at:
            self._wake_at = wake


class MessageFabric:
    """Message validation, staging, and accounting — one per executing context.

    The in-process backends build one fabric for the whole graph; each
    sharded worker builds one for its shard (recording only the messages its
    nodes *send*, which partitions the totals across shards).
    """

    __slots__ = (
        "neighbor_sets", "bandwidth_bits", "enforce_bandwidth", "stats",
        "links", "job_id", "arbiter",
    )

    def __init__(
        self,
        neighbor_sets: dict[int, frozenset[int]],
        bandwidth_bits: int,
        enforce_bandwidth: bool,
        stats: RoundStats,
        links: object = None,
        job_id: str | None = None,
        arbiter: object = None,
    ):
        self.neighbor_sets = neighbor_sets
        self.bandwidth_bits = bandwidth_bits
        self.enforce_bandwidth = enforce_bandwidth
        self.stats = stats
        # The latency model's link view (LatencyModel.link_view): it prices
        # every send with one transit(sender, target, now) call. None for
        # the lockstep backends (every message takes exactly one round).
        self.links = links
        # Tenancy tagging (the multi-tenant job layer, repro.congest.jobs):
        # every message this fabric carries belongs to `job_id`, and when an
        # `arbiter` is attached sends are submitted to it for per-edge
        # bandwidth grants instead of being staged directly — the arbiter
        # charges stats and stages the arrival at grant time. Both stay
        # None for single-tenant executions, whose hot paths are unchanged
        # beyond one attribute test.
        self.job_id = job_id
        self.arbiter = arbiter

    def validate(self, sender: int, target: int, payload: object) -> int:
        """Check adjacency and the bit budget; return the payload's bit size.

        Raises:
            CongestViolation: on a non-neighbor target or an oversized
                payload.
        """
        if target not in self.neighbor_sets[sender]:
            raise CongestViolation(
                f"node {sender} tried to message non-neighbor {target}"
            )
        bits = payload_bits(payload)
        if self.enforce_bandwidth and bits > self.bandwidth_bits:
            raise CongestViolation(
                f"node {sender} sent a {bits}-bit message to {target}; "
                f"budget is {self.bandwidth_bits} bits"
            )
        return bits

    def deliver(
        self,
        sender: int,
        outbox: dict[int, object],
        inboxes: dict[int, dict[int, object]],
        active: set,
        round_no: int,
    ) -> None:
        """Validate ``sender``'s outbox and stage it for next-round delivery.

        All targets are local (the in-process path); the sharded worker uses
        :meth:`validate` directly and routes cross-shard targets itself.
        """
        if self.arbiter is not None:
            raise CongestViolation(
                "an arbitrated fabric must deliver through the virtual-time "
                "path (deliver_timed); the round-staging path cannot defer "
                "messages across ticks"
            )
        stats = self.stats
        for target, payload in outbox.items():
            bits = self.validate(sender, target, payload)
            inbox = inboxes.get(target)
            if inbox is None:
                inbox = inboxes[target] = {}
                active.add(target)
            inbox[sender] = payload
            stats.record_message(sender, target, bits, round_no)

    def deliver_timed(
        self,
        sender: int,
        sender_index: int,
        outbox: dict[int, object],
        arrivals: dict[int, dict[int, list]],
        now: int,
    ) -> list[int]:
        """Validate ``sender``'s outbox and stage it into virtual-time buckets.

        Each message sent at tick ``now`` arrives at ``now +
        links.transit(sender, target, now)`` (one tick per edge without a
        link view). Staged entries are
        ``(sender_index, sender, payload)`` tuples; the virtual clock
        sorts each inbox by sender index, reproducing the canonical
        insertion order regardless of send times. Returns the arrival times
        whose buckets this call created, so the caller can extend its wake
        schedule.

        With an :attr:`arbiter` attached (multi-tenant executions), sends
        are validated here but *submitted* to the arbiter instead of being
        staged: the edge grant — and therefore the arrival tick and the
        stats charge — happens in the arbiter's per-tick resolution, and
        the returned list is empty (the arbiter wakes the receiving job
        itself at grant time).
        """
        arbiter = self.arbiter
        if arbiter is not None:
            for target, payload in outbox.items():
                bits = self.validate(sender, target, payload)
                arbiter.submit(self, sender, sender_index, target, payload, bits)
            return []
        stats = self.stats
        links = self.links
        new_times: list[int] = []
        for target, payload in outbox.items():
            bits = self.validate(sender, target, payload)
            # Callers present sends in non-decreasing `now` order (the
            # virtual-clock engines pop time in order), which is a
            # load-dependent view's determinism contract.
            arrive = now + (links.transit(sender, target, now) if links is not None else 1)
            bucket = arrivals.get(arrive)
            if bucket is None:
                bucket = arrivals[arrive] = {}
                new_times.append(arrive)
            bucket.setdefault(target, []).append((sender_index, sender, payload))
            stats.record_message(sender, target, bits, now)
        return new_times


def _state_fingerprint(algorithm) -> str | None:
    """A cheap before/after fingerprint of an algorithm's own state.

    ``repr`` over ``vars()`` catches any attribute rebinding and most
    container mutations; a mutation that preserves the repr (or state
    hidden behind ``__slots__``) escapes — acceptable for a sanitizer
    whose static twin (`repro lint` PROTO-STATE) covers the writes.
    """
    state = getattr(algorithm, "__dict__", None)
    if state is None:
        return None
    return repr(state)


def checked_spurious_wake(algorithm, ctx, activate, node, round_no: int):
    """Run a spurious wake under the conformance contract, or raise.

    The degrade backends (``dense``, ``sharded``) wake nodes with an empty
    inbox before their readiness condition — rounds the timer-native
    backends never execute. The :meth:`NodeContext.schedule_wake` contract
    makes that observably harmless by requiring such an activation to be a
    strict no-op; this wrapper (the runtime-sanitizer mode,
    ``SyncNetwork(..., sanitize=True)`` or ``REPRO_SANITIZE=1``) checks it
    dynamically: no sends, no ``ctx.rng`` draws, no state change, no
    keep-alive latch, no timer re-arm.

    Raises:
        CongestViolation: naming the node, round, and every violated
            clause — the exact divergence that would otherwise surface as
            a cross-backend byte-equivalence failure far from its cause.
    """
    state_before = _state_fingerprint(algorithm)
    # Read the stream's slot, not ctx.rng: the check must not derive it.
    rng_before = None if ctx._rng is None else ctx._rng.getstate()
    wake_before = ctx._wake_at
    outbox = activate() or {}
    problems = []
    if outbox:
        problems.append(f"sent {len(outbox)} message(s)")
    if ctx._rng is not None:
        if rng_before is None:
            # The wake derived the stream: compare with an undrawn twin.
            rng_before = ctx._derive_rng().getstate()
        if ctx._rng.getstate() != rng_before:
            problems.append("drew from ctx.rng")
    if _state_fingerprint(algorithm) != state_before:
        problems.append("changed its state")
    if ctx._keep_alive:
        problems.append("latched keep_alive")
    if ctx._wake_at != wake_before:
        problems.append("armed a new wake-up timer")
    if problems:
        raise CongestViolation(
            f"spurious-wake contract violation at node {node} "
            f"(round {round_no}): woken with an empty inbox before its "
            f"readiness condition, the node " + ", ".join(problems) + "; "
            "conforming algorithms treat such wakes as strict no-ops (see "
            "NodeContext.schedule_wake and repro.congest.node)"
        )
    return outbox


class SchedulerBackend:
    """One activation strategy for executing node algorithms.

    Subclasses implement :meth:`execute`, which owns the whole run — round
    0 (``on_start`` on every node, by definition), the round loop, and
    result collection — and returns ``(results, stats)``. The network
    object passed in exposes the topology snapshot (``_nodes``, ``_index``,
    ``_neighbors``, ``_neighbor_sets``) and the model parameters
    (``bandwidth_bits``, ``enforce_bandwidth``, ``workers``).
    """

    name = "abstract"

    # Capability flag: whether this backend honors per-edge latency models
    # (``SyncNetwork(latency_model=...)``). ``validate_scheduler`` rejects a
    # latency model on any backend that leaves this False — driving the
    # check from the class, not a hard-coded name list, so a new backend
    # cannot silently accept a model it ignores.
    supports_latency_models = False

    def execute(
        self,
        net,
        algorithms: dict,
        run_seed: int,
        max_rounds: int,
        raise_on_timeout: bool,
    ) -> tuple[dict[int, object], RoundStats]:
        raise NotImplementedError


def _node_contexts(net, run_seed: int) -> dict:
    """One :class:`NodeContext` per node, rng deferred to its index."""
    nodes = net._nodes
    return {
        v: NodeContext(
            v, net._neighbors[v], len(nodes), partial(derive_node_rng, run_seed, i)
        )
        for i, v in enumerate(nodes)
    }


class EventBackend(SchedulerBackend):
    """The event-driven *active-set* scheduler (default).

    The :class:`~repro.congest.clock.VirtualClock` at unit latency: per
    round, only nodes with a non-empty inbox, a raised keep-alive latch,
    or a due :meth:`NodeContext.schedule_wake` timer are activated (via
    ``on_wake``); quiescence falls out of an empty schedule. Total
    activations are ``O(total messages + keep-alives + timer fires)``
    instead of the lockstep ``O(n * rounds)``. When only timers remain,
    the clock fast-forwards to the earliest one — the skipped rounds are
    empty under every backend, so round counts, messages, and results stay
    byte-identical to ``dense``; only activations differ.
    """

    name = "event"

    def execute(self, net, algorithms, run_seed, max_rounds, raise_on_timeout):
        stats = RoundStats()
        fabric = MessageFabric(
            net._neighbor_sets, net.bandwidth_bits, net.enforce_bandwidth, stats
        )
        clock = VirtualClock(
            net._index, _node_contexts(net, run_seed), algorithms, fabric,
            stats, max_rounds, raise_on_timeout,
        )
        clock.run(net._nodes)
        return {v: algorithms[v].result() for v in net._nodes}, stats


class DenseBackend(SchedulerBackend):
    """The seed lockstep loop: ``on_round`` on every node every round.

    Kept as the reference semantics for equivalence testing and for exotic
    algorithms that act spontaneously on empty inboxes without latching
    keep-alive (none in this library). Scheduled wakes degrade to
    keep-alive here: a pending timer keeps the run going (every node is
    executed every round anyway), and the node's early rounds are the
    empty-inbox no-ops the :meth:`NodeContext.schedule_wake` contract
    requires of conforming algorithms.
    """

    name = "dense"

    def execute(self, net, algorithms, run_seed, max_rounds, raise_on_timeout):
        nodes = net._nodes
        sanitize = getattr(net, "sanitize", False)
        stats = RoundStats()
        fabric = MessageFabric(
            net._neighbor_sets, net.bandwidth_bits, net.enforce_bandwidth, stats
        )
        contexts = _node_contexts(net, run_seed)
        # Round 0: inboxes are allocated lazily — only receivers get a
        # dict — and the active set keeps the run going.
        inboxes: dict[int, dict[int, object]] = {}
        active: set = set()
        for v in nodes:
            ctx = contexts[v]
            outbox = algorithms[v].on_start(ctx) or {}
            if outbox:
                fabric.deliver(v, outbox, inboxes, active, 0)
            if ctx._keep_alive or ctx._wake_at is not None:
                active.add(v)
        round_no = 0
        while active:
            if round_no >= max_rounds:
                if raise_on_timeout:
                    raise CongestViolation(
                        f"execution did not quiesce within {max_rounds} rounds"
                    )
                break
            round_no += 1
            stats.rounds = round_no
            current_inboxes = inboxes
            inboxes = {}
            active = set()
            for v in nodes:
                ctx = contexts[v]
                ctx.round = round_no
                latched_prev = ctx._keep_alive
                ctx._keep_alive = False
                timer_fired = ctx._wake_at is not None and ctx._wake_at <= round_no
                if timer_fired:
                    ctx._wake_at = None  # the timer fires with this round
                inbox = current_inboxes.get(v) or {}
                algorithm = algorithms[v]
                if sanitize and not inbox and not latched_prev and not timer_fired:
                    # This activation exists only because the dense loop
                    # wakes everyone: the timer-native backends would skip
                    # it, so the conformance contract requires a no-op.
                    outbox = checked_spurious_wake(
                        algorithm, ctx,
                        lambda a=algorithm, c=ctx: a.on_round(c, {}),
                        v, round_no,
                    )
                else:
                    outbox = algorithm.on_round(ctx, inbox) or {}
                stats.activations += 1
                if outbox:
                    fabric.deliver(v, outbox, inboxes, active, round_no)
                if ctx._keep_alive or ctx._wake_at is not None:
                    active.add(v)
        return {v: algorithms[v].result() for v in nodes}, stats


register_backend(EventBackend)
register_backend(DenseBackend)
