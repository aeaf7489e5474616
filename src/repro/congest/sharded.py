"""The sharded multi-process scheduler backend.

Nodes are partitioned across ``workers`` OS processes so large instances
use all cores; the execution is nevertheless byte-identical to the
in-process ``event`` backend (same results, rounds, messages, bits, edge
congestion) for any worker count, including ``workers=1``. The design,
following the PE-grid shape of FPGA graph engines (nodes striped across
processing elements, message channels between them, a global-inactive
barrier):

* **Shard assignment** — :func:`repro.graphs.partition.bfs_blocks`
  produces BFS-contiguous, near-equal blocks, so most edges stay
  intra-shard and cross-shard traffic tracks shard *boundaries*.
* **Fork-based workers** — workers are forked, so the graph snapshot and
  the ``NodeAlgorithm`` instances (which may close over lambdas and other
  unpicklables) are inherited copy-on-write and never cross a pickle
  boundary. Only *payloads* (CONGEST-sized values), results, and stats
  travel over pipes. On platforms without ``fork``, the backend
  transparently falls back to the event loop — legal because backends are
  observably identical by contract.
* **Per-round batched exchange** — each worker runs its shard's active
  nodes for the round, batches cross-shard sends by destination shard, and
  reports to the parent, which acts as barrier and router: it forwards the
  batches, decides global liveness (some shard has staged inboxes or
  keep-alive latches, or some batch is in flight), and either dispatches
  the next round or stops everyone.
* **Determinism** — per-node RNG streams come from ``(run_seed,
  node_index)``; within a worker, activation follows global node-index
  order; each inbox is materialized in sender-index order (merging local
  and remote staged messages), exactly the order the event backend
  produces. Stats are recorded at the *sender's* shard and merged with
  :meth:`repro.congest.stats.RoundStats.merge` (rounds max, counters sum).
* **Failure propagation** — a worker that raises (e.g. a
  ``CongestViolation`` mid-round) ships the exception object to the
  parent, which aborts the remaining workers and re-raises it in the
  caller; a worker that dies without a message surfaces as a
  ``CongestViolation`` naming the shard, never a deadlock.
"""

from __future__ import annotations

import multiprocessing
import os
from functools import partial

from repro.congest.engine import (
    MessageFabric,
    NodeContext,
    SchedulerBackend,
    checked_spurious_wake,
    get_backend,
    register_backend,
)
from repro.congest.stats import RoundStats
from repro.util.errors import CongestViolation
from repro.util.rng import derive_node_rng

__all__ = ["ShardedBackend", "default_worker_count"]


def default_worker_count() -> int:
    """Worker count when the caller does not pin one: ``min(4, cores)``."""
    return max(1, min(4, os.cpu_count() or 1))


class ShardedBackend(SchedulerBackend):
    """Multi-process active-set execution over BFS-contiguous shards."""

    name = "sharded"

    def execute(self, net, algorithms, run_seed, max_rounds, raise_on_timeout):
        from repro.graphs.partition import bfs_blocks

        if "fork" not in multiprocessing.get_all_start_methods():
            # Backends are observably identical by contract, so the
            # single-process event loop is a faithful stand-in where fork
            # (hence pickle-free worker state) is unavailable.
            return get_backend("event")().execute(
                net, algorithms, run_seed, max_rounds, raise_on_timeout
            )
        workers = net.workers if net.workers is not None else default_worker_count()
        # Shards iterate in global node-index order; bfs_blocks returns BFS
        # order, which only determines membership.
        index = net._index
        shards = [
            sorted(block, key=index.__getitem__)
            for block in bfs_blocks(net.graph, workers)
        ]
        return _run_sharded(
            net, algorithms, run_seed, max_rounds, raise_on_timeout, shards
        )


register_backend(ShardedBackend)


def _run_sharded(net, algorithms, run_seed, max_rounds, raise_on_timeout, shards):
    """Parent side: fork workers, route batches, detect quiescence, merge."""
    ctx = multiprocessing.get_context("fork")
    shard_of = {v: s for s, shard in enumerate(shards) for v in shard}
    conns = []
    procs = []
    try:
        for shard_id, shard in enumerate(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, shard_id, shard, shard_of, net, algorithms, run_seed),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        round_no = 0
        timed_out = False
        while True:
            reports = [_recv(conn, shard_id) for shard_id, conn in enumerate(conns)]
            _check_errors(reports, conns)
            incoming: list[list] = [[] for _ in shards]
            for _, remote_out, _ in reports:
                for destination, batch in remote_out.items():
                    incoming[destination].extend(batch)
            alive = any(pending for _, _, pending in reports) or any(incoming)
            if not alive:
                break
            if round_no >= max_rounds:
                timed_out = True
                break
            round_no += 1
            for conn, batch in zip(conns, incoming):
                conn.send(("round", round_no, batch))

        for conn in conns:
            conn.send(("stop",))
        results: dict[int, object] = {}
        merged: RoundStats | None = None
        finals = [_recv(conn, shard_id) for shard_id, conn in enumerate(conns)]
        _check_errors(finals, conns)
        for _, shard_results, shard_stats in finals:
            results.update(shard_results)
            merged = shard_stats if merged is None else merged.merge(shard_stats)
        for proc in procs:
            proc.join(timeout=30)
        if timed_out and raise_on_timeout:
            raise CongestViolation(
                f"execution did not quiesce within {max_rounds} rounds"
            )
        # Re-key into the graph's node order so result-dict iteration order
        # matches the in-process backends.
        return {v: results[v] for v in net._nodes}, merged or RoundStats()
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)


def _recv(conn, shard_id: int):
    """Receive one worker report, mapping a dead pipe to a clear error."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return ("error", CongestViolation(
            f"sharded worker {shard_id} died without reporting an error"
        ), None)


def _check_errors(reports, conns) -> None:
    """Re-raise the first worker exception, aborting the other workers."""
    for report in reports:
        if report[0] != "error":
            continue
        for conn in conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        raise report[1]


def _worker_main(conn, shard_id, my_nodes, shard_of, net, algorithms, run_seed):
    """Worker side: run one shard's slice of every round until told to stop.

    Staged messages live as ``target -> [(sender_index, sender, payload)]``
    lists (local sends and routed remote batches alike); at activation each
    inbox is materialized sorted by sender index, reproducing the event
    backend's insertion order exactly.
    """
    try:
        index = net._index
        sanitize = getattr(net, "sanitize", False)
        stats = RoundStats()
        fabric = MessageFabric(
            net._neighbor_sets, net.bandwidth_bits, net.enforce_bandwidth, stats
        )
        num_nodes = len(net._nodes)
        my_set = frozenset(my_nodes)
        contexts = {
            v: NodeContext(
                v, net._neighbors[v], num_nodes,
                partial(derive_node_rng, run_seed, index[v]),
            )
            for v in my_nodes
        }
        pending: dict[int, list] = {}
        latched: set[int] = set()

        def stage(sender, outbox, round_no, remote_out):
            sender_index = index[sender]
            for target, payload in outbox.items():
                bits = fabric.validate(sender, target, payload)
                stats.record_message(sender, target, bits, round_no)
                if target in my_set:
                    pending.setdefault(target, []).append(
                        (sender_index, sender, payload)
                    )
                else:
                    remote_out.setdefault(shard_of[target], []).append(
                        (sender_index, sender, target, payload)
                    )

        # Round 0: on_start runs on every node, by definition. Scheduled
        # wakes degrade to keep-alive on this backend: a node with a
        # pending timer stays latched (woken each round with an empty
        # inbox — the no-op early wakes the schedule_wake contract
        # permits) until the wake round clears it.
        remote_out: dict[int, list] = {}
        for v in my_nodes:
            node_ctx = contexts[v]
            outbox = algorithms[v].on_start(node_ctx) or {}
            if outbox:
                stage(v, outbox, 0, remote_out)
            if node_ctx._keep_alive or node_ctx._wake_at is not None:
                latched.add(v)
        conn.send(("round_done", remote_out, bool(pending or latched)))

        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, round_no, incoming = message
            for sender_index, sender, target, payload in incoming:
                pending.setdefault(target, []).append(
                    (sender_index, sender, payload)
                )
            current = sorted(pending.keys() | latched, key=index.__getitem__)
            staged, pending = pending, {}
            latched = set()
            remote_out = {}
            if current:
                stats.rounds = round_no
            for v in current:
                node_ctx = contexts[v]
                node_ctx.round = round_no
                latched_prev = node_ctx._keep_alive
                node_ctx._keep_alive = False
                timer_fired = (
                    node_ctx._wake_at is not None
                    and node_ctx._wake_at <= round_no
                )
                if timer_fired:
                    node_ctx._wake_at = None  # the timer fires with this wake
                entries = staged.get(v)
                if entries:
                    entries.sort()
                    inbox = {sender: payload for _, sender, payload in entries}
                else:
                    inbox = {}
                algorithm = algorithms[v]
                if sanitize and not inbox and not latched_prev and not timer_fired:
                    # A timer-degrade wake the event backend would never
                    # run — the conformance contract requires a no-op; a
                    # violation raised here ships to the parent through
                    # the normal error pipe.
                    outbox = checked_spurious_wake(
                        algorithm, node_ctx,
                        lambda a=algorithm, c=node_ctx: a.on_wake(c, {}),
                        v, round_no,
                    )
                else:
                    outbox = algorithm.on_wake(node_ctx, inbox) or {}
                stats.activations += 1
                if outbox:
                    stage(v, outbox, round_no, remote_out)
                if node_ctx._keep_alive or node_ctx._wake_at is not None:
                    latched.add(v)
            conn.send(("round_done", remote_out, bool(pending or latched)))

        conn.send(("done", {v: algorithms[v].result() for v in my_nodes}, stats))
        conn.close()
    except BaseException as exc:  # propagate to the parent, never deadlock
        try:
            conn.send(("error", exc, None))
        except Exception:
            try:
                conn.send(("error", CongestViolation(
                    f"sharded worker {shard_id} failed: {exc!r}"
                ), None))
            except Exception:
                pass
