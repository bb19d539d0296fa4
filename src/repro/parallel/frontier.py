"""Sharded BFS frontier for the fingerprinted checker.

One level of the level-synchronous search in
:func:`repro.checker.statespace.explore_fast` is an embarrassingly
parallel map: every frontier configuration can be expanded
independently, and only the visited-set merge needs coordination.  This
module spreads the search across ``workers`` spawned processes, each
on its own pipe, and keeps each BFS level *in the worker that produced
it*: a worker's slice of the frontier stays packed in its own table-IR
ids, and per level only fingerprints and admit flags cross the process
boundary.

One level (docs/CHECKER.md §5):

1. The parent sends every worker an ``expand`` task carrying its reply
   to the worker's previous level (one admit flag per successor; under
   POR the merged sleep mask, ``-1`` for refused).
2. Each worker keeps the admitted successors as its resident slice,
   expands it with :meth:`~repro.checker.statespace.StateSpaceEngine.
   expand_level` against a worker-local visited set, keeps the packed
   successors, and returns ``(edges, pruned, violations)`` plus the
   successors' 64-bit fingerprints as one ``array('Q')`` (POR adds each
   successor's sleep mask).
3. The parent merges the arrays in worker order against the global
   visited set, applying ``max_states`` exactly as the serial search
   does, and records the admit reply that rides on the next task.

Items are decoded once per search: the first pool level is handed off
decoded (each worker interns into its own
:class:`~repro.ir.lower.CompiledProtocol`, so packed ids are not
portable), split contiguously across the workers.  Exact mode has no
content-derived fingerprint, so there workers send decoded keys and the
parent encodes them against its own tables.

Determinism contract
--------------------

Fingerprints are content-derived (:mod:`repro.checker.fingerprint`), so
a worker's fingerprint of a configuration equals the parent's and every
other worker's.  Slices are contiguous and merged in worker order, so
the concatenation of the resident slices *is* the serial search's level,
in serial order; a successor found by several workers in one level is
kept by the lowest worker index.  For a non-violating search visited,
edges, depth, exhausted and frontier are therefore identical at every
worker count, including ``workers=1`` serial.  On a violating search the
first violation in worker order wins; the verdict never differs.

A worker that dies (EOF on its pipe) or raises surfaces as
:class:`FrontierWorkerError` naming the worker and the depth;
:meth:`FrontierPool.close` stops, joins and if need be terminates every
worker.  Starting, addressing and stopping the workers is
:class:`repro.parallel.workers.Workers`'s job, shared with the sweep
executor.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import traceback
from array import array
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

from repro.parallel.workers import Workers


class FrontierWorkerError(RuntimeError):
    """A frontier worker died or failed; the search cannot go on."""


@dataclasses.dataclass(frozen=True)
class FrontierSpec:
    """Everything a worker needs to rebuild the parent's engine.

    ``factory`` is a picklable protocol factory (e.g.
    :class:`repro.parallel.tasks.ProtocolSpec`); the reduction flags
    are the parent's *resolved* settings, so the worker's engine —
    rebuilt independently — applies the same canonicalization and
    pruning and produces content-identical fingerprints.
    """

    factory: Callable[[], Any]
    inputs: Tuple[Hashable, ...]
    memory: str
    exact: bool
    symmetry: bool
    por: bool
    fingerprint_seed: int


@dataclasses.dataclass(frozen=True)
class FrontierShardTask:
    """One BFS level for one worker.

    ``items`` is the decoded handoff slice (first pool level only);
    otherwise ``admit`` is the parent's reply to the worker's previous
    level: ``bytes`` of 0/1 flags, or under POR an ``array('q')`` of
    merged sleep masks with ``-1`` for refused.
    """

    depth: int
    items: Optional[Tuple[Tuple, ...]] = None
    admit: Any = None


@dataclasses.dataclass
class FrontierShardResult:
    """A worker's expansion of its resident slice.

    ``successors`` holds one entry per kept successor, in expansion
    order: its fingerprint (an ``array('Q')``), or in exact mode its
    decoded ``(states, reg-values, mem)`` key.  ``masks`` carries the
    successors' sleep masks under POR (else ``None``); ``violations``
    are decoded ``(message, states, regs, mem)`` records.
    """

    edges: int
    pruned: int
    successors: Any
    masks: Optional[array]
    violations: List[Tuple]


# -- worker side ---------------------------------------------------------

_WORKER_ENGINE = None
#: The slice expanded last (kept to locate a budget refusal).
_RESIDENT: List[Tuple] = []
#: Its successors, awaiting the parent's admit reply.
_PENDING: List[Tuple] = []


def _engine_from_spec(spec: FrontierSpec):
    from repro.checker.statespace import StateSpaceEngine

    return StateSpaceEngine(
        spec.factory(), spec.inputs, spec.memory, exact=spec.exact,
        symmetry=spec.symmetry, por=spec.por,
        fingerprint_seed=spec.fingerprint_seed)


def _admitted(admit) -> List[Tuple]:
    """The pending successors the parent admitted, as the next slice."""
    if _WORKER_ENGINE.por:
        return [item[:4] + (mask,) for item, mask in zip(_PENDING, admit)
                if mask >= 0]
    return list(itertools.compress(_PENDING, admit))


def _expand_frontier_shard(task: FrontierShardTask) -> FrontierShardResult:
    """Expand this worker's resident slice for one level.

    Local dedup only trims the transport volume; the authoritative
    dedup — against states visited at *any* level by *any* worker — is
    the parent merge.
    """
    global _RESIDENT, _PENDING
    engine = _WORKER_ENGINE
    if task.items is not None:
        _RESIDENT = [engine.encode_item(item) for item in task.items]
    else:
        _RESIDENT = _admitted(task.admit)
    visited: Any = {} if engine.por else set()
    _PENDING = []
    edges, pruned, violations, _ = engine.expand_level(
        _RESIDENT, visited, _PENDING, task.depth, None)
    if engine.exact:
        successors: Any = [engine.decode_item(item)[:3]
                           for item in _PENDING]
    else:
        successors = array("Q", [item[3] for item in _PENDING])
    masks = (array("Q", [item[4] for item in _PENDING])
             if engine.por else None)
    return FrontierShardResult(edges, pruned, successors, masks,
                               violations)


def _locate_successor(index: int, depth: int) -> int:
    """Which resident item produced successor ``index`` of the last level.

    Re-expands the slice item by item with the same local dedup, so the
    successor order is the one the parent merged.
    """
    engine = _WORKER_ENGINE
    visited: Any = {} if engine.por else set()
    produced: List[Tuple] = []
    for idx, item in enumerate(_RESIDENT):
        engine.expand_level([item], visited, produced, depth, None)
        if len(produced) > index:
            return idx
    raise IndexError(f"no successor {index} in the resident slice")


def _has_enabled(admit) -> bool:
    engine = _WORKER_ENGINE
    return any(engine.has_enabled(item) for item in _admitted(admit))


def _frontier_worker(conn, spec: FrontierSpec) -> None:
    """Worker main loop: build the engine, then serve the parent."""
    global _WORKER_ENGINE
    try:
        _WORKER_ENGINE = _engine_from_spec(spec)
        failure = None
    except Exception:
        failure = traceback.format_exc()
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        op, arg = msg
        if failure is not None:
            conn.send(("error", failure))
            continue
        try:
            if op == "expand":
                # Through the module global, so a wrapped
                # ``_expand_frontier_shard`` sees every level.
                reply = _expand_frontier_shard(arg)
            elif op == "locate":
                reply = _locate_successor(*arg)
            else:
                reply = _has_enabled(arg)
        except Exception:
            conn.send(("error", traceback.format_exc()))
        else:
            conn.send(("ok", reply))


# -- parent side ---------------------------------------------------------


class FrontierPool:
    """``workers`` spawned processes holding one search's frontier.

    Mirrors :meth:`repro.checker.statespace.StateSpaceEngine.
    expand_level`'s contract so the serial and sharded paths are
    interchangeable inside ``explore_fast``.  The parent keeps sole
    ownership of the global visited set; once the first level is handed
    off, ``next_items`` receives ``(None, None, None, key, mask)``
    handles, and the items themselves live in the workers.
    """

    def __init__(self, engine, workers: int,
                 protocol_factory: Optional[Callable[[], Any]] = None) \
            -> None:
        factory = protocol_factory
        if factory is None:
            factory = _ConstFactory(engine.protocol)
        spec = FrontierSpec(
            factory=factory,
            inputs=engine.inputs,
            memory=engine.spec.name,
            exact=engine.exact,
            symmetry=engine.group is not None,
            por=engine.por,
            fingerprint_seed=engine.fingerprint_seed,
        )
        try:
            pickle.dumps(spec)
        except Exception as exc:
            raise ValueError(
                "frontier workers need a picklable protocol factory — "
                "pass protocol_factory= (e.g. repro.parallel.tasks."
                f"ProtocolSpec) [pickle said: {exc}]") from exc
        self.engine = engine
        self.workers = workers
        #: Resident slice size per worker (``None`` before the handoff).
        self._sizes: Optional[List[int]] = None
        #: The admit reply owed to each worker for its last level.
        self._admit: List[Any] = [None] * workers
        self._workers = Workers(_frontier_worker, (spec,), workers,
                                "frontier")

    def close(self) -> None:
        """Stop and join every worker; terminate any that linger."""
        self._workers.close()

    def _call(self, requests: Sequence[Tuple[int, str, Any]],
              depth: int) -> List[Any]:
        """Send ``(worker, op, arg)`` requests, then collect the replies
        in request order."""
        for worker, op, arg in requests:
            try:
                self._workers.conns[worker].send((op, arg))
            except OSError as exc:
                raise self._died(worker, depth) from exc
        replies = []
        for worker, _, _ in requests:
            try:
                status, payload = self._workers.conns[worker].recv()
            except (EOFError, OSError) as exc:
                raise self._died(worker, depth) from exc
            if status == "error":
                raise FrontierWorkerError(
                    f"frontier worker {worker} failed at depth {depth}:\n"
                    f"{payload}")
            replies.append(payload)
        return replies

    def _died(self, worker: int, depth: int) -> FrontierWorkerError:
        pid, exitcode = self._workers.exit_status(worker)
        return FrontierWorkerError(
            f"frontier worker {worker} (pid {pid}) died at depth "
            f"{depth} (exit code {exitcode})")

    def expand_level(self, items: Sequence[Tuple], visited,
                     next_items: List[Tuple], depth: int,
                     max_states: Optional[int]) -> Tuple:
        """Expand the resident level; merge the results in worker order.

        Same return shape as the engine's ``expand_level``.  ``items``
        is read only on the first call, which hands the packed level to
        the workers; later calls get the handles this method appended.
        """
        engine = self.engine
        workers = self.workers
        if self._sizes is None:
            bounds = [len(items) * w // workers for w in range(workers + 1)]
            self._sizes = [bounds[w + 1] - bounds[w] for w in range(workers)]
            tasks = [FrontierShardTask(depth, items=tuple(
                         engine.decode_item(item)
                         for item in items[bounds[w]:bounds[w + 1]]))
                     for w in range(workers)]
        else:
            tasks = [FrontierShardTask(depth, admit=self._admit[w])
                     for w in range(workers)]
        results = self._call([(w, "expand", task)
                              for w, task in enumerate(tasks)], depth)

        edges = 0
        pruned = 0
        violations: List[Tuple] = []
        offset = 0
        for w, result in enumerate(results):
            edges += result.edges
            pruned += result.pruned
            keys = result.successors
            if engine.exact:
                keys = [engine.encode_item(key + (0,))[3] for key in keys]
            if engine.por:
                reply, kept, refused = _merge_masks(
                    keys, result.masks, visited, next_items, max_states)
            else:
                reply, kept, refused = _merge_keys(
                    keys, visited, next_items, max_states)
            if refused is not None:
                local = self._call([(w, "locate", (refused, depth))],
                                   depth)[0]
                return edges, pruned, violations, offset + local
            offset += self._sizes[w]
            self._sizes[w] = kept
            self._admit[w] = reply
            if result.violations:
                violations.extend(result.violations)
                break
        return edges, pruned, violations, None

    def has_enabled(self, depth: int) -> bool:
        """Does any resident item still have a step (frontier liveness)?"""
        replies = self._call([(w, "has_enabled", self._admit[w])
                              for w in range(self.workers)], depth)
        return any(replies)


def _merge_keys(keys: Sequence, visited, next_items: List[Tuple],
                max_states: Optional[int]) -> Tuple:
    """Admit one worker's new keys into ``visited`` (no POR).

    Returns ``(reply, kept, refused)``: 0/1 admit flags per key, how
    many were admitted, and the index of the key the state budget
    refused (else ``None``).
    """
    reply = bytearray(len(keys))
    append = next_items.append
    kept = 0
    for j, key in enumerate(keys):
        if key in visited:
            continue
        if max_states is not None and len(visited) >= max_states:
            return reply, kept, j
        visited.add(key)
        reply[j] = 1
        kept += 1
        append((None, None, None, key, 0))
    return bytes(reply), kept, None


def _merge_masks(keys: Sequence, masks: array, visited,
                 next_items: List[Tuple], max_states: Optional[int]) -> Tuple:
    """POR counterpart of :func:`_merge_keys` over a ``{key: mask}`` map.

    A revisit whose merged sleep mask shrinks is re-admitted with the
    merged mask, exactly as the serial expansion re-appends it; the
    reply carries the mask each admitted successor continues with.
    """
    reply = array("q", [-1]) * len(keys)
    append = next_items.append
    kept = 0
    for j, key in enumerate(keys):
        mask = masks[j]
        old = visited.get(key)
        if old is None:
            if max_states is not None and len(visited) >= max_states:
                return reply, kept, j
        elif old & mask != old:
            mask &= old
        else:
            continue
        visited[key] = mask
        reply[j] = mask
        kept += 1
        append((None, None, None, key, mask))
    return reply, kept, None


@dataclasses.dataclass(frozen=True)
class _ConstFactory:
    """Wrap an already-built protocol as a factory (pickled by value)."""

    protocol: Any

    def __call__(self):
        return self.protocol
