"""Multiprocessing worker pool for hard synthesis queries.

Queries that miss the database (size > k) fall through to the
``A_i``-list scan, which is seconds of numpy work per query at paper
scale -- far too slow to serialize on the dispatcher thread.  The pool
fans those out across processes.

Process start-up strategy:

* Under ``fork`` (Linux), the pool is created *after* the parent has
  prepared its :class:`SynthesisHandle`; children inherit the database
  and lists copy-on-write, so start-up is instant and memory is shared.
  The pool must be created before the daemon starts its serving threads
  (forking a multithreaded process is unsafe).
* Under ``spawn`` (macOS/Windows default), each worker maps the
  handle's ``.rdb`` store in its initializer, zero-copy, so even
  spawned workers share one page-cache copy of the table and start in
  O(page-fault) time.  Pool restarts after a fault re-run the same
  initializer with the same store path, so recovered workers reopen
  the same mapping.

Workers never raise across the process boundary: outcomes (including
proven lower bounds) travel back as plain tuples, so exceptions with
non-trivial constructors survive and the parent rebuilds them.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

from repro.errors import ServiceError, SizeLimitExceededError, WorkerPoolError
from repro.service.tasks import PENDING

#: Handle inherited by fork-started workers (set in the parent just
#: before the pool is created; visible to children copy-on-write).
_FORK_HANDLE = None

#: Engine used inside a worker process (either the inherited fork handle
#: or one rebuilt by the spawn initializer).
_WORKER_ENGINE = None


@dataclass(frozen=True)
class HardResult:
    """Outcome of one hard query, safely picklable.

    Either ``size``/``circuit`` are set (success) or ``lower_bound`` is
    (the scan exhausted and proved size > L).
    """

    word: int
    size: "int | None" = None
    circuit: "str | None" = None
    lists_scanned: int = 0
    candidates_tested: int = 0
    lower_bound: "int | None" = None
    message: str = ""


def _init_fork_worker() -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = _FORK_HANDLE.engine


def _init_spawn_worker(n_wires, k, max_list_size, store_path) -> None:
    global _WORKER_ENGINE
    from repro.engines.optimal import make_optimal_synthesizer

    synth = make_optimal_synthesizer(
        n_wires=n_wires,
        k=k,
        max_list_size=max_list_size,
        cache_dir=False,
    )
    synth.prepare_from_store(store_path)
    _WORKER_ENGINE = synth.handle().engine


def solve_word(word: int) -> HardResult:
    """Full search for one word on the worker process's engine
    (module-level so it pickles by name)."""
    engine = _WORKER_ENGINE
    if engine is None:
        raise ServiceError("worker engine not initialized")
    return solve_with_engine(engine, word)


def solve_with_engine(engine, word: int, cancel=None) -> HardResult:
    """Search ``word`` on ``engine`` and box the outcome.

    ``cancel`` is a cooperative checkpoint threaded into the list scan
    (see :meth:`repro.synth.search.MeetInTheMiddleSearch.search`);
    whatever it raises propagates untouched so the work-item machinery
    can classify the abort.
    """
    try:
        outcome = engine.search(word, cancel=cancel)
    except SizeLimitExceededError as exc:
        return HardResult(
            word=word, lower_bound=exc.lower_bound, message=str(exc)
        )
    return HardResult(
        word=word,
        size=outcome.size,
        circuit=str(outcome.circuit),
        lists_scanned=outcome.lists_scanned,
        candidates_tested=outcome.candidates_tested,
    )


class WorkPreempted(ServiceError):
    """Internal signal: every in-flight work item of a dispatch was
    cancelled while running in worker processes.  Processes cannot
    observe cooperative checkpoints across the boundary, so the
    supervisor answers this by killing and rebuilding the pool -- the
    process-level kill path for non-cooperative work."""


class HardQueryPool:
    """A process pool bound to one prepared synthesis handle.

    With ``processes=0`` the pool degrades to inline execution on the
    caller's thread (useful for tests and single-core deployments); the
    API is identical.
    """

    def __init__(
        self,
        handle,
        processes: int = 0,
        start_method: "str | None" = None,
    ) -> None:
        global _FORK_HANDLE
        self.handle = handle
        self.processes = max(0, processes)
        self.start_method = start_method
        self._pool = None
        if self.processes == 0:
            return
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        if start_method not in methods:
            raise ServiceError(
                f"start method {start_method!r} unavailable "
                f"(have: {', '.join(methods)})"
            )
        ctx = multiprocessing.get_context(start_method)
        if start_method == "fork":
            _FORK_HANDLE = handle
            self._pool = ctx.Pool(
                processes=self.processes, initializer=_init_fork_worker
            )
        else:
            store_path = handle.store_path
            if store_path is None or not store_path.exists():
                raise ServiceError(
                    "spawn-based worker pool needs a persisted database "
                    "store (run with caching enabled)"
                )
            self._pool = ctx.Pool(
                processes=self.processes,
                initializer=_init_spawn_worker,
                initargs=(
                    handle.n_wires,
                    handle.k,
                    handle.max_list_size,
                    store_path,
                ),
            )

    @property
    def is_parallel(self) -> bool:
        return self._pool is not None

    def worker_pids(self) -> "list[int]":
        """PIDs of live worker processes (empty for the inline pool).

        Reads the pool's private worker list: the stdlib exposes no
        public liveness surface, and supervision needs one.
        """
        if self._pool is None:
            return []
        return [p.pid for p in self._pool._pool if p.is_alive()]

    def alive_workers(self) -> int:
        """How many worker processes are currently alive."""
        return len(self.worker_pids())

    def solve_items(
        self,
        items: list,
        timeout: "float | None" = None,
        on_dispatch=None,
        poll: float = 0.02,
    ) -> list:
        """Solve a group of :class:`repro.service.tasks.WorkItem`\\ s
        whose ``payload`` is the packed word -- the pool's one entry
        point.  Each item ends terminal, its ``result`` a
        :class:`HardResult`, and every unit is individually cancellable:

        * inline (``processes=0``): items run sequentially on the
          caller's thread with the token's cooperative checkpoint
          threaded into the scan -- a cancelled item stops within one
          ``A_i`` list.
        * parallel: items are submitted one task per word and the wait
          is a bounded poll loop.  An item cancelled mid-flight is
          detached immediately (its request degrades now; the worker's
          wasted result is dropped).  When *every* remaining item is
          cancelled the dispatch raises :class:`WorkPreempted` so the
          supervisor kills the pool -- worker processes cannot observe
          checkpoints, so preemption there is process-level.

        ``timeout`` bounds the whole dispatch; exceeding it raises
        :class:`WorkerPoolError` (a killed worker's task is silently
        lost by ``multiprocessing.Pool``, so a bounded wait is the only
        reliable dead/hung-worker detector).  ``on_dispatch`` is called
        with the pool once the items are handed over -- the
        fault-injection hook used by the chaos suite.  Terminal items
        are skipped, so the supervisor can resubmit the same list after
        a restart.
        """
        open_items = [item for item in items if not item.finished]
        if not open_items:
            return items
        if self._pool is None:
            if on_dispatch is not None:
                on_dispatch(self)
            engine = self.handle.engine
            for item in open_items:
                if item.fn is None:
                    item.fn = lambda token, w=item.payload: solve_with_engine(
                        engine, w, cancel=token.checkpoint
                    )
                item.run()
            return items
        in_flight = []
        for item in open_items:
            if item.token.cancelled:
                item.cancel(item.token.reason or "cancelled", force=True)
                continue
            if item.state == PENDING:
                item.start()
            in_flight.append(
                (item, self._pool.apply_async(solve_word, (item.payload,)))
            )
        if on_dispatch is not None:
            on_dispatch(self)
        deadline = time.monotonic() + timeout if timeout is not None else None
        while in_flight:
            still = []
            progressed = False
            for item, async_result in in_flight:
                if async_result.ready():
                    progressed = True
                    self._settle(item, async_result)
                    continue
                still.append((item, async_result))
            in_flight = still
            if not in_flight:
                break
            cancelled = [
                entry for entry in in_flight if entry[0].token.cancelled
            ]
            if len(cancelled) == len(in_flight):
                registry = in_flight[0][0].registry
                for item, _ in in_flight:
                    item.cancel(item.token.reason or "cancelled", force=True)
                if registry is not None:
                    registry.note_forced_kill(len(in_flight))
                raise WorkPreempted(
                    f"all {len(in_flight)} in-flight work item(s) were "
                    "cancelled; pool workers need a process-level kill"
                )
            if cancelled:
                # Some (not all) items preempted: detach them now so
                # their requests degrade immediately; the stragglers'
                # worker results are dropped when they arrive.
                for item, _ in cancelled:
                    item.cancel(item.token.reason or "cancelled", force=True)
                in_flight = [
                    entry for entry in in_flight if not entry[0].finished
                ]
                if not in_flight:
                    break
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerPoolError(
                    f"hard-query dispatch of {len(in_flight)} work item(s) "
                    f"exceeded its {timeout}s supervision timeout "
                    "(worker dead or hung)"
                )
            if not progressed:
                time.sleep(poll)
        return items

    @staticmethod
    def _settle(item, async_result) -> None:
        """Move a ready pool result into its item's terminal state."""
        try:
            result = async_result.get(0)
        except Exception as exc:
            try:
                item.degrade(exc)
            except ServiceError:  # force-cancelled concurrently
                pass
            return
        try:
            item.finish(result)
        except ServiceError:  # force-cancelled concurrently
            pass

    def restarted(self) -> "HardQueryPool":
        """Terminate this pool and return a fresh one with the same
        configuration (the supervisor's restart primitive)."""
        self.terminate()
        return HardQueryPool(
            self.handle,
            processes=self.processes,
            start_method=self.start_method,
        )

    def terminate(self, grace: float = 5.0) -> None:
        """Kill workers immediately (no graceful drain).

        A worker SIGKILLed mid-task can die *holding the pool's shared
        task-queue lock*, and the stdlib ``Pool.terminate`` drains that
        queue under the same lock -- so a naive teardown of a broken
        pool deadlocks forever.  Teardown therefore runs on a watchdog
        thread bounded by ``grace`` seconds; if it wedges, the surviving
        workers are SIGKILLed directly and the pool object is abandoned
        (``terminate`` flips the pool's state before the wedge point, so
        no new workers respawn, and its helper threads are daemonic).
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        pids = [p.pid for p in pool._pool if p.is_alive()]
        if not _stop_within(pool, pool.terminate, grace):
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass

    def close(self, grace: float = 5.0) -> None:
        """Let the workers exit and join them, bounded like
        :meth:`terminate`.

        The stdlib ``Pool.join`` after ``close`` waits forever when a
        worker died holding the pool's result-queue lock, or while a
        task lost with a dead worker is still pending; past ``grace``
        seconds the teardown falls back to :meth:`terminate`.
        """
        global _FORK_HANDLE
        pool = self._pool
        if pool is not None and not _stop_within(pool, pool.close, grace):
            self.terminate(grace)
        self._pool = None
        if _FORK_HANDLE is self.handle:
            _FORK_HANDLE = None

    def __enter__(self) -> "HardQueryPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _stop_within(pool, stop, grace: float) -> bool:
    """Run ``stop()`` (``pool.close`` or ``pool.terminate``) and then
    ``pool.join()`` on a daemon watchdog thread; return whether both
    finished within ``grace`` seconds.  A wedged thread is abandoned."""

    def _teardown() -> None:
        stop()
        # repro: allow[unbounded-wait] multiprocessing.Pool.join has no timeout parameter; the watchdog join below bounds this thread
        pool.join()

    reaper = threading.Thread(
        target=_teardown, name="pool-teardown", daemon=True
    )
    reaper.start()
    reaper.join(timeout=grace)
    return not reaper.is_alive()


__all__ = [
    "HardQueryPool",
    "HardResult",
    "WorkPreempted",
    "solve_with_engine",
    "solve_word",
]
