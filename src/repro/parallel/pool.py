"""Crash-isolated multiprocess cell pool.

The sweep workloads in this repo (Fig. 2's ⟨technique, failed site⟩
matrix, the §4 rotation drill) are embarrassingly parallel: every cell
is an independent simulation with its own seed. :func:`map_cells` fans a
list of cells out over a pool of worker processes and merges the results
back **in cell order**, so the output is independent of which worker
finished first.

Robustness model (a hung or dying cell must never hang the sweep):

* each worker runs one cell at a time, assigned over a private pipe;
* a cell that raises reports ``status="error"`` with its traceback;
* a worker that dies (segfault, ``os._exit``, OOM kill) reports the
  cell it was running as ``status="crashed"`` and is replaced;
* a cell that exceeds ``timeout_s`` of wall-clock time has its worker
  terminated, reports ``status="timeout"``, and is replaced.

``workers <= 1`` runs every cell in-process with no subprocesses at
all -- the exact serial path the CLI used before this module existed
(telemetry is recorded live rather than merged).

Telemetry: when the active backend is enabled, each worker installs a
fresh :class:`~repro.telemetry.Telemetry` (with a tracer iff the parent
has one) around its cell, and ships back a mergeable snapshot plus the
cell's trace events. The parent folds the snapshots into the active
backend in cell order -- counters sum, histograms bucket-merge, and each
cell's events land bracketed between ``CellStart``/``CellEnd`` markers
tagged with the cell id. Workers explicitly install their own backend,
so a fork-inherited parent registry is never written from a child.

Wall-clock reads below are scheduling/timeout bookkeeping for the host
pool, never simulation state, so the determinism lint is waived on
those lines.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Sequence

from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import CellEnd, CellStart, TraceEvent, TraceRecorder

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"


@dataclass(slots=True)
class CellTelemetry:
    """One cell's mergeable telemetry, shipped worker -> parent."""

    cell: str
    #: :meth:`Telemetry.mergeable_snapshot` of the cell's registry
    snapshot: dict
    #: the cell's trace events, in recording order
    events: list[TraceEvent]
    #: :meth:`EventProfiler.state` of the cell's profiler (None when
    #: profiling is off)
    profile: dict | None = None


@dataclass(slots=True)
class CellResult:
    """Outcome of one cell, successful or not."""

    index: int
    cell_id: str
    status: str
    value: Any = None
    error: str | None = None
    #: host wall-clock seconds the cell took (in its worker)
    wall_s: float = 0.0
    #: worker slot that ran the cell (-1 for the in-process serial path)
    worker: int = -1
    telemetry: CellTelemetry | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _pick_context() -> mp.context.BaseContext:
    # fork keeps worker start cheap and needs no importable __main__;
    # everywhere it is unavailable (Windows, some macOS setups) spawn
    # works because cells and context are shipped pickled either way.
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context("spawn")


def _run_one(
    worker_fn: Callable[[Any, Any], Any],
    context: Any,
    cell_id: str,
    payload: Any,
    collect: bool,
    want_trace: bool,
    want_profile: bool = False,
) -> tuple[str, Any, str | None, float, CellTelemetry | None]:
    """Run one cell under a private telemetry backend (worker side)."""
    profiler = None
    watch = nullcontext()
    if collect:
        tracer = TraceRecorder() if want_trace else None
        if want_profile:
            # Local import: keeps repro.parallel importable without
            # repro.obs for callers that never profile.
            from repro.obs.profiler import EventProfiler, watch_collector

            profiler = EventProfiler()
            watch = watch_collector(profiler)
        backend: telemetry_registry.Telemetry | telemetry_registry.NullTelemetry
        backend = telemetry_registry.Telemetry(tracer=tracer, profiler=profiler)
    else:
        tracer = None
        backend = telemetry_registry.NULL
    # Install explicitly (not `using`): a fork-inherited parent backend
    # must never be written from the worker, success or failure.
    telemetry_registry.install(backend)
    start = time.perf_counter()  # repro: noqa[DET004]
    try:
        with watch:
            value = worker_fn(context, payload)
        status, error = STATUS_OK, None
    except Exception:
        value, status, error = None, STATUS_ERROR, traceback.format_exc()
    finally:
        telemetry_registry.reset()
    wall_s = time.perf_counter() - start  # repro: noqa[DET004]
    cell_telemetry = None
    if collect:
        cell_telemetry = CellTelemetry(
            cell=cell_id,
            snapshot=backend.mergeable_snapshot(),
            events=tracer.events if tracer is not None else [],
            profile=profiler.state() if profiler is not None else None,
        )
    return status, value, error, wall_s, cell_telemetry


def _worker_main(
    worker_id: int,
    conn: Connection,
    worker_fn: Callable[[Any, Any], Any],
    context: Any,
    cells: Sequence[tuple[str, Any]],
    collect: bool,
    want_trace: bool,
    want_profile: bool,
) -> None:
    """Worker loop: receive cell indices until the ``None`` sentinel."""
    try:
        while True:
            index = conn.recv()
            if index is None:
                return
            cell_id, payload = cells[index]
            conn.send((index, *_run_one(
                worker_fn, context, cell_id, payload, collect, want_trace, want_profile
            )))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # parent went away
        return


@dataclass(slots=True)
class _Worker:
    id: int
    process: Any
    conn: Connection
    #: index of the cell currently running, None when idle/retired
    current: int | None = None
    #: host-clock time the current cell was assigned
    started_at: float = 0.0


def map_cells(
    worker_fn: Callable[[Any, Any], Any],
    context: Any,
    cells: Sequence[tuple[str, Any]],
    *,
    workers: int = 1,
    timeout_s: float | None = None,
    progress: Callable[[int, int, CellResult], None] | None = None,
) -> list[CellResult]:
    """Run ``worker_fn(context, payload)`` for every ``(cell_id,
    payload)`` in ``cells`` and return one :class:`CellResult` per cell,
    **in input order**.

    ``worker_fn`` must be a module-level function and ``context``/
    ``payload`` picklable: both cross a process boundary when
    ``workers > 1``. Workers collect per-cell telemetry exactly when the
    parent's active backend is enabled. ``progress`` is called after
    each completion with ``(done, total, result)``.
    """
    total = len(cells)
    results: dict[int, CellResult] = {}
    parent_backend = telemetry_registry.current()
    collect = bool(parent_backend.enabled)

    # Cells run against a frozen heap (docs/parallel.md): the world they
    # share is read-only from here on, so collector passes walk a cell's
    # own objects only; forked workers inherit it. Every exit unfreezes.
    if workers <= 1 or total == 0:
        gc.freeze()
        try:
            for index, (cell_id, payload) in enumerate(cells):
                start = time.perf_counter()  # repro: noqa[DET004]
                try:
                    value = worker_fn(context, payload)
                    result = CellResult(index, cell_id, STATUS_OK, value=value)
                except Exception:
                    result = CellResult(
                        index, cell_id, STATUS_ERROR, error=traceback.format_exc()
                    )
                result.wall_s = time.perf_counter() - start  # repro: noqa[DET004]
                results[index] = result
                if progress is not None:
                    progress(len(results), total, result)
        finally:
            gc.unfreeze()
        return [results[i] for i in range(total)]

    ctx = _pick_context()
    want_trace = collect and getattr(parent_backend, "tracer", None) is not None
    want_profile = collect and getattr(parent_backend, "profiler", None) is not None
    pool_size = min(workers, total)
    pending: deque[int] = deque(range(total))
    next_worker_id = 0

    def spawn() -> _Worker:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(worker_id, child_conn, worker_fn, context, list(cells),
                  collect, want_trace, want_profile),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(id=worker_id, process=process, conn=parent_conn)

    def assign_or_retire(worker: _Worker) -> None:
        """Hand the worker its next cell, or tell it to exit."""
        if pending:
            worker.current = pending.popleft()
            worker.started_at = time.monotonic()  # repro: noqa[DET004]
            worker.conn.send(worker.current)
        else:
            worker.current = None
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.conn.close()
            active.remove(worker)

    def record(result: CellResult) -> None:
        results[result.index] = result
        if progress is not None:
            progress(len(results), total, result)

    def fail_cell(worker: _Worker, status: str, error: str) -> None:
        """The worker's current cell is lost; replace the worker."""
        assert worker.current is not None
        wall_s = time.monotonic() - worker.started_at  # repro: noqa[DET004]
        record(CellResult(
            index=worker.current, cell_id=cells[worker.current][0],
            status=status, error=error, wall_s=wall_s, worker=worker.id,
        ))
        worker.current = None
        worker.conn.close()
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join()
        active.remove(worker)
        if pending:
            replacement = spawn()
            active.append(replacement)
            assign_or_retire(replacement)

    active: list[_Worker] = []
    gc.freeze()
    try:
        for _ in range(pool_size):
            active.append(spawn())
        for worker in list(active):
            assign_or_retire(worker)

        while len(results) < total and active:
            poll_s = 0.2
            if timeout_s:
                now = time.monotonic()  # repro: noqa[DET004]
                deadlines = [
                    w.started_at + timeout_s - now for w in active if w.current is not None
                ]
                if deadlines:
                    poll_s = max(0.0, min(min(deadlines), poll_s))
            ready = connection_wait([w.conn for w in active], timeout=poll_s)
            for conn in ready:
                worker = next(w for w in active if w.conn is conn)
                try:
                    index, status, value, error, wall_s, telemetry = conn.recv()
                except (EOFError, OSError):
                    code = worker.process.exitcode
                    fail_cell(
                        worker, STATUS_CRASHED,
                        f"worker process died (exit code {code}) while running the cell",
                    )
                    continue
                record(CellResult(
                    index=index, cell_id=cells[index][0], status=status,
                    value=value, error=error, wall_s=wall_s, worker=worker.id,
                    telemetry=telemetry,
                ))
                assign_or_retire(worker)
            if timeout_s:
                now = time.monotonic()  # repro: noqa[DET004]
                for worker in list(active):
                    if worker.current is not None and now - worker.started_at > timeout_s:
                        fail_cell(
                            worker, STATUS_TIMEOUT,
                            f"cell exceeded the per-cell timeout of {timeout_s:g}s",
                        )
    finally:
        gc.unfreeze()
        for worker in active:
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join()

    ordered = [results[i] for i in range(total)]
    if collect:
        merge_telemetry(parent_backend, ordered)
    return ordered


def merge_telemetry(backend, results: list[CellResult]) -> None:
    """Fold per-cell telemetry into ``backend`` in cell order.

    Counters sum and histograms bucket-merge via
    :meth:`Telemetry.merge_snapshot`; each cell's trace events are
    re-emitted bracketed by :class:`CellStart`/:class:`CellEnd` markers
    carrying the cell id, so the merged trace stays attributable.
    """
    for result in results:
        cell_telemetry = result.telemetry
        if cell_telemetry is None:
            continue
        backend.merge_snapshot(cell_telemetry.snapshot)
        profiler = getattr(backend, "profiler", None)
        if profiler is not None and cell_telemetry.profile is not None:
            profiler.merge_state(cell_telemetry.profile)
        if getattr(backend, "tracer", None) is not None:
            events = cell_telemetry.events
            backend.emit(CellStart(t=0.0, cell=cell_telemetry.cell, worker=result.worker))
            for event in events:
                backend.emit(event)
            backend.emit(CellEnd(
                t=events[-1].t if events else 0.0,
                cell=cell_telemetry.cell,
                status=result.status,
                wall_s=result.wall_s,
                events=len(events),
            ))
