"""Level-scheduled numeric execution over the elimination tree.

The paper's Fig. 3 attributes most backend numeric time to POTRF / TRSM /
SYRK on *independent* elimination-tree fronts, and the constrained-COLAMD
ordering produces the bushy trees (many nodes per depth level) that make
inter-node parallelism real.  This module is the software analogue of
the runtime's ready-node scheduler (Algorithm 2): supernodes are
bucketed into dependency *levels* (all children strictly below their
parent) and each level's independent fronts go through one
:meth:`ParallelStepExecutor.run_level` call.  It is the only numeric
driver of the refactorize, wildfire back-substitution and batch
factorize phases, at every worker count: with one worker ``run_level``
runs the level inline, in task order, with no pool and no lock; with
more it fans the level out onto a shared :class:`ThreadPoolExecutor`.
Python threads suffice because numpy/LAPACK release the GIL inside the
dense kernels that dominate (``cholesky``/``trtrs``/matmul), so large
fronts genuinely overlap.

Bit-identity contract
---------------------
Results are bit-identical at every worker count (atol 0 on deltas,
factors and traces).  Three rules make that hold:

* **Deterministic reduction order.**  Each node's inputs (children's
  ``C_update`` matrices, factor Hessians) are gathered *on the main
  thread in plan assembly order* before dispatch; workers only run the
  pure per-front kernel.  Nothing is ever reduced in completion order.
* **Cross-subtree accumulations stay serial.**  The engine's forward
  sweep and rhs/carry scatter run on the main thread in head order
  after the level barrier, and the triangular sweeps of
  :func:`repro.linalg.plan.tree_solve` are not level-scheduled at all.
* **Canonical trace order.**  Per-node traces are created on the main
  thread in head order before dispatch (refactorize, batch factorize)
  or recorded detached and adopted afterwards in descending
  last-position order (back-substitution), so ``OpTrace`` insertion
  order — which feeds the left-to-right float sum in
  ``sequential_cycles`` — is the same at every worker count.

``workers`` resolution: ``None`` reads ``REPRO_WORKERS`` (default 1 =
inline), ``<= 0`` means one worker per CPU.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.linalg.plan import StepExecutor


def default_workers() -> int:
    """Worker count from the ``REPRO_WORKERS`` environment variable.

    Lets a user give every solver a thread pool without touching call
    sites; unset or empty means 1 (inline dispatch).
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return 1
    return resolve_workers(int(raw))


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument: None -> env default, <=0 -> #CPUs."""
    if workers is None:
        return default_workers()
    workers = int(workers)
    if workers <= 0:
        return max(1, os.cpu_count() or 1)
    return workers


_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_SIZE = 0


def shared_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide worker pool, grown on demand and never shrunk.

    One pool is shared by every solver instance so nested construction
    (e.g. LM's per-lambda solvers) cannot multiply idle threads.  Pools
    are only used between level barriers on the main thread, so swapping
    in a larger one is safe.
    """
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE < workers:
            old = _POOL
            _POOL = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="repro-front")
            _POOL_SIZE = workers
            if old is not None:
                old.shutdown(wait=False)
        return _POOL


def levels_from_parents(ordered_ids: Sequence[int],
                        parents: Dict[int, Optional[int]],
                        ) -> List[List[int]]:
    """Bucket nodes into bottom-up dependency levels.

    ``ordered_ids`` must list children before parents (every caller's
    node order already is: head-ascending fresh nodes, ``node_order()``
    sids, bottom-up solve entries).  ``parents`` maps id -> parent id;
    None or an id outside the set marks a root.  Level 0 holds leaves,
    and ``level(node) = 1 + max(level(children))``, so nodes within one
    level are mutually independent.  Each level preserves the input
    order — the deterministic order every dispatch and reduction uses.
    """
    id_set = set(ordered_ids)
    level: Dict[int, int] = {}
    pending: Dict[int, int] = {}
    for nid in ordered_ids:
        lvl = pending.pop(nid, 0)
        level[nid] = lvl
        parent = parents.get(nid)
        if parent is not None and parent in id_set:
            if lvl >= pending.get(parent, 0):
                pending[parent] = lvl + 1
    if not level:
        return []
    levels: List[List[int]] = [[] for _ in range(max(level.values()) + 1)]
    for nid in ordered_ids:
        levels[level[nid]].append(nid)
    return levels


class LevelStats:
    """Accumulated pool-dispatch statistics of one step's levels.

    ``nodes``/``levels`` count fronts actually dispatched to the pool
    (inline levels don't count); ``task_seconds`` is
    the summed per-task wall time and ``wall_seconds`` the elapsed time
    of the dispatched levels, so ``task_seconds / wall_seconds`` is the
    achieved concurrency (the ``wall_speedup`` report extra).
    """

    __slots__ = ("nodes", "levels", "task_seconds", "wall_seconds")

    def __init__(self) -> None:
        self.nodes = 0
        self.levels = 0
        self.task_seconds = 0.0
        self.wall_seconds = 0.0


def wall_speedup(task_seconds: float, wall_seconds: float) -> float:
    """Achieved concurrency of pool dispatches: summed task time over
    elapsed time, 1.0 when nothing was dispatched."""
    return task_seconds / wall_seconds if wall_seconds > 0.0 else 1.0


class ParallelStepExecutor(StepExecutor):
    """A :class:`StepExecutor` that runs one dependency level at a time.

    The per-node kernels (``factorize_node`` / ``forward_update`` /
    ``backsolve_node``) are inherited unchanged.  Callers build level
    schedules and hand every level to :meth:`run_level`, the one place
    that decides between inline and pooled execution; with
    ``workers=1`` every level runs inline.
    """

    __slots__ = ("workers",)

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)

    def run_level(self, tasks: Sequence[Callable[[], object]],
                  stats: Optional[LevelStats] = None,
                  priorities: Optional[Sequence[float]] = None,
                  ) -> List[object]:
        """Run one dependency level's tasks; barrier before returning.

        Results come back in *task order* regardless of how the level
        was scheduled.  ``priorities`` (parallel to ``tasks``) submits
        the costliest fronts first — largest-front-first list
        scheduling, so the level's straggler starts earliest and the
        barrier closes sooner.  Ties (and the unprioritized default)
        keep task order.  Execution order within a level is
        result-independent (tasks are mutually independent by
        construction), so prioritization cannot change a single bit of
        any caller's output.  A raising task propagates the earliest
        exception in task order — after every task of the level has
        finished, so no worker ever races a caller's post-barrier
        reduction.  Levels of width <= 1, and every level of a
        one-worker executor, run inline in task order, never touching
        the pool or ``stats``.
        """
        if self.workers <= 1 or len(tasks) <= 1:
            return [task() for task in tasks]
        pool = shared_pool(self.workers)
        start = time.perf_counter()
        order = range(len(tasks))
        if priorities is not None:
            order = sorted(order, key=lambda i: (-priorities[i], i))
        futures: List[object] = [None] * len(tasks)
        for i in order:
            futures[i] = pool.submit(_timed_call, tasks[i])
        results: List[object] = []
        task_seconds = 0.0
        error: Optional[BaseException] = None
        for future in futures:
            try:
                out, seconds = future.result()
            except BaseException as exc:
                if error is None:
                    error = exc
            else:
                results.append(out)
                task_seconds += seconds
        if error is not None:
            raise error
        if stats is not None:
            stats.nodes += len(tasks)
            stats.levels += 1
            stats.task_seconds += task_seconds
            stats.wall_seconds += time.perf_counter() - start
        return results


def _timed_call(task: Callable[[], object]) -> Tuple[object, float]:
    start = time.perf_counter()
    out = task()
    return out, time.perf_counter() - start
