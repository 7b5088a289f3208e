"""Seeded, order-deterministic parallel experiment fleet.

The experiment pipelines (detector matrices, the Fig 6/8 and Table 1
benches) are embarrassingly parallel at the granularity of one machine
run: every run is fully described by its seeds and configuration, and the
simulator is deterministic, so executing runs in worker processes cannot
change any result — only wall-clock time.

Two pieces make that safe:

* :class:`MachineSpec` — a frozen, picklable description of one machine
  execution (program, config, seeds, workload, covert schedule, replay
  log).  Workers rebuild the ``Machine`` from the spec; live machines —
  with their closures, ledgers, and open sessions — never cross a process
  boundary.
* :func:`run_fleet` — maps a top-level worker function over a task list
  on the process's worker pool (``fork`` start method where available)
  and returns results **in submission order**, so callers see exactly the
  list a serial loop would have produced.  ``jobs=None`` uses
  :func:`default_jobs`; ``jobs<=1`` (or a single task) degrades to the
  plain serial loop, which keeps single-core environments and debuggers
  happy.

The pool lives as long as the process: it is forked on the first call
that fans out and serves every later call with the same requested
``jobs`` and the same ``REPRO_*`` environment.  A call with a different
key shuts it down before forking its own, and a broken pool (a worker
killed from outside) is dropped and that call runs serially.

Work can also reach the pool *before* the call that needs it.
:func:`prefetch` submits tasks and keeps their futures in a memo keyed
by ``(worker, task)``; :func:`run_fleet` serves each task that has a
future there from that future (waiting for it, never running it in the
caller), runs the rest as it would without a memo, and returns results
in submission order.  The memo belongs to the pool: a broken pool or a
key change drops both.  :func:`prefetching` bounds prefetched work to a
block: on leaving it, futures that have not started are cancelled,
running ones are waited for, and the memo is emptied.  The verifier
fleet uses it to run the next plays and the planned audits while its
event loop works on the current ones (DESIGN §7).

Determinism note: worker processes recompute everything from seeds, so
``run_fleet(specs, jobs=4)`` is bit-identical to ``jobs=1`` — there is a
regression test asserting cycles, transmissions, ledger totals, and AUCs
match between the two.  Reusing a worker for many tasks is exact for the
same reason: the serial path already runs every task in one long-lived
process, and a prefetched task is the same pure function of the same
task, computed earlier.  What a task needs must travel in the task or in
``REPRO_*``; a module attribute patched in the parent after the pool was
forked does not reach its workers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from repro.errors import ReplayError
from repro.machine.config import MachineConfig
from repro.machine.machine import ExecutionResult
from repro.obs.snapshot import FleetObservations, ObsSnapshot

__all__ = ["MachineSpec", "ObservedExecution", "default_jobs",
           "execute_spec", "prefetch", "prefetching", "run_fleet",
           "run_fleet_observed"]


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the host's CPU count."""
    env = os.environ.get("REPRO_JOBS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass(frozen=True)
class MachineSpec:
    """Everything needed to rebuild and run one machine, picklably.

    ``program`` is a symbolic reference, resolved (and compiled, with a
    per-process cache) inside the worker:

    * ``"nfs"`` / ``"kvstore"`` — the bundled server applications;
    * ``"kernel:<name>"`` — a SciMark kernel (``sor``, ``fft``, ...);
    * ``"zero-array:<elements>"`` — the §2.4 microbenchmark;
    * ``"src:<minij source>"`` — any MiniJ program, compiled on demand.

    ``workload`` (play mode only) is ``"nfs:<seed>:<requests>"`` or
    ``"kvstore:<seed>:<requests>"``; ``log_bytes`` (replay mode only) is
    the serialized event log to reproduce.
    """

    program: str
    config: MachineConfig
    seed: int = 0
    mode: str = "play"
    workload: str | None = None
    covert_schedule: tuple[int, ...] | None = None
    log_bytes: bytes | None = None
    max_instructions: int | None = 200_000_000
    #: Attach a fresh :class:`~repro.obs.Observability` bundle inside the
    #: worker and return an :class:`ObservedExecution` instead of a bare
    #: result.  Off by default: unobserved specs pay nothing.
    observe: bool = False
    #: With ``observe``, also enable the cycle-exact stack profiler; the
    #: profile rides home on ``ExecutionResult.profile`` (plain dict, so
    #: it crosses the pool like every other result field).
    profile: bool = False


class ObservedExecution(NamedTuple):
    """A worker's result plus the picklable image of what it observed."""

    result: ExecutionResult
    snapshot: ObsSnapshot


@lru_cache(maxsize=64)
def _compiled(program: str):
    """Per-process program cache: compile each symbolic ref once."""
    from repro.apps import (build_kernel_program, build_kvstore_program,
                            build_nfs_program, compile_app,
                            zero_array_source)

    if program == "nfs":
        return build_nfs_program()
    if program == "kvstore":
        return build_kvstore_program()
    if program.startswith("kernel:"):
        return build_kernel_program(program.split(":", 1)[1])
    if program.startswith("zero-array:"):
        return compile_app(zero_array_source(int(program.split(":", 1)[1])))
    if program.startswith("src:"):
        return compile_app(program.split(":", 1)[1])
    raise ReplayError(f"unknown program spec '{program}'")


def _workload(spec: MachineSpec):
    if spec.workload is None:
        return None
    from repro.apps import build_kvstore_workload, build_nfs_workload
    from repro.determinism import SplitMix64

    kind, wseed, requests = spec.workload.split(":")
    builder = {"nfs": build_nfs_workload,
               "kvstore": build_kvstore_workload}.get(kind)
    if builder is None:
        raise ReplayError(f"unknown workload spec '{spec.workload}'")
    return builder(SplitMix64(int(wseed)), num_requests=int(requests))


def execute_spec(spec: MachineSpec) -> "ExecutionResult | ObservedExecution":
    """Run one machine described by ``spec`` (the fleet worker).

    Top-level by design: worker processes import this module and receive
    only the picklable spec, never a live machine.  With
    ``spec.observe=True`` the worker attaches a fresh observability
    bundle and ships its state home as an :class:`ObsSnapshot` — the
    collectors themselves (registry locks, clock-bound tracers, attached
    ledgers) never cross the pool.
    """
    from repro.core.log import EventLog
    from repro.core.tdr import play, replay

    obs = None
    if spec.observe:
        from repro.obs import Observability

        obs = Observability(profile=spec.profile)
    program = _compiled(spec.program)
    schedule = (list(spec.covert_schedule)
                if spec.covert_schedule is not None else None)
    if spec.mode == "play":
        result = play(program, spec.config, workload=_workload(spec),
                      seed=spec.seed, covert_schedule=schedule,
                      max_instructions=spec.max_instructions, obs=obs)
    elif spec.mode == "replay":
        if spec.log_bytes is None:
            raise ReplayError("replay spec needs log_bytes")
        log = EventLog.from_bytes(spec.log_bytes)
        result = replay(program, log, spec.config, seed=spec.seed,
                        max_instructions=spec.max_instructions, obs=obs)
    else:
        raise ReplayError(f"unknown mode '{spec.mode}'")
    if obs is None:
        return result
    return ObservedExecution(result, ObsSnapshot.capture(obs, result))


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    # fork is the fast path (no re-import, copy-on-write program cache);
    # spawn still works because every worker is a top-level callable.
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def _apply_repro_env(env: dict) -> None:
    """Pool initializer: mirror the parent's ``REPRO_*`` switches.

    The differential escape hatches (``REPRO_NO_JIT``, ``REPRO_NO_BATCH``,
    ``REPRO_JOBS``, ...) select between bit-identical implementations, so
    a worker disagreeing with its parent would silently compare a fast
    path against itself.  fork inherits the environment anyway; this
    makes the contract explicit and start-method independent, and drops
    switches the parent has since cleared.  The snapshot is part of the
    pool's key, so a switch flipped in the parent forks fresh workers.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in env:
            del os.environ[key]
    os.environ.update(env)


#: The process's worker pool and its key, ``(jobs, REPRO_* items)``;
#: forked by the first call that fans out, replaced when the key changes.
_pool: ProcessPoolExecutor | None = None
_pool_key: tuple | None = None
#: Futures of tasks submitted ahead of the call that needs them, keyed
#: ``(worker, task)``.  They run on the live pool and go with it.
_prefetched: dict[tuple, Future] = {}


def _repro_env() -> dict:
    # Values are read for the matching keys only: every os.environ
    # lookup decodes, and a fleet round asks about 50 times.
    return {key: os.environ[key] for key in os.environ
            if key.startswith("REPRO_")}


def _key(jobs: int, repro_env: dict) -> tuple:
    return (jobs, tuple(sorted(repro_env.items())))


def _worker_pool(jobs: int, repro_env: dict) -> ProcessPoolExecutor:
    """The pool for ``jobs`` workers under ``repro_env``, forked only if
    the live one has another key (which is shut down first, so no fork
    happens while its threads run)."""
    global _pool, _pool_key
    key = _key(jobs, repro_env)
    if _pool_key != key:
        _drop_pool()
        _pool = ProcessPoolExecutor(max_workers=jobs,
                                    mp_context=_pool_context(),
                                    initializer=_apply_repro_env,
                                    initargs=(repro_env,))
        _pool_key = key
    return _pool


def _drop_pool() -> None:
    """Shut the process's pool down (if any) and forget it, together
    with the futures prefetched on it."""
    global _pool, _pool_key
    pool, _pool, _pool_key = _pool, None, None
    _prefetched.clear()
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def prefetch(tasks: Sequence, jobs: int,
             worker: Callable = execute_spec) -> None:
    """Submit ``tasks`` to the pool of ``jobs`` workers ahead of the
    :func:`run_fleet` call that will ask for them, in order.

    Tasks must be hashable, since the memo is keyed by them, and a task
    already waiting there is not submitted again.  With ``jobs<=1``
    nothing happens; where no process can be started or the pool broke,
    the pool is dropped and the later call runs as if nothing had been
    prefetched.
    """
    if jobs <= 1:
        return
    try:
        pool = _worker_pool(jobs, _repro_env())
        for task in tasks:
            key = (worker, task)
            if key not in _prefetched:
                _prefetched[key] = pool.submit(worker, task)
    except (BrokenProcessPool, OSError):
        _drop_pool()


@contextlib.contextmanager
def prefetching():
    """Bound prefetched work to the block.

    On leaving it, prefetched futures nobody asked for are cancelled if
    they have not started and waited for if they have, and the memo is
    emptied, so no prefetched task outlives the block.
    """
    try:
        yield
    finally:
        leftovers = list(_prefetched.values())
        _prefetched.clear()
        for future in leftovers:
            future.cancel()
        wait(leftovers)


def run_fleet(tasks: Sequence, jobs: int | None = None,
              worker: Callable = execute_spec) -> list:
    """Map ``worker`` over ``tasks``, results in submission order.

    ``worker`` must be a module-level callable and every task picklable
    (the default worker is :func:`execute_spec` over
    :class:`MachineSpec`).  With ``jobs`` absent, :func:`default_jobs`
    decides.  With ``jobs<=1`` the loop runs serially in-process.
    Otherwise a task :func:`prefetch` submitted is served from its
    future, and the rest run serially if there is only one of them, or
    on the process's pool of ``jobs`` workers, kept from earlier calls
    with the same ``jobs`` and ``REPRO_*`` environment.  Where no
    process can be started, or the pool broke (a worker died), this call
    runs serially and the pool and its prefetched futures are dropped;
    so are futures prefetched under another key.  Same results on every
    path, because every task is rebuilt from seeds.
    """
    tasks = list(tasks)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1:
        return [worker(task) for task in tasks]
    futures = [None] * len(tasks)
    if _prefetched:
        if _key(jobs, _repro_env()) == _pool_key:
            futures = [_prefetched_future(worker, task) for task in tasks]
        else:
            _drop_pool()
    rest = [task for task, future in zip(tasks, futures) if future is None]
    fresh = [worker(task) for task in rest] if len(rest) <= 1 else None
    try:
        if fresh is None:
            # Submission order in, submission order out: map() yields in
            # input order whatever the completion order.
            fresh = _worker_pool(jobs, _repro_env()).map(worker, rest)
        fresh = iter(fresh)
        results = [next(fresh) if future is None else future.result()
                   for future in futures]
    except (BrokenProcessPool, OSError):
        # A worker died, or this sandbox cannot start processes: drop the
        # pool (the next call forks a fresh one) and run this call here.
        _drop_pool()
        return [worker(task) for task in tasks]
    for task, future in zip(tasks, futures):
        if future is not None:
            _prefetched.pop((worker, task), None)
    return results


def _prefetched_future(worker: Callable, task) -> Future | None:
    try:
        return _prefetched.get((worker, task))
    except TypeError:             # unhashable, so never prefetched
        return None


def run_fleet_observed(specs: Sequence[MachineSpec], jobs: int | None = None
                       ) -> tuple[list[ExecutionResult], FleetObservations]:
    """Fleet execution that keeps the workers' observability.

    Every spec runs with ``observe=True`` (each worker builds its own
    bundle), and the returned :class:`FleetObservations` merges the
    per-worker snapshots **in submission order** — so the aggregate
    ledger totals and metrics counters are bit-identical whatever
    ``jobs`` is, including the serial ``jobs=1`` path, which uses the
    same snapshot-and-merge machinery.
    """
    observed = [spec if spec.observe else replace(spec, observe=True)
                for spec in specs]
    outputs = run_fleet(observed, jobs=jobs)
    fleet_obs = FleetObservations()
    results: list[ExecutionResult] = []
    for output in outputs:
        results.append(output.result)
        fleet_obs.absorb(output.snapshot)
    return results, fleet_obs
