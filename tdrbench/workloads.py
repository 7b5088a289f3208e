"""The benchmark's three workloads and the per-operation oracle.

Each workload has a ``setup(seed)`` that compiles its guests, builds its
inputs from the seed, and makes one warm-up run to fill the per-Function
JIT artifact cache, and a ``round(state)`` that runs the workload's fixed
set of operations once into a :class:`Tally`.  Rounds of one seed
repeat exactly, so the ``sim`` guard counters of every round must agree.

Only public entry points of the repository are called.  The fleet's play
and replay passes happen inside :class:`~repro.service.fleet.FleetService`;
they are timed by wrapping the module-level functions it calls
(:func:`play_and_ship`, :func:`resolve_replays` and the ``run_fleet`` pool
each of them uses) for the duration of a round.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from repro.analysis.experiment import NfsTrafficModel, vm_covert_schedule
from repro.analysis.parallel import _compiled
from repro.apps import (build_kernel_program, build_kvstore_workload,
                        build_nfs_program, build_nfs_workload)
from repro.channels import channel_by_name
from repro.channels.codec import random_bits
from repro.core.audit import compare_traces
from repro.core.log import EventLog
from repro.core.tdr import play, replay
from repro.determinism import SplitMix64
from repro.exec import scenarios
from repro.faults.plans import NodeChaosPlan
from repro.machine import MachineConfig
from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, TenantSpec
from repro.service import daemon as service_daemon
from repro.service import fleet as service_fleet
from repro.service import scheduler as service_scheduler
from tdrbench import hostspeed

clock = time.perf_counter


@dataclass
class Tally:
    """What one round did: work, host seconds, outcomes and guards."""

    ops: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    play_instr: int = 0
    play_s: float = 0.0
    replay_instr: int = 0
    replay_s: float = 0.0
    wall_s: float = 0.0
    #: Every machine run (play, replay, executive): guest work and output.
    instructions: int = 0
    cycles: int = 0
    tx: int = 0
    play_tx: int = 0
    log_bytes: int = 0
    jit_entries: int = 0
    jit_side_exits: int = 0
    jit_instr: int = 0
    jit_base_instr: int = 0
    replays: int = 0
    verdicts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    killed_in_flight: int = 0
    requeued: int = 0
    steals: int = 0
    pool_wait_s: float = 0.0
    #: Digest of the round's verdicts (part of the repeat guard).
    digest: str = ""
    #: Per operation: (play_instr, play_s, replay_instr, replay_s, wall_s,
    #: ops).
    timings: dict = field(default_factory=dict)
    #: With ``scaled``, every operation is bracketed by the host-speed
    #: probe and its seconds are scaled to the reference host speed; the
    #: traced run leaves it off to keep the probe out of its profile.
    scaled: bool = False
    _probe_s: float = 0.0

    def __post_init__(self) -> None:
        if self.scaled:
            self._probe_s = hostspeed.probe()

    def timed(self, label: str, play_instr: int = 0, play_s: float = 0.0,
              replay_instr: int = 0, replay_s: float = 0.0,
              wall_s: float = 0.0, ops: int = 1) -> None:
        if self.scaled:
            before, self._probe_s = self._probe_s, hostspeed.probe()
            play_s, replay_s, wall_s = (
                hostspeed.scale(s, before, self._probe_s)
                for s in (play_s, replay_s, wall_s))
        self.timings[label] = (play_instr, play_s, replay_instr, replay_s,
                               wall_s, ops)

    def machine_run(self, result, is_play: bool = False) -> None:
        self.instructions += result.instructions
        self.cycles += result.total_cycles
        self.tx += len(result.tx)
        if is_play:
            self.play_tx += len(result.tx)
        if result.jit is not None:
            self.jit_entries += result.jit["entries"]
            self.jit_side_exits += result.jit["side_exits"]
            self.jit_instr += result.jit["jit_instructions"]
            self.jit_base_instr += result.instructions

    def op(self, label: str, problem: str | None) -> None:
        """Count one operation; ``problem`` names why it failed."""
        self.ops += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")

    def guards(self) -> tuple:
        """The ``sim`` counters: a pure function of the seed."""
        return (self.cycles, self.instructions, self.log_bytes, self.tx,
                self.replays, self.verdicts, self.digest)


def _payloads(result) -> list[bytes]:
    return [payload for _, payload in result.tx]


def _round_trip_problem(play_result, replay_result, report,
                        expect_flagged: bool,
                        payloads_must_match: bool = True) -> str | None:
    """The oracle for one play/replay/audit round trip."""
    if replay_result.instructions != play_result.instructions:
        return (f"replay ran {replay_result.instructions} instructions, "
                f"play {play_result.instructions}")
    if payloads_must_match and \
            _payloads(replay_result) != _payloads(play_result):
        return "replay transmitted other payloads than play"
    flagged = not report.is_consistent()
    if flagged != expect_flagged:
        return "clean run flagged" if flagged else "covert run not flagged"
    return None


# -- nfs-audit ---------------------------------------------------------------

NFS_TRACES = 5
NFS_REQUESTS = 40
NFS_COVERT_BITS = 4


@dataclass
class NfsTrace:
    workload_seed: int
    play_seed: int
    replay_seed: int
    schedule: list | None


class NfsAudit:
    """Request-driven audit: play, ship the log, replay, compare."""

    name = "nfs-audit"
    config = MachineConfig()

    def setup(self, seed: int) -> dict:
        rng = SplitMix64(seed).fork("nfs-audit")
        program = build_nfs_program()
        traces = []
        for i in range(NFS_TRACES):
            trace_rng = rng.fork(f"trace-{i}")
            schedule = None
            if i == NFS_TRACES - 1:
                schedule = self._covert_schedule(trace_rng.fork("covert"))
            traces.append(NfsTrace(
                workload_seed=trace_rng.next_u64() % (1 << 31),
                play_seed=trace_rng.next_u64() % (1 << 31),
                replay_seed=trace_rng.next_u64() % (1 << 31),
                schedule=schedule))
        state = {"program": program, "traces": traces}
        self._op(state, traces[-1], Tally())      # warm-up: fills the JIT
        return state

    def _covert_schedule(self, rng: SplitMix64) -> list[int]:
        """An ``ipctc`` schedule, derived the way a prover session does."""
        channel = channel_by_name("ipctc")
        model = NfsTrafficModel()
        channel.fit(model.ipds(240, rng.fork("adversary")), rng.fork("fit"))
        natural = model.ipds(NFS_REQUESTS, rng.fork("natural"))
        bits = random_bits(NFS_COVERT_BITS, rng.fork("bits"))
        return vm_covert_schedule(channel, natural, bits, rng.fork("encode"),
                                  frequency_hz=self.config.frequency_hz)

    def _op(self, state: dict, trace: NfsTrace, tally: Tally) -> None:
        label = f"trace seed {trace.workload_seed}"
        try:
            workload = build_nfs_workload(SplitMix64(trace.workload_seed),
                                          num_requests=NFS_REQUESTS)
            t0 = clock()
            observed = play(state["program"], self.config, workload=workload,
                            seed=trace.play_seed,
                            covert_schedule=trace.schedule)
            t1 = clock()
            data = observed.log.to_bytes()
            log = EventLog.from_bytes(data)
            t2 = clock()
            reference = replay(state["program"], log, self.config,
                               seed=trace.replay_seed)
            t3 = clock()
            report = compare_traces(observed, reference)
        except Exception as exc:  # noqa: BLE001 - an exception fails the op
            tally.op(label, f"raised {exc!r}")
            return
        tally.timed(label, observed.instructions, t1 - t0,
                    reference.instructions, t3 - t2, clock() - t0)
        tally.machine_run(observed, is_play=True)
        tally.machine_run(reference)
        tally.log_bytes += len(data)
        tally.replays += 1
        tally.verdicts += 1
        tally.digest += f"{report.is_consistent():d}"
        tally.op(label, _round_trip_problem(
            observed, reference, report,
            expect_flagged=trace.schedule is not None))

    def round(self, state: dict, tally: Tally, serial: bool = False) -> None:
        t0 = clock()
        for trace in state["traces"]:
            self._op(state, trace, tally)
        tally.wall_s = clock() - t0


# -- compute -----------------------------------------------------------------

#: Enlarged SciMark sizes: about 1.9M guest instructions per pass.
KERNEL_SIZES = {
    "fft": {"n": 256, "iterations": 2},
    "sor": {"n": 32, "iterations": 8},
    "mc": {"samples": 12_000},
    "smm": {"n": 48, "nonzeros_per_row": 4, "iterations": 40},
    "lu": {"n": 24},
}
EXEC_SCENARIOS = ("pipeline", "sched", "mbox")


class Compute:
    """SciMark kernels plus the guest executive: dispatch-bound work."""

    name = "compute"
    config = MachineConfig()

    def setup(self, seed: int) -> dict:
        rng = SplitMix64(seed).fork("compute")
        kernels = {name: build_kernel_program(name, **params)
                   for name, params in KERNEL_SIZES.items()}
        # The executive caches its compiled scenarios by name; drop them
        # so every set-up pays for its own compile.
        scenarios._PROGRAMS.clear()
        execs = []
        for name in EXEC_SCENARIOS:
            scenario = scenarios.exec_scenario(name)
            scenario.program()
            bits = (scenario.payload_bits(seed=rng.next_u64() % (1 << 31))
                    if scenario.rounds else None)
            execs.append((scenario, bits))
        seeds = {name: (rng.next_u64() % (1 << 31), rng.next_u64() % (1 << 31))
                 for name in list(KERNEL_SIZES) + list(EXEC_SCENARIOS)}
        for name, program in kernels.items():     # warm-up: fills the JIT
            play(program, self.config, seed=seeds[name][0])
        return {"kernels": kernels, "execs": execs, "seeds": seeds}

    def round(self, state: dict, tally: Tally, serial: bool = False) -> None:
        t0 = clock()
        for name, program in state["kernels"].items():
            play_seed, replay_seed = state["seeds"][name]
            try:
                t1 = clock()
                observed = play(program, self.config, seed=play_seed)
                t2 = clock()
                reference = replay(program, observed.log, self.config,
                                   seed=replay_seed)
                t3 = clock()
                report = compare_traces(observed, reference)
            except Exception as exc:  # noqa: BLE001
                tally.op(name, f"raised {exc!r}")
                continue
            tally.timed(name, observed.instructions, t2 - t1,
                        reference.instructions, t3 - t2, clock() - t1)
            tally.machine_run(observed, is_play=True)
            tally.machine_run(reference)
            tally.log_bytes += len(observed.log.to_bytes())
            tally.replays += 1
            tally.verdicts += 1
            problem = _round_trip_problem(observed, reference, report,
                                          expect_flagged=False)
            if problem is None and reference.console != observed.console:
                problem = "replay printed another checksum than play"
            tally.digest += f"{observed.console}"
            tally.op(name, problem)
        for scenario, bits in state["execs"]:
            play_seed, replay_seed = state["seeds"][scenario.name]
            covert = bits is not None
            try:
                t1 = clock()
                outcome = scenarios.exec_round_trip(
                    scenario, play_seed=play_seed, replay_seed=replay_seed,
                    covert=covert, bits=bits)
            except Exception as exc:  # noqa: BLE001
                tally.op(scenario.name, f"raised {exc!r}")
                continue
            # Executive play and replay are not timed apart: the round
            # trip counts towards verified_per_s only.
            tally.timed(scenario.name, wall_s=clock() - t1)
            tally.machine_run(outcome.play, is_play=True)
            tally.machine_run(outcome.replay)
            tally.log_bytes += len(outcome.play.log.to_bytes())
            tally.replays += 1
            tally.verdicts += 1
            tally.digest += f"{outcome.audit.is_consistent():d}"
            # A covert sender changes what the receiver decodes, so only
            # the clean scenario must reproduce its payloads.
            tally.op(scenario.name, _round_trip_problem(
                outcome.play, outcome.replay, outcome.audit,
                expect_flagged=covert, payloads_must_match=not covert))
        tally.wall_s = clock() - t0


# -- fleet-chaos -------------------------------------------------------------

FLEET_TENANTS = 8
FLEET_EPOCHS = 3
FLEET_REQUESTS = 8
FLEET_NODES = 4
FLEET_CHAOS = "crash:1@180"
FLEET_COVERT = "tenant-01"


@contextlib.contextmanager
def patched(module, name: str, wrap):
    """Replace ``module.name`` by ``wrap(original)`` inside the block."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


class FleetChaos:
    """The sharded verifier fleet under a node crash."""

    name = "fleet-chaos"
    config = MachineConfig()

    def setup(self, seed: int) -> dict:
        rng = SplitMix64(seed).fork("fleet-chaos")
        tenants = []
        for i in range(FLEET_TENANTS):
            tenant_id = f"tenant-{i:02d}"
            tenants.append(TenantSpec(
                tenant_id=tenant_id, requests=FLEET_REQUESTS,
                seed=rng.next_u64() % (1 << 31),
                covert_channel="ipctc" if tenant_id == FLEET_COVERT
                else None,
                drop_rate=0.12 if i == FLEET_TENANTS - 1 else 0.0))
        # Fleet workers compile through the per-process program cache and
        # inherit the parent's JIT artifacts at fork: refill both here.
        _compiled.cache_clear()
        program = _compiled(tenants[0].program)
        for spec in tenants[:2]:                  # warm-up: fills the JIT
            workload = build_kvstore_workload(SplitMix64(spec.seed),
                                              num_requests=spec.requests)
            observed = play(program, self.config, workload=workload,
                            seed=spec.seed)
            replay(program, observed.log, self.config, seed=1)
        return {"tenants": tenants, "seed": seed,
                "chaos": NodeChaosPlan.parse(FLEET_CHAOS),
                "jobs": max(1, min(2, os.cpu_count() or 1))}

    def round(self, state: dict, tally: Tally, serial: bool = False) -> None:
        jobs = 1 if serial else state["jobs"]
        total = FLEET_TENANTS * FLEET_EPOCHS
        t0 = clock()
        try:
            with self._instrumented(tally):
                service = FleetService(
                    state["tenants"],
                    topology=FleetTopology(num_nodes=FLEET_NODES),
                    epochs=FLEET_EPOCHS, seed=state["seed"],
                    chaos=state["chaos"], registry=MetricsRegistry())
                report = service.run(jobs=jobs)
        except Exception as exc:  # noqa: BLE001
            tally.wall_s = clock() - t0
            for _ in range(total):
                tally.op("fleet round", f"raised {exc!r}")
            return
        tally.wall_s = clock() - t0
        tally.timed("fleet", tally.play_instr, tally.play_s,
                    tally.replay_instr, tally.replay_s, tally.wall_s,
                    ops=total)
        verdicted = {(e.tenant_id, e.epoch) for e in service.sink.events}
        problem = None
        if report.sessions_total != total:
            problem = f"{report.sessions_total} sessions, expected {total}"
        elif len(verdicted) + len(report.unaudited) != total:
            problem = (f"silent drop: {len(verdicted)} verdicted + "
                       f"{len(report.unaudited)} unaudited != {total}")
        elif report.flagged_tenants != [FLEET_COVERT]:
            problem = f"flagged {report.flagged_tenants}"
        for _ in range(total):
            tally.op("fleet session", problem)
        tally.verdicts = len(service.sink.events)
        tally.cache_hits = report.cache_hits
        tally.cache_misses = report.cache_misses
        tally.killed_in_flight = report.killed_in_flight
        tally.requeued = report.requeued
        tally.steals = report.steals
        tally.digest = hashlib.sha256(json.dumps(
            report.verdicts_dict(), sort_keys=True,
            default=str).encode()).hexdigest()[:16]

    @contextlib.contextmanager
    def _instrumented(self, tally: Tally):
        """Time the fleet's play and replay passes from the outside."""

        def timed_play(original):
            def play_and_ship(*args, **kwargs):
                t0 = clock()
                shipped = original(*args, **kwargs)
                tally.play_s += clock() - t0
                for _, shipment in shipped:
                    tally.play_instr += shipment.wire.instructions
                    tally.log_bytes += sum(len(s.chunk_bytes)
                                           for s in shipment.shipments)
                return shipped
            return play_and_ship

        def timed_replay(original):
            def resolve_replays(*args, **kwargs):
                t0 = clock()
                prepared = original(*args, **kwargs)
                tally.replay_s += clock() - t0
                for task, outcome, cache_hit in prepared:
                    if task is not None and not cache_hit:
                        tally.replay_instr += outcome.result.instructions
                        tally.replays += 1
                return prepared
            return resolve_replays

        def pooled(original, is_play):
            def run_fleet(tasks, jobs=None, **kwargs):
                tasks = list(tasks)
                t0 = clock()
                out = original(tasks, jobs=jobs, **kwargs)
                if (jobs or 1) > 1 and len(tasks) > 1:
                    tally.pool_wait_s += clock() - t0
                for item in out:
                    tally.machine_run(item if is_play else item.result,
                                      is_play=is_play)
                return out
            return run_fleet

        with patched(service_fleet, "play_and_ship", timed_play), \
                patched(service_fleet, "resolve_replays", timed_replay), \
                patched(service_daemon, "run_fleet",
                        lambda f: pooled(f, True)), \
                patched(service_scheduler, "run_fleet",
                        lambda f: pooled(f, False)):
            yield


WORKLOADS = {w.name: w for w in (NfsAudit(), Compute(), FleetChaos())}
