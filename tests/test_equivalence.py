"""The bit-identity contract, checked as one equivalence matrix.

Replay convicts a sender because it reproduces play's timing exactly
(§3, Fig 7), and this reproduction keeps that exactness as a contract:
a run's observable output is the same under every implementation
switch.  A run's output is :meth:`ExecutionResult.fingerprint`, plus,
per scenario, its audit report, verdicts, trace export or profile.

A *knob* is a switch that must not change simulated output (a rerun, a
fresh process, ``REPRO_NO_JIT``, ``REPRO_NO_BATCH``, the profiler, the
other observers, the replay cache, ``--jobs 4``); a *cell* is one
(scenario, knob) pair of :data:`CELLS`.  Each scenario runs once with
every knob off as its baseline, and each cell runs it again with one
knob on and compares every part's JSON.

``REPRO_NO_JIT`` and ``REPRO_NO_BATCH`` are cleared for the baselines
and set per cell, so the cells still compare when the whole suite runs
under one of them.  Either keeps every run on the interpreter: the
unbatched reference platform lends compiled blocks no templates.
``python tests/test_equivalence.py`` prints one sha256 per
:data:`FRESH` scenario; the fresh-process cells compare those with this
process's baselines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

import repro
from repro.analysis import parallel
from repro.analysis.parallel import MachineSpec, run_fleet_observed
from repro.apps import build_kernel_program, build_nfs_program, \
    build_nfs_workload
from repro.core.replay_cache import ReplayCache
from repro.core.resilience import audit_resilient
from repro.core.tdr import play, round_trip
from repro.determinism import SplitMix64
from repro.exec import EXEC_SCENARIOS, exec_fleet_task, exec_round_trip, \
    exec_scenario
from repro.faults import standard_fault_kinds
from repro.faults.plans import NodeChaosPlan
from repro.machine import MachineConfig
from repro.machine.config import RuntimeKind
from repro.machine.noise import NOISE_SCENARIOS, scenario_config
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, daemon, \
    default_tenants, scheduler

#: The switches the ``no-jit`` and ``no-batch`` knobs set.
ENV = {"no-jit": "REPRO_NO_JIT", "no-batch": "REPRO_NO_BATCH"}
REQUESTS = 4
SCHEDULE = (1_500, 4_000, 2_500, 6_000)
CHAOS = "crash:1@180,stall:2@90+500"
CHAOS_SEED = 20141006
#: The seed ``reproduce serve`` and ``fleet-audit`` use by default.
SERVICE_SEED = 2014

#: Every noise preset, plus a co-tenant (whose interference charges every
#: ``service_world`` call, so idle polls cannot be skipped).
PRESETS = {**{s.value: scenario_config(s) for s in NOISE_SCENARIOS},
           "co-tenant": MachineConfig(co_tenant_intensity=0.5)}


@functools.cache
def _nfs_program():
    return build_nfs_program()


def _results(**results) -> dict:
    """Each named run's fingerprint, and whether each tiered up."""
    parts = {name: r.fingerprint() for name, r in results.items()}
    parts["tier_up"] = [r.jit is not None for r in results.values()]
    return parts


def _profiled(trip) -> dict:
    """A profiled round trip's profiles and fingerprints."""
    return {"play.profile": trip.play.profile,
            "replay.profile": trip.replay.profile,
            **_results(play=trip.play, replay=trip.replay)}


def _nfs_trip(config, obs, replay_cache=None, schedule=SCHEDULE):
    return round_trip(_nfs_program(), config,
                      workload=build_nfs_workload(SplitMix64(7042),
                                                  num_requests=REQUESTS),
                      play_seed=3, replay_seed=9,
                      covert_schedule=list(schedule) if schedule else None,
                      obs=obs, replay_cache=replay_cache)


# -- scenarios: each returns its parts, a dict of JSON-able values --------

def nfs(config=None, obs=Observability, replay_cache=None,
        schedule=SCHEDULE) -> dict:
    """The NFS covert round trip (an honest one when ``schedule`` is
    None): both fingerprints, the audit report and the tracer's Chrome
    export.  ``obs`` builds the run's observers (None: none)."""
    bundle = obs() if obs is not None else None
    trip = _nfs_trip(config or MachineConfig(), bundle, replay_cache,
                     schedule)
    parts = _results(play=trip.play, replay=trip.replay)
    parts["audit"] = dataclasses.asdict(trip.audit)
    if bundle is not None and bundle.tracer is not None:
        parts["trace"] = bundle.tracer.to_chrome_trace()
    return parts


def nfs_profile() -> dict:
    """The profiled NFS covert round trip."""
    return _profiled(_nfs_trip(MachineConfig(), Observability(profile=True)))


def resilient(severity=0) -> dict:
    """A clean unobserved play, and ``audit_resilient``'s outcome on its
    log: undamaged, or under every standard fault plan at ``severity``."""
    program = _nfs_program()
    played = play(program, MachineConfig(),
                  workload=build_nfs_workload(SplitMix64(7042),
                                              num_requests=REQUESTS),
                  seed=3)
    data = played.log.to_bytes()
    if not severity:
        logs = {"undamaged": data}
    else:
        logs = {}
        for plan in standard_fault_kinds(severity):
            name = f"{plan.name}:{severity}"
            logs[name] = plan.apply(data, SplitMix64(CHAOS_SEED).fork(name))
    parts = {"play": played.fingerprint()}
    for name, log in logs.items():
        outcome = dataclasses.asdict(audit_resilient(
            program, played, log, config=MachineConfig(), replay_seed=9))
        del outcome["parse"]        # of the damaged bytes: no machine runs
        parts[name] = outcome
    return parts


@contextlib.contextmanager
def _service_runs():
    """Collect the fingerprint of every play and replay the service
    layers run, in submission order: they all go through the
    ``run_fleet`` that ``service.daemon`` (plays) and
    ``service.scheduler`` (replays) import, whose results come back to
    this process from pool workers too.  Verdicts alone would not show
    a drift of a few cycles."""
    runs = []

    def recording(tasks, jobs=None, worker=parallel.execute_spec):
        results = parallel.run_fleet(tasks, jobs=jobs, worker=worker)
        runs.extend(getattr(out, "result", out).fingerprint()
                    for out in results)
        return results

    with mock.patch.object(daemon, "run_fleet", recording), \
            mock.patch.object(scheduler, "run_fleet", recording):
        yield runs


def fleet(nodes: int, jobs=1, chaos=CHAOS) -> dict:
    """``reproduce fleet-audit`` under node chaos: the verdicts, every
    run's fingerprint and the fleet trace's Chrome and NDJSON exports.
    With ``nodes=1, chaos=None`` it is the run ``reproduce serve``
    makes."""
    service = FleetService(default_tenants(3, requests=REQUESTS),
                           topology=FleetTopology(num_nodes=nodes),
                           epochs=2, seed=SERVICE_SEED,
                           chaos=(None if chaos is None
                                  else NodeChaosPlan.parse(chaos)),
                           registry=MetricsRegistry())
    with _service_runs() as runs:
        report = service.run(jobs=jobs)
    return {"verdicts": report.verdicts_dict(), "runs": runs,
            "trace": service.dist.to_chrome_trace(),
            "ndjson": report.trace_ndjson}


def executive(names=tuple(EXEC_SCENARIOS), obs=Observability,
              jobs=None) -> dict:
    """The named exec scenarios' round trips (covert where a scenario has
    rounds): both fingerprints and the audit report.  With ``jobs`` the
    round trips run through :func:`exec_fleet_task` in the worker
    pool."""
    tasks = [(name, exec_scenario(name).rounds > 0, 0, 1, None)
             for name in names]
    if jobs is not None:
        returns = parallel.run_fleet(tasks, jobs=jobs, worker=exec_fleet_task)
    else:
        returns = []
        for name, covert, play_seed, replay_seed, _ in tasks:
            tdr = exec_round_trip(exec_scenario(name), play_seed=play_seed,
                                  replay_seed=replay_seed, covert=covert,
                                  obs=obs() if obs is not None else None)
            returns.append((tdr.play.fingerprint(),
                            tdr.replay.fingerprint(), tdr.audit))
    parts = {}
    for (name, *_), (played, replayed, audit) in zip(tasks, returns):
        parts[f"{name}.play"] = played
        parts[f"{name}.replay"] = replayed
        parts[f"{name}.audit"] = dataclasses.asdict(audit)
    return parts


def exec_profile() -> dict:
    """The profiled exec ``pipeline`` round trip."""
    return _profiled(exec_round_trip(exec_scenario("pipeline"),
                                     obs=Observability(profile=True)))


def table2() -> dict:
    """Table 2: the five SciMark kernels under Sanity, Oracle-INT and
    Oracle-JIT, as ``reproduce table2`` plays them."""
    clean = scenario_config("clean")
    configs = (scenario_config("sanity"), clean.with_overrides(name="i"),
               clean.with_overrides(name="j",
                                    runtime=RuntimeKind.ORACLE_JIT))
    return _results(**{f"{kernel}/{config.name}":
                       play(build_kernel_program(kernel), config, seed=0)
                       for kernel in ("sor", "smm", "mc", "fft", "lu")
                       for config in configs})


def fleet_observed(jobs=1) -> dict:
    """Four profiled ``kernel:sor`` plays through ``run_fleet_observed``:
    fingerprints and profiles."""
    specs = [MachineSpec(program="kernel:sor", config=MachineConfig(),
                         seed=seed, observe=True, profile=True)
             for seed in range(4)]
    results, _ = run_fleet_observed(specs, jobs=jobs)
    named = {f"sor/{spec.seed}": r for spec, r in zip(specs, results)}
    return {**{f"{name}.profile": r.profile for name, r in named.items()},
            **_results(**named)}


SCENARIOS = {
    "nfs": nfs,
    **{f"nfs@{name}": functools.partial(nfs, config)
       for name, config in PRESETS.items()},
    "nfs-honest": functools.partial(nfs, schedule=None),
    "resilient": resilient,
    **{f"resilient@{severity}": functools.partial(resilient, severity)
       for severity in (1, 2)},
    "serve": functools.partial(fleet, 1, chaos=None),
    **{f"fleet-{nodes}": functools.partial(fleet, nodes)
       for nodes in (1, 3, 4)},
    **{f"exec@{name}": functools.partial(executive, (name,))
       for name in EXEC_SCENARIOS},
    "exec": executive,
    "table2": table2,
    "nfs-profile": nfs_profile,
    "exec-profile": exec_profile,
    "fleet-observed": fleet_observed,
}

#: The scenarios the fresh-process cells rerun in one subprocess.
FRESH = ("nfs", "serve", "fleet-1", "fleet-4",
         *(f"exec@{name}" for name in EXEC_SCENARIOS))


# -- knobs ------------------------------------------------------------------

#: Collectors each observers-off knob turns off.
OBSERVERS_OFF = {"obs-off": ("ledger", "sample_opcodes", "trace"),
                 "no-ledger": ("ledger",),
                 "no-sampler": ("sample_opcodes",),
                 "no-tracer": ("trace",)}

#: The fingerprint fields each collector fills.
FILLS = {"ledger": ("ledger", "process_ledger"),
         "sample_opcodes": ("opcodes",)}


def _observers_off(parts: dict, off: tuple) -> dict:
    """``parts`` as a run without the collectors ``off`` leaves them: the
    fields they fill are None, the audit's per-source cycle deltas (read
    from the ledgers) are empty, and without a tracer there is no
    trace."""
    blank = {name: None for collector in off
             for name in FILLS.get(collector, ())}
    out = {}
    for name, value in parts.items():
        if name == "trace" and "trace" in off:
            continue
        if name.endswith(("play", "replay")):
            value = {**value, **blank}
        if name.endswith("audit") and "ledger" in off and value["flight"]:
            value = {**value,
                     "flight": {**value["flight"], "source_deltas": {}}}
        out[name] = value
    return out


def _profile_totals(parts: dict) -> dict:
    """``parts`` with each profile cut to what the tier-up may not move:
    compiled blocks add boundary samples, so on the interpreter
    (``REPRO_NO_JIT`` or ``REPRO_NO_BATCH``) only a profile's
    ``sources`` and ``total_cycles`` stay equal."""
    return {name: ({key: value[key] for key in ("sources", "total_cycles")}
                   if name.endswith("profile") else value)
            for name, value in parts.items()}


def _replay_cache(run):
    cache = ReplayCache()
    run(replay_cache=cache)
    parts = run(replay_cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    return parts


def _jobs_4_twice(run):
    first = run(jobs=4)
    pool = parallel._pool
    second = run(jobs=4)
    assert pool is not None and parallel._pool is pool
    assert _json(second) == _json(first)
    return second


def _observed(**options):
    return lambda run: run(obs=functools.partial(Observability, **options))


#: How each other knob runs a scenario.  A cell may add ``no-jit`` or
#: ``no-batch`` to one of them (``jobs-4+no-jit``).
KNOBS = {
    "rerun": lambda run: run(),
    "profiler": _observed(profile=True),
    "obs-off": lambda run: run(obs=None),
    "no-ledger": _observed(ledger=False),
    "no-sampler": _observed(sample_opcodes=False),
    "no-tracer": _observed(trace=False),
    "replay-cache": _replay_cache,
    "jobs-4": lambda run: run(jobs=4),
    "jobs-4-twice": _jobs_4_twice,
}

COMMON = ("rerun", "fresh-process", "no-jit", "no-batch")
BARE = ("no-jit+obs-off", "no-batch+obs-off")
CELLS = {
    "nfs": (*COMMON, "profiler", *OBSERVERS_OFF, *BARE, "replay-cache"),
    **{f"nfs@{name}": ("no-batch",) + (
        ("obs-off",) if name in ("user-noisy", "dirty", "sanity") else ())
       for name in PRESETS},
    "nfs-honest": ("no-jit", "no-batch", *BARE),
    **{name: ("no-jit", "no-batch")
       for name in ("resilient", "resilient@1", "resilient@2")},
    "serve": (*COMMON, "jobs-4"),
    "fleet-1": (*COMMON, "jobs-4-twice"),
    "fleet-3": ("rerun", "jobs-4"),
    "fleet-4": (*COMMON, "jobs-4-twice"),
    **{f"exec@{name}": (*COMMON, "profiler", "obs-off", *BARE)
       for name in EXEC_SCENARIOS},
    "exec": ("jobs-4",),
    "table2": ("no-jit", "no-batch"),
    "nfs-profile": ("rerun", "no-jit", "no-batch"),
    "exec-profile": ("rerun", "no-jit", "no-batch"),
    "fleet-observed": ("jobs-4", "jobs-4+no-jit", "jobs-4+no-batch"),
}

#: Scenarios whose ``no-batch`` cell also compares every part, profiles
#: whole, with a ``REPRO_NO_JIT`` run: batching is invisible to
#: per-frame attribution.
WHOLE_PROFILES = ("nfs-profile", "exec-profile")


def _json(value) -> str:
    """The JSON every comparison is made on; the enums and errors in an
    audit outcome serialise as their repr."""
    return json.dumps(value, default=repr)


def _digest(parts: dict) -> str:
    return hashlib.sha256(_json(parts).encode()).hexdigest()


def _baseline(scenario: str) -> dict:
    with pytest.MonkeyPatch.context() as patch:
        for var in ENV.values():
            patch.delenv(var, raising=False)
        return SCENARIOS[scenario]()


@pytest.fixture(scope="module")
def baselines():
    return functools.cache(_baseline)


@pytest.fixture(scope="module")
def fresh_digests() -> dict:
    """One subprocess, with another hash seed, prints each FRESH
    scenario's digest."""
    env = {var: value for var, value in os.environ.items()
           if var not in ENV.values()}
    env["PYTHONHASHSEED"] = \
        "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return dict(line.split() for line in out.splitlines())


@pytest.mark.parametrize("scenario,knob", [
    pytest.param(scenario, knob, id=f"{scenario}-{knob}")
    for scenario, knobs in CELLS.items() for knob in knobs])
def test_cell(scenario, knob, baselines, request, monkeypatch):
    expected = baselines(scenario)
    if knob == "fresh-process":
        assert request.getfixturevalue("fresh_digests")[scenario] \
            == _digest(expected)
        return
    knobs = knob.split("+")
    for name, var in ENV.items():
        if name in knobs:
            monkeypatch.setenv(var, "1")
        else:
            monkeypatch.delenv(var, raising=False)
    run = next((KNOBS[name] for name in knobs if name in KNOBS),
               KNOBS["rerun"])
    got = run(SCENARIOS[scenario])
    for name in knobs:
        if name in OBSERVERS_OFF:
            expected = _observers_off(expected, OBSERVERS_OFF[name])
    if knob == "replay-cache":
        # A cached replay does not execute, so it traces nothing.
        expected, got = ({name: value for name, value in parts.items()
                          if name != "trace"} for parts in (expected, got))
    if knob == "no-batch" and scenario in WHOLE_PROFILES:
        monkeypatch.delenv("REPRO_NO_BATCH")
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        interpreted = SCENARIOS[scenario]()
        assert got.keys() == interpreted.keys()
        differ = [name for name in got
                  if _json(got[name]) != _json(interpreted[name])]
        assert not differ, f"{scenario}: {differ} differ from no-jit"
    if "no-jit" in knobs or "no-batch" in knobs:
        # Either switch keeps every run on the interpreter, and must
        # reach every run, worker processes included.
        expected = _profile_totals(expected)
        if "tier_up" in expected:
            expected["tier_up"] = [False] * len(expected["tier_up"])
        got = _profile_totals(got)
    assert got.keys() == expected.keys()
    differ = [name for name in expected
              if _json(got[name]) != _json(expected[name])]
    assert not differ, f"{scenario} under {knob}: {differ} differ"


if __name__ == "__main__":
    for name in FRESH:
        print(name, _digest(_baseline(name)))
