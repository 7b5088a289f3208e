"""§7 (Discussion) — multi-tenancy ablation.

"Although Sanity currently supports only a single VM per machine, it
should be possible to provide TDR on machines that are running multiple
VMs.  The key challenge would be isolation: the extra VMs would introduce
additional time noise into each other's execution, e.g., via the shared
memory bus.  We speculate that recent work in the real-time domain could
mitigate the 'cross-talk'; techniques such as [33] could be used to
partition the memory and the cache."

This bench quantifies the speculation on our substrate: a bursty
co-tenant VM pushes the replay residual past the detection threshold;
cache/memory partitioning brings it back under, at a capacity cost.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import print_banner

from repro.apps import build_nfs_workload
from repro.core.tdr import round_trip
from repro.determinism import SplitMix64
from repro.machine import MachineConfig

TRACES = 3
REQUESTS = 20

SMOKE = os.environ.get("PERF_SMOKE", "") == "1"
SERVICE_TENANTS = 3
SERVICE_EPOCHS = 1 if SMOKE else 2
SERVICE_REQUESTS = 4 if SMOKE else 5


def run_sec7(nfs_program):
    configurations = {
        "solo": MachineConfig(),
        "co-tenant": MachineConfig(co_tenant_intensity=0.8),
        "co-tenant + partitioning": MachineConfig(
            co_tenant_intensity=0.8, cache_partitioning=True),
    }
    residuals: dict[str, float] = {}
    totals: dict[str, float] = {}
    for label, config in configurations.items():
        worst = 0.0
        total_cycles = 0
        for trace in range(TRACES):
            workload = build_nfs_workload(SplitMix64(900 + trace),
                                          num_requests=REQUESTS)
            outcome = round_trip(nfs_program, config, workload=workload,
                                 play_seed=trace,
                                 replay_seed=5000 + trace)
            assert outcome.audit.payloads_match
            worst = max(worst, outcome.audit.max_abs_ipd_diff_ms)
            total_cycles += outcome.play.total_cycles
        residuals[label] = worst
        totals[label] = total_cycles / TRACES
    return residuals, totals


def test_sec7_multitenancy(benchmark, nfs_program):
    residuals, totals = benchmark.pedantic(run_sec7, args=(nfs_program,),
                                           rounds=1, iterations=1)

    print_banner("§7 (extension) — multi-tenant cross-talk and "
                 "cache/memory partitioning")
    print(f"  {'configuration':<26s} {'worst replay residual':>22s} "
          f"{'mean runtime':>14s}")
    for label in residuals:
        print(f"  {label:<26s} {residuals[label]:>18.3f} ms "
              f"{totals[label] / 3.4e6:>12.2f} ms")

    solo = residuals["solo"]
    shared = residuals["co-tenant"]
    partitioned = residuals["co-tenant + partitioning"]
    # The co-tenant's cross-talk dominates the single-VM residual ...
    assert shared > 2 * solo
    # ... and partitioning recovers most of the isolation,
    assert partitioned < 0.5 * shared
    # at a (modest) performance cost from the halved private cache.
    assert totals["co-tenant + partitioning"] >= totals["solo"] * 0.99


# -- service-level variant ---------------------------------------------------


def _run_service(config: MachineConfig):
    """One verifier-service run under ``config``, on the one-node fleet
    ``reproduce serve`` runs; returns (report, wall_s)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.service import FleetService, FleetTopology, default_tenants

    service = FleetService(
        default_tenants(SERVICE_TENANTS, requests=SERVICE_REQUESTS),
        topology=FleetTopology(num_nodes=1),
        epochs=SERVICE_EPOCHS, seed=42, config=config,
        registry=MetricsRegistry())
    start = time.perf_counter()
    report = service.run(jobs=1)
    return report, time.perf_counter() - start


def _merge_perf(section: dict) -> Path:
    """Read-modify-write ``BENCH_perf.json`` under one key.

    ``test_perf_baseline.py`` owns the file and rewrites it whole; this
    bench only folds its own section in, so either ordering of the two
    benches leaves both sections intact.
    """
    out = Path(os.environ.get("BENCH_PERF_OUT", "BENCH_perf.json"))
    report = json.loads(out.read_text()) if out.exists() else {}
    report["service_multitenancy"] = section
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def test_sec7_service_throughput(benchmark):
    """Verifier throughput under co-tenant cross-talk, service-level.

    The single-VM ablation above shows the *residual* moving; this one
    shows the operational cost: the same audit workload takes several
    times longer to verify when a bursty co-tenant shares the machine,
    and cache/memory partitioning recovers nearly all of it — while the
    flagged roster never changes (play and replay share the config, so
    deterministic cross-talk cancels in the verdict).
    """
    configurations = {
        "solo": MachineConfig(),
        "co-tenant": MachineConfig(co_tenant_intensity=0.8),
        "co-tenant + partitioning": MachineConfig(
            co_tenant_intensity=0.8, cache_partitioning=True),
    }

    def run_all():
        rows = {}
        for label, config in configurations.items():
            report, wall_s = _run_service(config)
            rows[label] = {
                "segments_shipped": report.segments_shipped,
                "audits": sum(ledger.audits
                              for ledger in report.ledgers.values()),
                "flagged": report.flagged_tenants,
                "wall_s": round(wall_s, 4),
                "segments_per_s": round(
                    report.segments_shipped / wall_s, 2),
                "audits_per_s": round(
                    sum(ledger.audits
                        for ledger in report.ledgers.values()) / wall_s, 2),
            }
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_banner("§7 (extension) — verifier-service throughput under "
                 "multi-tenancy")
    print(f"  {'configuration':<26s} {'segments/s':>11s} {'audits/s':>9s} "
          f"{'wall':>7s}  flagged")
    for label, row in rows.items():
        print(f"  {label:<26s} {row['segments_per_s']:>11.2f} "
              f"{row['audits_per_s']:>9.2f} {row['wall_s']:>6.2f}s  "
              f"{','.join(row['flagged']) or 'none'}")
    out = _merge_perf({
        "tenants": SERVICE_TENANTS, "epochs": SERVICE_EPOCHS,
        "requests": SERVICE_REQUESTS, "smoke": SMOKE,
        "configurations": rows})
    print(f"  [merged service_multitenancy into {out}]")

    solo = rows["solo"]
    shared = rows["co-tenant"]
    partitioned = rows["co-tenant + partitioning"]
    # The audit workload itself is identical in every configuration ...
    assert solo["audits"] == shared["audits"] == partitioned["audits"]
    # ... and so is the verdict: deterministic cross-talk cancels out.
    assert solo["flagged"] == shared["flagged"] == partitioned["flagged"] \
        == ["tenant-01"]
    # Cross-talk costs the verifier most of its throughput,
    assert shared["segments_per_s"] < 0.75 * solo["segments_per_s"]
    # and partitioning wins the bulk of it back.
    assert partitioned["segments_per_s"] > 1.3 * shared["segments_per_s"]
