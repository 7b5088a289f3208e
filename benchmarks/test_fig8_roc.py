"""Figure 8: ROC curves/AUC for four covert channels x five detectors.

Two parts:

* **Statistical detectors** (shape, KS, regularity, CCE) are evaluated on
  trace populations from the calibrated NFS traffic model — the large
  trace counts a ROC needs are affordable there.
* **The Sanity (TDR) detector** is evaluated end-to-end on the simulated
  machine: covert servers run with real ``covert_delay`` schedules, their
  logs are replayed on a clean reference machine, and the per-packet IPD
  deviation is the discrimination statistic.

Reproduced shape (paper AUCs in the printed table):

* IPCTC is caught by everything;
* TRCTC evades the shape test but CCE nails it;
* MBCTC evades first-order tests; only CCE retains substantial power;
* the low-rate Needle channel evades every statistical detector;
* Sanity scores AUC = 1.0 on all four channels.
"""

from __future__ import annotations

from conftest import print_banner

from repro.analysis.experiment import (NfsTrafficModel, run_detector_matrix,
                                       vm_covert_schedule)
from repro.analysis.parallel import _compiled, run_fleet
from repro.analysis.plot import ascii_scatter
from repro.detectors.roc import roc_from_scores
from repro.analysis.stats import auc_mann_whitney
from repro.apps import build_nfs_workload
from repro.channels import (Ipctc, Mbctc, NeedleChannel, Trctc,
                            exec_channels, random_bits)
from repro.core.audit import compare_traces
from repro.core.tdr import play, replay
from repro.determinism import SplitMix64
from repro.detectors import all_statistical_detectors
from repro.exec import exec_round_trip, exec_scenario
from repro.machine import MachineConfig

#: Paper AUC values (Fig 8 legends), for the printed comparison.
PAPER_AUC = {
    ("ipctc", "shape"): 1.000, ("ipctc", "ks"): 1.000,
    ("ipctc", "regularity"): 1.000, ("ipctc", "cce"): 1.000,
    ("ipctc", "sanity"): 1.000,
    ("trctc", "shape"): 0.457, ("trctc", "ks"): 0.833,
    ("trctc", "regularity"): 0.726, ("trctc", "cce"): 1.000,
    ("trctc", "sanity"): 1.000,
    ("mbctc", "shape"): 0.223, ("mbctc", "ks"): 0.412,
    ("mbctc", "regularity"): 0.527, ("mbctc", "cce"): 0.885,
    ("mbctc", "sanity"): 1.000,
    ("needle", "shape"): 0.751, ("needle", "ks"): 0.813,
    ("needle", "regularity"): 0.532, ("needle", "cce"): 0.638,
    ("needle", "sanity"): 1.000,
}

CHANNEL_ORDER = ("ipctc", "trctc", "mbctc", "needle")
DETECTOR_ORDER = ("shape", "ks", "regularity", "cce", "sanity")

#: VM part parameters (kept small: each trace is a full machine run).
VM_TRACES_PER_CHANNEL = 4
VM_LEGIT_TRACES = 4
VM_REQUESTS = 25


def vm_channels():
    """Channel instances sized to the short VM traces (the Needle's
    100-packet period would not fire within 25 packets)."""
    return {
        "ipctc": Ipctc(),
        "trctc": Trctc(),
        "mbctc": Mbctc(),
        "needle": NeedleChannel(period=8, delta_ms=2.0),
    }


def run_statistical_matrix(jobs=None):
    channels = [Ipctc(), Trctc(), Mbctc(), NeedleChannel()]
    cells = run_detector_matrix(channels, all_statistical_detectors,
                                model=NfsTrafficModel(),
                                num_training=30, num_test=25,
                                packets_per_trace=120, seed=2014,
                                jobs=jobs)
    aucs = {(c.channel, c.detector): c.auc for c in cells}
    needle_rocs = {c.detector: c.roc.points for c in cells
                   if c.channel == "needle"}
    return aucs, needle_rocs


def _vm_deviation(task):
    """Fleet worker: one TDR deviation measurement (play + clean replay).

    Top-level so worker processes can resolve it by reference; the guest
    program is rebuilt per process via the symbolic ``"nfs"`` spec.
    """
    seed, schedule = task
    program = _compiled("nfs")
    config = MachineConfig()
    workload = build_nfs_workload(SplitMix64(7000 + seed),
                                  num_requests=VM_REQUESTS)
    observed = play(program, config, workload=workload, seed=seed,
                    covert_schedule=list(schedule) if schedule else None)
    reference = replay(program, observed.log, config, seed=30_000 + seed)
    report = compare_traces(observed, reference)
    assert report.payloads_match
    return report.deviation_score()


def _vm_calib_ipds(seed):
    """Fleet worker: the adversary's calibration pass (clean-host IPDs)."""
    program = _compiled("nfs")
    workload = build_nfs_workload(SplitMix64(7000 + seed),
                                  num_requests=VM_REQUESTS)
    return play(program, MachineConfig(), workload=workload,
                seed=seed).ipds_ms()


def run_sanity_detector(jobs=None):
    """End-to-end TDR detection on the simulated machine.

    Three fleet waves: legitimate deviations, the adversary's calibration
    plays, then covert deviations (which depend on the calibrations via
    the fitted channel schedules).  Schedules are fitted in the parent in
    the original serial loop order, so every machine run sees exactly the
    seeds and schedules of the old serial implementation.
    """
    config = MachineConfig()
    _compiled("nfs")  # warm the parent cache; workers forked later share it

    legit_tasks = [(seed, None) for seed in range(VM_LEGIT_TRACES)]
    legit_scores = run_fleet(legit_tasks, jobs=jobs, worker=_vm_deviation)

    channels = vm_channels()
    calib_seeds = [100 * (CHANNEL_ORDER.index(name) + 1) + i
                   for name in channels
                   for i in range(VM_TRACES_PER_CHANNEL)]
    naturals = run_fleet(calib_seeds, jobs=jobs, worker=_vm_calib_ipds)

    covert_tasks = []
    idx = 0
    for name, channel in channels.items():
        for _ in range(VM_TRACES_PER_CHANNEL):
            seed, natural = calib_seeds[idx], naturals[idx]
            idx += 1
            rng = SplitMix64(555 + seed)
            channel.fit(natural * 4, rng)
            bits = random_bits(max(1, channel.bits_needed(len(natural))),
                               rng)
            schedule = vm_covert_schedule(channel, natural, bits, rng,
                                          config.frequency_hz)
            covert_tasks.append((seed, tuple(schedule)))
    covert_all = run_fleet(covert_tasks, jobs=jobs, worker=_vm_deviation)

    aucs = {}
    scores_by_channel = {}
    for pos, name in enumerate(channels):
        covert_scores = covert_all[pos * VM_TRACES_PER_CHANNEL:
                                   (pos + 1) * VM_TRACES_PER_CHANNEL]
        aucs[name] = auc_mann_whitney(covert_scores, legit_scores)
        scores_by_channel[name] = covert_scores
    return aucs, legit_scores, scores_by_channel


def test_fig8_roc(benchmark):
    def run_all():
        statistical, needle_rocs = run_statistical_matrix()
        sanity_aucs, legit_scores, covert_scores = run_sanity_detector()
        return (statistical, needle_rocs, sanity_aucs, legit_scores,
                covert_scores)

    (statistical, needle_rocs, sanity_aucs, legit_scores,
     covert_scores) = benchmark.pedantic(run_all, rounds=1, iterations=1)

    aucs = dict(statistical)
    for name, auc in sanity_aucs.items():
        aucs[(name, "sanity")] = auc

    print_banner("Figure 8 — detector AUC per channel "
                 "(measured / paper)")
    header = "  channel  " + "".join(f"{d:>18s}" for d in DETECTOR_ORDER)
    print(header)
    for channel in CHANNEL_ORDER:
        row = f"  {channel:<8s}"
        for detector in DETECTOR_ORDER:
            measured = aucs[(channel, detector)]
            paper = PAPER_AUC[(channel, detector)]
            row += f"    {measured:>5.3f}/{paper:<5.3f} "
        print(row)
    print(f"  (sanity column from {VM_TRACES_PER_CHANNEL} covert + "
          f"{VM_LEGIT_TRACES} legit full machine executions per channel; "
          f"legit residual deviations: "
          f"{[f'{s:.3f}' for s in legit_scores]} ms)")

    # Fig 8d's curves: the needle channel against a statistical detector
    # (hugging the diagonal = chance) and against Sanity (the upside-down
    # L of a perfect classifier).
    sanity_roc = roc_from_scores("sanity", covert_scores["needle"],
                                 legit_scores)
    print()
    print(ascii_scatter({"cce": needle_rocs["cce"],
                         "sanity": sanity_roc.points},
                        diagonal=True, width=50, height=16,
                        xlabel="false positive rate",
                        ylabel="true positive rate"))

    # --- Fig 8a: IPCTC is detected by every test. ---
    for detector in DETECTOR_ORDER:
        assert aucs[("ipctc", detector)] > 0.95, detector
    # --- Fig 8b: TRCTC fools the shape test; CCE catches it. ---
    assert aucs[("trctc", "shape")] < 0.65
    assert aucs[("trctc", "cce")] > 0.85
    # --- Fig 8c: MBCTC fools first-order tests; CCE retains power. ---
    assert aucs[("mbctc", "shape")] < 0.65
    assert aucs[("mbctc", "ks")] < 0.70
    assert aucs[("mbctc", "cce")] > 0.80
    # --- Fig 8d: the needle evades every statistical detector... ---
    for detector in ("shape", "ks", "regularity", "cce"):
        assert aucs[("needle", detector)] < 0.75, detector
    # --- ...but the Sanity detector is perfect on all four channels. ---
    for channel in CHANNEL_ORDER:
        assert aucs[(channel, "sanity")] == 1.0, channel


# --- The scheduler/IPC channel family (guest executive) ------------------

EXEC_CHANNEL_ORDER = ("schedtc", "mboxtc")
#: Which multi-process guest scenario realises each channel end to end.
EXEC_VM_SCENARIOS = {"schedtc": "sched", "mboxtc": "mbox"}
EXEC_VM_TRACES = 3


def run_exec_statistical_matrix(jobs=None):
    cells = run_detector_matrix(exec_channels(), all_statistical_detectors,
                                model=NfsTrafficModel(),
                                num_training=30, num_test=25,
                                packets_per_trace=120, seed=2014,
                                jobs=jobs)
    return {(c.channel, c.detector): c.auc for c in cells}


def run_exec_sanity_detector():
    """TDR detection of the executive channels on the real machine.

    Each trace is a full multi-process play + clean replay: legitimate
    traces run the scenario with no covert schedule; covert traces
    install the bit-dependent hold schedule on the play machine only.
    """
    aucs = {}
    deviations = {}
    for name, scenario_name in EXEC_VM_SCENARIOS.items():
        scenario = exec_scenario(scenario_name)
        legit = [
            exec_round_trip(scenario, play_seed=seed,
                            replay_seed=900 + seed).audit.deviation_score()
            for seed in range(EXEC_VM_TRACES)]
        covert = [
            exec_round_trip(scenario, play_seed=100 + seed,
                            replay_seed=950 + seed, covert=True,
                            bits=scenario.payload_bits(seed=40 + seed)
                            ).audit.deviation_score()
            for seed in range(EXEC_VM_TRACES)]
        aucs[name] = auc_mann_whitney(covert, legit)
        deviations[name] = (legit, covert)
    return aucs, deviations


def test_fig8_exec_channels(benchmark):
    """Fig 8 rows for the scheduler-yield and mailbox channels."""

    def run_all():
        return run_exec_statistical_matrix(), run_exec_sanity_detector()

    statistical, (sanity_aucs, deviations) = benchmark.pedantic(
        run_all, rounds=1, iterations=1)

    print_banner("Figure 8 (exec) — scheduler/IPC channel family AUC")
    header = "  channel  " + "".join(f"{d:>12s}" for d in DETECTOR_ORDER)
    print(header)
    for channel in EXEC_CHANNEL_ORDER:
        row = f"  {channel:<8s}"
        for detector in ("shape", "ks", "regularity", "cce"):
            row += f"    {statistical[(channel, detector)]:>5.3f}   "
        row += f"    {sanity_aucs[channel]:>5.3f}   "
        print(row)
    for channel in EXEC_CHANNEL_ORDER:
        legit, covert = deviations[channel]
        print(f"  {channel}: legit deviations "
              f"{[f'{s:.3f}' for s in legit]} ms, covert "
              f"{[f'{s:.3f}' for s in covert]} ms")

    # Every executive channel must be caught by at least one statistical
    # detector with AUC > 0.9 (acceptance bar) — and in fact the
    # first-order tests nail both, since neither channel shapes its
    # delays to mimic the legitimate IPD distribution.
    for channel in EXEC_CHANNEL_ORDER:
        best = max(statistical[(channel, detector)]
                   for detector in ("shape", "ks", "regularity", "cce"))
        assert best > 0.9, channel
    assert statistical[("schedtc", "ks")] > 0.9
    # The occupancy walk's slowly-varying component is exactly what the
    # entropy detector keys on.
    assert statistical[("mboxtc", "cce")] > 0.9
    # TDR separates covert from legitimate multi-process runs perfectly.
    for channel in EXEC_CHANNEL_ORDER:
        assert sanity_aucs[channel] == 1.0, channel
