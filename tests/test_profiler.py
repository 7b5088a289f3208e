"""The cycle-exact guest profiler and divergence forensics.

Two invariants carry this suite:

* **Exactness** — the profiler attributes ledger deltas, so per-source
  frame totals sum to the :class:`CycleLedger` (and the clock) *exactly*,
  at any stride, on covert, chaos-damaged, and fleet runs.
* **Pure observer** — profiling on vs off leaves the run's fingerprint
  and audit bit-identical (checked in ``test_equivalence.py``, with the
  profile export under the tier-up and batching knobs).

Plus the forensics razor: a single-site divergence (one covert delay in
an otherwise identical pair of runs) must be localized to the exact
(function, pc, source) frame.
"""

from __future__ import annotations

import pytest

from repro.analysis.parallel import MachineSpec, run_fleet_observed
from repro.apps import build_nfs_program, build_nfs_workload, compile_app
from repro.core.resilience import audit_resilient
from repro.core.tdr import play, round_trip
from repro.determinism import SplitMix64
from repro.errors import ObservabilityError
from repro.faults import standard_fault_kinds
from repro.machine import MachineConfig
from repro.machine.noise import scenario_config
from repro.obs import (Observability, RUNTIME_FRAME, diff_profiles,
                       first_divergence, folded_lines, profile_lines,
                       render_flame_diff_svg, render_flame_svg)

REQUESTS = 5
SCHEDULE = (1_500, 4_000, 2_500, 6_000)


@pytest.fixture(scope="module")
def nfs_program():
    return build_nfs_program()


def _round_trip(nfs_program, obs=None, schedule=SCHEDULE):
    workload = build_nfs_workload(SplitMix64(7042), num_requests=REQUESTS)
    return round_trip(nfs_program, MachineConfig(), workload=workload,
                      play_seed=3, replay_seed=9,
                      covert_schedule=list(schedule), obs=obs)


def _assert_exact(result):
    """Per-source frame totals == ledger, and the total == the clock."""
    profile = result.profile
    assert profile is not None
    assert profile["sources"] == dict(result.ledger)
    assert profile["total_cycles"] == result.total_cycles
    for entry in profile["stacks"]:
        assert entry["cycles"] == sum(entry["sources"].values())


class TestExactness:
    def test_covert_round_trip_sums_to_ledger(self, nfs_program):
        trip = _round_trip(nfs_program, obs=Observability(profile=True))
        _assert_exact(trip.play)
        _assert_exact(trip.replay)
        # The channel's cycles are in the play profile and attributed to
        # the covert source, absent from the clean replay.
        assert trip.play.profile["sources"]["covert"] == sum(SCHEDULE)
        assert "covert" not in trip.replay.profile["sources"]

    def test_stride_changes_where_not_how_much(self, nfs_program):
        """Coarser strides move cycles between frames, never in or out
        of the accounting."""
        totals = []
        for stride, jit_stride in ((1, 1), (4, 16), (64, 256)):
            result = play(nfs_program, MachineConfig(),
                          workload=build_nfs_workload(SplitMix64(7042),
                                                      num_requests=REQUESTS),
                          seed=3, covert_schedule=list(SCHEDULE),
                          obs=Observability(profile=True,
                                            profile_stride=stride,
                                            profile_jit_stride=jit_stride))
            _assert_exact(result)
            totals.append(result.profile["sources"])
        assert totals[0] == totals[1] == totals[2]

    def test_chaos_damaged_audits(self, nfs_program):
        """Profiling stays exact — and the verdicts identical — when the
        audited log is fault-damaged and salvage replays run."""
        result = play(nfs_program, MachineConfig(),
                      workload=build_nfs_workload(SplitMix64(7042),
                                                  num_requests=REQUESTS),
                      seed=3)
        data = result.log.to_bytes()

        def sweep(obs_factory):
            outcomes = []
            for plan in standard_fault_kinds(1):
                rng = SplitMix64(20141006).fork(plan.name)
                outcome = audit_resilient(nfs_program, result,
                                          plan.apply(data, rng),
                                          config=MachineConfig(),
                                          obs=obs_factory())
                outcomes.append((plan.name, outcome.classification,
                                 outcome.consistent, outcome.coverage,
                                 outcome.degradation))
            return outcomes

        profiled = sweep(lambda: Observability(profile=True))
        plain = sweep(lambda: Observability())
        bare = sweep(lambda: None)
        assert profiled == plain == bare

    def test_fleet_results_sum_to_ledger(self):
        specs = [MachineSpec(program="kernel:sor", config=MachineConfig(),
                             seed=seed, observe=True, profile=True)
                 for seed in range(4)]
        results, _ = run_fleet_observed(specs, jobs=1)
        for result in results:
            _assert_exact(result)

    def test_exec_round_trip_sums_to_ledger(self):
        from repro.exec import exec_round_trip, exec_scenario

        trip = exec_round_trip(exec_scenario("pipeline"),
                               obs=Observability(profile=True))
        _assert_exact(trip.play)
        _assert_exact(trip.replay)


class TestPureObserver:
    def test_no_jit_reference_also_exact(self, nfs_program, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        trip = _round_trip(nfs_program, obs=Observability(profile=True))
        _assert_exact(trip.play)
        # Pure interpreter: no jit-tier frames can exist.
        assert all(e["tier"] == "interp"
                   for e in trip.play.profile["stacks"])

    def test_profile_requires_ledger(self):
        with pytest.raises(ObservabilityError):
            Observability(profile=True, ledger=False)


RAZOR_SRC = """
void main() {
    int acc = 0;
    int i = 0;
    while (i < 3000) { acc = acc + i; i = i + 1; }
    covert_delay(500);
    int j = 0;
    while (j < 3000) { acc = acc + j; j = j + 1; }
    print_int(acc);
    exit();
}
"""


def _razor_profiles():
    """Two sanity-config runs of the same program and seed, differing in
    exactly one covert delay: the only divergence is that one site."""
    program = compile_app(RAZOR_SRC)
    config = scenario_config("sanity")

    def obs():
        return Observability(profile=True, profile_stride=1,
                             profile_jit_stride=1)

    base = play(program, config, seed=0, obs=obs())
    covert = play(program, config, seed=0, covert_schedule=[500],
                  obs=obs())
    return base, covert


class TestForensicsRazor:
    def test_single_site_divergence_is_named_exactly(self):
        base, covert = _razor_profiles()
        diff = diff_profiles(base.profile, covert.profile)
        # The razor: exactly ONE divergent (stack, tier, source) bucket.
        assert len(diff["entries"]) == 1
        first = first_divergence(base.profile, covert.profile)
        assert first == diff["entries"][0] == diff["first"]
        assert first["source"] == "covert"
        assert first["delta"] == 500
        assert first["function"] == "main"
        assert isinstance(first["pc"], int)
        assert diff["replay_total"] - diff["play_total"] == 500

    def test_identical_runs_have_no_divergence(self):
        base, _ = _razor_profiles()
        again, _ = _razor_profiles()
        assert first_divergence(base.profile, again.profile) is None
        assert base.profile == again.profile

    def test_differential_flame_names_the_site(self):
        base, covert = _razor_profiles()
        svg = render_flame_diff_svg(base.profile, covert.profile)
        first = first_divergence(base.profile, covert.profile)
        assert f"{first['function']}:{first['pc']}" in svg
        assert "[covert]" in svg
        assert svg == render_flame_diff_svg(base.profile, covert.profile)


class TestExports:
    @pytest.fixture(scope="class")
    def played(self, nfs_program):
        return _round_trip(nfs_program,
                           obs=Observability(profile=True)).play

    @pytest.fixture(scope="class")
    def profile(self, played):
        return played.profile

    def test_folded_lines_sum_to_ledger_total(self, profile):
        lines = folded_lines(profile)
        assert lines == sorted(lines)
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == profile["total_cycles"]
        # flamegraph.pl shape: frames;joined;by;semicolons <weight>.
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack and weight.isdigit()

    def test_folded_jit_annotation(self, played, profile):
        if played.jit is None:      # REPRO_NO_JIT or REPRO_NO_BATCH
            pytest.skip("pure-interpreter reference: no jit-tier frames")
        assert any(e["tier"] == "jit" for e in profile["stacks"])
        assert any("_[j];" in line for line in folded_lines(profile))

    def test_runtime_residual_closes_the_accounting(self, profile):
        runtime = [e for e in profile["stacks"]
                   if e["stack"] == [RUNTIME_FRAME]]
        assert runtime and runtime[0]["cycles"] > 0

    def test_flame_svg_deterministic_and_standalone(self, profile):
        svg = render_flame_svg(profile)
        assert svg == render_flame_svg(profile)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert 'xmlns="http://www.w3.org/2000/svg"' in svg
        assert "var(--" not in svg     # literal colors: no CSS vars

    def test_profile_lines_render(self, profile):
        lines = profile_lines(profile)
        assert any("attributed exactly" in line for line in lines)
        assert any("covert" in line for line in lines)

    def test_round_trip_persists_profiles(self, nfs_program, tmp_path):
        from repro.obs.report import render_html, render_text
        from repro.obs.runstore import RunStore

        store = RunStore(tmp_path / "runs")
        trip = _round_trip(nfs_program, obs=Observability(profile=True))
        from repro.core.tdr import persist_round_trip

        run_id = persist_round_trip(store, trip,
                                    obs=Observability(profile=True),
                                    kind="profile")
        record = store.load(run_id)
        assert record.figures["profile"]["play"] == trip.play.profile
        if trip.play.jit is not None:       # absent under REPRO_NO_JIT
            assert record.figures["jit"]["play"] == trip.play.jit
        text = render_text(record, run_id)
        assert "attributed exactly" in text
        html = render_html([(run_id, record)])
        assert "Cycle-exact profile" in html and "<svg" in html


class TestCli:
    def test_profile_fresh_run_writes_artifacts(self, tmp_path, capsys):
        from repro.tools.reproduce import main

        flame = tmp_path / "flame.svg"
        folded = tmp_path / "folded.txt"
        status = main(["profile", "--requests", "3", "--diff",
                       "--flame", str(flame), "--folded", str(folded),
                       "--store", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert status == 0
        assert "attributed exactly" in out
        assert "first divergent frame" in out and "[covert]" in out
        assert flame.read_text().startswith("<?xml")
        assert "Differential flame view" in flame.read_text()
        assert folded.read_text().splitlines()

    def test_profile_stored_run_diff_names_site(self, tmp_path, capsys):
        from repro.obs.runstore import RunRecord, RunStore
        from repro.tools.reproduce import main

        base, covert = _razor_profiles()
        first = first_divergence(base.profile, covert.profile)
        store_root = tmp_path / "runs"
        run_id = RunStore(store_root).save(RunRecord(
            kind="profile", label="razor",
            figures={"profile": {"play": base.profile,
                                 "replay": covert.profile}}))
        status = main(["profile", "--run", run_id, "--diff",
                       "--store", str(store_root)])
        out = capsys.readouterr().out
        assert status == 0
        assert (f"first divergent frame: "
                f"{first['function']}:{first['pc']} [covert]") in out

    def test_profile_run_latest_annotates_regions(self, tmp_path,
                                                  capsys):
        from repro.tools.reproduce import main

        store_root = str(tmp_path / "runs")
        assert main(["profile", "--requests", "3",
                     "--store", store_root]) == 0
        capsys.readouterr()
        status = main(["profile", "--run", "latest",
                       "--store", store_root])
        out = capsys.readouterr().out
        assert status == 0
        assert "attributed exactly" in out
        # Satellite: stored runs annotate compiled regions from the
        # persisted tier-up summary (skipped when the run did not tier
        # up: under REPRO_NO_JIT or REPRO_NO_BATCH).
        from repro.obs.runstore import RunStore

        store = RunStore(store_root)
        if "jit" in store.load(store.latest()["run_id"]).figures:
            assert "compiled regions (play):" in out
            assert "side-exits" in out

    def test_profile_usage_errors(self, tmp_path, capsys):
        from repro.tools.reproduce import main

        status = main(["profile", "--run", "latest",
                       "--store", str(tmp_path / "empty")])
        assert status == 2
        capsys.readouterr()
