"""Tests for the guest executive: scheduler, mailbox IPC, determinism.

The non-negotiable invariant (DESIGN.md §5): a multi-process run is
**bit-identical** in its fingerprint and audit across replays, reruns,
JIT/no-JIT, batched/unbatched charging, and profiler on/off — the
schedule is a pure function of the execution, recorded as
tamper-evident ``SCHED`` log entries.  ``test_equivalence.py`` checks
the three scenarios under those knobs; the tests here pin hostile
quanta and the schedule's tamper evidence.
"""

import dataclasses

import pytest

from repro.channels import bit_accuracy
from repro.core.log import EventKind, EventLog
from repro.determinism import SplitMix64
from repro.errors import ExecError, ReplayDivergenceError
from repro.exec import (Executive, THREADS_PER_PROCESS, exec_play,
                        exec_replay, exec_round_trip, exec_scenario)
from repro.machine.machine import Machine
from repro.machine.config import MachineConfig


def decoded_bits(result):
    """The receiver's decoded bit per relayed packet (tx payload[1])."""
    return [payload[1] for _, payload in result.tx]


class TestCleanPipeline:
    def test_round_trip_is_consistent(self):
        tdr = exec_round_trip(exec_scenario("pipeline"))
        assert tdr.audit.payloads_match
        assert tdr.audit.is_consistent()
        # Multi-process scheduling and IPC alone add no timing deviation
        # beyond the residual seed noise of a clean replay.
        assert tdr.play.console == tdr.replay.console
        assert tdr.play.instructions == tdr.replay.instructions
        assert tdr.play.total_cycles == pytest.approx(
            tdr.replay.total_cycles, rel=1e-3)
        # Same seed -> the replay timing is bit-exact.
        exact = exec_round_trip(exec_scenario("pipeline"), play_seed=0,
                                replay_seed=0)
        assert exact.play.total_cycles == exact.replay.total_cycles

    def test_guest_spawn_and_pipeline_output(self):
        result = exec_play(exec_scenario("pipeline"))
        # The producer prints the child pid from proc_spawn: processes
        # are (producer=0, ticker=1), so the spawned filter gets pid 2.
        assert 2 in result.console
        # The filter prints how many items it checksummed (24 + no
        # sentinel) and emits one packet per item.
        assert 24 in result.console
        assert len(result.tx) == 24
        assert result.stats["exec_processes"] == 3
        assert result.stats["exec_exited"] == 3
        assert result.stats["exec_messages"] == 25  # 24 items + sentinel

    def test_packets_preserve_fifo_order(self):
        result = exec_play(exec_scenario("pipeline"))
        # payload[0] is the item index: mailbox FIFO means the filter
        # consumes and relays in production order.
        assert [payload[0] for _, payload in result.tx] == list(range(24))


class TestCovertScenarios:
    @pytest.mark.parametrize("name", ["sched", "mbox"])
    def test_covert_run_is_flagged(self, name):
        scenario = exec_scenario(name)
        tdr = exec_round_trip(scenario, covert=True)
        assert tdr.audit.payloads_match
        assert not tdr.audit.is_consistent()
        assert tdr.audit.deviation_score() > 0.05

    @pytest.mark.parametrize("name", ["sched", "mbox"])
    def test_clean_run_is_consistent(self, name):
        tdr = exec_round_trip(exec_scenario(name))
        assert tdr.audit.is_consistent()

    @pytest.mark.parametrize("name", ["sched", "mbox"])
    def test_receiver_decodes_payload(self, name):
        scenario = exec_scenario(name)
        bits = scenario.payload_bits()
        tdr = exec_round_trip(scenario, covert=True, bits=bits)
        play_decoded = decoded_bits(tdr.play)
        # The receiver's first gap may predate the sender's first hold
        # (schedule-dependent); beyond alignment effects the decode is
        # essentially exact.
        assert bit_accuracy(bits, play_decoded) > 0.9
        # Replay returns the *logged* nano_time values, so the decoded
        # bits are identical even though replay timing is clean — the
        # §5.3 "receiver can't tell it's being replayed" property.
        assert decoded_bits(tdr.replay) == play_decoded

    def test_clean_scenario_has_no_covert_schedule(self):
        with pytest.raises(ExecError):
            exec_scenario("pipeline").covert_schedule([1, 0])


class TestDeterminism:
    def test_quantum_changes_schedule_not_correctness(self):
        """Mailbox delivery order is a pure function of the (logged)
        schedule: hostile quanta reshuffle the interleaving, yet every
        play/replay pair stays bit-consistent and FIFO order holds."""
        scenario = exec_scenario("pipeline")
        for quantum in (997, 5003, 50_021):
            tdr = exec_round_trip(scenario, quantum=quantum)
            assert tdr.audit.payloads_match, quantum
            assert tdr.audit.is_consistent(), quantum
            assert [p[0] for _, p in tdr.play.tx] == list(range(24))

    def test_schedule_property_under_random_quanta(self):
        """Property: for any quantum, replaying the log reproduces the
        exact per-switch schedule (count and cycle totals)."""
        rng = SplitMix64(2014).fork("exec-quanta")
        scenario = exec_scenario("mbox")
        for _ in range(4):
            quantum = rng.randint(500, 20_000)
            tdr = exec_round_trip(scenario, covert=True, quantum=quantum)
            play_sched = [e for e in tdr.play.log.entries
                          if e.kind == EventKind.SCHED]
            assert play_sched, quantum
            # Replay recomputes every decision and verifies it against
            # the log: same switch count, same per-switch instruction
            # points (else observe_sched would have diverged), and hence
            # the same message order and decoded payload.
            assert tdr.play.stats["exec_switches"] \
                == tdr.replay.stats["exec_switches"]
            assert tdr.play.instructions == tdr.replay.instructions
            assert decoded_bits(tdr.play) == decoded_bits(tdr.replay)


class TestPreemptionRazor:
    """Poll-budget exactness under hostile preemption points.

    Tiny and prime quanta force the executive to preempt mid-covert-
    transmission — inside the sender's busy loop, between the covert
    hold and its yield, and inside compiled trace regions.  The global
    instruction counter and the batched charges must stay exact at every
    such boundary: the JIT'd and pure-interpreter runs (which tier up
    and poll differently) must agree on every observable, bit for bit.
    """

    @pytest.mark.parametrize("quantum", [61, 257, 1009])
    def test_jit_and_interpreter_agree_under_hostile_quanta(
            self, quantum, monkeypatch):
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        scenario = exec_scenario("sched")
        jit = exec_round_trip(scenario, covert=True, quantum=quantum)
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        nojit = exec_round_trip(scenario, covert=True, quantum=quantum)
        assert jit.play.fingerprint() == nojit.play.fingerprint()
        assert jit.replay.fingerprint() == nojit.replay.fingerprint()
        assert jit.audit == nojit.audit
        # The channel survives arbitrary preemption: decode still works.
        assert decoded_bits(jit.play) == decoded_bits(nojit.play)


class TestScheduleTamperEvidence:
    def test_tampered_sched_entry_diverges(self):
        scenario = exec_scenario("pipeline")
        play_result = exec_play(scenario)
        sched_idx = [i for i, e in enumerate(play_result.log.entries)
                     if e.kind == EventKind.SCHED]
        assert len(sched_idx) >= 3
        tampered = EventLog()
        for i, entry in enumerate(play_result.log.entries):
            if i == sched_idx[1]:
                entry = dataclasses.replace(entry, value=entry.value ^ 1)
            tampered.entries.append(entry)
        with pytest.raises(ReplayDivergenceError):
            exec_replay(scenario, tampered)

    def test_sched_entries_appear_in_size_breakdown(self):
        play_result = exec_play(exec_scenario("pipeline"))
        assert play_result.log.size_breakdown()["sched"] > 0


class TestExecutiveValidation:
    def make_machine(self, **kwargs):
        return Machine(MachineConfig(), seed=0, mode="play", **kwargs)

    def test_deadlock_detected(self):
        from repro.apps import compile_app

        source = """
        void other_main() {
            int[] buf = new int[4];
            int n = msg_recv(0, buf);
            print_int(n);
        }
        void main() {
            int[] buf = new int[4];
            int n = msg_recv(1, buf);
            print_int(n);
        }
        """
        program = compile_app(source)
        executive = Executive(self.make_machine(), num_mailboxes=2)
        with pytest.raises(ExecError, match="deadlock"):
            executive.run(program, [("a", "main"), ("b", "other_main")])

    def test_thread_partition_overflow(self):
        from repro.apps import compile_app

        source = f"""
        void worker(int n) {{
            busy_cycles(1000);
        }}
        void idle_main() {{
            exec_yield();
        }}
        void main() {{
            for (int i = 0; i < {THREADS_PER_PROCESS}; i = i + 1) {{
                spawn(worker, i);
            }}
            exec_yield();
        }}
        """
        program = compile_app(source)
        executive = Executive(self.make_machine())
        with pytest.raises(ExecError, match="thread partition"):
            executive.run(program, [("hog", "main"), ("idle", "idle_main")])

    def test_single_shot_and_first_entry_checks(self):
        program = exec_scenario("pipeline").program()
        machine = self.make_machine()
        with pytest.raises(ExecError, match="entry"):
            Executive(machine).run(program, [("x", "ticker_main")])

    def test_duplicate_names_rejected(self):
        program = exec_scenario("pipeline").program()
        with pytest.raises(ExecError, match="unique"):
            Executive(self.make_machine()).run(
                program, [("x", "main"), ("x", "ticker_main")])

    def test_bad_mailbox_config_rejected(self):
        with pytest.raises(ExecError):
            Executive(self.make_machine(), num_mailboxes=0)
        with pytest.raises(ExecError):
            Executive(self.make_machine(), quantum=0)

    def test_unknown_scenario(self):
        with pytest.raises(ExecError, match="unknown exec scenario"):
            exec_scenario("nope")


class TestBlockingSemantics:
    def test_send_blocks_on_full_mailbox(self):
        """Producer outruns a slow consumer through a capacity-1 box:
        correctness requires real blocking, not drops."""
        scenario = dataclasses.replace(exec_scenario("pipeline"),
                                       mailbox_capacity=1)
        tdr = exec_round_trip(scenario)
        assert tdr.audit.payloads_match
        assert tdr.audit.is_consistent()
        assert [p[0] for _, p in tdr.play.tx] == list(range(24))

    def test_per_process_stats(self):
        result = exec_play(exec_scenario("mbox"))
        stats = result.stats
        assert stats["exec_messages"] == 48
        assert stats["exec_switches"] >= 48
