"""Canned multi-process guest scenarios and their TDR drivers.

Three scenarios exercise the executive end to end:

* ``pipeline`` — a clean producer → filter pipeline over a bounded
  mailbox (the filter is spawned *from guest code* via ``proc_spawn``),
  plus a ticker process that adds scheduling interleavings.  Its audit
  replay is consistent: multi-process scheduling and IPC alone add no
  timing deviation.

* ``sched`` — the scheduler-yield covert channel: the sender process
  modulates how long it holds the CPU before ``exec_yield`` (via the
  ``covert_delay`` primitive), the receiver process decodes bits from
  the scheduling gaps it observes across its own yields and relays them
  as packets.  The audit replay runs clean, the gaps collapse, and the
  timing deviation flags the channel.

* ``mbox`` — the mailbox covert channel: the sender delays ``msg_send``
  by the bit-dependent hold; the receiver blocks in ``msg_recv`` and
  decodes from its wake-up gaps (it also samples ``mbox_len``, the
  occupancy side of the channel family).

In every sender the covert value feeds *only* ``covert_delay`` — never
control flow — so a clean replay (where ``covert_next_delay`` returns 0)
executes the identical instruction stream and the schedule verification
of :meth:`~repro.core.session.Session.observe_sched` passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.audit import compare_traces
from repro.core.tdr import TdrResult
from repro.determinism import SplitMix64
from repro.errors import ExecError, ReplayError
from repro.exec.executive import Executive
from repro.machine.config import MachineConfig
from repro.machine.machine import ExecutionResult, Machine
from repro.obs import Observability

#: Covert rounds per scenario run (= relayed packets).
ROUNDS = 48
#: Baseline work the sender does every round, cycles (~59 µs @ 3.4 GHz).
BASE_WORK_CYCLES = 200_000
#: Extra hold for a 1-bit, cycles (~176 µs @ 3.4 GHz) — far above the
#: natural slice-to-slice variation, far below anything a quantum bound
#: would clip.
HOLD_CYCLES = 600_000
#: Receiver decode threshold, ns: between the 0-gap (~60-70 µs) and the
#: 1-gap (~240 µs).
THRESH_NS = 130_000

_PIPELINE_ITEMS = 24
_PIPELINE_TICKS = 12


def pipeline_source() -> str:
    """Clean two-stage pipeline + ticker (no covert behaviour).

    ``filter_main`` is declared first on purpose: function indices are
    assigned in declaration order, so guest code can ``proc_spawn(0)``.
    """
    return f"""
    // Stage 2: consume items from mailbox 0, checksum, emit packets.
    global int items_done;

    void filter_main() {{
        int[] item = new int[8];
        int[] out = new int[4];
        while (true) {{
            int n = msg_recv(0, item);
            if (item[0] < 0) {{ break; }}
            int checksum = 0;
            for (int p = 0; p < 4; p = p + 1) {{
                for (int i = 0; i < n; i = i + 1) {{
                    checksum = (checksum + item[i] * (p + 1)) % 8191;
                }}
            }}
            busy_cycles(40000);
            out[0] = item[0];
            out[1] = checksum % 256;
            out[2] = checksum / 256;
            items_done = items_done + 1;
            send_packet(out, 3);
        }}
        print_int(items_done);
    }}

    void ticker_main() {{
        for (int t = 0; t < {_PIPELINE_TICKS}; t = t + 1) {{
            busy_cycles(12000);
            exec_yield();
        }}
    }}

    void main() {{
        // Spawn the filter from guest code (function index 0).
        int child = proc_spawn(0);
        int[] item = new int[8];
        for (int k = 0; k < {_PIPELINE_ITEMS}; k = k + 1) {{
            item[0] = k;
            for (int i = 1; i < 8; i = i + 1) {{
                item[i] = (k * 37 + i * 11) % 1000;
            }}
            busy_cycles(25000);
            msg_send(0, item, 8);
        }}
        item[0] = 0 - 1;
        msg_send(0, item, 8);
        print_int(child);
        exit();
    }}
    """


def sched_source() -> str:
    """Scheduler-yield covert channel: sender holds the CPU per bit."""
    return f"""
    global int decoded_count;

    void worker_main() {{
        for (int round = 0; round < {ROUNDS}; round = round + 1) {{
            busy_cycles({BASE_WORK_CYCLES});
            // The covert value feeds only the delay primitive; control
            // flow is identical with or without the channel.
            covert_delay(covert_next_delay());
            exec_yield();
        }}
    }}

    void main() {{
        int[] packet = new int[4];
        int last = nano_time();
        exec_yield();
        for (int round = 0; round < {ROUNDS}; round = round + 1) {{
            int now = nano_time();
            int gap = now - last;
            last = now;
            int bit = 0;
            if (gap > {THRESH_NS}) {{ bit = 1; }}
            decoded_count = decoded_count + bit;
            packet[0] = round;
            packet[1] = bit;
            packet[2] = gap % 251;
            send_packet(packet, 3);
            exec_yield();
        }}
        print_int(decoded_count);
        exit();
    }}
    """


def mbox_source() -> str:
    """Mailbox covert channel: bit-dependent delay before ``msg_send``."""
    return f"""
    global int decoded_count;

    void source_main() {{
        int[] msg = new int[8];
        for (int round = 0; round < {ROUNDS}; round = round + 1) {{
            covert_delay(covert_next_delay());
            busy_cycles({BASE_WORK_CYCLES});
            for (int i = 0; i < 8; i = i + 1) {{
                msg[i] = round * 8 + i;
            }}
            msg_send(0, msg, 8);
            exec_yield();
        }}
    }}

    void main() {{
        int[] inbox = new int[8];
        int[] packet = new int[4];
        int last = nano_time();
        for (int round = 0; round < {ROUNDS}; round = round + 1) {{
            int pending = mbox_len(0);
            int n = msg_recv(0, inbox);
            int now = nano_time();
            int gap = now - last;
            last = now;
            int bit = 0;
            if (gap > {THRESH_NS}) {{ bit = 1; }}
            decoded_count = decoded_count + bit;
            packet[0] = round;
            packet[1] = bit;
            packet[2] = pending;
            packet[3] = inbox[n - 1] % 256;
            send_packet(packet, 4);
        }}
        print_int(decoded_count);
        exit();
    }}
    """


@dataclass(frozen=True)
class ExecScenario:
    """One canned multi-process program and how to run it."""

    name: str
    title: str
    source_fn: object                       # () -> MiniJ source
    processes: tuple[tuple[str, str], ...]  # (name, entry function)
    num_mailboxes: int = 2
    mailbox_capacity: int = 8
    #: Covert rounds; 0 marks a clean scenario with no delay schedule.
    rounds: int = 0
    hold_cycles: int = 0

    def program(self):
        """The compiled program image (cached per scenario)."""
        cached = _PROGRAMS.get(self.name)
        if cached is None:
            from repro.apps import compile_app

            cached = _PROGRAMS[self.name] = compile_app(self.source_fn())
        return cached

    def payload_bits(self, seed: int = 7) -> list[int]:
        """A deterministic covert payload (one bit per round)."""
        rng = SplitMix64(seed).fork(f"exec-{self.name}")
        return [rng.randint(0, 1) for _ in range(self.rounds)]

    def covert_schedule(self, bits: list[int]) -> list[int]:
        """Delay schedule the sender's ``covert_next_delay`` consumes."""
        if self.rounds == 0:
            raise ExecError(
                f"scenario '{self.name}' has no covert sender")
        sized = (list(bits) + [0] * self.rounds)[:self.rounds]
        return [self.hold_cycles if bit else 0 for bit in sized]


_PROGRAMS: dict = {}

EXEC_SCENARIOS: dict[str, ExecScenario] = {
    scenario.name: scenario for scenario in (
        ExecScenario(
            name="pipeline",
            title="clean producer/filter pipeline + ticker",
            source_fn=pipeline_source,
            processes=(("producer", "main"), ("ticker", "ticker_main"))),
        ExecScenario(
            name="sched",
            title="scheduler-yield covert channel",
            source_fn=sched_source,
            processes=(("relay", "main"), ("worker", "worker_main")),
            rounds=ROUNDS, hold_cycles=HOLD_CYCLES),
        ExecScenario(
            name="mbox",
            title="mailbox covert channel",
            source_fn=mbox_source,
            processes=(("sink", "main"), ("source", "source_main")),
            rounds=ROUNDS, hold_cycles=HOLD_CYCLES),
    )
}


def exec_scenario(name: str) -> ExecScenario:
    try:
        return EXEC_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(EXEC_SCENARIOS))
        raise ExecError(
            f"unknown exec scenario '{name}' (known: {known})") from None


def _run(scenario: ExecScenario, machine: Machine,
         max_instructions: int, quantum: int | None) -> ExecutionResult:
    executive = Executive(machine,
                          num_mailboxes=scenario.num_mailboxes,
                          mailbox_capacity=scenario.mailbox_capacity,
                          quantum=quantum)
    return executive.run(scenario.program(), list(scenario.processes),
                         max_instructions=max_instructions)


def exec_play(scenario: ExecScenario, config: MachineConfig | None = None,
              seed: int = 0, covert_schedule: list[int] | None = None,
              max_instructions: int = 50_000_000, obs=None,
              quantum: int | None = None) -> ExecutionResult:
    """Record an executive run (schedule decisions land in the log)."""
    machine = Machine(config or MachineConfig(), seed=seed, mode="play",
                      covert_schedule=covert_schedule, obs=obs)
    return _run(scenario, machine, max_instructions, quantum)


def exec_replay(scenario: ExecScenario, log,
                config: MachineConfig | None = None, seed: int = 1,
                max_instructions: int = 50_000_000, obs=None,
                quantum: int | None = None) -> ExecutionResult:
    """Time-deterministically replay a recorded executive run.

    The scheduler recomputes every decision; the logged ``SCHED``
    entries are verified against it, so a divergent or tampered
    schedule raises instead of silently shifting all later timing.
    """
    machine = Machine(config or MachineConfig(), seed=seed, mode="replay",
                      log=log, obs=obs)
    return _run(scenario, machine, max_instructions, quantum)


def exec_fleet_task(task: tuple) -> tuple:
    """Fleet worker: one observed executive round trip from a picklable
    task.

    ``task`` is ``(scenario_name, covert, play_seed, replay_seed,
    quantum)``.  Returns the play and replay fingerprints and the
    :class:`~repro.core.audit.AuditReport`, all picklable, so a fleet
    run at any ``--jobs`` must reproduce the serial returns bit for bit.
    """
    name, covert, play_seed, replay_seed, quantum = task
    tdr = exec_round_trip(exec_scenario(name), play_seed=play_seed,
                          replay_seed=replay_seed, covert=covert,
                          quantum=quantum, obs=Observability())
    return tdr.play.fingerprint(), tdr.replay.fingerprint(), tdr.audit


def exec_round_trip(scenario: ExecScenario,
                    config: MachineConfig | None = None,
                    play_seed: int = 0, replay_seed: int = 1,
                    covert: bool = False, bits: list[int] | None = None,
                    max_instructions: int = 50_000_000,
                    obs=None, quantum: int | None = None) -> TdrResult:
    """Play, replay, and audit one executive scenario.

    With ``covert=True`` the sender's delay schedule is installed on the
    play machine only — the audit replay runs clean (§5.3), which is
    what exposes the scheduler/mailbox channels as timing deviations.
    """
    schedule = None
    if covert:
        schedule = scenario.covert_schedule(
            bits if bits is not None else scenario.payload_bits())
    play_result = exec_play(scenario, config, seed=play_seed,
                            covert_schedule=schedule,
                            max_instructions=max_instructions, obs=obs,
                            quantum=quantum)
    if play_result.log is None:
        raise ReplayError(
            f"executive play produced no log (scenario={scenario.name})")
    replay_result = exec_replay(scenario, play_result.log, config,
                                seed=replay_seed,
                                max_instructions=max_instructions, obs=obs,
                                quantum=quantum)
    report = compare_traces(play_result, replay_result)
    return TdrResult(play_result, replay_result, report)
