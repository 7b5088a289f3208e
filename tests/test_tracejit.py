"""Differential tests: trace-compiling tier-up vs the pure interpreter.

The tier-up compiles hot bytecode regions into fused Python closures
that charge a pre-summed block cost through the batched platform.  The
charging replay is exact and block entry/exit protocols mirror the
interpreter byte-for-byte, so a run's fingerprint must be bit-identical
to the pure interpreter's, which stays available behind
``REPRO_NO_JIT=1`` as the differential reference (mirroring
``REPRO_NO_BATCH`` for batched charging).  The pipeline scenarios are
compared in ``test_equivalence.py``; the tests here pin the programs,
configs and poll placements at the tier-up's own boundaries.
"""

from __future__ import annotations

import ast
import collections
import itertools
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (SCIMARK_KERNELS, build_kernel_program,
                        build_nfs_program, build_nfs_workload, compile_app)
from repro.core.tdr import play, round_trip
from repro.determinism import SplitMix64
from repro.hw.branch import BranchPredictor
from repro.hw.cache import CacheHierarchy
from repro.hw.cpu import CostClass, CpuModel
from repro.hw.interrupts import IrqSource
from repro.machine import MachineConfig, NoiseScenario, scenario_config
from repro.machine.config import RuntimeKind
from repro.machine.machine import Machine
from repro.machine.platform import _ACC_BRANCH, _ACC_INSTR
from repro.obs import Observability
from repro.vm import tracejit
from repro.vm.heap import HEAP_BASE, GuestThrow, Heap
from repro.vm.interpreter import Interpreter
from repro.vm.isa import ROWS, STACK_BASE
from repro.vm.tracejit import (_MIN_BLOCK, _build_region,
                               _static, compile_region, jit_enabled)

REQUESTS = 5


@pytest.fixture(autouse=True)
def _jit_on_by_default(monkeypatch):
    """These are differential tests: each one flips the switch itself,
    so an ambient ``REPRO_NO_JIT`` or ``REPRO_NO_BATCH`` (CI's no-JIT
    and no-batch tier-1 legs, each of which keeps runs on the
    interpreter) must not pre-disable the tier-up side of the
    comparison."""
    monkeypatch.delenv("REPRO_NO_JIT", raising=False)
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)


@pytest.fixture(scope="module")
def nfs_program():
    return build_nfs_program()


def _round_trip(nfs_program):
    workload = build_nfs_workload(SplitMix64(7042), num_requests=REQUESTS)
    return round_trip(nfs_program, MachineConfig(), workload=workload,
                      play_seed=3, replay_seed=9)


RAZOR_SRC = """
// Hot loop that tiers up, then faults mid-block: data[idx] walks
// 0..63 for the first 5000 iterations and jumps to 70 (out of bounds)
// at iteration 5000, forcing a side exit from a compiled region while
// a covert transmission is in flight.
void main() {
    int[] data = new int[64];
    covert_delay(500);
    int acc = 0;
    int i = 0;
    try {
        while (i < 20000) {
            int gate = i / 5000;
            int idx = gate * 70 + (1 - gate) * (i % 64);
            acc = acc + data[idx];
            i = i + 1;
        }
    } catch (e) {
        print_int(e);
    }
    send_packet(data, 4);
    print_int(acc);
    exit();
}
"""


class TestRazorSideExit:
    """A guest fault inside a compiled block mid-covert-transmission:
    the side exit must charge the exact instruction prefix, land the
    handler on the right pc, and leave every timing fact identical."""

    def test_side_exit_is_taken_and_bit_identical(self, monkeypatch):
        program = compile_app(RAZOR_SRC)
        jit = play(program, MachineConfig(), seed=0)
        assert jit.jit is not None
        assert jit.jit["entries"] > 0
        assert jit.jit["side_exits"] > 0          # the razor: faulted mid-block
        assert jit.console[0] == -2               # EXC_INDEX_OUT_OF_BOUNDS

        monkeypatch.setenv("REPRO_NO_JIT", "1")
        interp = play(program, MachineConfig(), seed=0)
        assert interp.jit is None
        assert jit.fingerprint() == interp.fingerprint()


class TestUnits:
    def test_escape_hatch(self, monkeypatch):
        """``REPRO_NO_JIT=1`` turns the tier-up off, and so does a
        platform that lends no block templates: the unbatched reference
        (``REPRO_NO_BATCH=1``) and ``NullPlatform`` run on the
        interpreter, where the default machine tiers up."""
        from repro.vm import NullPlatform

        program = build_kernel_program("sor", n=8, iterations=2)

        def tiers_up() -> tuple[bool, bool]:
            """Whether a new interpreter and a play on the default
            machine tier up."""
            machine = Machine(MachineConfig(), seed=0, mode="play")
            return (Interpreter(program, machine.platform).jit is not None,
                    play(program, MachineConfig(), seed=0).jit is not None)

        assert jit_enabled()
        assert tiers_up() == (True, True)
        assert Interpreter(program, NullPlatform()).jit is None
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        assert tiers_up() == (False, False)
        monkeypatch.delenv("REPRO_NO_BATCH")
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        assert not jit_enabled()
        assert tiers_up() == (False, False)

    def test_compile_region_skips_tiny_regions(self):
        from repro.asm import assemble
        from repro.vm import NullPlatform

        program = assemble("""
        .func main 0 1
            iconst 1
            ret
        """, natives=NullPlatform())
        function = program.function("main")
        platform = Machine(MachineConfig(), seed=0, mode="play").platform
        assert compile_region(function, 0, platform) is None

    def test_artifact_cache_shares_code_across_runs(self):
        """compile_region memoizes the compiled artifact on the
        Function: two runs (two platforms) share one code object but get
        independent counter blocks."""
        from repro.apps import build_kernel_program

        program = build_kernel_program("sor")
        one = Machine(MachineConfig(), seed=0, mode="play").platform
        two = Machine(MachineConfig(), seed=1, mode="play").platform
        for function in program.functions:
            for head in function.region_heads():
                first = compile_region(function, head, one)
                second = compile_region(function, head, two)
                if first is None:
                    assert second is None
                    continue
                assert second.run.__code__ is first.run.__code__
                assert second is not first
                assert first.n == second.n > 0

    def test_cached_artifacts_keep_no_source(self):
        """The compile cache holds what instantiation needs, not the
        rendered source, which only ``_build_region`` returns."""
        program = build_kernel_program("sor", n=16, iterations=4)
        play(program, MachineConfig(), seed=3)
        artifacts = [art for function in program.functions
                     for art in getattr(function, "_tracejit_cache",
                                        {}).values() if art is not None]
        assert artifacts
        assert not [art for art in artifacts if "source" in art]

    def test_artifact_cache_shared_with_ledger_runs(self):
        """The memory template renders the same source with or without
        a ledger, so an observed run reuses every region a plain run
        compiled."""
        from repro.apps import build_kernel_program

        program = build_kernel_program("sor", n=16, iterations=4)

        def cached() -> int:
            return sum(len(getattr(f, "_tracejit_cache", {}))
                       for f in program.functions)

        play(program, MachineConfig(), seed=3)
        compiled = cached()
        assert compiled > 0
        play(program, MachineConfig(), seed=3,
             obs=Observability(trace=False))
        assert cached() == compiled

    def test_region_summary_shape(self):
        from repro.apps import build_kernel_program

        result = play(build_kernel_program("sor"), MachineConfig(), seed=0)
        summary = result.jit
        assert summary["enabled"]
        assert summary["compiled_regions"] > 0
        assert summary["entries"] > 0
        assert summary["jit_instructions"] > 0
        assert summary["jit_cycles"] > 0
        # Per-region stats are sorted busiest-first for reporting.
        regions = summary["regions"]
        assert regions == sorted(
            regions, key=lambda r: (-r["instructions"], r["function"],
                                    r["head_pc"]))
        assert all(r["length"] > _MIN_BLOCK - 1 for r in regions)

    def test_sampler_v2_export_and_hot_sites(self):
        from repro.obs.sampling import OpcodeSampler
        from repro.vm.isa import Op

        sampler = OpcodeSampler(stride=256)
        for _ in range(3):
            sampler.record(int(Op.IADD), 0, 17)
        sampler.record(int(Op.LOAD), 1, 4)
        sampler.record(int(Op.IMUL))          # v1 call shape: no site

        export = sampler.export()
        assert export["version"] == 2
        # v1 fields keep their exact meaning and shape.
        assert export["stride"] == 256
        assert export["samples"] == 5
        assert export["histogram"]["IADD"] == 3
        assert {(s["function"], s["pc"]) for s in export["sites"]} == \
            {(0, 17), (1, 4)}
        assert sampler.hot_sites(1) == [(0, 17, 3)]

    def test_sampler_sites_round_trip_through_in_block_polls(
            self, monkeypatch):
        """Regression: a window whose polls ran inside compiled blocks
        must serialize and reload exactly.  The hot loop's sampler keeps
        recording at those polls, so its export carries their sites; the
        reload used to be impossible (no loader) and the histogram used
        a different unknown-opcode spelling (``op#N``) than ``sites``
        (``OP_N``), so the two halves of one export could not be parsed
        by one consumer."""
        import json

        from repro.apps import compile_app
        from repro.machine.machine import Machine
        from repro.obs.sampling import OpcodeSampler

        program = compile_app(RAZOR_SRC)
        machine = Machine(MachineConfig(), seed=0, mode="play")
        vm = Interpreter(program, machine.platform, machine.vm_config())
        seen = _count_in_block_polls(monkeypatch)
        vm.run(200_000_000)
        machine.platform.flush_charges()
        assert vm.jit is not None
        assert seen["in_block"] > 0     # polls ran inside blocks

        export = vm.jit.sampler.export()
        assert export["sites"]
        # Serialize -> reload -> re-export: exact, through real JSON.
        reloaded = OpcodeSampler.from_export(
            json.loads(json.dumps(export)))
        assert reloaded.export() == export
        assert reloaded.hot_sites(5) == vm.jit.sampler.hot_sites(5)

    def test_sampler_from_export_parses_fallback_mnemonics(self):
        """``OP_<code>`` names (unknown opcodes) and real mnemonics
        round-trip through one parser; junk raises."""
        import pytest as _pytest

        from repro.errors import ObservabilityError
        from repro.obs.sampling import OpcodeSampler
        from repro.vm.isa import Op

        sampler = OpcodeSampler(stride=64)
        sampler.record(int(Op.IADD), 2, 9)
        sampler.record(250, 2, 10)            # no such opcode
        export = sampler.export()
        assert export["histogram"]["OP_250"] == 1
        assert {s["op"] for s in export["sites"]} == {"IADD", "OP_250"}
        assert OpcodeSampler.from_export(export).export() == export
        with _pytest.raises(ObservabilityError):
            OpcodeSampler.from_export(
                {"stride": 64, "histogram": {"NOT_AN_OP": 1},
                 "sites": []})

    def test_region_stats_match_a_raw_walk_over_the_blocks(
            self, monkeypatch):
        """Regression: ``region_stats()`` (and so ``summary()``) once
        dropped the counters of entries late in a poll window.  Those
        entries now run the polls inside the blocks; the per-region rows
        must equal a raw walk over every block."""
        from repro.apps import build_kernel_program
        from repro.machine.machine import Machine

        program = build_kernel_program("sor")
        machine = Machine(MachineConfig(), seed=0, mode="play")
        vm = Interpreter(program, machine.platform, machine.vm_config())
        seen = _count_in_block_polls(monkeypatch)
        vm.run(200_000_000)
        machine.platform.flush_charges()

        raw = {"entries": 0, "side_exits": 0, "instructions": 0,
               "cycles": 0}
        for fn_blocks in vm.jit.blocks:
            for block in fn_blocks or ():
                if block is not None:
                    raw["entries"] += block.entries
                    raw["side_exits"] += block.side_exits
                    raw["instructions"] += block.instructions
                    raw["cycles"] += block.cycles
        assert seen["in_block"] > 0     # polls ran inside blocks
        summary = vm.jit.summary()
        assert summary["entries"] == raw["entries"]
        assert summary["side_exits"] == raw["side_exits"]
        assert summary["jit_instructions"] == raw["instructions"]
        assert summary["jit_cycles"] == raw["cycles"]


#: Starting carries at the edges of [0, 1), and anywhere inside.
CARRIES = st.one_of(st.sampled_from((0.0, 2.0 ** -52, 1.0 - 2.0 ** -52)),
                    st.floats(0.0, 1.0, exclude_max=True))



def _redraw_position(cpu):
    """Where the CPU is in its noise stream: the stream's state and how
    many drawn factors are left, which tells a redraw-count mismatch a
    batch would hide."""
    return cpu._rng._state, len(cpu._factors)


def _in_place_charge(inline, bases, first_poll) -> str:
    """A batched block's charge of the instruction stream ``bases``, as
    ``_build_region`` renders it around the rows: the prologue, then
    per instruction the event check and the carry step, then the exit's
    charge and hand-back, with the first poll at offset ``first_poll``."""
    presum = (0, *itertools.accumulate(bases))
    n = len(bases)
    lines = [f"_p = {first_poll}", *tracejit._OPEN]
    for k, base in enumerate(bases):
        lines += [f"if _e == {k}: _p, _u, _e, _ps0, _cf0, _cc, _c0, _mt, _mc"
                  f" = _event(vm, thread, frame, {k}, {presum[k]}, _p, _u,"
                  f" _cc, _cf0, _cf, _ps0, _c0, 0, _mt, _mc)",
                  inline.carry(base)]
    return "\n".join(lines + [inline.cycles(presum[n]), "_cpu._frac = _cf",
                              f"_cpu._until_redraw = _u + 1 - {n}",
                              f"_cpu._instructions += {n}"])


@settings(max_examples=300, deadline=None)
@given(runtime=st.sampled_from((RuntimeKind.SANITY, RuntimeKind.ORACLE_JIT)),
       stream=st.lists(st.sampled_from(list(CostClass)), min_size=192,
                       max_size=192),
       length=st.integers(1, 192),
       sigma=st.sampled_from((0.0, 0.004)), turbo=st.booleans(),
       freq_scaling=st.booleans(), carry=CARRIES,
       until=st.integers(1, 64), first_poll=st.integers(0, 400),
       interval=st.integers(1, 256), seed=st.integers(0, 2 ** 32))
def test_closed_form_charge_matches_instruction_cost(runtime, stream, length,
                                                     sigma, turbo,
                                                     freq_scaling, carry,
                                                     until, first_poll,
                                                     interval, seed):
    """Every batched charge leaves a CPU exactly where ``len(bases)``
    calls of ``CpuModel.instruction_cost`` do: the same instruction
    cycles, carry bits, redraw countdown, instruction count and redraw
    position.  That is a compiled block's in-place charge over a stream
    crossing up to three noise redraws, with its runs also cut at polls
    (each of which hands the CPU exactly the reference's state before
    the polled instruction), and one batched ``charge`` per
    instruction."""
    config = MachineConfig(runtime=runtime, speculation_sigma=sigma,
                           turbo=turbo, freq_scaling=freq_scaling)
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_NO_BATCH", raising=False)
        machines = [Machine(config, seed=seed, mode="play")
                    for _ in range(3)]
    for machine in machines:
        machine.cpu._frac = carry
        machine.cpu._until_redraw = until
    reference, rendered, charged = machines
    classes = tuple(stream[:length])
    start = {m: m.platform._acc[_ACC_INSTR] for m in machines}
    cpu = reference.cpu
    before, costs = [], []
    for cost_class in classes:
        before.append((sum(costs), cpu._frac.hex(), cpu._until_redraw,
                       cpu._instructions, cpu._combined.hex()))
        costs.append(cpu.instruction_cost(cost_class))

    for cost_class in classes:
        charged.platform.charge(cost_class)
    inline = rendered.platform.mem_inline()
    polled = []

    def poll(thread, function, pc, op):
        cpu = rendered.cpu
        polled.append((pc, rendered.platform._acc[_ACC_INSTR]
                       - start[rendered], cpu._frac.hex(), cpu._until_redraw,
                       cpu._instructions, cpu._combined.hex()))

    namespace = dict(
        inline.namespace, _N=length, _HEAD=0, _PER=0,
        vm=SimpleNamespace(instruction_count=0, poll=poll,
                           config=SimpleNamespace(poll_interval=interval)),
        thread=SimpleNamespace(executed=0),
        frame=SimpleNamespace(pc=0, function=SimpleNamespace(
            ops=[0] * length)))
    exec(tracejit._event_code(inline), namespace)  # noqa: S102
    exec(_in_place_charge(inline, [cpu._cost_list[c] for c in classes],
                          first_poll), namespace)  # noqa: S102
    assert polled == [(k, *before[k])
                      for k in range(first_poll, length, interval)]

    for machine in (rendered, charged):
        cpu = machine.cpu
        assert machine.platform._acc[_ACC_INSTR] - start[machine] \
            == sum(costs)
        assert cpu._frac.hex() == reference.cpu._frac.hex()
        assert cpu._until_redraw == reference.cpu._until_redraw
        assert cpu._instructions == reference.cpu._instructions
        assert _redraw_position(cpu) == _redraw_position(reference.cpu)


def _l1_line(line_bytes: int) -> MachineConfig:
    config = MachineConfig()
    return replace(config,
                   l1_config=replace(config.l1_config, line_bytes=line_bytes))


def _l1_direct(size_bytes: int) -> MachineConfig:
    config = MachineConfig()
    return replace(config, l1_config=replace(config.l1_config,
                                             size_bytes=size_bytes, ways=1))


#: The boundaries of line keys: Oracle-JIT frame slots are registerized,
#: a 32- or 128-byte line divides the 512-byte frame alignment, and a
#: 1,024-byte line does not, so frame keys switch off.  A 2-entry TLB
#: misses inside loops that touch three pages, so a repeat rendered
#: after an access to another page would change what the next miss
#: evicts.  A 1-entry TLB and a direct-mapped 512-byte L1 evict a line a
#: block call translated between two of its accesses, so the miss sides
#: of the update half run.  A 2-entry predictor table aliases the
#: branch sites of every function, and a zero mispredict penalty renders
#: the predictor template without its add to ``_acc``; ``nfs_program``
#: is shared across configs, so an artifact compiled under one predictor
#: config and reused under another fails there.
ELISION_CONFIGS = {
    "tlb-1": MachineConfig(tlb_entries=1),
    "tlb-2": MachineConfig(tlb_entries=2),
    "l1-direct-512": _l1_direct(512),
    "oracle-jit": MachineConfig(runtime=RuntimeKind.ORACLE_JIT),
    "oracle-jit-dirty": replace(scenario_config(NoiseScenario.DIRTY),
                                runtime=RuntimeKind.ORACLE_JIT),
    "l1-line-32": _l1_line(32),
    "l1-line-128": _l1_line(128),
    "l1-line-1024": _l1_line(1024),
    "poll-7": MachineConfig(vm_poll_interval=7),
    "btb-2": MachineConfig(btb_entries=2),
    "mispredict-0": MachineConfig(mispredict_cycles=0),
}


@pytest.mark.parametrize("entries", (1024, 2))
@pytest.mark.parametrize("penalty", (0, 14))
def test_branch_template_matches_record(monkeypatch, entries, penalty):
    """The predictor template a batched block renders at a static site,
    and the batched ``branch`` rendered from it with a run-time index,
    against ``BranchPredictor.record`` followed by the add of its
    penalty to the branch slot: from every counter state, for both
    outcomes, at sites that alias under the table's mask."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    machine = Machine(MachineConfig(btb_entries=entries,
                                    mispredict_cycles=penalty),
                      seed=0, mode="play")
    platform, predictor = machine.platform, machine.predictor
    inline = platform.mem_inline()
    reference = BranchPredictor(predictor.config)
    acc = platform._acc
    for site in (5, 6, 1029, 0x4000 + 7):
        code = compile("\n".join(inline.branch(site)), "<branch>", "exec")
        for state, taken, path in itertools.product(
                range(4), (False, True), ("inline", "batched")):
            index = site & (entries - 1)
            reference._counters[index] = predictor._counters[index] = state
            before = acc[_ACC_BRANCH]
            penalty_due = reference.record(site, taken)
            if path == "inline":
                exec(code, dict(inline.namespace, _tk=taken))  # noqa: S102
            else:
                platform.branch(site, taken)
            assert acc[_ACC_BRANCH] - before == penalty_due
            assert predictor._counters == reference._counters
            assert (predictor.predictions, predictor.mispredictions) == \
                (reference.predictions, reference.mispredictions)
    assert reference.mispredictions > 0
    assert inline.signature[-2:] == (entries - 1, penalty)


def test_line_keys_at_the_elision_boundaries(monkeypatch):
    """Equal keys mean one line in one page; accesses that cannot be
    proven so get no key."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)

    def line_key(config):
        return Machine(config, seed=0, mode="play").platform \
            .mem_inline().line_key

    key = line_key(MachineConfig())
    assert key(0x20_0000) == key(0x20_0038) != key(0x20_0040)
    assert key(8, frame=True) == key(56, frame=True) != key(64, frame=True)
    assert key(8, frame=True) != key(8)
    # Frame bases are 512-byte aligned: a 1,024-byte line keys constants
    # only.
    assert line_key(_l1_line(1024))(8, frame=True) is None
    assert line_key(_l1_line(1024))(0x20_0000) is not None
    # A line larger than the page spans pages: nothing is keyed.
    config = MachineConfig()
    wide = replace(config, l1_config=replace(config.l1_config,
                                              line_bytes=8192, ways=2))
    assert line_key(wide)(0x20_0000) is None
    # Oracle-JIT frame slots are registerized in some frames only.
    oracle = line_key(MachineConfig(runtime=RuntimeKind.ORACLE_JIT))
    assert oracle(8, frame=True) is None
    assert oracle(0x20_0000) is not None


def _elision_runs(nfs_program, config):
    """A 4-request NFS round trip and two small kernels: each run's
    result and, for the kernels, the TLB hit count, the TLB and cache
    state digests, which tell if an LRU move went missing, and the
    predictor's state digest and counts."""
    trip = round_trip(nfs_program, config,
                      workload=build_nfs_workload(SplitMix64(7042),
                                                  num_requests=4),
                      play_seed=3, replay_seed=9, obs=Observability())
    runs = [(trip.play, None), (trip.replay, None)]
    for program in (build_kernel_program("sor", n=16, iterations=4),
                    build_kernel_program("lu", n=12)):
        machine = Machine(config, seed=1, mode="play", obs=Observability())
        result = machine.run(program)
        predictor = machine.predictor
        runs.append((result, (machine.tlb.hits,
                              machine.tlb.state_fingerprint(),
                              machine.hierarchy.state_fingerprint(),
                              predictor.state_fingerprint(),
                              predictor.predictions,
                              predictor.mispredictions)))
    return runs


def _elision_facts(runs):
    return [(r.fingerprint(), state) for r, state in runs]


@pytest.fixture(scope="module", params=sorted(ELISION_CONFIGS))
def elision_default(request, nfs_program):
    """A boundary config and its facts with compiled blocks translating
    static lines once per call, summing hits at their exits and charging
    inline."""
    config = ELISION_CONFIGS[request.param]
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_NO_JIT", raising=False)
        patch.delenv("REPRO_NO_BATCH", raising=False)
        runs = _elision_runs(nfs_program, config)
    assert all(r.jit["entries"] > 0 for r, _ in runs)
    return config, _elision_facts(runs)


@pytest.mark.parametrize("knob", ("REPRO_NO_JIT", "REPRO_NO_BATCH"))
def test_elision_boundaries_match_reference(nfs_program, monkeypatch,
                                            elision_default, knob):
    """Compiled blocks with their lines translated once per call, their
    hits summed at the exits and the inline block charge against the
    pure interpreter (``REPRO_NO_JIT``) and the unbatched reference
    (``REPRO_NO_BATCH``), on configs at the line keys' boundaries and
    configs that evict translated lines mid-call."""
    config, facts = elision_default
    monkeypatch.setenv(knob, "1")
    assert _elision_facts(_elision_runs(nfs_program, config)) == facts


#: Configs whose polls change the machine, with the IRQ sources they
#: patch in (None keeps the standard ones): an IRQ or a preemption taken
#: on the timed core charges the clock and pollutes the caches at a poll
#: (IRQs every few thousand cycles, so some evict a line between two
#: accesses of a block pass; preemptions short, so idle waits stay cheap
#: to simulate); a 1-entry TLB and a direct-mapped 512-byte L1 evict,
#: after a poll, lines a block call translated before it; and the
#: Oracle-JIT model registerizes frame slots.
POLL_CONFIGS = {
    "irqs-on-timed-core": (MachineConfig(irqs_to_supporting_core=False),
                           [IrqSource("dense", 3_000.0, 50, cache_lines=4)]),
    "preemption": (MachineConfig(preemption_enabled=True,
                                 preempt_mean_interval_cycles=300_000.0,
                                 preempt_mean_duration_cycles=1_000.0),
                   None),
    "tlb-1": (ELISION_CONFIGS["tlb-1"], None),
    "l1-direct-512": (ELISION_CONFIGS["l1-direct-512"], None),
    "oracle-jit": (ELISION_CONFIGS["oracle-jit"], None),
}

#: Poll intervals that land polls at every offset of compiled code.
POLL_INTERVALS = (1, 2, 7, 31, 256)


@pytest.fixture(scope="module")
def poll_programs(nfs_program):
    """The razor program, shortened (its self-loop throws after polls
    in the same call), one NFS request (``process_chunk``'s self-loop)
    and a small SOR kernel."""
    razor = compile_app(RAZOR_SRC.replace("20000", "800")
                        .replace("5000", "500"))
    return [(razor, None), (nfs_program, 1),
            (build_kernel_program("sor", n=8, iterations=2), None)]


def _poll_runs(programs, config, irqs):
    """Each program's facts: its fingerprint, the TLB, cache, predictor
    and bus state at the end, and the instruction count and clock after
    every interpreter poll (with the IRQ sources ``irqs``, if not
    None)."""
    facts = []
    readings: list = []
    poll = Interpreter.poll

    def reading(self, *args):
        poll(self, *args)
        readings.append((self.instruction_count, self.platform.clock.cycles))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Interpreter, "poll", reading)
        if irqs is not None:
            patch.setattr("repro.machine.machine.standard_sources",
                          lambda: list(irqs))
        for program, requests in programs:
            workload = (None if requests is None else
                        build_nfs_workload(SplitMix64(7042),
                                           num_requests=requests))
            machine = Machine(config, seed=3, mode="play",
                              workload=workload, covert_enabled=True,
                              obs=Observability())
            result = machine.run(program)
            facts.append((result.fingerprint(),
                          machine.tlb.state_fingerprint(),
                          machine.hierarchy.state_fingerprint(),
                          machine.predictor.state_fingerprint(),
                          machine.bus.traffic_level.hex(),
                          machine.bus.total_stall_cycles, readings[:]))
            readings.clear()
    return facts


def _count_in_block_polls(patch) -> collections.Counter:
    """Count the events compiled blocks run, by where they fall: polls
    inside a self-loop iteration after the first, with a noise redraw
    in the pass before the poll or after it (or at the polled
    instruction), taking an IRQ or a preemption that pollutes the
    caches, and block calls that throw after one; the redraws blocks
    run; and each block's calls of ``_event`` (``event_calls``)."""
    seen: collections.Counter = collections.Counter()
    poll = Interpreter.poll
    pollute = CacheHierarchy.pollute
    redraw = CpuModel._recompute_noise

    def event_frame():
        caller = sys._getframe(2)
        while caller.f_code.co_filename == __file__:    # other wrappers
            caller = caller.f_back
        return caller if caller.f_code.co_name == "_event" else None

    def counted(self, thread, function, pc, op):
        caller = event_frame()
        if caller is None:
            return poll(self, thread, function, pc, op)
        k, u, j = (caller.f_locals[name] for name in ("_k", "_u", "_j"))
        seen["in_block"] += 1
        seen["in_later_iteration"] += j > 0
        # ``_u`` is the next redraw's offset.
        period = self.platform.cpu.config.speculation_period
        seen["redraw_before"] += u - period >= 0
        seen["redraw_after"] += u < caller.f_globals["_N"]
        seen["redraw_at_poll"] += u == k
        seen["in_poll"] = 1
        try:
            poll(self, thread, function, pc, op)
        finally:
            seen["in_poll"] = 0

    def redrawing(self):
        seen["redraw"] += event_frame() is not None
        return redraw(self)

    def polluting(self, *args):
        seen["polluting"] += seen["in_poll"]
        return pollute(self, *args)

    compile_block = tracejit.compile_region

    def compiling(*args, **kwargs):
        block = compile_block(*args, **kwargs)
        if block is not None:
            run = block.run
            namespace = run.__globals__
            event = namespace["_event"]

            def calling(*call_args):
                seen["event_calls"] += 1
                return event(*call_args)

            namespace["_event"] = calling

            def running(*call):
                before = seen["in_block"]
                try:
                    return run(*call)
                except GuestThrow:
                    seen["throw_after_poll"] += seen["in_block"] > before
                    raise

            block.run = running
        return block

    patch.setattr(Interpreter, "poll", counted)
    patch.setattr(CpuModel, "_recompute_noise", redrawing)
    patch.setattr(CacheHierarchy, "pollute", polluting)
    patch.setattr(tracejit, "compile_region", compiling)
    return seen


@pytest.fixture(scope="module", params=[
    (name, interval) for name in sorted(POLL_CONFIGS)
    for interval in POLL_INTERVALS], ids=lambda cell: f"{cell[0]}-{cell[1]}")
def poll_placement(request, poll_programs):
    """A config and poll interval, and the facts of runs in which
    compiled blocks run the polls that fall inside them."""
    name, interval = request.param
    config, irqs = POLL_CONFIGS[name]
    config = replace(config, vm_poll_interval=interval)
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_NO_JIT", raising=False)
        patch.delenv("REPRO_NO_BATCH", raising=False)
        seen = _count_in_block_polls(patch)
        facts = _poll_runs(poll_programs, config, irqs)
    # Polls really ran inside blocks, inside self-loop iterations, on
    # both sides of noise redraws and at a redrawing instruction, and
    # before guest throws; blocks ran redraws of their own; with IRQs or
    # preemptions on the timed core, some polls took one.
    assert seen["in_block"] > 0 and seen["in_later_iteration"] > 0, seen
    assert seen["redraw_before"] > 0 and seen["redraw_after"] > 0, seen
    assert seen["redraw_at_poll"] > 0 and seen["redraw"] > 0, seen
    assert seen["throw_after_poll"] > 0, seen
    if name == "irqs-on-timed-core" or (name == "preemption"
                                        and interval <= 7):
        assert seen["polluting"] > 0, seen
    return config, irqs, facts


@pytest.mark.parametrize("knob", ("REPRO_NO_JIT", "REPRO_NO_BATCH"))
def test_in_block_polls_match_reference(poll_programs, monkeypatch,
                                        poll_placement, knob):
    """Blocks that run the platform poll at its exact instruction against
    the pure interpreter (``REPRO_NO_JIT``) and the unbatched reference
    (``REPRO_NO_BATCH``), with polls at every offset of compiled code on
    configs whose polls change the machine."""
    config, irqs, facts = poll_placement
    monkeypatch.setenv(knob, "1")
    assert _poll_runs(poll_programs, config, irqs) == facts


class TestWorkCounts:
    """Deterministic work-count gates on the 5-request NFS round trip
    and on the batched charges."""

    @pytest.fixture(autouse=True)
    def _batched(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)

    def test_blocks_charge_in_place(self, nfs_program, monkeypatch):
        """Compiled blocks charge every instruction in place: over the
        round trip they make exactly one charging call, to ``_event``,
        per instruction offset at which an in-block poll or noise redraw
        falls (both at one offset share the call), and none per pass,
        side exit or instruction."""
        seen = _count_in_block_polls(monkeypatch)
        trip = _round_trip(nfs_program)
        entries = trip.play.jit["entries"] + trip.replay.jit["entries"]
        assert entries > 0 and seen["in_block"] > 0 and seen["redraw"] > 0
        assert seen["event_calls"] == (seen["in_block"] + seen["redraw"]
                                       - seen["redraw_at_poll"]), seen

    def test_blocks_record_branches_and_dereference_inline(
            self, nfs_program):
        """Over the round trip, compiled blocks make no call to
        ``BranchPredictor.record``, to the platform's ``branch`` or to
        ``Heap.get``: the predictor template and the heap's object list
        are inline.  The interpreter still makes such calls."""
        platform = Machine(MachineConfig(), seed=3, mode="play").platform
        barred = {BranchPredictor.record.__code__: "record",
                  platform.branch.__code__: "branch",
                  Heap.get.__code__: "Heap.get"}
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in barred:
                caller = frame.f_back.f_code.co_filename
                calls[barred[frame.f_code],
                      caller.startswith("<tracejit ")] += 1

        sys.setprofile(profile)
        try:
            trip = _round_trip(nfs_program)
        finally:
            sys.setprofile(None)
        assert trip.play.jit["entries"] + trip.replay.jit["entries"] > 0
        assert not {name: n for (name, block), n in calls.items()
                    if block}, calls
        assert calls["branch", False] > 0 and calls["Heap.get", False] > 0

    def test_blocks_retire_most_kernel_instructions(self):
        """Over warm second plays of the five default-size SciMark
        kernels, compiled blocks retire at least 95% of the instructions
        in total and at least 90% of each kernel's: a poll inside a
        region no longer sends its pass to the interpreter."""
        retired = {}
        for name in SCIMARK_KERNELS:
            program = build_kernel_program(name)
            play(program, MachineConfig(), seed=3)
            result = play(program, MachineConfig(), seed=3)
            retired[name] = (result.jit["jit_instructions"],
                             result.instructions)
        blocks, total = map(sum, zip(*retired.values()))
        assert blocks >= 0.95 * total, retired
        assert all(j >= 0.9 * i for j, i in retired.values()), retired

    @pytest.mark.parametrize("path", ("event", "charge"))
    def test_charges_call_only_the_noise_redraw(self, path):
        """Over 1,000 instructions, a compiled block's in-place charge
        (its event helper, which the block calls only at the redraws
        when no poll falls inside) and ``charge`` (one call each) call
        one Python function: ``CpuModel._recompute_noise``, once per
        noise redraw.  The carry and the countdown are rendered inline."""
        machine = Machine(MachineConfig(), seed=3, mode="play")
        cpu, platform = machine.cpu, machine.platform
        classes = tuple(CostClass(i % len(CostClass)) for i in range(1000))
        redraws = (1 + (len(classes) - cpu._until_redraw)
                   // cpu.config.speculation_period)
        inline = platform.mem_inline()
        namespace = dict(inline.namespace, _N=len(classes), _HEAD=0,
                         _PER=0, vm=None, thread=None, frame=None)
        exec(tracejit._event_code(inline), namespace)  # noqa: S102
        caller = (namespace["_event"] if path == "event"
                  else platform.charge).__code__
        called = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_back.f_code is caller:
                called.append(frame.f_code)

        chain = _in_place_charge(inline, [cpu._cost_list[c] for c in classes],
                                 len(classes))
        sys.setprofile(profile)
        try:
            if path == "event":
                exec(chain, namespace)  # noqa: S102
            else:
                for cost_class in classes:
                    platform.charge(cost_class)
        finally:
            sys.setprofile(None)
        assert cpu._instructions == len(classes)
        assert called == [CpuModel._recompute_noise.__code__] * redraws

    def test_checksum_loop_translates_its_frame_line_once(
            self, nfs_program, monkeypatch):
        """``process_chunk``'s self-loop at pc 18 reads one frame line
        over and over.  An iteration that goes round updates no TLB or L1
        hit counter (the block adds them once per exit), and a call looks
        up the frame line's page once, however many iterations it runs."""
        platform = Machine(MachineConfig(), seed=3, mode="play").platform
        art = _build_region(nfs_program.function("process_chunk"), 18,
                            platform)
        assert art["loops"]
        loop = next(node for node in ast.walk(ast.parse(art["source"]))
                    if isinstance(node, ast.While))
        hits = [node for statement in _round_trip_statements(loop.body)
                for node in ast.walk(statement)
                if isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr == "hits"]
        assert not hits, [ast.unparse(node) for node in hits]

        calls = _lookups_per_call(nfs_program, monkeypatch)[
            ("process_chunk", 18)]
        hot = calls["calls"]
        assert hot and calls["entries"] > 2 * len(hot)
        assert max(stack for stack, _, _ in hot) == 1

    def test_blocks_look_up_each_static_line_once_per_call(
            self, nfs_program, monkeypatch):
        """Over the 5-request round trip, a compiled block call makes at
        most one page-table lookup per static line key it accesses (frame
        slots and constant addresses), one for a self-loop's back edge
        and one for the branch target its exit fetches; each heap access
        makes its own.  Rendering each full access's lookup, as blocks
        did before, makes several per call in every self-loop."""
        regions = _lookups_per_call(nfs_program, monkeypatch)
        most = {region: (max(stack + other
                             for stack, other, _ in facts["calls"]),
                         facts["bound"])
                for region, facts in regions.items()}
        assert most
        assert not {region: (made, bound)
                    for region, (made, bound) in most.items() if made > bound}
        assert sum(heap for facts in regions.values()
                   for _, _, heap in facts["calls"]) > 0


def _round_trip_statements(statements):
    """The statements of a self-loop body that an iteration going round
    runs: those before the back edge, less the side exits' suites."""
    for statement in statements:
        if isinstance(statement, ast.If):
            if any(isinstance(s, ast.Continue) for s in statement.body):
                return
            if isinstance(statement.body[-1], ast.Return):
                yield from statement.orelse
                continue
        yield statement


def _static_lines(function, block, line_key) -> int:
    """How many page-table lookups a call of ``block`` may make for
    static lines: one per line key its frame and constant accesses
    have, one for a self-loop's back edge, one for an exit's fetch."""
    ops = function.ops[block.head:block.head + block.n]
    args = function.args[block.head:block.head + block.n]
    keys = {line_key(_static(ROWS[op].mem[1].format(arg=repr(arg))),
                     ROWS[op].mem[0] == "frame")
            for op, arg in zip(ops, args)
            if ROWS[op].mem and ROWS[op].mem[0] != "heap"}
    exits = any(ROWS[op].kind == "target" for op in ops)
    return len(keys) + block.loops + exits


def _lookups_per_call(nfs_program, monkeypatch):
    """Run the 5-request round trip with every compiled block's calls
    counted.  Returns, per region ``(function, head)``: the per-call
    lookup ``bound`` of its longest variant, its ``entries``, and per
    call the page-table lookups of stack, other non-heap and heap pages
    it made."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    regions: dict = {}
    current = [None]
    compile_block = tracejit.compile_region

    def counting_compile(function, head, platform, *args, **kwargs):
        inline = platform.mem_inline()
        lookup = inline.namespace["_ptg"]
        if not hasattr(lookup, "counts"):
            shift = platform.space._page_shift

            def counted(page):
                if current[0] is not None:
                    vaddr = page << shift
                    current[0][2 if vaddr >= HEAP_BASE else
                               0 if vaddr >= STACK_BASE else 1] += 1
                return lookup(page)

            counted.counts = True
            inline.namespace["_ptg"] = counted
        block = compile_block(function, head, platform, *args, **kwargs)
        if block is None:
            return None
        facts = regions.setdefault((function.name, head),
                                   {"bound": 0, "calls": [], "blocks": []})
        facts["bound"] = max(facts["bound"], _static_lines(
            function, block, inline.line_key))
        facts["blocks"].append(block)
        run = block.run

        def counted_run(*call):
            current[0] = [0, 0, 0]
            try:
                return run(*call)
            finally:
                facts["calls"].append(tuple(current[0]))
                current[0] = None

        block.run = counted_run
        return block

    monkeypatch.setattr(tracejit, "compile_region", counting_compile)
    _round_trip(nfs_program)
    for facts in regions.values():
        facts["entries"] = sum(block.entries for block in facts["blocks"])
    return {region: facts for region, facts in regions.items()
            if facts["calls"]}
