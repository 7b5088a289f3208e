"""The timed core: the :class:`~repro.vm.platform.Platform` implementation
backed by the simulated hardware.

Everything the paper's §3 describes comes together here:

* per-instruction cycle charging through the CPU model (with its residual
  speculation noise and optional frequency scaling);
* data/instruction accesses through TLB → virt-phys translation →
  physically-indexed L1/L2 → DRAM over the contended bus;
* conditional branches through the 2-bit predictor;
* the S-T / T-S ring-buffer protocol with symmetric costs in play and
  replay (§3.4-3.5);
* the blocking-receive idle loop, which counts one instruction per poll
  stride so arrivals are identifiable points (§3.2) and which the
  *naive* replayer skips (§2.5); batched platforms apply the polls that
  provably change nothing but the clock, the noise countdown, the hit
  counters, the bus level and the interrupts routed to the supporting
  core in closed form, up to the next arrival, logged packet, IRQ routed
  to the timed core or preemption (DESIGN §4.5);
* the native interface (I/O, ``nano_time``, ``covert_delay``).

Batched cycle charging
----------------------

At interpreter-in-an-interpreter depth, one host-level
``VirtualClock.advance`` per guest instruction is the dominant simulation
overhead.  The virtual clock, however, is only ever *read* at controlled
boundaries — platform polls, event injections (``nano_time`` / packet
delivery), transmissions, covert delays, and I/O — so between boundaries
the platform accumulates cycles in plain integer slots (one per ledger
source) and flushes them as a single ``advance`` per source at the next
boundary.  Per-source sums, the clock total, transmission cycles, and
audit verdicts are bit-identical to the unbatched path, because integer
addition is associative and nothing observes the clock mid-batch; only
the *number* of ledger charge events changes (one per flush instead of
one per instruction).  Set ``REPRO_NO_BATCH=1`` to fall back to the
immediate-advance path, on the interpreter, for differential testing.

The batched memory access has one source, the templates of
:func:`_mem_templates`: a translation half (the page-table lookup down
to the L1 set and tag) and an update half (the TLB and L1 LRU moves),
rendered as Python lines that hand the miss sides to the components.
``mem_access``, for data accesses and instruction fetches alike, is a
closure running both halves with the hit counters inline.  Compiled
trace blocks inline the same halves per access (DESIGN §4.3): a line a
call meets again is translated once per call and later makes only the
LRU moves, and the hit counters are summed at the block's exits.  The
L1 hit is an LRU move, so a machine whose L1 is not LRU runs the
unbatched reference too.
Compiled blocks charge in place from two more templates: each
instruction steps the fractional carry (:data:`_CARRY`), and each
event and exit adds the cycles of the run since the last one in closed
form (:data:`_RUN`).  The batched ``charge`` is one instruction in
closed form.  On a CPU whose noise factor is always 1.0 both skip the
float steps while the carry is zero.  The batched branch record has one
source too, :func:`_branch_template`: compiled blocks render it at each
conditional branch with the table index as a literal, and the batched
``branch`` closure runs it with the index computed at run time.
``BranchPredictor.record`` stays the reference.
"""

from __future__ import annotations

import functools
import math
import os
from typing import TYPE_CHECKING

from repro.hw.cache import ReplacementPolicy
from repro.hw.cpu import CostClass
from repro.obs.ledger import Source
from repro.vm.heap import GuestThrow
from repro.vm.isa import EXC_INDEX_OUT_OF_BOUNDS, EXC_NULL_REFERENCE
from repro.vm.interpreter import (FRAME_STRIDE_SLOTS, STACK_BASE,
                                  THREAD_STACK_STRIDE)
from repro.vm.platform import MemInline, Platform

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine
    from repro.vm.interpreter import Interpreter

_WORD = 8

#: Accumulator slots, flushed in this (fixed, deterministic) order.
_ACC_INSTR, _ACC_CACHE, _ACC_TLB, _ACC_BUS, _ACC_BRANCH = range(5)
_ACC_SOURCES = (Source.INSTRUCTION, Source.CACHE, Source.TLB, Source.BUS,
                Source.BRANCH)

#: Every frame base (``ThreadState.frame_base``) is a multiple of this.
_FRAME_ALIGN = math.gcd(STACK_BASE, THREAD_STACK_STRIDE,
                        FRAME_STRIDE_SLOTS * _WORD)

#: Compiled factories of the generated closures, keyed by their source.
_FACTORIES: dict = {}

#: The fractional carry after one instruction of base cost ``{}`` under
#: the combined noise factor ``_cc``: ``CpuModel.instruction_cost``'s
#: ``x - int(x)`` step as ``x % 1.0``, which is the same float for x >= 0.
_CARRY = "_cf = ({} * _cc + _cf) % 1.0"

#: The cycles of a run of instructions under one factor ``_cc``, from
#: the carry ``_cf0`` and base-cost prefix sum ``_ps0`` at its start to
#: the carry ``_cf`` and prefix sum ``{}`` at its end: the telescoped
#: sum of the carry steps, which ``round`` makes exact (DESIGN §4.3).
_RUN = f"_acc[{_ACC_INSTR}] += round(_cc * ({{}} - _ps0) + _cf0 - _cf)"


def batching_enabled() -> bool:
    """Whether new platforms may use the batched charging fast path
    (``REPRO_NO_BATCH`` unset; a non-LRU L1 still runs unbatched)."""
    return os.environ.get("REPRO_NO_BATCH", "") != "1"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _counts(cycles) -> list[str]:
    """The counters one instruction charging ``cycles`` advances: the
    redraw countdown, the CPU's instruction count and the instruction
    slot."""
    return ["_cpu._until_redraw -= 1", "_cpu._instructions += 1",
            f"_acc[{_ACC_INSTR}] += {cycles}"]


def _charge_lines(exact: bool) -> list[str]:
    """The body of the batched ``charge(cost_class)``: after the redraw
    when the countdown is at 1, one instruction in closed form.  It
    keeps ``x = B*c + f``, whose ``x % 1.0`` is the carry and whose
    ``int(x)`` is the cycles; the countdown restarts one above the
    period because the decrement follows.  ``exact`` is for a CPU whose
    noise factor is always 1.0, which charges the base cost and leaves
    the carry at zero while the carry is zero."""
    closed = ["_cx = _costs[cost_class] * _cpu._combined + _cpu._frac",
              "_cpu._frac = _cx % 1.0", *_counts("int(_cx)")]
    if exact:
        closed = (["if _cpu._frac == 0.0:"]
                  + _indent(_counts("_costs[cost_class]"))
                  + ["else:"] + _indent(closed))
    return ["if _cpu._until_redraw == 1:",
            "    _cpu._until_redraw = _cpu.config.speculation_period + 1",
            "    _cpu._recompute_noise()", *closed]


#: The batched ``charge`` by whether the CPU is exact.
_CHARGES = {exact: _charge_lines(exact) for exact in (False, True)}


def _carry(base, exact: bool = False) -> str:
    """The :data:`_CARRY` step of an instruction of base cost ``base``
    in a compiled block.  An exact CPU steps only a nonzero carry: from
    a zero carry under the factor 1.0 the step leaves it at zero.  The
    base renders as a float literal: CPython converts an int operand to
    the same double before it multiplies, so the product is the same
    float, without the int's ``NotImplemented`` round trip."""
    return ("if _cf: " if exact else "") + _CARRY.format(float(base))


@functools.cache
def _branch_template(mask: int, penalty: int) -> tuple:
    """The batched branch record of one predictor geometry and penalty
    (DESIGN §4.3): ``(branch, branch_lines)``, with ``branch(site)`` as
    :class:`~repro.vm.platform.MemInline` describes it and
    ``branch_lines`` the body of the batched ``branch(branch_site,
    taken)``, which indexes the table at run time.

    The lines are ``BranchPredictor.record`` (``repro.hw.branch``), the
    reference, followed by the add of its penalty to the branch slot,
    over the predictor ``_bp`` and its counter list ``_bc``, which
    ``flush`` resets in place.  The 2-bit counter moves towards the
    outcome, and the prediction was wrong when the counter stood on the
    other side of 2 before the move.
    """
    miss = ["_bp.mispredictions += 1"]
    if penalty:
        miss.append(f"_acc[{_ACC_BRANCH}] += {penalty}")

    def branch(site, taken: str = "_tk") -> list[str]:
        if isinstance(site, int):
            index, lines = site & mask, []
        else:
            index, lines = "_bi", [f"_bi = {site} & {mask}"]
        return lines + ([f"_bs = _bc[{index}]", "_bp.predictions += 1",
                         f"if {taken}:", "    if _bs < 3:",
                         f"        _bc[{index}] = _bs + 1",
                         "        if _bs < 2:"]
                        + _indent(_indent(_indent(miss)))
                        + ["elif _bs:", f"    _bc[{index}] = _bs - 1",
                           "    if _bs > 1:"]
                        + _indent(_indent(miss)))

    return branch, tuple(branch("branch_site", "taken"))


#: The four locals of a translated access: its page number, physical
#: address, L1 set dict and tag.
_PLAIN = ("_avp", "_apa", "_awy", "_atg")


@functools.cache
def _mem_templates(page_shift: int, line_shift: int, nsets: int,
                   hit_cycles: int, window: tuple | None) -> tuple:
    """The batched memory templates of one geometry (DESIGN §4.3):
    ``(mem, translate, update, hits, line_key, mem_lines)``, as
    :class:`~repro.vm.platform.MemInline` describes them, and
    ``mem("vaddr")``, the body of ``mem_access``.

    Geometry is baked into the lines as literals, so the rendered source
    is also the cache key of every artifact compiled from it, and one
    geometry's templates serve every platform that has it.  ``window`` is
    the Oracle-JIT's registerized address range, or None.
    """
    page_mask = (1 << page_shift) - 1

    def translate(expr, names=_PLAIN) -> list[str]:
        # The page-table lookup; a page's first touch allocates its frame.
        page, paddr, ways, tag = names
        return [f"_am = {expr}",
                f"{page} = _am >> {page_shift}",
                f"_apf = _ptg({page})",
                "if _apf is None:",
                f"    {paddr} = _xl(_am)",
                "else:",
                f"    {paddr} = (_apf << {page_shift}) | (_am & {page_mask})",
                f"_ali = {paddr} >> {line_shift}",
                f"{ways} = _l1S[_ali % {nsets}]",
                f"{tag} = _ali // {nsets}"]

    def update(names=_PLAIN, first=True, inline=False) -> list[str]:
        # The TLB and L1 LRU moves; the miss sides go through the
        # components, so their state evolves exactly as on the reference
        # path.  ``inline`` counts hits per access, as ``mem_access`` does.
        page, paddr, ways, tag = names
        tlb_hit, tlb_miss = ((["_tlbO.hits += 1"], []) if inline
                             else ([], ["_mt += 1"]))
        l1_hit, l1_miss = (
            (["_l1O.hits += 1", f"_acc[{_ACC_CACHE}] += {hit_cycles}"], [])
            if inline else ([], ["_mc += 1"]))
        if first:
            l1_hit += ["if _l1O._pending_writeback:",
                       f"    _acc[{_ACC_CACHE}] += _l1wb()"]
        return ([f"if {page} in _tlbE:"]
                + _indent(tlb_hit + [f"del _tlbE[{page}]",
                                     f"_tlbE[{page}] = True"])
                + ["else:"]
                + _indent(tlb_miss + [f"_acc[{_ACC_TLB}] += _tlbM({page})"])
                + [f"if {tag} in {ways}:"]
                + _indent([f"del {ways}[{tag}]", f"{ways}[{tag}] = True"]
                          + l1_hit)
                + ["else:"]
                + _indent(l1_miss + [
                    f"_acc[{_ACC_CACHE}] += _l1M({paddr},"
                    f" ({paddr} >> {line_shift}) % {nsets}, {tag})"]))

    def mem(expr) -> list[str]:
        lines = translate(expr) + update(inline=True)
        if window is None:
            return lines
        return ([lines[0], f"if not ({window[0]} <= _am < {window[1]}):"]
                + _indent(lines[1:]))

    def hits(count: str) -> list[str]:
        return [f"_tlbO.hits += {count} - _mt",
                f"_l1O.hits += {count} - _mc",
                f"_acc[{_ACC_CACHE}] += {hit_cycles} * ({count} - _mc)"]

    # Keys are static line numbers: constant addresses (globals, code)
    # directly, and frame slots as offsets from the frame base, a
    # multiple of ``_FRAME_ALIGN``.  A line larger than the page is not
    # confined to one page, and a frame slot of the Oracle-JIT model is
    # an access only in frames beyond the registerized window, so those
    # get no key.
    same_page = line_shift <= page_shift
    frame_keys = (same_page and window is None
                  and _FRAME_ALIGN % (1 << line_shift) == 0)

    def line_key(addr: int, frame: bool = False):
        if frame:
            return ("frame", addr >> line_shift) if frame_keys else None
        if not same_page or (window is not None
                             and window[0] <= addr < window[1]):
            return None
        return addr >> line_shift

    return mem, translate, update, hits, line_key, tuple(mem("vaddr"))


def _generated_paths(mem_lines: tuple, namespace: dict,
                     charge_lines: list[str], branch_lines: tuple):
    """The ``(mem_access, charge, branch)`` closures over ``namespace``:
    ``mem_access(vaddr)`` runs ``mem_lines``, ``charge`` ``charge_lines``
    (from :data:`_CHARGES`) and ``branch`` ``branch_lines`` (from
    :func:`_branch_template`).

    The source is compiled once per distinct text, into a factory that
    takes the namespace as arguments, so every platform after the first
    gets its closures from a plain call.  The code carries this module's
    filename so host profiles attribute its time to the platform.
    """
    indent = "\n        "
    source = "\n".join(
        [f"def _factory({', '.join(sorted(namespace))}):"]
        + [f"    def {signature}:{indent}{indent.join(body)}"
           for signature, body in (
               ("mem_access(vaddr)", mem_lines),
               ("charge(cost_class)", charge_lines),
               ("branch(branch_site, taken)", branch_lines))]
        + ["    return mem_access, charge, branch"])
    factory = _FACTORIES.get(source)
    if factory is None:
        scope: dict = {}
        exec(compile(source, __file__, "exec"), scope)  # noqa: S102
        factory = _FACTORIES[source] = scope["_factory"]
    return factory(**namespace)


class TimedCorePlatform(Platform):
    """Timed-core execution environment for one machine run."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        config = machine.config
        self.config = config
        # Hot-path aliases.
        self.clock = machine.clock
        self.cpu = machine.cpu
        self.tlb = machine.tlb
        self.space = machine.address_space
        self.hierarchy = machine.hierarchy
        self.predictor = machine.predictor
        self.bus = machine.bus
        self.session = machine.session
        self.st_buffer = machine.st_buffer
        self.ts_buffer = machine.ts_buffer
        self.console: list = []
        self.tx_trace: list[tuple[int, bytes]] = []
        #: Set by :class:`repro.exec.Executive` when this machine hosts
        #: multiple guest processes; the exec_* natives dispatch into it.
        self.executive = None
        # A JIT register-allocates locals: LOAD/STORE of stack slots do
        # not touch the memory hierarchy (Table 2's Oracle-JIT model).
        from repro.machine.config import RuntimeKind
        from repro.vm.heap import HEAP_BASE

        self._registerized_base = ((STACK_BASE, HEAP_BASE)
                                   if config.runtime == RuntimeKind.ORACLE_JIT
                                   else None)
        registry = machine.registry
        self._specs = [registry.spec(i) for i in range(len(registry))]
        self._handlers = [getattr(self, f"_native_{spec.name}")
                          for spec in self._specs]
        # Batched-charging state.  ``_acc`` holds per-source pending
        # cycles; ``_acc_misc`` the rare sources (gc, ...);
        # ``_stall_mark`` the bus's stall count at the last flush.  The
        # class bodies below are the unbatched (immediate-advance)
        # reference implementations; the batched fast paths are
        # installed as instance attributes so the interpreter's hot-loop
        # aliases pick them up transparently.
        self.batching = (batching_enabled() and config.l1_config.policy
                         is ReplacementPolicy.LRU)
        self._acc = [0, 0, 0, 0, 0]
        self._acc_misc: dict[str, int] = {}
        self._stall_mark = self.bus.total_stall_cycles
        self._mem_inline = None
        if self.batching:
            self._install_batched_paths()

    # -- Platform interface ---------------------------------------------------

    def charge(self, cost_class: CostClass) -> None:
        self.clock.advance(self.cpu.instruction_cost(cost_class),
                           Source.INSTRUCTION)

    def mem_access(self, vaddr: int) -> None:
        if self._registerized_base is not None and \
                self._registerized_base[0] <= vaddr < \
                self._registerized_base[1]:
            return
        # TLB walk, cache/DRAM latency, and the bus-stall share of DRAM
        # fills land in their own buckets.
        tlb_cost = self.tlb.access(self.space.vpn_of(vaddr))
        if tlb_cost:
            self.clock.advance(tlb_cost, Source.TLB)
        paddr = self.space.translate(vaddr)
        stall_before = self.bus.total_stall_cycles
        cost = self.hierarchy.access(paddr)
        stall = self.bus.total_stall_cycles - stall_before
        if stall:
            self.clock.advance(cost - stall, Source.CACHE)
            self.clock.advance(stall, Source.BUS)
        elif cost:
            self.clock.advance(cost, Source.CACHE)

    def branch(self, branch_site: int, taken: bool) -> None:
        penalty = self.predictor.record(branch_site, taken)
        if penalty:
            self.clock.advance(penalty, Source.BRANCH)

    def charge_cycles(self, cycles: int, source: str = "other") -> None:
        if self.batching:
            misc = self._acc_misc
            misc[source] = misc.get(source, 0) + cycles
            return
        self.clock.advance(cycles, source)

    def mem_inline(self) -> MemInline | None:
        """The batched templates (the memory access's two halves and
        exit sums, the carry step, the run's cycles and the branch
        record), the base costs and their namespace, for inlining memory
        accesses, the charge and the predictor update into trace blocks.

        None on the unbatched reference (``REPRO_NO_BATCH=1`` or a
        non-LRU L1), whose runs stay on the interpreter.
        """
        return self._mem_inline

    def flush_charges(self) -> None:
        """Drain pending batched cycles into the clock, one advance per
        source, in a fixed order.

        Called at every boundary where the virtual clock becomes
        observable.  The batched memory path charges a DRAM fill's bus
        stall to the cache slot with the rest of the fill, so the stalls
        counted since the last flush move to the bus slot here.  That is
        exact: stalls arise only in ``MemoryBus.transfer_penalty``, called
        only from ``CacheHierarchy._below_l1``, which only this
        platform's memory path reaches.  Cheap when nothing is pending; a
        no-op on the unbatched reference, whose accumulators never fill.
        """
        acc = self._acc
        if self.batching:
            stall = self.bus.total_stall_cycles - self._stall_mark
            if stall:
                self._stall_mark += stall
                acc[_ACC_CACHE] -= stall
                acc[_ACC_BUS] += stall
        advance = self.clock.advance
        for slot, source in enumerate(_ACC_SOURCES):
            pending = acc[slot]
            if pending:
                acc[slot] = 0
                advance(pending, source)
        misc = self._acc_misc
        if misc:
            for source, pending in misc.items():
                if pending:
                    advance(pending, source)
            misc.clear()

    def _install_batched_paths(self) -> None:
        """Bind closure-based fast paths for the per-instruction hot calls.

        Closures over local aliases beat bound methods here: the
        interpreter calls ``charge``/``mem_access`` once or more per
        guest instruction, so every attribute lookup removed is
        measurable.  Every cost is one integer add to its
        source's accumulator slot, with or without a ledger attached;
        ``flush_charges`` splits the bus stalls out of the cache slot.
        The memory access and the branch record are built from the
        templates compiled trace blocks inline, so the two cannot
        diverge.  ``charge`` updates the CPU's own counters, redraw
        points and carry, as compiled blocks do at their events and
        exits, so ``CpuModel.instruction_cost`` callers interleave
        transparently.  Everything here is per-machine set-up: what a
        template renders comes from per-geometry caches.
        """
        acc = self._acc
        cpu = self.cpu
        predictor = self.predictor
        # The batched memory access and branch record as source lines
        # over ``inline_ns`` (see :func:`_mem_templates` and
        # :func:`_branch_template`), and the charges.
        tlb = self.tlb
        l1 = self.hierarchy.l1
        space = self.space
        inline_ns = {
            "_tlbO": tlb, "_tlbE": tlb._entries, "_tlbM": tlb.miss,
            "_ptg": space._page_table.get, "_xl": space.translate,
            "_l1S": l1._sets, "_l1O": l1,
            "_l1M": self.hierarchy.access_after_l1_miss,
            "_l1wb": l1.take_writeback_cost, "_acc": acc, "_cpu": cpu,
            "_bc": predictor._counters, "_bp": predictor,
        }
        window = self._registerized_base
        *templates, mem_lines = _mem_templates(
            space._page_shift, l1._line_shift, l1._num_sets,
            l1.config.hit_cycles, window)
        mask, penalty = predictor._mask, predictor.config.mispredict_cycles
        branch, branch_lines = _branch_template(mask, penalty)
        # Without speculation noise, frequency scaling and turbo,
        # ``CpuModel._recompute_noise`` only ever draws 1.0.
        timing = cpu.config
        exact = not (timing.speculation_sigma or timing.freq_scaling_enabled
                     or timing.turbo_enabled)
        bases = tuple(cpu._cost_list)
        self._mem_inline = MemInline(
            *templates, functools.partial(_carry, exact=exact), _RUN.format,
            branch, window is not None, bases, inline_ns,
            (*mem_lines, exact, bases, mask, penalty))
        mem_access, charge, branch = _generated_paths(
            mem_lines, {**inline_ns, "_costs": cpu._cost_list},
            _CHARGES[exact], branch_lines)
        self.charge = charge
        self.mem_access = mem_access
        self.branch = branch

    def on_quantum(self, interpreter: "Interpreter") -> None:
        self.flush_charges()
        self.machine.service_world()

    def native_call(self, index: int, interpreter: "Interpreter") -> None:
        spec = self._specs[index]
        args = interpreter.pop_args(spec.num_args)
        result = self._handlers[index](interpreter, args)
        if spec.returns_value:
            interpreter.push_result(result)

    # -- shared helpers -----------------------------------------------------------

    def _guest_array(self, vm: "Interpreter", handle: int):
        if handle == 0:
            raise GuestThrow(EXC_NULL_REFERENCE)
        return vm.heap.get(handle)

    def _charge_st_check(self) -> None:
        """The read-compare-write next-entry check of §3.5 (both modes)."""
        for vaddr in self.st_buffer.check_addresses():
            self.mem_access(vaddr)

    def _try_recv(self, vm: "Interpreter", buf_handle: int) -> int:
        """One non-blocking receive attempt; returns byte count or -1."""
        self._charge_st_check()
        # Event-injection boundary: the session (and its tracer) must see
        # the clock exactly as the unbatched path would.
        self.flush_charges()
        staged = self.st_buffer.head() if self.machine.is_play else None
        payload = self.session.packet_due(vm.instruction_count, staged)
        if payload is None:
            return -1
        if self.machine.is_play:
            self.st_buffer.consume()
        else:
            # Keep the ring indices (and hence the charged addresses)
            # aligned with play: replay stages the logged packet into the
            # same slot before consuming it (the SC's job during replay).
            self.st_buffer.stage(payload)
            self.st_buffer.consume()
        if self.session.injection_overhead_cycles:
            self.clock.advance(self.session.injection_overhead_cycles,
                               Source.INJECTION)
        obj = self._guest_array(vm, buf_handle)
        count = min(len(payload), len(obj.data))
        for vaddr in self.st_buffer.copy_addresses(count):
            self.mem_access(vaddr)
        data = obj.data
        base = obj.vaddr + 16
        for i in range(count):
            data[i] = payload[i]
            self.mem_access(base + i * _WORD)
        return count

    def _wait_hopeless(self) -> bool:
        """Whether a blocked packet wait can never be satisfied, so the
        guest must see end-of-input rather than spin forever.

        Play: see ``Machine.no_more_arrivals``.  Replay: the wait is
        hopeless unless a PACKET is at the log's cursor (see
        ``ReplaySession.next_packet_instr``).
        """
        if self.machine.is_play:
            return self.machine.no_more_arrivals()
        return self.session.next_packet_instr() is None

    def _skip_idle_polls(self, vm: "Interpreter", stride: int,
                         idle: int) -> int | None:
        """Apply in closed form the idle polls after a real one that
        change nothing but the clock, the CPU noise countdown, the TLB
        and L1 hit counters, the bus traffic level and the interrupts
        routed to the supporting core (DESIGN §4.5).

        ``idle`` is what the real poll's ``scale_block`` returned.  A
        skipped poll's S-T check hits the check line, its receive fails,
        it charges ``scale_block(stride)`` and its ``service_world`` at
        most fires IRQs routed to the supporting core and decays the
        bus, so until the next noise redraw every skipped poll costs the
        same.  Polls are skipped only while the check line is the most
        recently used entry of the TLB and of its L1 set and no L1
        writeback is pending, only before the logged packet's
        instruction count (replay), and only while their
        ``service_world`` would run strictly before
        ``Machine.world_horizon``.  The first poll whose reading reaches
        ``Machine.sc_irq_due`` ends a run of identical polls, as a redraw
        does: ``Machine.quiet_world`` fires its IRQs at that reading and
        decays the bus over the run.

        A poll that redraws the noise runs the real ``scale_block``
        first, because its cost decides whether the poll is before the
        horizon.  If it is not, that poll runs for real, and its drawn
        cost is returned for the wait loop to charge in place of
        ``scale_block``; otherwise None is returned.
        """
        machine = self.machine
        st = self.st_buffer
        if machine.is_play:
            if st.pending:      # the real poll staged a packet
                return None
            limit = None
        else:
            limit = self.session.next_packet_instr() - vm.instruction_count
        horizon = machine.world_horizon()
        now = self.clock.cycles
        if horizon is not None and horizon <= now:
            return None
        # Every check access reads the head entry's timestamp word.
        head = st.head_vaddr()
        accesses = len(st.check_addresses())
        l1 = self.hierarchy.l1
        line = self.space.translate(head) >> l1._line_shift
        ways = l1._sets[line % l1._num_sets]
        if (l1._pending_writeback
                or next(reversed(ways)) != line // l1._num_sets
                or next(reversed(self.tlb._entries))
                != self.space.vpn_of(head)):
            return None
        check = accesses * l1.config.hit_cycles
        cpu = self.cpu
        irq = machine.sc_irq_due()
        polls = idle_cycles = calls = 0
        drawn = None
        while True:
            if calls and now >= irq:
                # The last poll is the first whose reading reaches it.
                machine.quiet_world(calls, now)
                irq = machine.sc_irq_due()
                calls = 0
            # The polls before the next redraw all cost check + idle, and
            # the first of them to reach the next IRQ ends them too.
            step = check + idle
            n = cpu._until_redraw - 1
            if limit is not None:
                n = min(n, limit - polls)
            if horizon is not None:
                n = min(n, (horizon - now - 1) // step)
            if n > 0 and irq <= now + n * step:
                n = max(1, (irq - now - 1) // step + 1)
            if n > 0:
                cpu._instructions += n
                cpu._until_redraw -= n
                polls += n
                calls += n
                idle_cycles += n * idle
                now += n * step
                continue
            if cpu._until_redraw != 1 or polls == limit:
                break
            idle = cpu.scale_block(stride)
            if horizon is not None and now + check + idle >= horizon:
                drawn = idle
                break
            polls += 1
            calls += 1
            idle_cycles += idle
            now += check + idle
        if polls:
            vm.instruction_count += polls
            self.tlb.hits += accesses * polls
            l1.hits += accesses * polls
            self.clock.advance(check * polls, Source.CACHE)
            self.clock.advance(idle_cycles, Source.IDLE)
            machine.quiet_world(calls)
        return drawn

    # -- natives ----------------------------------------------------------------------

    def _native_print_int(self, vm: "Interpreter", args: list) -> None:
        self.console.append(int(args[0]))

    def _native_print_float(self, vm: "Interpreter", args: list) -> None:
        self.console.append(float(args[0]))

    def _native_nano_time(self, vm: "Interpreter", args: list) -> int:
        self.flush_charges()    # the guest is about to read the clock
        live = int(self.clock.now_ns())
        # Figure 4: identical memory accesses in play and replay.
        cell_vaddr = self.session.time_cell.vaddr
        self.mem_access(cell_vaddr)
        self.mem_access(cell_vaddr)
        self.flush_charges()    # event-injection boundary
        value = self.session.observe_time(vm.instruction_count, live)
        if self.session.injection_overhead_cycles:
            self.clock.advance(self.session.injection_overhead_cycles,
                               Source.INJECTION)
        return value

    def _native_send_packet(self, vm: "Interpreter", args: list) -> None:
        buf_handle, length = args
        obj = self._guest_array(vm, buf_handle)
        if length < 0 or length > len(obj.data):
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        data = obj.data
        base = obj.vaddr + 16
        payload = bytearray(length)
        for i in range(length):
            payload[i] = int(data[i]) & 0xFF
            self.mem_access(base + i * _WORD)
        for vaddr in self.ts_buffer.write_addresses(length):
            self.mem_access(vaddr)
        self.ts_buffer.advance()
        packet = bytes(payload)
        # Transmission boundary: the tx timestamp is a clock read.
        self.flush_charges()
        cycle = self.clock.cycles
        self.tx_trace.append((cycle, packet))
        # The SC reads the entry off the T-S buffer in both modes (it
        # forwards during play, discards during replay) — bus traffic is
        # the same either way.
        self.bus.add_traffic(0.15)
        if self.machine.is_play:
            self.machine.nic.transmit(cycle, packet)
            if self.machine.workload is not None:
                self.machine.workload.on_transmit(self.machine, cycle,
                                                  packet)

    def _native_recv_packet(self, vm: "Interpreter", args: list) -> int:
        return self._try_recv(vm, args[0])

    def _native_wait_packet(self, vm: "Interpreter", args: list) -> int:
        stride = self.config.poll_stride_cycles
        session = self.session
        drawn = None
        while True:
            count = self._try_recv(vm, args[0])
            if count >= 0:
                return count
            if self._wait_hopeless():
                return -1
            if session.skips_waits:
                target = session.wait_target(vm.instruction_count)
                if target is None:
                    return -1
                # A conventional replayer fast-forwards through the idle
                # phase: the instruction counter jumps, wall time barely
                # moves (Fig 3's "replay faster than play" segments).
                vm.instruction_count = max(vm.instruction_count, target)
                self.clock.advance(2_000, Source.INJECTION)
                continue
            # One poll iteration = one counted point in the execution.
            vm.instruction_count += 1
            idle = self.cpu.scale_block(stride) if drawn is None else drawn
            self.clock.advance(idle, Source.IDLE)
            self.machine.service_world()
            if self.batching:
                drawn = self._skip_idle_polls(vm, stride, idle)

    def _native_storage_read(self, vm: "Interpreter", args: list) -> int:
        from repro.determinism import mix64
        from repro.machine.natives import STORAGE_BLOCK_WORDS

        block, buf_handle = args
        if block < 0:
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        self.flush_charges()    # I/O boundary
        obj = self._guest_array(vm, buf_handle)
        # The SC performs the I/O (§3.7); the TC waits for the (possibly
        # padded) device latency and the DMA raises bus traffic.
        latency = self.machine.storage.read(block)
        self.clock.advance(latency, Source.STORAGE)
        self.bus.add_traffic(0.25)
        count = min(STORAGE_BLOCK_WORDS, len(obj.data))
        data = obj.data
        base = obj.vaddr + 16
        for i in range(count):
            # Deterministic block contents: a pure function of the block
            # number, so storage needs no log entries.
            data[i] = mix64(block * STORAGE_BLOCK_WORDS + i) & 0x7FFFFFFF
            self.mem_access(base + i * _WORD)
        return count

    def _native_covert_delay(self, vm: "Interpreter", args: list) -> None:
        (cycles,) = args
        if cycles < 0:
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        if self.machine.covert_enabled:
            self.flush_charges()    # covert boundary
            self.clock.advance(cycles, Source.COVERT)

    def _native_covert_next_delay(self, vm: "Interpreter",
                                  args: list) -> int:
        """Next entry of the channel encoder's delay schedule (§6.6).

        On the compromised machine (play with a schedule installed) this
        hands the guest its next covert delay; on a clean machine — and in
        particular during an audit replay — it returns 0, so the replayed
        timing is what the timing "ought to have been".  The returned
        value flows only into ``covert_delay``, never into control flow or
        outputs, so it needs no log entry.
        """
        return self.machine.next_covert_delay()

    def _native_busy_cycles(self, vm: "Interpreter", args: list) -> None:
        """A deterministic compute block abstracted to its cycle cost.

        Models a tight data-independent kernel (checksum/compression/...)
        whose duration is a pure function of its argument: the same noise
        sources apply as to interpreted code (via ``scale_block``), and
        replay reproduces it exactly because the argument is part of the
        deterministic data flow.
        """
        (cycles,) = args
        if cycles < 0:
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        if cycles:
            self.clock.advance(self.cpu.scale_block(cycles), Source.COMPUTE)

    def _native_spawn(self, vm: "Interpreter", args: list) -> None:
        func_idx, arg = args
        if not 0 <= func_idx < len(vm.program.functions):
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        vm.spawn_thread(vm.program.functions[func_idx], [arg])

    def _native_exit(self, vm: "Interpreter", args: list) -> None:
        vm.halted = True

    # -- executive syscalls -------------------------------------------------
    #
    # These natives are only meaningful on a machine driven by the guest
    # executive (:mod:`repro.exec`); the executive installs itself as
    # ``self.executive`` before the first slice.  The handlers delegate
    # immediately: all scheduling, mailbox, and charging policy lives in
    # one place.

    def _exec(self):
        executive = self.executive
        if executive is None:
            from repro.errors import VMRuntimeError
            raise VMRuntimeError(
                "executive syscall outside a multi-process (exec) run")
        return executive

    def _native_exec_yield(self, vm: "Interpreter", args: list) -> None:
        self._exec().sys_yield(vm)

    def _native_msg_send(self, vm: "Interpreter", args: list) -> None:
        mbox, buf_handle, length = args
        self._exec().sys_send(vm, mbox, buf_handle, length)

    def _native_msg_recv(self, vm: "Interpreter", args: list) -> int:
        mbox, buf_handle = args
        return self._exec().sys_recv(vm, mbox, buf_handle)

    def _native_proc_spawn(self, vm: "Interpreter", args: list) -> int:
        return self._exec().sys_spawn(vm, args[0])

    def _native_mbox_len(self, vm: "Interpreter", args: list) -> int:
        return self._exec().sys_mbox_len(vm, args[0])

    def _native_proc_id(self, vm: "Interpreter", args: list) -> int:
        return self._exec().sys_proc_id(vm)
