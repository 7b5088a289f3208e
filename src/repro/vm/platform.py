"""The platform interface between the VM and the (simulated) hardware.

The interpreter itself is hardware-agnostic: all timing flows through a
:class:`Platform`.  The production implementation is the timed core of
:mod:`repro.machine`; :class:`NullPlatform` is a flat-cost stand-in used by
the VM unit tests and by quick functional runs where timing is irrelevant.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.hw.cpu import CostClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.interpreter import Interpreter


class MemInline(NamedTuple):
    """Source templates a batched platform lends to compiled trace
    blocks (DESIGN §4.3), and the namespace their lines reference.  A
    platform that lends none runs every instruction on the interpreter.

    A block renders an access as ``translate`` then ``update``, and
    adds the hit counters its accesses would have added once per exit,
    through ``hits``: misses are counted in the locals ``_mt`` (TLB) and
    ``_mc`` (L1), which the block sets to 0 on entry.  It charges each
    instruction in place with ``carry``, from its base cost in
    ``bases``, and adds the cycles of a run with ``cycles``, and records
    each conditional branch in place with ``branch``.  The namespace's
    ``_cpu`` is the CPU model, whose noise factor (``_combined``), carry
    (``_frac``) and redraw countdown (``_until_redraw``) a block keeps in
    locals and hands back, with the instruction count
    (``_instructions``), at its polls and exits.  Its
    ``_bp`` is the branch predictor and ``_bc`` the predictor's counter
    list, which ``flush`` resets in place.
    """

    #: ``mem(expr)``: lines charging a memory access at address
    #: ``expr`` exactly as ``mem_access`` does, hit counters included.
    mem: Callable[[str], list]
    #: ``translate(expr, names=...)``: lines binding the four local
    #: ``names`` to the page number, physical address, L1 set dict and
    #: tag of an access at address ``expr`` (allocating the page's frame
    #: on its first touch).
    translate: Callable[..., list]
    #: ``update(names=..., first=True)``: lines making the TLB and L1
    #: LRU moves of the access ``translate`` bound to ``names``, with
    #: their miss sides, counting misses instead of hits.  ``first``
    #: also collects a pending L1 writeback on a hit, which an access
    #: after another access in the same block never meets.
    update: Callable[..., list]
    #: ``hits(count)``: lines adding the TLB and L1 hit counts and the
    #: L1 hit latency of ``count`` accesses, less the misses counted.
    hits: Callable[[str], list]
    #: ``line_key(addr, frame=False)``: the static L1-line key of an
    #: access at constant address ``addr`` (at offset ``addr`` from the
    #: frame base when ``frame``), or None when none can be proven.  Two
    #: accesses in one block call with equal keys touch the same line.
    line_key: Callable[..., object]
    #: ``carry(base)``: the line stepping the fractional carry ``_cf``
    #: over one instruction of base cost ``base`` under the noise factor
    #: ``_cc``.
    carry: Callable[[int], str]
    #: ``cycles(prefix)``: the line adding the cycles of the run of
    #: instructions since the carry was ``_cf0`` and the base-cost prefix
    #: sum ``_ps0``, up to the prefix sum ``prefix``, where the carry is
    #: ``_cf``.
    cycles: Callable[[object], str]
    #: ``branch(site)``: lines recording a conditional branch at the
    #: static site ``site`` whose outcome is the bool ``_tk``, exactly
    #: as the batched ``branch`` does: the 2-bit counter move on ``_bc``
    #: (the table index a literal), the predictor's counts and, on a
    #: mispredict, the penalty's add to ``_acc``.
    branch: Callable[[int], list]
    #: Whether an access without a line key may be skipped at run time
    #: (the Oracle-JIT model's registerized window): such an access
    #: renders through ``mem``.
    guarded: bool
    #: The noise-free base cost of each :class:`CostClass`, by value.
    bases: tuple
    namespace: dict
    #: Everything the templates bake into their source (the compile-cache
    #: key of the blocks rendered from them), the base costs, the
    #: predictor's index mask and mispredict penalty included.
    signature: tuple


class Platform(abc.ABC):
    """Everything the interpreter needs from the world.

    Methods are called on the interpreter's hot path; implementations
    should be cheap and must be deterministic given their configuration
    and noise seed.
    """

    @abc.abstractmethod
    def charge(self, cost_class: CostClass) -> None:
        """Charge the cycle cost of one instruction of ``cost_class``."""

    @abc.abstractmethod
    def mem_access(self, vaddr: int) -> None:
        """Charge a memory access at virtual address ``vaddr``: a data
        access, or an instruction fetch on a control transfer."""

    @abc.abstractmethod
    def branch(self, branch_site: int, taken: bool) -> None:
        """Record a conditional branch outcome (charges mispredicts)."""

    @abc.abstractmethod
    def charge_cycles(self, cycles: int, source: str = "other") -> None:
        """Charge a raw cycle amount (GC, natives, padding).

        ``source`` tags the charge for the cycle-attribution ledger
        (see :mod:`repro.obs.ledger`); platforms without a ledger may
        ignore it.
        """

    def mem_inline(self) -> MemInline | None:
        """Source templates for inlining memory accesses, the charge and
        the branch record into trace blocks, as a :class:`MemInline`.

        ``None`` (the default) keeps the run on the interpreter: only a
        platform that lends templates tiers up.
        """
        return None

    @abc.abstractmethod
    def on_quantum(self, interpreter: "Interpreter") -> None:
        """Periodic hook: interrupts, preemption, bus decay, input polling.

        Called from :meth:`Interpreter.poll` every ``poll_interval``
        instructions, by the interpreter or inside a compiled block,
        with the polled instruction counted and not yet charged.  The
        hook may touch only the platform and the machine.  It may not
        touch the interpreter's instruction counter, its frames, their
        operand stacks or ``halted``: a compiled block carries on after
        the poll with its operand stack in locals and its counts of its
        own.
        """

    @abc.abstractmethod
    def native_call(self, index: int, interpreter: "Interpreter") -> None:
        """Execute native #``index``; operands on the interpreter stack."""


class NullPlatform(Platform):
    """Flat-cost platform for functional testing.

    Counts cycles as one per instruction and ignores the memory system.
    Provides a tiny native set: ``print_int``, ``print_float``,
    ``nano_time`` (returns the cycle counter), and ``halt_check`` hooks are
    not needed here.
    """

    NATIVE_NAMES = ["print_int", "print_float", "nano_time", "abort"]

    def __init__(self) -> None:
        self.cycles = 0
        self.quantum_calls = 0
        self.printed: list = []

    def charge(self, cost_class: CostClass) -> None:
        self.cycles += 1

    def mem_access(self, vaddr: int) -> None:
        self.cycles += 1

    def branch(self, branch_site: int, taken: bool) -> None:
        pass

    def charge_cycles(self, cycles: int, source: str = "other") -> None:
        self.cycles += cycles

    def on_quantum(self, interpreter: "Interpreter") -> None:
        self.quantum_calls += 1

    def native_call(self, index: int, interpreter: "Interpreter") -> None:
        name = self.NATIVE_NAMES[index]
        stack = interpreter.current_thread.frames[-1].stack
        if name == "print_int":
            self.printed.append(int(stack.pop()))
        elif name == "print_float":
            self.printed.append(float(stack.pop()))
        elif name == "nano_time":
            stack.append(self.cycles)
        elif name == "abort":
            raise RuntimeError("guest abort")

    def native_index(self, name: str) -> int:
        """Resolve a native name (assembler hook)."""
        return self.NATIVE_NAMES.index(name)
