"""The Sanity VM interpreter.

Design notes
------------

* **Global instruction counter.**  "A simple global instruction counter is
  sufficient to identify any point in the execution" (§3.2).  Every
  executed bytecode increments :attr:`Interpreter.instruction_count`; the
  record/replay layer keys all nondeterministic events on it.

* **Deterministic multithreading.**  Threads are scheduled round-robin and
  each runnable thread is given a fixed budget of instructions before it is
  forced to yield (§3.2), so context switches need no log entries.

* **Timing.**  Every instruction charges its cost class to the platform;
  memory-touching instructions additionally charge a data access at a
  stable virtual address, and control transfers charge an instruction
  fetch.  Operand-stack slots are modelled as registers (a real interpreter
  keeps the hot end of the stack in registers), so only locals, globals,
  arrays, and fields generate data traffic.

* **The dispatch loop is one long function, rendered from the opcode
  table.**  A per-opcode method table would cost an extra call per
  executed instruction, which at interpreter-in-an-interpreter depth
  dominates the simulation's host runtime.  So ``run`` is one function
  whose dispatch ladder is rendered, once per process at import, from
  the rows of :data:`repro.vm.isa.ROWS` (the source the trace compiler
  renders its blocks from), in the table's measured frequency order,
  with opcode values as integer literals.  Only the eight opcodes the
  compiler never runs keep hand-written arms (:data:`_HOST_ARMS`).
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
# Some names imported here are used only by the rendered ``run`` (_RUN),
# among them the host functions row expressions call.
from math import cos as _cos, sin as _sin, sqrt as _sqrt  # noqa: F401

from repro.errors import GuestError, VMLoadError, VMRuntimeError
from repro.hw.cpu import CostClass
from repro.vm.heap import (GuestThrow, Heap, HeapConfig,  # noqa: F401
                           KIND_FLOAT_ARRAY, KIND_INT_ARRAY)
from repro.vm.isa import (CODE_BASE, CODE_STRIDE,  # noqa: F401
                          EXC_INDEX_OUT_OF_BOUNDS, EXC_STACK_OVERFLOW,
                          EXCEPTION_NAMES, FRAME_STRIDE_SLOTS, GLOBALS_BASE,
                          OPCODE_COST_LIST, ROWS, STACK_BASE,
                          THREAD_STACK_STRIDE, Op, render_wrap)
from repro.vm.platform import Platform
from repro.vm.program import Function, Program
from repro.vm.tracejit import TraceJit, jit_enabled

_WORD = 8

MAX_CALL_DEPTH = 256

#: Cost class charged for every thread switch.
CONTEXT_SWITCH_COST = CostClass.SYNC


@dataclass
class VmConfig:
    """Interpreter scheduling parameters."""

    thread_quantum: int = 4096      # instructions per scheduling slice
    poll_interval: int = 256        # instructions between platform polls
    heap: HeapConfig | None = None

    def __post_init__(self) -> None:
        # A quantum below 1 runs no instruction per slice, and polls
        # are counted modulo the interval.
        if self.thread_quantum < 1:
            raise VMLoadError(
                f"thread quantum must be at least 1: {self.thread_quantum}")
        if self.poll_interval < 1:
            raise VMLoadError(
                f"poll interval must be at least 1: {self.poll_interval}")


class Frame:
    """One activation record."""

    __slots__ = ("function", "pc", "locals", "stack", "base_vaddr")

    def __init__(self, function: Function, base_vaddr: int) -> None:
        self.function = function
        self.pc = 0
        self.locals = [0] * function.num_locals
        self.stack: list = []
        self.base_vaddr = base_vaddr


class ThreadState:
    """One guest thread: a stack of frames."""

    __slots__ = ("thread_id", "frames", "alive", "executed")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.frames: list[Frame] = []
        self.alive = True
        self.executed = 0

    def frame_base(self, depth: int) -> int:
        return (STACK_BASE + self.thread_id * THREAD_STACK_STRIDE
                + depth * FRAME_STRIDE_SLOTS * _WORD)


class Interpreter:
    """Executes a :class:`Program` against a :class:`Platform`."""

    def __init__(self, program: Program, platform: Platform,
                 config: VmConfig | None = None) -> None:
        self.program = program
        self.platform = platform
        self.config = config or VmConfig()
        self.heap = Heap(self.config.heap)
        self.globals: list = [0] * program.num_globals
        self.instruction_count = 0
        self.halted = False
        #: Optional :class:`repro.obs.sampling.OpcodeSampler`; when set,
        #: :meth:`poll` records the opcode at every platform-poll point.
        self.sampler = None
        #: Optional :class:`repro.obs.profiler.CycleProfiler`; when set,
        #: :meth:`poll` and the run loop's compiled-block boundaries
        #: reconstruct the guest stack (both strided).
        self.profiler = None
        #: Trace-compiling tier-up state (None = pure interpreter, which
        #: ``REPRO_NO_JIT=1`` and a platform lending no block templates
        #: select; the compiled path is bit-identical to it).  Strictly
        #: per-run: compiled blocks capture this run's platform fast
        #: paths, and Program objects are shared across runs.
        self.jit = None
        if jit_enabled() and platform.mem_inline() is not None:
            self.jit = TraceJit(program, self.platform, self.config)
        self.threads: list[ThreadState] = []
        self._next_thread_id = 0
        self._current_index = 0
        self.spawn_thread(program.entry_function, [])

    # -- thread management ---------------------------------------------------

    def spawn_thread(self, function: Function, args: list) -> int:
        """Start a new guest thread running ``function(*args)``."""
        if len(args) != function.num_params:
            raise VMRuntimeError(
                f"thread entry '{function.name}' expects "
                f"{function.num_params} args, got {len(args)}")
        thread = ThreadState(self._next_thread_id)
        self._next_thread_id += 1
        frame = Frame(function, thread.frame_base(0))
        frame.locals[:len(args)] = args
        thread.frames.append(frame)
        self.threads.append(thread)
        return thread.thread_id

    @property
    def current_thread(self) -> ThreadState:
        return self.threads[self._current_index]

    @property
    def live_threads(self) -> int:
        return sum(1 for t in self.threads if t.alive)

    def _rotate(self) -> bool:
        """Advance to the next runnable thread; False if none remain."""
        for _ in range(len(self.threads)):
            self._current_index = (self._current_index + 1) % len(self.threads)
            if self.threads[self._current_index].alive:
                return True
        return False

    # -- GC -------------------------------------------------------------------

    def _gc_roots(self) -> list[int]:
        roots = [v for v in self.globals if isinstance(v, int)]
        for thread in self.threads:
            if not thread.alive:
                continue
            for frame in thread.frames:
                roots.extend(v for v in frame.locals if isinstance(v, int))
                roots.extend(v for v in frame.stack if isinstance(v, int))
        return roots

    def _maybe_gc(self, gc_wanted: bool) -> None:
        if gc_wanted:
            cost = self.heap.collect(self._gc_roots())
            self.platform.charge_cycles(cost, "gc")

    # -- exception dispatch ----------------------------------------------------

    def _dispatch_exception(self, thread: ThreadState, code: int) -> None:
        """Unwind ``thread`` until a handler accepts ``code``."""
        while thread.frames:
            frame = thread.frames[-1]
            # frame.pc was already advanced past the faulting instruction
            # (or past the CALL, for outer frames), so the handler lookup
            # uses pc - 1: the pc of the instruction that raised.
            handler = frame.function.find_handler(max(0, frame.pc - 1))
            if handler is not None:
                frame.stack.clear()
                frame.stack.append(code)
                frame.pc = handler.handler_pc
                self.platform.mem_access(
                    CODE_BASE + frame.function.index * CODE_STRIDE
                    + handler.handler_pc * 4)
                return
            thread.frames.pop()
        thread.alive = False
        name = EXCEPTION_NAMES.get(code, str(code))
        raise GuestError(name, f"in thread {thread.thread_id}")

    # -- main loop --------------------------------------------------------------

    # ``run`` is rendered from :data:`_RUN` below the class: one function
    # whose dispatch ladder comes from the opcode table.

    def poll(self, thread: ThreadState, function: Function, pc: int,
             op: int) -> None:
        """The platform poll at instruction ``pc`` (opcode ``op``) of
        ``function``, which ``thread`` runs.

        Poll points are fixed instruction counts (``instruction_count``
        a multiple of ``poll_interval``): the polled instruction is
        counted but not yet charged, and ``frame.pc`` still names it.
        The interpreter's poll branch and compiled blocks (at the offset
        the poll falls on) both call this.  The opcode sampler and the
        tier-up's hotness sampler ride the poll stride, so their cost
        stays off the per-instruction path; the profiler samples after
        ``on_quantum``, which flushed the batched charges, so the ledger
        it reads is current.
        """
        if self.sampler is not None:
            self.sampler.record(op, function.index, pc)
        if self.jit is not None:
            self.jit.observe(function, pc, op)
        self.platform.on_quantum(self)
        if self.profiler is not None:
            self.profiler.poll(thread)

    # -- helpers for natives ----------------------------------------------------

    def pop_args(self, count: int) -> list:
        """Pop ``count`` operands for a native call (in declaration order)."""
        stack = self.current_thread.frames[-1].stack
        if len(stack) < count:
            raise VMRuntimeError("native call: operand stack underflow")
        if count == 0:
            return []
        taken = stack[-count:]
        del stack[-count:]
        return taken

    def push_result(self, value) -> None:
        """Push a native call's result."""
        self.current_thread.frames[-1].stack.append(value)


# -- the dispatch ladder, rendered from the opcode table ------------------------

#: The arms of the opcodes only the interpreter runs (rows without
#: semantics), over ``run``'s locals.
_HOST_ARMS = {
    Op.NEWARRAY: """
        length = stack.pop()
        kind = KIND_INT_ARRAY if arg == 0 else KIND_FLOAT_ARRAY
        if length < 0:
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        handle, gc_wanted = heap.new_array(kind, length)
        stack.append(handle)
        self._maybe_gc(gc_wanted)""",
    Op.NEWOBJ: """
        handle, gc_wanted = heap.new_object(arg, classes[arg].size_slots)
        stack.append(handle)
        self._maybe_gc(gc_wanted)""",
    Op.CALL: """
        callee = functions[arg]
        if len(thread.frames) >= MAX_CALL_DEPTH:
            raise GuestThrow(EXC_STACK_OVERFLOW)
        new_frame = Frame(callee, thread.frame_base(len(thread.frames)))
        for i in range(callee.num_params - 1, -1, -1):
            new_frame.locals[i] = stack.pop()
        thread.frames.append(new_frame)
        mem(CODE_BASE + callee.index * CODE_STRIDE)""",
    Op.RET: """
        thread.frames.pop()
        if thread.frames:
            caller = thread.frames[-1]
            mem(CODE_BASE + caller.function.index * CODE_STRIDE
                + caller.pc * 4)
        else:
            thread.alive = False""",
    Op.RETV: """
        result = stack.pop()
        thread.frames.pop()
        if thread.frames:
            caller = thread.frames[-1]
            caller.stack.append(result)
            mem(CODE_BASE + caller.function.index * CODE_STRIDE
                + caller.pc * 4)
        else:
            thread.alive = False""",
    Op.THROW: """
        raise GuestThrow(stack.pop())""",
    Op.NATIVE: """
        # Natives observe (and may advance) the counter: idle poll
        # iterations, wait skipping.  Publish it around the call and
        # resync the poll countdown to the modulo invariant.
        self.instruction_count = icount
        try:
            platform.native_call(arg, self)
        finally:
            icount = self.instruction_count
        until_poll = poll_interval - (icount % poll_interval)""",
    Op.HALT: """
        self.halted = True""",
}

#: ``run``'s names for the row vocabulary (:class:`repro.vm.isa.Row`).
_NAMES = {"L": "frame.locals", "G": "globals_", "O": "obj", "D": "data",
          "arg": "arg"}
_JUMP = ["frame.pc = arg",
         "mem(CODE_BASE + function.index * CODE_STRIDE + arg * 4)"]
_LADDER_MARKER = "# @ladder: the dispatch arms, rendered at import"


def _count(name: str, texts) -> int:
    return sum(text.count("{%s}" % name) for text in texts)


def _arm(row) -> list[str]:
    """The arm running ``row``.  It works on the operand stack in place
    where it can: a binary operation pops its top operand and overwrites
    the other with its result, and an operand used once is read where it
    is used."""
    steps = [f"if {condition}:\n    raise GuestThrow({code})"
             for condition, code in row.checks]
    if row.mem is not None:
        kind, addr = row.mem
        steps.append(f"mem(frame.base_vaddr + {addr})" if kind == "frame"
                     else f"mem({addr})")
    steps += [row.put] if row.put else []
    if "ref" in row.pops:
        uses_data = "{D}" in "".join(steps + list(row.push))
        steps[:0] = ["obj = heap.get({ref})"] + ["data = obj.data"] * uses_data
    pops, pushes = list(row.pops), list(row.push)
    # The bottom operand's slot takes the first result, unless that
    # result is the operand itself (DUP).
    bottom = pops.pop(0) if pops and pushes else None
    assigns = ["stack.append({})"] * len(pushes)
    if bottom is not None:
        if pushes[0] == "{%s}" % bottom:
            del pushes[0], assigns[0]
        else:
            assigns[0] = "stack[-1] = {}"
    texts = steps + pushes
    names = dict(_NAMES)
    lines = []
    for name in reversed(pops):
        uses = _count(name, texts)
        names[name] = name
        if uses == 1 and name == pops[0] and bottom is None:
            names[name] = "stack.pop()"
        else:
            lines.append(f"{name} = stack.pop()" if uses else "stack.pop()")
    if bottom is not None:
        names[bottom] = bottom
        if _count(bottom, texts) == _count(bottom, steps + pushes[:1]) == 1:
            names[bottom] = "stack[-1]"
        elif _count(bottom, texts):
            lines.append(f"{bottom} = stack[-1]")
    lines += "\n".join(steps).format(**names).splitlines()
    for assign, expr in zip(assigns, pushes):
        expr = expr.format(**names)
        lines += (render_wrap(assign, expr) if row.wrap
                  else [assign.format(expr)])
    return lines or ["pass"]


def _branch_arm(conditional: list) -> list[str]:
    lines = ["v = stack.pop()"]
    for i, op in enumerate(conditional):
        test = ("else" if i == len(conditional) - 1
                else f"{'elif' if i else 'if'} op == {int(op)}")
        lines += [f"{test}:", f"    taken = {ROWS[op].branch.format(v='v')}"]
    return lines + ["platform.branch(function.index * CODE_STRIDE + pc, taken)",
                    "if taken:"] + ["    " + line for line in _JUMP]


def render_ladder() -> list[str]:
    """The dispatch ladder: an arm per row of :data:`ROWS`, tested in
    the table's order.  The conditional branches share one range-tested
    arm, and consecutive rows that render alike share an arm."""
    conditional = [op for op, row in ROWS.items() if row.branch]
    assert conditional == list(range(conditional[0], conditional[-1] + 1))
    arms: list[tuple[str, list[str]]] = []
    for op, row in ROWS.items():
        if row.branch:
            if op != conditional[0]:
                continue
            test = f"{int(op)} <= op <= {int(conditional[-1])}"
            body = _branch_arm(conditional)
        else:
            test = f"op == {int(op)}"
            body = (textwrap.dedent(_HOST_ARMS[op]).strip().splitlines()
                    if row.host else list(_JUMP) if row.kind == "target"
                    else _arm(row))
        if arms and arms[-1][1] == body:
            arms[-1] = (f"{arms[-1][0]} or {test}", body)
        else:
            arms.append((test, body))
    lines = []
    for i, (test, body) in enumerate(arms):
        lines.append(f"{'elif' if i else 'if'} {test}:")
        lines += ["    " + line for line in body]
    return lines + ["else:  # pragma: no cover - every opcode has a row",
                    "    raise VMRuntimeError(f'unknown opcode {op}', pc=pc,"
                    " function=function.name)"]


#: ``Interpreter.run`` less its dispatch ladder, which goes in at the
#: marker line.
_RUN = r'''
def run(self, max_instructions: int | None = None) -> int:
    """Run until the program halts; returns instructions executed.

    Raises :class:`GuestError` on an uncaught guest exception and
    :class:`VMRuntimeError` on host-level faults (call-depth overflow
    is converted into a guest StackOverflow first).
    """
    # Local aliases shave attribute lookups off the hot path: the
    # platform fast paths, the program tables and the instruction
    # counter (mirrored in ``icount``, synced back at every boundary
    # a native or observer could read it).
    platform = self.platform
    charge = platform.charge
    mem = platform.mem_access
    cost_of = OPCODE_COST_LIST
    poll = self.poll
    profiler = self.profiler
    jit_blocks = self.jit.blocks if self.jit is not None else None
    poll_interval = self.config.poll_interval
    quantum = self.config.thread_quantum
    switch_cost = CONTEXT_SWITCH_COST
    heap = self.heap
    globals_ = self.globals
    functions = self.program.functions
    classes = self.program.classes
    limit = max_instructions
    executed_at_entry = self.instruction_count
    icount = self.instruction_count

    if not any(t.alive for t in self.threads):
        return 0
    if not self.threads[self._current_index].alive:
        if not self._rotate():
            return 0

    thread = self.threads[self._current_index]
    slice_left = quantum
    # Instructions until the next platform poll: a countdown beats a
    # modulo on every instruction.  Poll points stay exactly at
    # instruction_count % poll_interval == 0; the countdown is
    # resynced whenever a native mutates the counter (idle polls,
    # naive-replay wait skipping) and after a compiled block, which
    # may have run polls of its own.
    until_poll = poll_interval - (icount % poll_interval)

    try:
        while not self.halted:
            if not thread.frames:
                thread.alive = False
            if not thread.alive:
                if not self._rotate():
                    break
                thread = self.threads[self._current_index]
                slice_left = quantum
                continue
            if slice_left <= 0:
                charge(switch_cost)
                if not self._rotate():
                    break
                thread = self.threads[self._current_index]
                slice_left = quantum
                continue

            frame = thread.frames[-1]
            function = frame.function
            ops = function.ops
            args = function.args
            pc = frame.pc
            if pc >= len(ops):
                # Fell off the end of a void function: implicit return.
                thread.frames.pop()
                if thread.frames:
                    continue
                thread.alive = False
                continue

            if jit_blocks is not None:
                fn_blocks = jit_blocks[function.index]
                if fn_blocks is not None:
                    block = fn_blocks[pc]
                    # Entry guards: the block must fit within the
                    # scheduling slice and the instruction budget, and
                    # the operand stack must cover its worst-case pops,
                    # so no context switch, budget stop or stack
                    # underflow can occur mid-block.  A poll can: the
                    # block runs it at its exact instruction, offset
                    # ``until_poll - 1`` of the call.  Anything else
                    # runs on the reference interpreter path below.
                    if block is not None and block.n <= slice_left \
                            and len(frame.stack) >= block.min_stack \
                            and (limit is None
                                 or icount + block.n
                                 - executed_at_entry <= limit):
                        self.instruction_count = icount
                        thrown = None
                        try:
                            if block.loops:
                                # Self-loop blocks iterate in-function;
                                # the budget is how many whole blocks
                                # fit in the slice and the limit (>= 1
                                # by the entry guards).
                                avail = slice_left
                                if limit is not None:
                                    rem = (limit - icount
                                           + executed_at_entry)
                                    if rem < avail:
                                        avail = rem
                                block.run(self, thread, frame,
                                          until_poll - 1, avail // block.n)
                            else:
                                block.run(self, thread, frame,
                                          until_poll - 1)
                        except GuestThrow as exc:
                            thrown = exc.code
                        done = self.instruction_count - icount
                        icount = self.instruction_count
                        slice_left -= done
                        until_poll = poll_interval - (icount % poll_interval)
                        # On a side exit, profile before the unwind
                        # rewrites the stack the block ran on.
                        if profiler is not None:
                            profiler.block_boundary(thread, function,
                                                    block)
                        if thrown is not None:
                            self._dispatch_exception(thread, thrown)
                        if limit is not None and \
                                icount - executed_at_entry >= limit:
                            break
                        continue

            op = ops[pc]
            arg = args[pc]

            icount += 1
            thread.executed += 1
            slice_left -= 1
            until_poll -= 1
            if until_poll == 0:
                # The poll counts this instruction and runs before its
                # charge; no poll touches the counter (on_quantum's
                # contract), so only the publish is needed.
                until_poll = poll_interval
                self.instruction_count = icount
                poll(thread, function, pc, op)
            charge(cost_of[op])
            frame.pc = pc + 1

            try:
                stack = frame.stack
                # @ladder: the dispatch arms, rendered at import
            except GuestThrow as exc:
                self._dispatch_exception(thread, exc.code)
                # A native may have advanced the counter before
                # throwing.
                until_poll = poll_interval - (icount % poll_interval)
            except IndexError:
                raise VMRuntimeError(
                    "operand stack underflow",
                    pc=pc, function=function.name) from None

            if limit is not None and \
                    icount - executed_at_entry >= limit:
                break
    finally:
        self.instruction_count = icount

    return self.instruction_count - executed_at_entry
'''


def _render_run() -> str:
    lines = _RUN.splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.strip() == _LADDER_MARKER)
    indent = lines[at][:len(lines[at]) - len(lines[at].lstrip())]
    lines[at:at + 1] = [indent + line for line in render_ladder()]
    return "\n".join(lines)


#: ``Interpreter.run`` as it runs.  It is compiled once per process,
#: under this file's name, so host profiles charge it to the
#: interpreter.
RUN_SOURCE = _render_run()
_scope: dict = {}
exec(compile(RUN_SOURCE, __file__, "exec"), globals(), _scope)  # noqa: S102
_scope["run"].__qualname__ = "Interpreter.run"
Interpreter.run = _scope["run"]
