"""Trace-compiling tier-up for the Sanity VM.

The interpreter's dispatch loop costs tens of host operations per guest
bytecode.  For hot code — detected by the opcode sampler that already
piggybacks on the platform poll — this module compiles
straight-line bytecode regions into fused Python closures
("superinstructions"): one generated function executes the whole region
and pre-sums its per-instruction cycle costs.  Each instruction's code
is rendered from its row of :data:`repro.vm.isa.ROWS`, the table the
interpreter renders its dispatch ladder from, so the two tiers share
one statement of every opcode's semantics.  The block inlines the
templates of the batched platform (:meth:`Platform.mem_inline`): each
memory access, each instruction's charge in place and each conditional
branch's predictor update; it reads the heap's object list inline too,
so the common path of a block pass makes no Python call per
instruction.  A platform that lends no templates (``NullPlatform``, the
unbatched reference) runs on the interpreter alone.

Time determinism is the design constraint, not an afterthought:

* **Entry guards.**  A block runs only when it provably cannot cross a
  slice or budget boundary: the whole region must fit within the
  scheduling slice (``block.n <= slice_left``) and the instruction
  budget, and the operand stack must be deep enough for the region's
  worst-case pops.  Anything else falls back to the reference
  interpreter for that entry.

* **Polls and noise redraws run in place.**  The caller passes the
  offset of the instruction the next platform poll counts, the block
  keeps the offset of the instruction whose charge redraws the CPU's
  noise factor, and one check before each instruction covers both.  At
  a poll the block brings the clock, the accumulators, the CPU and the
  instruction counts to what the interpreter holds at the poll (the
  instructions before it charged, the polled one counted), runs
  :meth:`Interpreter.poll`, and carries on with its registerized stack
  and translated lines; its exits then add only what the poll did
  not.  The hook touches only the platform and the
  machine (:meth:`Platform.on_quantum`), and a translation stays valid
  across it: page-table entries are never removed, set dicts never
  rebound, and an IRQ's cache pollution leaves no writeback pending
  (DESIGN §4.3).

* **Exact charge in place.**  Each instruction steps the fractional
  carry right after its check, and every poll, redraw and exit adds the
  cycles of the run since the previous one in closed form, from the
  block's static base-cost prefix sums; a redraw draws the next factor
  at the same point of the same stream as the reference.  No pass makes
  a charging call of its own, and cycles are bit-identical however the
  runs are cut (DESIGN §4.3).

* **Lines translated once per call.**  Page-table entries are never
  removed and L1 set dicts never rebound, so an access to a static line
  (a frame slot or a constant address) that a call already translated
  makes only the TLB and L1 LRU moves and their miss sides, on the
  first translation's locals; self-loop iterations after the first
  included.  An access to the line the previous access on its path
  touched renders nothing: its LRU moves are no-ops (DESIGN §4.3),
  unless a poll ran between the two, which may have evicted the line:
  after a poll in the pass it runs the update half on the previous
  access's translation.

* **Counters added once per exit.**  Before the block returns, nothing
  reads the TLB and L1 hit counts or the block's own counters, and only
  an in-block poll reads the instruction counts and the L1 hit latency
  (through the clock), so each exit adds them once, less what a poll in
  the call added.  The hits are the path's static access count, times
  the iterations run in a self-loop, less the misses counted on the
  miss sides.  Accesses the Oracle-JIT model may registerize count
  their hits inline.

* **Branches and heap dereferences inline.**  A block records each
  in-block guard and conditional terminator with the platform's
  predictor template: ``BranchPredictor.record`` and the add of its
  penalty to the branch slot, at the branch, so a poll after it sees
  the penalty as the interpreter's would.  A dereference reads the
  heap's object list, fetched per call (the executive swaps heaps only
  between block calls, and blocks never allocate or collect), and
  falls back to ``Heap.get``, the one error path, for a null or
  dangling reference.

* **Side exits.**  Every fault-capable instruction records its offset
  before executing; on a guest throw the generated code charges the
  open run up to the fault, adds the counters of the instructions and accesses
  actually retired, restores ``frame.pc`` to the interpreter's
  convention (one past the faulting instruction) and re-raises for the
  interpreter's exception dispatch.

* **Excluded opcodes.**  Calls/returns, allocation (GC), ``THROW``,
  ``NATIVE`` (I/O, time reads, covert-channel hooks) and ``HALT`` have
  rows without semantics and never appear inside a block — regions stop
  before them — so every observable interaction still happens on the
  interpreter's reference path.

``REPRO_NO_JIT=1`` disables the tier-up entirely, and
``REPRO_NO_BATCH=1`` runs the unbatched reference platform, also on the
interpreter; the equivalence matrix (``tests/test_equivalence.py``) and
the differential tests (``tests/test_tracejit.py``) check cycles,
ledger sums, transmissions, log bytes and audit verdicts bit-identical
under either switch.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from typing import TYPE_CHECKING

from repro.vm.heap import GuestThrow
from repro.vm.isa import (CODE_BASE, CODE_STRIDE, GLOBALS_BASE,
                          OPCODE_COST_LIST, ROWS, render_wrap)

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.platform import Platform
    from repro.vm.program import Function, Program


def jit_enabled() -> bool:
    """Whether new interpreters tier up hot regions (``REPRO_NO_JIT``)."""
    return os.environ.get("REPRO_NO_JIT", "") != "1"


#: Minimum instructions (terminator included) worth fusing: below this
#: the entry guards cost as much as the dispatch they replace.
_MIN_BLOCK = 3

#: Most instructions one compiled region covers.
MAX_BLOCK = 64

#: Poll samples in a function before it tiers up.
HOT_SAMPLES = 4

#: Each row's templates joined, to test which names the row uses.
_TEXT = {op: " ".join((*row.push, *(c for c, _ in row.checks),
                       row.put or "", row.mem[1] if row.mem else ""))
         for op, row in ROWS.items()}


@functools.cache
def _static(expr: str) -> int:
    """The value of a row's constant address expression (its operands
    are slot and global indices, so the cache stays small)."""
    return eval(expr, {"GLOBALS_BASE": GLOBALS_BASE})  # noqa: S307


#: The locals an access translates into when its line gets none of its
#: own: page number, physical address, L1 set dict and tag.
_PLAIN = ("_avp", "_apa", "_awy", "_atg")


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _pushback(slots: list[str]) -> list[str]:
    """Lines writing the registerized stack ``slots`` back."""
    if len(slots) == 1:
        return [f"_s.append({slots[0]})"]
    return [f"_s.extend(({', '.join(slots)}))"] if slots else []


class CompiledBlock:
    """One compiled straight-line region and its tier-up counters."""

    __slots__ = ("function_index", "function_name", "head", "n",
                 "min_stack", "loops", "run", "entries",
                 "side_exits", "instructions", "cycles")

    def __init__(self, function_index: int, function_name: str,
                 head: int, n: int, min_stack: int) -> None:
        self.function_index = function_index
        self.function_name = function_name
        self.head = head            # first pc covered
        self.n = n                  # instructions covered
        self.min_stack = min_stack  # operand-stack depth required at entry
        self.loops = False          # self-loop block (takes a budget arg)
        self.run = None             # generated closure, bound after exec
        self.entries = 0            # completed full-block executions
        self.side_exits = 0         # guest throws that fell back mid-block
        self.instructions = 0       # guest instructions retired in here
        self.cycles = 0             # base (noise-free) cycles charged


def compile_region(function: "Function", head: int,
                   platform: "Platform") -> CompiledBlock | None:
    """Compile the region starting at ``head``, or None if not worth it.

    ``platform`` lends block templates (:meth:`Platform.mem_inline`).
    The expensive part — region scan, codegen, ``compile()`` — is a pure
    function of the bytecode and the templates' *constants*, so its
    artifact is cached on the Function and shared across runs; TDR
    replays the same program many times, and only this thin wrapper runs
    again: it builds a fresh namespace around the run's template
    namespace and ``exec``s the cached code object, so no run-local
    state survives in the cache.
    """
    inline = platform.mem_inline()
    # The templates' signature captures every constant they bake into
    # the source (page and line geometry, set counts, accumulator slots,
    # registerized windows, base costs), making the cache key
    # self-validating across configs.
    key = (head, inline.signature)
    cache = getattr(function, "_tracejit_cache", None)
    if cache is None:
        cache = {}
        function._tracejit_cache = cache
    if key in cache:
        art = cache[key]
    else:
        art = _build_region(function, head, platform)
        if art is not None:
            # The code object is all instantiation needs: cached
            # artifacts keep no rendered source.
            del art["source"]
        cache[key] = art
    if art is None:
        return None
    block = CompiledBlock(function.index, function.name, head,
                          art["n"], art["need"])
    block.loops = art["loops"]
    ns = dict(art["consts"], **inline.namespace)
    ns["_B"] = block
    exec(_event_code(inline), ns)  # noqa: S102 - from fixed templates
    exec(art["code"], ns)  # noqa: S102 - generated from a fixed template
    block.run = ns["_block"]
    return block


#: A block's prologue: the open run starts at entry, ``_u`` is the
#: offset whose charge redraws and ``_e`` the nearer of it and ``_p``.
_OPEN = ["_cc = _cpu._combined", "_cf = _cf0 = _cpu._frac",
         "_ps0 = _c0 = _mt = _mc = 0", "_u = _cpu._until_redraw - 1",
         "_e = _p if _p < _u else _u"]


#: The in-block event helpers' code, by the signature of the templates
#: they are rendered from.
_EVENT_CODE: dict = {}


def _event_code(inline):
    """The in-block event helpers, compiled once per template signature
    and defined in each block's namespace, whose constants they read
    (DESIGN §4.3).

    ``_event`` runs, in the interpreter's order, the poll at offset
    ``_k == _p`` of a pass that ``_j`` self-loop iterations precede,
    then the noise redraw at ``_k == _u``, before that instruction's
    charge.  It charges the open run up to prefix sum ``_s``; before a
    poll it hands the CPU its carry and countdown and adds the hits of
    the first ``_c`` summed accesses, and the poll publishes the counts
    around its call (``_k`` counted, not yet charged), sets
    ``frame.pc`` for the profiler and moves ``_p`` on.  It returns the
    new offsets, run start, poll offset (``_c0``) and miss counts.

    ``_touch(_avp, _apa, _awy, _atg, _mt, _mc)`` runs the update half
    of an access that repeats the previous access's line, on that
    access's translation, and returns the miss counts after it: a block
    calls it for such an access after a poll in the pass.
    """
    key = inline.signature
    if key in _EVENT_CODE:
        return _EVENT_CODE[key]
    published = ["vm.instruction_count += _d", "thread.executed += _d",
                 "_cpu._instructions += _d - 1"]
    poll = (["_cpu._frac = _cf", "_cpu._until_redraw = _u + 1 - _k",
             "_c += _PER * _j", *inline.hits("_c"), "_mt = _mc = _c",
             "_d = _N * _j + _k + 1", *published,
             "function = frame.function", "pc = frame.pc = _HEAD + _k",
             "vm.poll(thread, function, pc, function.ops[pc])"]
            + [line.replace("+=", "-=") for line in published]
            + ["_p = _k + vm.config.poll_interval", "_c0 = _k"])
    lines = (["def _event(vm, thread, frame, _k, _s, _p, _u, _cc, _cf0,"
              " _cf, _ps0, _c0, _c, _mt, _mc, _j=0):"]
             + _indent([inline.cycles("_s"), "if _k == _p:"]
                       + _indent(poll)
                       + ["if _k == _u:",
                          "    _cpu._recompute_noise()",
                          "    _cc = _cpu._combined",
                          "    _u = _k + _cpu.config.speculation_period",
                          "return (_p, _u, _p if _p < _u else _u, _s,"
                          " _cf, _cc, _c0, _mt, _mc)"])
             + [f"def _touch({', '.join(_PLAIN)}, _mt, _mc):"]
             + _indent([*inline.update(_PLAIN, first=False),
                        "return _mt, _mc"]))
    code = _EVENT_CODE[key] = compile("\n".join(lines), "<tracejit event>",
                                      "exec")
    return code


def _build_region(function: "Function", head: int,
                  platform: "Platform") -> dict | None:
    """Scan, analyse and compile one region to a cacheable artifact.

    The region extends until (and including) the first branch, until the
    first opcode only the interpreter runs (excluded), or until
    :data:`MAX_BLOCK`; regions shorter than ``_MIN_BLOCK`` are not worth the
    entry guards.

    The operand stack is *registerized*: the region's stack effect is
    known statically, so stack slots become single-assignment Python
    locals and ``frame.stack`` is only touched at block entry (popping
    the worst-case depth) and at the exits.  This is invisible to the
    guest: nothing can observe ``frame.stack`` mid-block (no GC,
    natives or checkpoints run inside a block, and an in-block poll
    reads no operand stack), and on a guest throw the exception
    dispatch either clears the frame's stack or discards the frame, so
    the mid-block stack contents were never live.

    Every instruction starts with the check for an in-block event: the
    caller passes ``_p``, the offset within the call of the instruction
    the next poll counts, and the block keeps ``_u``, that of the next
    noise redraw.  At either the block runs ``_event`` (see
    :func:`_event_code`), then the instruction's charge: it steps the
    carry, and adds the open run's cycles at each event and exit
    (DESIGN §4.3).
    """
    ops = function.ops
    args = function.args
    length = len(ops)

    # Superblock scan: the region is the contiguous pc range from
    # ``head`` extended *through* forward conditional branches (each
    # becomes an in-block guard with an early exit) until a GOTO, a
    # backward conditional (a loop back edge), an opcode only the
    # interpreter runs (excluded) or ``MAX_BLOCK``.  Contiguity is what
    # keeps the side-exit pc arithmetic (``head + offset + 1``) valid.
    picked: list[int] = []          # pcs included in the region
    terminator_pc: int | None = None
    pc = head
    while pc < length and len(picked) < MAX_BLOCK:
        row = ROWS[ops[pc]]
        if row.host:
            break
        picked.append(pc)
        if row.kind == "target" and (row.branch is None or args[pc] <= pc):
            terminator_pc = pc
            break
        pc += 1
    # A region cut at ``MAX_BLOCK`` in mid-line stops at its last inner
    # head instead, where another block starts: the interpreter would
    # otherwise run the rest of the line up to the next head.
    if pc == head + MAX_BLOCK < length and not ROWS[ops[pc]].host:
        heads = function.region_heads()
        inner = [h for h in heads if head + _MIN_BLOCK <= h < pc]
        if inner and pc not in heads:
            del picked[inner[-1] - head:]
    n = len(picked)
    if n < _MIN_BLOCK:
        return None

    # Static stack analysis: the depth required at entry so no pop can
    # ever underflow, mirroring each op's pops/pushes.
    depth = 0
    need = 0
    for pc in picked:
        row = ROWS[ops[pc]]
        need = max(need, len(row.pops) - depth)
        depth += len(row.push) - len(row.pops)

    # Self-loop blocks: a terminator that branches back to this block's
    # own head with a balanced stack (exactly as many surviving slots as
    # entry slots) iterates *inside* the generated function — the entry
    # registers are rebound register-to-register on the back edge, so
    # the hot path pays no stack traffic and no dispatch per iteration.
    # The caller passes the iteration budget ``_r`` (how many whole
    # blocks fit in the slice and the instruction limit), and every
    # iteration charges exactly like a separate entry would; ``_p``
    # moves back by ``n`` on the back edge, so it stays an offset into
    # the current iteration.
    loops = (terminator_pc is not None and args[terminator_pc] == head
             and depth == 0)

    # Noise-free base costs, from the platform's templates so the
    # block's numbers match whatever cost table the run uses;
    # ``presum[k]`` is the base total of the first ``k`` instructions.
    inline = platform.mem_inline()
    bases = tuple(inline.bases[OPCODE_COST_LIST[ops[pc]]] for pc in picked)
    presum = (0, *itertools.accumulate(bases))
    total = presum[n]
    #: fault offset -> accesses before the fault
    prefix: dict[int, int] = {}

    # Everything the generated code needs that is *not* per-run state:
    # the templates' namespace and the _B counter block are bound by
    # compile_region when it instantiates the cached artifact.
    consts = {
        "_GT": GuestThrow,
        "_sqrt": math.sqrt, "_sin": math.sin, "_cos": math.cos,
        "_PS": presum, "_PFX": prefix, "_N": n, "_HEAD": head,
    }

    # Every data access and fetch is expanded inline from the platform's
    # memory templates (DESIGN §4.3).  An access with a static line key
    # translates its line once per call, into locals of its own, when
    # the call meets that line again after touching another; later
    # accesses make only the LRU moves.  An access to the line of the
    # access just before it on the same path renders nothing.  Hit
    # counters are summed at the exits, from each path's count of
    # accesses.
    line_key = inline.line_key
    code_window = CODE_BASE + function.index * CODE_STRIDE

    def branch(pc) -> list[str]:
        """The predictor template's record of the conditional branch at
        ``pc`` with outcome ``_tk``."""
        return inline.branch(function.index * CODE_STRIDE + pc)

    def site(pc):
        """The address expression and line key of the access at ``pc``,
        when its row's address is a frame offset or a constant."""
        kind, addr = ROWS[ops[pc]].mem
        value = _static(addr.format(arg=repr(args[pc])))
        frame = kind == "frame"
        return (f"_base + {value}" if frame else value,
                line_key(value, frame))

    def summed(key) -> bool:
        """Whether an access with line key ``key`` leaves its hits to the
        exit sums: one the registerized guard may skip counts its own."""
        return not (key is None and inline.guarded)

    # The line keys of one pass's accesses in program order (None for
    # an access without one), a self-loop's back-edge fetch last.  Lines
    # get locals of their own when a call meets them again after an
    # access to another line: every line of a self-loop (later
    # iterations reuse it), elsewhere a line with several such sites.
    keys = [None if ROWS[ops[pc]].mem[0] == "heap" else site(pc)[1]
            for pc in picked if pc != terminator_pc and ROWS[ops[pc]].mem]
    back_key = None
    if loops:
        back_key = line_key(code_window + head * 4)
        keys.append(back_key)
    met = collections.Counter(
        key for key, previous in zip(keys, [None] + keys)
        if key is not None and key != previous)
    captured = {key: (f"_vp{j}", f"_pa{j}", f"_ws{j}", f"_tg{j}")
                for j, key in enumerate(k for k, c in met.items()
                                        if loops or c > 1)}
    # The accesses of a self-loop iteration whose hits the exits sum.
    per_iteration = sum(map(summed, keys))
    consts["_PER"] = per_iteration

    body: list[str] = []
    #: Compile-time model of the operand stack: entry slots ``_e*`` then
    #: single-assignment temporaries, ``_t{k}`` for the result of the
    #: instruction at offset ``k``.  Aliasing (DUP) and reordering (SWAP)
    #: are free — they only shuffle names.
    vstack = [f"_e{i}" for i in range(need)]
    uses_locals = uses_globals = uses_heap = False
    has_faults = False
    counts = False      # some access counts misses in _mt/_mc
    cond_value: str | None = None
    last_key = None     # line key of the previous access on the path
    last_names = _PLAIN  # the locals that access translated into
    counted = 0         # accesses on the path whose hits an exit sums
    translated = set()  # captured lines translated on the path
    touches = False     # some repeat runs its update half after a poll

    def access(expr, key) -> list[str]:
        nonlocal last_key, last_names, counted, counts, touches
        previous, last_key = last_key, key
        if not summed(key):
            return inline.mem(str(expr))
        counted += 1
        counts = True
        if key is not None and key == previous:
            # The LRU moves of a repeat are no-ops, unless a poll ran
            # since the previous access.  After a poll in the pass they
            # run: the moves are no-ops too if the poll came first.
            touches = True
            return [f"if _c0: _mt, _mc = "
                    f"_touch({', '.join(last_names)}, _mt, _mc)"]
        names = captured.get(key)
        last_names = names or _PLAIN
        if names is None:
            return inline.translate(str(expr), _PLAIN) + inline.update(_PLAIN)
        if key in translated:
            return inline.update(names, first=False)
        translated.add(key)
        full = inline.translate(str(expr), names) + inline.update(names)
        if not loops:
            return full
        # Later iterations run the update half on the first
        # iteration's translation.
        return (["if _r == _R:"] + _indent(full) + ["else:"]
                + _indent(inline.update(names, first=False)))

    def exit_fetch(addr: int) -> tuple[list[str], int]:
        """A branch target's fetch on an exit path, and how many
        accesses it adds to that exit's hit sums."""
        nonlocal counts
        if not summed(line_key(addr)):
            return inline.mem(str(addr)), 0
        counts = True
        return inline.translate(str(addr)) + inline.update(), 1

    def leave(instrs, cycles, accesses, counter) -> list[str]:
        """Lines adding the counters the block only adds to, for the
        call so far: ``_k`` whole iterations of a self-loop, then a pass
        of ``instrs`` instructions, ``cycles`` base cycles and
        ``accesses`` summed accesses that adds one to ``counter``
        ("entries", "side_exits", or None for no pass)."""
        def plus(per, rest) -> str:
            terms = ([f"{per} * _k" if per != 1 else "_k"]
                     if loops and per else [])
            return " + ".join(terms + ([str(rest)] if rest != 0 else [])) \
                or "0"

        count = plus(n, instrs)
        lines = ((["_k = _R - _r"] if loops else [])
                 + [f"vm.instruction_count += {count}",
                    f"thread.executed += {count}",
                    f"_B.instructions += {count}",
                    f"_B.cycles += {plus(total, cycles)}",
                    f"_cpu._instructions += {count}"])
        entries = plus(1, int(counter == "entries"))
        if entries != "0":
            lines.append(f"_B.entries += {entries}")
        if counter == "side_exits":
            lines.append("_B.side_exits += 1")
        return lines + sums(plus(per_iteration, accesses))

    def sums(accesses) -> list[str]:
        """Lines adding the hits of ``accesses`` summed accesses."""
        return [] if accesses in ("0", 0) else inline.hits(str(accesses))

    def check(k: int) -> str:
        """The in-block event at offset ``k``, before the instruction's
        own charge, with the accesses the path summed before it."""
        j = ", _R - _r" if loops else ""
        return (f"if _e == {k}: _p, _u, _e, _ps0, _cf0, _cc, _c0, _mt, _mc"
                f" = _event(vm, thread, frame, {k}, {presum[k]}, _p, _u,"
                f" _cc, _cf0, _cf, _ps0, _c0, {counted}, _mt, _mc{j})")

    def settle(j) -> list[str]:
        """Lines charging the open run up to offset ``j`` of the pass,
        from its static prefix sum, and handing the CPU its carry and
        redraw countdown there."""
        at, left = ((presum[j], f"_u - {j - 1}") if isinstance(j, int)
                    else (f"_PS[{j}]", f"_u + 1 - {j}"))
        return [inline.cycles(at), "_cpu._frac = _cf",
                f"_cpu._until_redraw = {left}"]

    for k, pc in enumerate(picked):
        op = ops[pc]
        row = ROWS[op]
        arg = args[pc]
        body.append(check(k))
        body.append(inline.carry(bases[k]))
        if pc == terminator_pc:
            if row.branch:
                cond_value = row.branch.format(v=vstack.pop())
            break  # terminator semantics live in the epilogue
        if row.branch:
            # Mid-region guard: the taken path leaves the block early
            # with the operand stack written back, the instruction-
            # prefix charged, the counters advanced over the k+1
            # retired instructions, and the branch target fetched —
            # byte-for-byte what the interpreter would have done.
            body.append(f"_tk = {row.branch.format(v=vstack.pop())}")
            body += branch(pc)
            body.append("if _tk:")
            fetch, fetched = exit_fetch(code_window + arg * 4)
            body += _indent(_pushback(vstack) + settle(k + 1)
                            + [f"frame.pc = {arg}"] + fetch
                            + leave(k + 1, presum[k + 1], counted + fetched,
                                    "side_exits") + ["return"])
            continue
        # The row's semantics over the registerized stack: operands are
        # stack-slot names, and a result that is an operand or the
        # instruction's operand (DUP, SWAP, ICONST) aliases it.
        text = _TEXT[op]
        names = {"L": "_L", "G": "_G", "O": "_o", "D": "_d"}
        if "{arg}" in text:
            if type(arg) is int and -1 << 63 <= arg < 1 << 63:
                names["arg"] = repr(arg) if arg >= 0 else f"({arg})"
            else:
                names["arg"] = f"_K{k}"
                consts[f"_K{k}"] = arg
        for name in reversed(row.pops):
            names[name] = vstack.pop()
        uses_locals |= "{L}" in text
        uses_globals |= "{G}" in text
        if row.checks or "ref" in row.pops:
            # A fault site: record the offset for the side exit.  Its
            # throw comes before its own access.
            has_faults = True
            prefix[k] = counted
            body.append(f"_i = {k}")
        if "ref" in row.pops:
            # The heap's object list inline; ``Heap.get`` raises for a
            # null or dangling reference.
            uses_heap = True
            ref = names["ref"]
            body += [f"_o = _hobj[{ref}] if 0 < {ref} < len(_hobj) else None",
                     f"if _o is None: _o = _hget({ref})"]
            if "{D}" in text:
                body.append("_d = _o.data")
        for condition, code in row.checks:
            body.append(f"if {condition.format(**names)}:")
            body.append(f"    raise _GT({code})")
        if row.mem is not None:
            if row.mem[0] == "heap":
                body += access(row.mem[1].format(**names), None)
            else:
                uses_locals |= row.mem[0] == "frame"
                body += access(*site(pc))
        if row.put:
            body.append(row.put.format(**names))
        for expr in row.push:
            if expr[1:-1] in names:
                vstack.append(names[expr[1:-1]])
                continue
            expr = expr.format(**names)
            vstack.append(f"_t{k}")
            body += (render_wrap(f"_t{k} = {{}}", expr) if row.wrap
                     else [f"_t{k} = {expr}"])

    pushback = _pushback(vstack)
    entry_names = [f"_e{i}" for i in range(need)]
    rebind = []
    if need and vstack != entry_names:
        rebind.append(f"{', '.join(entry_names)} = {', '.join(vstack)}")

    if terminator_pc is None:
        epilogue = (pushback + settle(n)
                    + leave(n, total, counted, "entries")
                    + [f"frame.pc = {picked[-1] + 1}"])
    elif loops:
        # while-True epilogue: either take the back edge in-function
        # (budget permitting), with the event offsets and the open run's
        # start moved back by the pass, or break out with the run
        # charged, the counters added and frame.pc set for the
        # interpreter.
        target = args[terminator_pc]
        passed = counted
        shift = [f"_p -= {n}", f"_u -= {n}", f"_e -= {n}",
                 f"_ps0 -= {total}"] + (["_c0 = 0"] if touches else [])
        taken = (access(code_window + target * 4, back_key)
                 + ["_r -= 1", "if _r > 0:"]
                 + _indent(shift + rebind + ["continue"])
                 + settle(n) + leave(0, 0, 0, None)
                 + [f"frame.pc = {target}"])
        if cond_value is not None:
            taken = ([f"_tk = {cond_value}", *branch(terminator_pc),
                      "if _tk:"] + _indent(taken) + ["else:"]
                     + _indent(settle(n) + leave(n, total, passed, "entries")
                               + [f"frame.pc = {terminator_pc + 1}"]))
        epilogue = taken + ["break"]
    else:
        target = args[terminator_pc]
        fetch, fetched = exit_fetch(code_window + target * 4)
        if cond_value is None:
            epilogue = (pushback + settle(n) + [f"frame.pc = {target}"]
                        + fetch
                        + leave(n, total, counted + fetched, "entries"))
        else:
            # Both ways out retire the same pass; only the taken one
            # fetches.
            epilogue = (pushback + settle(n)
                        + leave(n, total, 0, "entries")
                        + [f"_tk = {cond_value}", *branch(terminator_pc),
                           "if _tk:"]
                        + _indent([f"frame.pc = {target}"] + fetch
                                  + sums(counted + fetched))
                        + ["else:"]
                        + _indent([f"frame.pc = {terminator_pc + 1}"]
                                  + sums(counted)))

    prologue = ["_s = frame.stack"]
    if need == 1:
        prologue.append("_e0 = _s.pop()")
    elif need:
        names = ", ".join(entry_names)
        prologue.append(f"{names} = _s[-{need}:]")
        prologue.append(f"del _s[-{need}:]")
    if uses_locals:
        prologue.append("_L = frame.locals")
        prologue.append("_base = frame.base_vaddr")
    if uses_globals:
        # Fetched per entry, never captured: checkpoint restore swaps
        # vm.globals/vm.heap wholesale between runs.
        prologue.append("_G = vm.globals")
    if uses_heap:
        # Blocks never allocate or collect, so the object list stays
        # the heap's within a call.
        prologue += ["_hget = vm.heap.get", "_hobj = vm.heap._objects"]
    if loops:
        prologue.append("_R = _r")
    prologue += _OPEN

    # A self-loop body iterates in-function and writes the stack back
    # once it leaves; a throw anywhere leaves through the side exit.
    main = ["while True:"] + _indent(body + epilogue) if loops else body
    if has_faults:
        main = (["_i = 0", "try:"] + _indent(main) + ["except _GT:"]
                + _indent(["_n = _i + 1", *settle("_n"),
                           *leave("_n", "_PS[_n]",
                                  "_PFX[_i]" if counts else 0, "side_exits"),
                           f"frame.pc = {head} + _n", "raise"]))
    params = "vm, thread, frame, _p" + (", _r" if loops else "")
    source = "\n".join([f"def _block({params}):"] + _indent(
        prologue + main + (pushback if loops else epilogue)))
    code = compile(source, f"<tracejit {function.name}+{head}>", "exec")
    return {"code": code, "source": source, "n": n, "need": need,
            "loops": loops, "consts": consts}


class TraceJit:
    """Per-run tier-up controller: hotness tracking + compiled blocks.

    State is strictly per ``Interpreter`` (per run): compiled closures
    capture the run's platform fast paths, and :class:`Program` objects
    are shared across runs by the analysis layer's compile cache, so
    nothing may be stashed on the program itself.
    """

    def __init__(self, program: "Program", platform: "Platform",
                 config) -> None:
        from repro.obs.sampling import OpcodeSampler

        self.program = program
        self.platform = platform
        #: The tier-up's own site sampler (independent of observability's,
        #: which may be absent; fed from the same poll).
        self.sampler = OpcodeSampler(stride=config.poll_interval)
        #: function index -> (pc -> CompiledBlock | None) | None.  The
        #: outer list's identity is stable: the interpreter aliases it
        #: once per run() call.
        self.blocks: list[list | None] = [None] * len(program.functions)
        self._func_samples = [0] * len(program.functions)
        self._compiled = [False] * len(program.functions)
        self.compile_events = 0
        self.compiled_regions = 0

    def observe(self, function: "Function", pc: int, op: int) -> None:
        """One poll sample; tiers the function up when it gets hot.

        Sampling is deterministic (poll points are fixed instruction
        counts), so compilation triggers at identical points across runs.
        """
        self.sampler.record(op, function.index, pc)
        idx = function.index
        count = self._func_samples[idx] + 1
        self._func_samples[idx] = count
        if count >= HOT_SAMPLES and not self._compiled[idx]:
            self._compile_function(function)

    def _compile_function(self, function: "Function") -> None:
        idx = function.index
        self._compiled[idx] = True
        fn_blocks: list = [None] * len(function.ops)
        compiled = 0
        for head in function.region_heads():
            block = compile_region(function, head, self.platform)
            if block is not None:
                fn_blocks[head] = block
                compiled += 1
        if compiled:
            self.compile_events += 1
            self.compiled_regions += compiled
            self.blocks[idx] = fn_blocks

    # -- reporting ----------------------------------------------------------

    def region_stats(self) -> list[dict]:
        """Per-region tier-up stats (one block per region), busiest
        first (deterministic order)."""
        regions = [{"function": block.function_name,
                    "head_pc": block.head,
                    "length": block.n,
                    "entries": block.entries,
                    "side_exits": block.side_exits,
                    "instructions": block.instructions,
                    "cycles": block.cycles}
                   for fn_blocks in self.blocks if fn_blocks is not None
                   for block in fn_blocks if block is not None]
        regions.sort(key=lambda r: (-r["instructions"], r["function"],
                                    r["head_pc"]))
        return regions

    def summary(self) -> dict:
        """Aggregate tier-up stats for :class:`ExecutionResult`."""
        regions = self.region_stats()
        return {
            "enabled": True,
            "compile_events": self.compile_events,
            "compiled_regions": self.compiled_regions,
            "entries": sum(r["entries"] for r in regions),
            "side_exits": sum(r["side_exits"] for r in regions),
            "jit_instructions": sum(r["instructions"] for r in regions),
            "jit_cycles": sum(r["cycles"] for r in regions),
            "samples": self.sampler.samples,
            "regions": regions,
        }
