"""Instruction set of the Sanity VM.

A compact stack ISA in the spirit of JVM bytecode ("it has only 202
instructions, no interrupts, and does not include legacy features", §3.1).
Ours has 52.  :data:`ROWS` gives each opcode one row: its operand kind
(so the assembler can validate listings), its
:class:`~repro.hw.cpu.CostClass` (so the CPU model can charge cycles per
instruction) and, for every opcode but the eight only the interpreter
runs, its semantics as source-text templates.  Both execution tiers
render their code from the rows: the interpreter's dispatch ladder
(:mod:`repro.vm.interpreter`) and the trace compiler's block bodies
(:mod:`repro.vm.tracejit`), so each opcode's semantics is written once.

Integer values are 64-bit two's-complement (wrapped on every arithmetic
instruction); floats are IEEE doubles.  References are opaque handles into
the heap, with 0 as null.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.hw.cpu import CostClass


class Op(enum.IntEnum):
    """Opcodes, grouped by function."""

    # Stack / constants
    NOP = 0
    ICONST = 1      # operand: int value
    FCONST = 2      # operand: float value
    POP = 3
    DUP = 4
    SWAP = 5

    # Locals and globals
    LOAD = 6        # operand: local slot
    STORE = 7       # operand: local slot
    GLOAD = 8       # operand: global index
    GSTORE = 9      # operand: global index

    # Integer arithmetic (64-bit wrapping)
    IADD = 10
    ISUB = 11
    IMUL = 12
    IDIV = 13
    IREM = 14
    INEG = 15
    ISHL = 16
    ISHR = 17
    IAND = 18
    IOR = 19
    IXOR = 20

    # Float arithmetic
    FADD = 21
    FSUB = 22
    FMUL = 23
    FDIV = 24
    FNEG = 25

    # Conversions and math intrinsics
    I2F = 26
    F2I = 27
    FSQRT = 28
    FSIN = 29
    FCOS = 30

    # Comparison and control flow
    CMP = 31        # pops b, a; pushes sign(a - b) as int
    IFEQ = 32       # operand: target pc; pops v, branches if v == 0
    IFNE = 33
    IFLT = 34
    IFLE = 35
    IFGT = 36
    IFGE = 37
    GOTO = 38       # operand: target pc

    # Arrays
    NEWARRAY = 39   # operand: element kind ('i' or 'f'); pops length
    ALOAD = 40      # pops idx, ref; pushes element
    ASTORE = 41     # pops value, idx, ref
    ARRAYLEN = 42   # pops ref; pushes length

    # Objects (records with typed fields)
    NEWOBJ = 43     # operand: class index
    GETFIELD = 44   # operand: field offset; pops ref
    PUTFIELD = 45   # operand: field offset; pops value, ref

    # Calls
    CALL = 46       # operand: function index
    RET = 47
    RETV = 48       # pops return value

    # Exceptions
    THROW = 49      # pops an int exception code

    # Native interface
    NATIVE = 50     # operand: native index

    HALT = 51


#: Guest exception codes raised by the VM itself (host traps).  Guest code
#: may throw any non-negative code it likes.
EXC_DIV_BY_ZERO = -1
EXC_INDEX_OUT_OF_BOUNDS = -2
EXC_NULL_REFERENCE = -3
EXC_STACK_OVERFLOW = -4
EXC_OUT_OF_MEMORY = -5

EXCEPTION_NAMES = {
    EXC_DIV_BY_ZERO: "DivisionByZero",
    EXC_INDEX_OUT_OF_BOUNDS: "IndexOutOfBounds",
    EXC_NULL_REFERENCE: "NullReference",
    EXC_STACK_OVERFLOW: "StackOverflow",
    EXC_OUT_OF_MEMORY: "OutOfMemory",
}

#: Virtual memory map (stable across executions — §3.6 needs the same
#: virtual layout during play and replay; the *physical* backing is the
#: FrameAllocator's concern).
CODE_BASE = 0x0010_0000
CODE_STRIDE = 0x4000          # per-function code window
GLOBALS_BASE = 0x0020_0000
STACK_BASE = 0x0100_0000
THREAD_STACK_STRIDE = 0x10_0000
FRAME_STRIDE_SLOTS = 64       # max locals per frame, for address layout


class Row(NamedTuple):
    """One opcode, as data both execution tiers render.

    Expressions are ``str.format`` templates: ``{x}`` is the popped
    operand ``x``, ``{arg}`` the instruction's operand, ``{L}`` the
    frame's locals, ``{G}`` the globals, ``{O}`` the heap object of the
    popped ``ref`` (dereferencing it throws NullReference for a null or
    dangling handle) and ``{D}`` its data list; ``_sqrt``, ``_sin`` and
    ``_cos`` are :mod:`math`'s.  A tier renders a row in this order: pop
    the operands, dereference ``ref``, run the fault checks, make the
    memory access, run ``put``, push the results.
    """

    kind: str | None
    cost: CostClass
    #: Popped operand names, bottom of the stack first.
    pops: tuple = ()
    #: Pushed result expressions, bottom first: at most one is computed,
    #: the others push an operand ``{x}`` again.
    push: tuple = ()
    #: ``(condition, exception code)`` pairs: throw when one holds.
    checks: tuple = ()
    #: ``(line-key kind, address expression)``.  The kind is "frame"
    #: (the expression is the offset from the frame base), "const" (a
    #: constant address) or "heap".
    mem: tuple | None = None
    #: A store statement.
    put: str | None = None
    #: Wrap the (single) result to 64 bits.
    wrap: bool = False
    #: A conditional branch's taken condition.
    branch: str | None = None
    #: Only the interpreter runs this opcode (calls, returns, natives,
    #: allocation, throws, HALT).  The row has no semantics, its pops and
    #: push name the fixed part of the stack effect, and compiled regions
    #: stop before it.
    host: bool = False


_C = CostClass
_AB = ("a", "b")
_DIV_CHECK = (("{b} == 0", EXC_DIV_BY_ZERO),)
_BOUNDS_CHECK = (("{idx} < 0 or {idx} >= len({D})",
                  EXC_INDEX_OUT_OF_BOUNDS),)
#: 1e999 is the float literal for infinity; NaN fails both comparisons.
_FINITE_CHECK = (("not -1e999 < {a} < 1e999", EXC_DIV_BY_ZERO),)
_INFINITE_CHECK = (("{a} in (1e999, -1e999)", EXC_DIV_BY_ZERO),)
_FRAME = ("frame", "{arg} * 8")
_GLOBAL = ("const", "GLOBALS_BASE + {arg} * 8")
_ELEMENT = ("heap", "{O}.vaddr + 16 + {idx} * 8")
_FIELD = ("heap", "{O}.vaddr + 16 + {arg} * 8")
#: Truncating (Java) division and remainder.  With a non-negative
#: dividend and a positive divisor they are Python's floor operators;
#: the signs are tested first so that common case calls no ``abs``.
_QUOTIENT = ("{a} // {b} if {a} >= 0 and {b} > 0"
             " else abs({a}) // abs({b}) if ({a} < 0) == ({b} < 0)"
             " else -(abs({a}) // abs({b}))")
_REMAINDER = ("{a} % {b} if {a} >= 0 and {b} > 0"
              " else abs({a}) % abs({b}) if {a} >= 0"
              " else -(abs({a}) % abs({b}))")

#: One row per opcode, in measured execution frequency order: the order
#: the interpreter's dispatch ladder tests them in.
ROWS: dict[Op, Row] = {
    Op.LOAD: Row("slot", _C.MEM, push=("{L}[{arg}]",), mem=_FRAME),
    Op.STORE: Row("slot", _C.MEM, ("v",), mem=_FRAME, put="{L}[{arg}] = {v}"),
    Op.ICONST: Row("int", _C.CONST, push=("{arg}",)),
    Op.FCONST: Row("float", _C.CONST, push=("{arg}",)),
    Op.IADD: Row(None, _C.ALU, _AB, ("{a} + {b}",), wrap=True),
    Op.ISUB: Row(None, _C.ALU, _AB, ("{a} - {b}",), wrap=True),
    Op.IMUL: Row(None, _C.MUL, _AB, ("{a} * {b}",), wrap=True),
    Op.CMP: Row(None, _C.ALU, _AB, ("({a} > {b}) - ({a} < {b})",)),
    Op.IFEQ: Row("target", _C.BRANCH, ("v",), branch="{v} == 0"),
    Op.IFNE: Row("target", _C.BRANCH, ("v",), branch="{v} != 0"),
    Op.IFLT: Row("target", _C.BRANCH, ("v",), branch="{v} < 0"),
    Op.IFLE: Row("target", _C.BRANCH, ("v",), branch="{v} <= 0"),
    Op.IFGT: Row("target", _C.BRANCH, ("v",), branch="{v} > 0"),
    Op.IFGE: Row("target", _C.BRANCH, ("v",), branch="{v} >= 0"),
    Op.GOTO: Row("target", _C.BRANCH),
    Op.ALOAD: Row(None, _C.MEM, ("ref", "idx"), ("{D}[{idx}]",),
                  _BOUNDS_CHECK, _ELEMENT),
    Op.ASTORE: Row(None, _C.MEM, ("ref", "idx", "v"), (), _BOUNDS_CHECK,
                   _ELEMENT, "{D}[{idx}] = {v}"),
    Op.ARRAYLEN: Row(None, _C.MOVE, ("ref",), ("len({O}.data)",)),
    Op.FADD: Row(None, _C.FPU, _AB, ("{a} + {b}",)),
    Op.FSUB: Row(None, _C.FPU, _AB, ("{a} - {b}",)),
    Op.FMUL: Row(None, _C.FPU, _AB, ("{a} * {b}",)),
    Op.FDIV: Row(None, _C.FPU_DIV, _AB, ("{a} / {b}",),
                 (("{b} == 0.0", EXC_DIV_BY_ZERO),)),
    Op.IDIV: Row(None, _C.DIV, _AB, (_QUOTIENT,), _DIV_CHECK, wrap=True),
    Op.IREM: Row(None, _C.DIV, _AB, (_REMAINDER,), _DIV_CHECK, wrap=True),
    Op.INEG: Row(None, _C.ALU, ("a",), ("-{a}",), wrap=True),
    Op.ISHL: Row(None, _C.ALU, _AB, ("{a} << ({b} & 63)",), wrap=True),
    Op.ISHR: Row(None, _C.ALU, _AB, ("{a} >> ({b} & 63)",)),
    Op.IAND: Row(None, _C.ALU, _AB, ("{a} & {b}",), wrap=True),
    Op.IOR: Row(None, _C.ALU, _AB, ("{a} | {b}",), wrap=True),
    Op.IXOR: Row(None, _C.ALU, _AB, ("{a} ^ {b}",), wrap=True),
    Op.FNEG: Row(None, _C.FPU, ("a",), ("-{a}",)),
    Op.I2F: Row(None, _C.FPU, ("a",), ("float({a})",)),
    Op.F2I: Row(None, _C.FPU, ("a",), ("int({a})",), _FINITE_CHECK,
                wrap=True),
    Op.FSQRT: Row(None, _C.FPU_MATH, ("a",), ("_sqrt({a})",),
                  (("{a} < 0.0", EXC_DIV_BY_ZERO),)),
    Op.FSIN: Row(None, _C.FPU_MATH, ("a",), ("_sin({a})",), _INFINITE_CHECK),
    Op.FCOS: Row(None, _C.FPU_MATH, ("a",), ("_cos({a})",), _INFINITE_CHECK),
    Op.GLOAD: Row("global", _C.MEM, push=("{G}[{arg}]",), mem=_GLOBAL),
    Op.GSTORE: Row("global", _C.MEM, ("v",), mem=_GLOBAL,
                   put="{G}[{arg}] = {v}"),
    Op.POP: Row(None, _C.MOVE, ("a",)),
    Op.DUP: Row(None, _C.MOVE, ("a",), ("{a}", "{a}")),
    Op.SWAP: Row(None, _C.MOVE, _AB, ("{b}", "{a}")),
    Op.NEWARRAY: Row("kind", _C.ALLOC, ("length",), ("ref",), host=True),
    Op.NEWOBJ: Row("class", _C.ALLOC, push=("ref",), host=True),
    Op.GETFIELD: Row("field", _C.MEM, ("ref",), ("{O}.data[{arg}]",),
                     mem=_FIELD),
    Op.PUTFIELD: Row("field", _C.MEM, ("ref", "v"), mem=_FIELD,
                     put="{O}.data[{arg}] = {v}"),
    # CALL also pops the callee's parameters, NATIVE the native's.
    Op.CALL: Row("func", _C.CALL, host=True),
    Op.RET: Row(None, _C.RET, host=True),
    Op.RETV: Row(None, _C.RET, ("result",), host=True),
    Op.THROW: Row(None, _C.CALL, ("code",), host=True),
    Op.NATIVE: Row("native", _C.NATIVE, host=True),
    Op.HALT: Row(None, _C.CONST, host=True),
    Op.NOP: Row(None, _C.CONST),
}

#: Operand kind per opcode: None, "int", "float", "target", "slot",
#: "global", "kind", "class", "field", "func", "native".
OPERAND_KIND: dict[Op, str | None] = {op: ROWS[op].kind for op in Op}

#: Cycle-cost class per opcode (fed to :class:`repro.hw.cpu.CpuModel`).
OPCODE_COST_CLASS: dict[int, CostClass] = {op: ROWS[op].cost for op in Op}

#: Dense list form of :data:`OPCODE_COST_CLASS` for the interpreter's hot
#: loop — a list index is cheaper than a dict lookup per instruction.
OPCODE_COST_LIST: list[CostClass] = [ROWS[op].cost for op in Op]

#: Opcodes whose operand is a branch target, and the conditional ones.
BRANCH_OPS = frozenset(op for op in Op if ROWS[op].kind == "target")
CONDITIONAL_OPS = frozenset(op for op in Op if ROWS[op].branch)

_NAME_BY_CODE = {op.value: op.name for op in Op}


def opcode_name(code: int) -> str:
    """Human-readable mnemonic for an opcode value."""
    return _NAME_BY_CODE.get(code, f"OP_{code}")


_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def wrap_i64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= _MASK64
    if value & _SIGN_BIT:
        value -= 1 << 64
    return value


def render_wrap(assign: str, expr: str) -> list[str]:
    """Source lines handing ``expr`` wrapped to 64 bits to the ``assign``
    template (``"x = {}"``, ``"s.append({})"``): :func:`wrap_i64`'s
    value, inline and without its call.  A value already in range, the
    common case, costs two comparisons; only one outside it is shifted,
    masked and shifted back through big ints."""
    return [f"_v = {expr}",
            assign.format(f"_v if -{_SIGN_BIT} <= _v < {_SIGN_BIT} else"
                          f" ((_v + {_SIGN_BIT}) & {_MASK64}) - {_SIGN_BIT}")]
