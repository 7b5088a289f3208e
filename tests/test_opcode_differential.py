"""Per-opcode differential property: each compilable opcode, drawn
operands, a compiled trace block against the reference interpreter.

For every opcode the trace compiler accepts, Hypothesis draws operands
(edge values included: 0, +-1, the int64 extremes, +-0.0, large and
non-finite floats, out-of-range indices, null and dangling handles) and
runs one short region holding the opcode three times: as a compiled
block on the batched platform, on the batched platform's interpreter
(the ``REPRO_NO_JIT=1`` path) and on the unbatched reference
(``REPRO_NO_BATCH=1``, which runs on the interpreter too).  The three
runs must leave the same operand stack, locals, globals, heap contents,
thrown code, ``frame.pc``, counters, clock and ledger.

Both tiers render from one opcode row, so a wrong row would make them
agree on a wrong value; every result is also checked against a small
oracle written here, independently of the table.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import compile_app
from repro.core.tdr import play
from repro.machine import MachineConfig
from repro.machine.machine import Machine
from repro.obs import Observability
from repro.vm.heap import KIND_FLOAT_ARRAY, KIND_INT_ARRAY
from repro.vm.interpreter import Interpreter
from repro.vm.isa import (EXC_DIV_BY_ZERO, EXC_INDEX_OUT_OF_BOUNDS,
                          EXC_NULL_REFERENCE, Op, wrap_i64)
from repro.vm.program import ClassDef, ExceptionHandler, Function, Program
from repro.vm.tracejit import _MIN_BLOCK, compile_region
from test_property_minij import _java_div, _java_rem

I64_MIN, I64_MAX = -(2 ** 63), 2 ** 63 - 1
INF = float("inf")
NAN = float("nan")

INTS = st.one_of(st.sampled_from((0, 1, -1, 2, -2, 63, 64, 65, -64,
                                  I64_MIN, I64_MAX, I64_MIN + 1)),
                 st.integers(I64_MIN, I64_MAX))
FINITE = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.5,
                                    1.0e308, -1.0e308, 5e-324, 9.3e18,
                                    -9.3e18, 2.0 ** 63, -(2.0 ** 63))),
                   st.floats(allow_nan=False, allow_infinity=False))
FLOATS = st.one_of(FINITE, st.sampled_from((INF, -INF, NAN)),
                   st.floats())
VALUES = st.one_of(INTS, FLOATS)

#: Locals 0-3 are the LOAD/STORE slots under test; operands loaded from
#: locals sit above them.
SLOTS = 4
GLOBALS = 3
FIELDS = 3
#: Heap handles: 1 an int array of FIELDS elements, 2 an empty float
#: array, 3 a record of FIELDS fields; 0 is null, 4 and -1 dangle.
REFS = st.sampled_from((1, 2, 3, 0, 4, -1))
FIELD_REFS = st.sampled_from((1, 3, 0, 4, -1))
INDICES = st.one_of(st.sampled_from((0, 1, FIELDS - 1, FIELDS, -1,
                                     I64_MIN, I64_MAX)), INTS)


class _Throw(Exception):
    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


def _check(fault: bool, code: int) -> None:
    if fault:
        raise _Throw(code)


def _idiv(a, b):
    _check(b == 0, EXC_DIV_BY_ZERO)
    return _java_div(a, b)


def _irem(a, b):
    _check(b == 0, EXC_DIV_BY_ZERO)
    return _java_rem(a, b)


def _f2i(a):
    _check(math.isnan(a) or math.isinf(a), EXC_DIV_BY_ZERO)
    return wrap_i64(int(a))


def _trig(fn):
    def apply(a):
        _check(math.isinf(a), EXC_DIV_BY_ZERO)
        return fn(a)
    return apply


def _sqrt(a):
    _check(a < 0.0, EXC_DIV_BY_ZERO)
    return math.sqrt(a)


def _fdiv(a, b):
    _check(b == 0.0, EXC_DIV_BY_ZERO)
    return a / b


def _deref(state, ref):
    _check(ref not in state["heap"], EXC_NULL_REFERENCE)
    return state["heap"][ref]


def _element(state, ref, idx):
    data = _deref(state, ref)
    _check(not 0 <= idx < len(data), EXC_INDEX_OUT_OF_BOUNDS)
    return data


def _aload(state, imm, ref, idx):
    return [_element(state, ref, idx)[idx]]


def _astore(state, imm, ref, idx, value):
    _element(state, ref, idx)[idx] = value
    return []


def _putfield(state, imm, ref, value):
    _deref(state, ref)[imm] = value
    return []


def _store(where):
    def apply(state, imm, value):
        state[where][imm] = value
        return []
    return apply


def _pure(fn):
    """An oracle over the operands alone, pushing one value."""
    return lambda state, imm, *operands: [fn(*operands)]


#: opcode -> (operand strategies, bottom first; oracle).  An oracle maps
#: (state, immediate, *operands) to the values pushed, mutating state's
#: locals, globals or heap, or raises _Throw.
SPECS = {
    Op.NOP: ((), lambda state, imm: []),
    Op.ICONST: ((), lambda state, imm: [imm]),
    Op.FCONST: ((), lambda state, imm: [imm]),
    Op.POP: ((VALUES,), lambda state, imm, a: []),
    Op.DUP: ((VALUES,), lambda state, imm, a: [a, a]),
    Op.SWAP: ((VALUES, VALUES), lambda state, imm, a, b: [b, a]),
    Op.LOAD: ((), lambda state, imm: [state["locals"][imm]]),
    Op.STORE: ((VALUES,), _store("locals")),
    Op.GLOAD: ((), lambda state, imm: [state["globals"][imm]]),
    Op.GSTORE: ((VALUES,), _store("globals")),
    Op.IADD: ((INTS, INTS), _pure(lambda a, b: wrap_i64(a + b))),
    Op.ISUB: ((INTS, INTS), _pure(lambda a, b: wrap_i64(a - b))),
    Op.IMUL: ((INTS, INTS), _pure(lambda a, b: wrap_i64(a * b))),
    Op.IDIV: ((INTS, INTS), _pure(_idiv)),
    Op.IREM: ((INTS, INTS), _pure(_irem)),
    Op.INEG: ((INTS,), _pure(lambda a: wrap_i64(-a))),
    Op.ISHL: ((INTS, INTS), _pure(lambda a, b: wrap_i64(a << (b % 64)))),
    Op.ISHR: ((INTS, INTS), _pure(lambda a, b: a >> (b % 64))),
    Op.IAND: ((INTS, INTS), _pure(lambda a, b: a & b)),
    Op.IOR: ((INTS, INTS), _pure(lambda a, b: a | b)),
    Op.IXOR: ((INTS, INTS), _pure(lambda a, b: a ^ b)),
    Op.FADD: ((FLOATS, FLOATS), _pure(lambda a, b: a + b)),
    Op.FSUB: ((FLOATS, FLOATS), _pure(lambda a, b: a - b)),
    Op.FMUL: ((FLOATS, FLOATS), _pure(lambda a, b: a * b)),
    Op.FDIV: ((FLOATS, FLOATS), _pure(_fdiv)),
    Op.FNEG: ((FLOATS,), _pure(lambda a: -a)),
    Op.I2F: ((INTS,), _pure(float)),
    Op.F2I: ((FLOATS,), _pure(_f2i)),
    Op.FSQRT: ((FLOATS,), _pure(_sqrt)),
    Op.FSIN: ((FLOATS,), _pure(_trig(math.sin))),
    Op.FCOS: ((FLOATS,), _pure(_trig(math.cos))),
    Op.CMP: ((VALUES, VALUES),
             _pure(lambda a, b: 1 if a > b else -1 if a < b else 0)),
    Op.ALOAD: ((REFS, INDICES), _aload),
    Op.ASTORE: ((REFS, INDICES, VALUES), _astore),
    Op.ARRAYLEN: ((REFS,),
                  lambda state, imm, ref: [len(_deref(state, ref))]),
    Op.GETFIELD: ((FIELD_REFS,),
                  lambda state, imm, ref: [_deref(state, ref)[imm]]),
    Op.PUTFIELD: ((FIELD_REFS, VALUES), _putfield),
}

#: Conditional branches: the taken test on the popped value.
BRANCHES = {
    Op.IFEQ: lambda v: v == 0, Op.IFNE: lambda v: v != 0,
    Op.IFLT: lambda v: v < 0, Op.IFLE: lambda v: v <= 0,
    Op.IFGT: lambda v: v > 0, Op.IFGE: lambda v: v >= 0,
}

COMPILABLE = [*SPECS, *BRANCHES, Op.GOTO]


def _immediate(draw, op):
    if op is Op.ICONST:
        return draw(INTS)
    if op is Op.FCONST:
        return draw(FLOATS)
    if op in (Op.LOAD, Op.STORE):
        return draw(st.integers(0, SLOTS - 1))
    if op in (Op.GLOAD, Op.GSTORE):
        return draw(st.integers(0, GLOBALS - 1))
    if op in (Op.GETFIELD, Op.PUTFIELD):
        return draw(st.integers(0, FIELDS - 1))
    return None


def _canon(value):
    """A float compares by its bits (-0.0 and NaN included)."""
    return ("f", value.hex()) if isinstance(value, float) else ("i", value)


def _canon_all(values) -> list:
    return [_canon(v) for v in values]


def _layout(op, imm, operands, mode, flavour):
    """(code, head, outcomes): the region under test starts at ``head``.

    Operands come from locals above SLOTS, from constants, or from the
    entry operand stack.  A handler over the whole function lands any
    guest throw on the last HALT.  For a branch, ``outcomes`` maps taken
    to the final pc and the values left pushed.
    """
    push = []
    if mode == "locals":
        push = [(Op.LOAD, SLOTS + i) for i in range(len(operands))]
    elif mode == "consts":
        push = [(Op.FCONST if isinstance(v, float) else Op.ICONST, v)
                for v in operands]
    if op in BRANCHES and flavour == "guard":
        # A forward branch is an in-block guard; the region runs on
        # through the fall-through path to the first HALT.
        end = len(push) + 3
        code = push + [(op, end + 1), (Op.ICONST, 7), (Op.NOP, None),
                       (Op.HALT, None), (Op.HALT, None)]
        return code, 0, {True: (end + 2, []), False: (end + 1, [7])}
    if op in BRANCHES or op is Op.GOTO:
        # A terminator: taken goes back to pc 0, fall-through to the end.
        pad = [(Op.NOP, None)] * max(0, _MIN_BLOCK - 1 - len(push))
        code = [(Op.HALT, None)] + push + pad + [(op, 0), (Op.HALT, None)]
        return code, 1, {True: (1, []), False: (len(code), [])}
    body = push + [(op, imm)]
    body += [(Op.NOP, None)] * max(0, _MIN_BLOCK - len(body))
    return body + [(Op.HALT, None), (Op.HALT, None)], 0, None


def _program(code) -> Program:
    halt = len(code) - 1
    function = Function("main", 0, SLOTS + 3,
                        ops=[int(op) for op, _ in code],
                        args=[arg for _, arg in code],
                        handlers=[ExceptionHandler(0, halt, halt)])
    return Program([function], classes=[ClassDef("R", ["a", "b", "c"])],
                   global_names=[f"g{i}" for i in range(GLOBALS)])


def _initial_state(draw, operands) -> dict:
    """Locals (the operands above SLOTS), globals and heap contents."""
    locals_ = [draw(VALUES) for _ in range(SLOTS)] + list(operands)
    return {
        "locals": locals_ + [0] * (SLOTS + 3 - len(locals_)),
        "globals": [draw(VALUES) for _ in range(GLOBALS)],
        "heap": {1: [draw(INTS) for _ in range(FIELDS)], 2: [],
                 3: [draw(VALUES) for _ in range(FIELDS)]},
    }


def _run(code, head, state, stack, jit: bool, batched: bool) -> dict:
    """Run the program on a fresh machine; return the observables."""
    with pytest.MonkeyPatch.context() as patch:
        for knob, on in (("REPRO_NO_BATCH", batched), ("REPRO_NO_JIT", jit)):
            if on:
                patch.delenv(knob, raising=False)
            else:
                patch.setenv(knob, "1")
        machine = Machine(MachineConfig(), seed=11, mode="play",
                          obs=Observability(trace=False,
                                            sample_opcodes=False))
        program = _program(code)
        vm = Interpreter(program, machine.platform, machine.vm_config())
    heap = vm.heap
    for kind, handle in ((KIND_INT_ARRAY, 1), (KIND_FLOAT_ARRAY, 2)):
        assert heap.new_array(kind, len(state["heap"][handle]))[0] == handle
    assert heap.new_object(0, FIELDS)[0] == 3
    for handle, data in state["heap"].items():
        heap.get(handle).data[:] = data
    thread = vm.threads[0]
    frame = thread.frames[0]
    frame.pc = head
    frame.locals[:] = state["locals"]
    frame.stack[:] = stack
    vm.globals[:] = state["globals"]
    block = None
    if jit:
        function = program.functions[0]
        block = compile_region(function, head, machine.platform)
        assert block is not None
        vm.jit.blocks[0] = [block if pc == head else None
                            for pc in range(len(function.ops))]
        vm.jit._compiled[0] = True
    vm.run(1_000)
    machine.platform.flush_charges()
    if block is not None:
        # The region really ran as a block, to its end or out of a side
        # exit.
        assert block.entries + block.side_exits == 1
    return {
        "stack": _canon_all(frame.stack),
        "locals": _canon_all(frame.locals),
        "globals": _canon_all(vm.globals),
        "heap": [_canon_all(heap.get(h).data) for h in (1, 2, 3)],
        "pc": frame.pc,
        "instructions": vm.instruction_count,
        "executed": thread.executed,
        "cycles": machine.clock.cycles,
        "ledger": machine.ledger.totals(),
    }


def _expected(op, imm, operands, state, code, outcomes, below):
    """What the oracle says the run leaves behind (values and pc)."""
    state = {"locals": list(state["locals"]),
             "globals": list(state["globals"]),
             "heap": {h: list(d) for h, d in state["heap"].items()}}
    halt = len(code) - 1
    if outcomes is not None:
        taken = op is Op.GOTO or BRANCHES[op](operands[0])
        pc, pushed = outcomes[taken]
        stack = below + pushed
    else:
        try:
            stack = below + SPECS[op][1](state, imm, *operands)
            pc = halt
        except _Throw as exc:
            stack, pc = [exc.code], halt + 1
    return {"stack": _canon_all(stack),
            "locals": _canon_all(state["locals"]),
            "globals": _canon_all(state["globals"]),
            "heap": [_canon_all(state["heap"][h]) for h in (1, 2, 3)],
            "pc": pc}


@pytest.mark.parametrize("op", COMPILABLE, ids=lambda op: op.name)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_compiled_block_matches_interpreter_and_oracle(op, data):
    draw = data.draw
    if op in BRANCHES:
        operands = (draw(VALUES),)
    elif op is Op.GOTO:
        operands = ()
    else:
        operands = tuple(draw(s) for s in SPECS[op][0])
    imm = _immediate(draw, op)
    mode = draw(st.sampled_from(("locals", "consts", "stack")))
    below = draw(st.lists(VALUES, max_size=2)) if mode == "stack" else []
    flavour = draw(st.sampled_from(("guard", "terminator")))
    state = _initial_state(draw, operands)
    code, head, outcomes = _layout(op, imm, operands, mode, flavour)
    stack = below + list(operands) if mode == "stack" else []

    runs = {(batched, jit): _run(code, head, state, stack, jit, batched)
            for batched, jit in ((True, True), (True, False), (False, False))}
    assert runs[True, True] == runs[True, False] == runs[False, False]
    expected = _expected(op, imm, operands, state, code, outcomes, below)
    observed = runs[True, False]
    assert {key: observed[key] for key in expected} == expected


#: A hot loop whose compiled blocks meet non-finite operands late:
#: cos/sin of +-inf and ftoi of NaN and +-inf each throw DivisionByZero
#: (-1), which the guest catches; sin and cos of finite values, and
#: ftoi of finite values, keep their results.
NONFINITE_SRC = """
void main() {
    float inf = 1.0e308 * 10.0;
    float nan = inf - inf;
    int caught = 0;
    int codes = 0;
    int n = 0;
    float acc = 0.0;
    int i = 0;
    while (i < 20000) {
        float y = 0.25;
        float z = 2.5;
        if (i == 15000) { y = inf; }
        if (i == 16000) { y = 0.0 - inf; }
        if (i == 17000) { z = nan; }
        if (i == 18000) { z = inf; }
        if (i == 19000) { z = 0.0 - inf; }
        try {
            acc = acc + cos(y) + sin(y);
        } catch (e) {
            caught = caught + 1;
            codes = codes + e;
        }
        try {
            n = n + ftoi(z * 3.0);
        } catch (e) {
            caught = caught + 1;
            codes = codes + e;
        }
        i = i + 1;
    }
    print_int(caught);
    print_int(codes);
    print_int(n);
    print_int(ftoi(acc * 1000.0));
    exit();
}
"""


def test_nonfinite_operands_throw_in_both_tiers(monkeypatch):
    """``cos``/``sin`` of +-inf and ``ftoi`` of NaN or +-inf raise a
    guest DivisionByZero the guest catches, from compiled blocks and
    from the interpreter alike, batched or not."""
    program = compile_app(NONFINITE_SRC)
    monkeypatch.delenv("REPRO_NO_JIT", raising=False)
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    runs = {}
    for knob in (None, "REPRO_NO_JIT", "REPRO_NO_BATCH"):
        with monkeypatch.context() as patch:
            if knob is not None:
                patch.setenv(knob, "1")
            result = play(program, MachineConfig(), seed=0,
                          obs=Observability(trace=False))
        runs[knob] = result.fingerprint()
        if knob is None:
            assert result.jit["entries"] > 0
            assert result.jit["side_exits"] > 0
    assert runs["REPRO_NO_JIT"] == runs[None]
    assert runs["REPRO_NO_BATCH"] == runs[None]
    acc = 0.0
    for i in range(20_000):
        if i not in (15_000, 16_000):
            acc = acc + math.cos(0.25) + math.sin(0.25)
    assert runs[None]["console"] == [5, -5, 7 * 19_997, int(acc * 1000.0)]
