"""The opcode table and the code both tiers render from it.

Assertions on rendered text, one per construct: the interpreter's
dispatch ladder (``repro.vm.interpreter.RUN_SOURCE``) and a compiled
block's source (``_build_region``'s artifact).  Plus a deterministic
work-count gate on the rendered ladder: the Python calls ``run`` makes,
and a property of both tiers' rendered 64-bit wrap.
"""

from __future__ import annotations

import functools
import re
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import build_kernel_program
from repro.core.tdr import play
from repro.machine import MachineConfig
from repro.machine.machine import Machine
from repro.vm import interpreter
from repro.vm.interpreter import Interpreter, render_ladder
from repro.vm.isa import ROWS, Op, wrap_i64
from repro.vm.program import Function
from repro.vm.tracejit import _build_region, compile_region


def _arms() -> dict[int, list[str]]:
    """opcode -> the body lines of its ladder arm."""
    arms: dict[int, list[str]] = {}
    body: list[str] = []
    for line in render_ladder():
        if line.startswith(("if ", "elif ", "else:")):
            body = []
            for low, high in re.findall(r"(\d+) <= op <= (\d+)", line):
                for op in range(int(low), int(high) + 1):
                    arms[op] = body
            for op in re.findall(r"op == (\d+)", line):
                arms[int(op)] = body
        else:
            body.append(line.strip())
    return arms


def test_ladder_tests_the_opcodes_in_the_table_order():
    tested = []
    for line in render_ladder():
        if line.startswith(("if ", "elif ")):
            for low, high, single in re.findall(
                    r"(\d+) <= op <= (\d+)|op == (\d+)", line):
                tested += (range(int(low), int(high) + 1) if low
                           else [int(single)])
    assert tested == [int(op) for op in ROWS]
    assert sorted(tested) == [int(op) for op in Op]


def test_iadd_arm_updates_the_top_in_place_without_a_call():
    arm = _arms()[Op.IADD]
    assert arm[-1].startswith("stack[-1] = ")
    # The only call is the pop of the top operand: the 64-bit wrap is
    # inline.
    assert re.findall(r"([\w.]+)\(", "\n".join(arm)) == ["stack.pop"]


def _aload_function() -> Function:
    code = [(Op.LOAD, 0), (Op.LOAD, 1), (Op.ALOAD, None), (Op.STORE, 1),
            (Op.HALT, None)]
    function = Function("f", 0, 2, ops=[int(op) for op, _ in code],
                        args=[arg for _, arg in code])
    function.index = 0
    return function


def test_aload_bounds_check_precedes_its_access_in_both_tiers(monkeypatch):
    arm = _arms()[Op.ALOAD]
    assert arm.index("raise GuestThrow(-2)") < \
        next(i for i, line in enumerate(arm) if line.startswith("mem("))

    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    platform = Machine(MachineConfig(), seed=0, mode="play").platform
    source = _build_region(_aload_function(), 0, platform)["source"]
    assert 0 < source.index("raise _GT(-2)") < \
        source.index("_o.vaddr + 16 + ")


#: Ints at and around the edges of the 64-bit range, of the 64-bit mask
#: and of a 128-bit product, of both signs, and 0 and -1.
WRAP_EDGES = sorted({sign * (1 << bits) + delta for bits in (63, 64, 127)
                     for sign in (1, -1) for delta in (-2, -1, 0, 1, 2)}
                    | {0, -1})


@functools.cache
def _iadd_tiers():
    """Both tiers' IADD: the interpreter's arm and a compiled block of
    ``IADD, NOP, NOP`` on a batched machine's platform."""
    code = [(Op.IADD, None), (Op.NOP, None), (Op.NOP, None),
            (Op.HALT, None)]
    function = Function("f", 0, 0, ops=[int(op) for op, _ in code],
                        args=[arg for _, arg in code])
    function.index = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_NO_BATCH", raising=False)
        platform = Machine(MachineConfig(), seed=0, mode="play").platform
    block = compile_region(function, 0, platform)
    return compile("\n".join(_arms()[Op.IADD]), "<arm>", "exec"), block


def _wrap_edges(test):
    for value in WRAP_EDGES:
        test = example(value=value)(test)
    return test


@settings(max_examples=300, deadline=None)
@_wrap_edges
@given(value=st.integers())
def test_both_tiers_wrap_like_wrap_i64(value):
    """Both tiers' rendered wrap (``render_wrap``) of ``value + 0``
    equals :func:`wrap_i64`, at the edges of its range test and
    anywhere else."""
    arm, block = _iadd_tiers()
    stack = [value, 0]
    exec(arm, {"stack": stack})  # noqa: S102
    frame = SimpleNamespace(stack=[value, 0], pc=0)
    block.run(SimpleNamespace(instruction_count=0),
              SimpleNamespace(executed=0), frame, block.n)
    assert stack == frame.stack == [wrap_i64(value)]


def test_run_is_one_function_compiled_under_the_module_filename():
    code = Interpreter.run.__code__
    assert code.co_filename == interpreter.__file__
    assert code.co_name == "run"
    assert "if op == 6:" in interpreter.RUN_SOURCE


#: The Python calls the parent's ladder made from ``run`` on a warm
#: second play (seed 3), with the instructions of that play.
CALL_GATES = [
    ("sor", {"n": 16, "iterations": 4}, True, 15_157, 47_815),
    ("sor", {"n": 16, "iterations": 4}, False, 86_048, 47_815),
    ("lu", {"n": 12}, True, 6_977, 26_284),
    ("lu", {"n": 12}, False, 47_729, 26_284),
]


@pytest.mark.parametrize("kernel,params,jit,limit,instructions",
                         CALL_GATES,
                         ids=[f"{k}-{'jit' if j else 'nojit'}"
                              for k, _, j, _, _ in CALL_GATES])
def test_run_makes_no_more_calls_than_before(monkeypatch, kernel, params,
                                             jit, limit, instructions):
    """Python calls made directly from ``Interpreter.run``'s frame (the
    platform fast paths, heap lookups, block runs, polls) on a warm
    second play."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    if jit:
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_JIT", "1")
    program = build_kernel_program(kernel, **params)
    play(program, MachineConfig(), seed=3)
    run_code = Interpreter.run.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_back is not None \
                and frame.f_back.f_code is run_code:
            calls += 1

    sys.setprofile(count)
    try:
        result = play(program, MachineConfig(), seed=3)
    finally:
        sys.setprofile(None)
    assert result.instructions == instructions
    assert calls <= limit
