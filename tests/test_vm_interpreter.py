"""Functional tests of the Sanity VM interpreter via assembled programs."""

import pytest

from repro.asm import assemble, disassemble
from repro.errors import GuestError, VMLoadError, VMRuntimeError
from repro.vm import Interpreter, NullPlatform, VmConfig
from repro.vm.heap import HeapConfig
from repro.vm.isa import wrap_i64


def run_program(text, entry="main", max_instructions=2_000_000):
    platform = NullPlatform()
    program = assemble(text, natives=platform, entry=entry)
    vm = Interpreter(program, platform)
    vm.run(max_instructions)
    return platform, vm


def run_expr_int(body):
    """Assemble a main that computes one int and prints it."""
    text = f"""
    .func main 0 4
        {body}
        native print_int
        ret
    """
    platform, _ = run_program(text)
    assert len(platform.printed) == 1
    return platform.printed[0]


class TestArithmetic:
    def test_iadd(self):
        assert run_expr_int("iconst 2\niconst 3\niadd") == 5

    def test_isub(self):
        assert run_expr_int("iconst 2\niconst 3\nisub") == -1

    def test_imul(self):
        assert run_expr_int("iconst -4\niconst 6\nimul") == -24

    def test_idiv_truncates_toward_zero(self):
        assert run_expr_int("iconst -7\niconst 2\nidiv") == -3
        assert run_expr_int("iconst 7\niconst -2\nidiv") == -3

    def test_irem_sign_follows_dividend(self):
        assert run_expr_int("iconst -7\niconst 2\nirem") == -1
        assert run_expr_int("iconst 7\niconst -2\nirem") == 1

    def test_wrapping_overflow(self):
        big = (1 << 62) + 12345
        assert run_expr_int(f"iconst {big}\niconst 4\nimul") == \
            wrap_i64(big * 4)

    def test_ineg(self):
        assert run_expr_int("iconst 9\nineg") == -9

    def test_shifts(self):
        assert run_expr_int("iconst 1\niconst 10\nishl") == 1024
        assert run_expr_int("iconst -8\niconst 1\nishr") == -4
        assert run_expr_int("iconst 5\niconst 65\nishl") == 10  # masked to 1

    def test_bitwise(self):
        assert run_expr_int("iconst 12\niconst 10\niand") == 8
        assert run_expr_int("iconst 12\niconst 10\nior") == 14
        assert run_expr_int("iconst 12\niconst 10\nixor") == 6

    def test_float_ops(self):
        text = """
        .func main 0 1
            fconst 1.5
            fconst 2.25
            fadd
            fconst 0.75
            fsub
            fconst 2.0
            fmul
            fconst 3.0
            fdiv
            native print_float
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed[0] == pytest.approx((1.5 + 2.25 - 0.75) * 2 / 3)

    def test_conversions(self):
        assert run_expr_int("fconst 3.9\nf2i") == 3
        assert run_expr_int("fconst -3.9\nf2i") == -3
        text = """
        .func main 0 1
            iconst 7
            i2f
            native print_float
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed[0] == 7.0

    def test_math_intrinsics(self):
        text = """
        .func main 0 1
            fconst 16.0
            fsqrt
            native print_float
            fconst 0.0
            fsin
            native print_float
            fconst 0.0
            fcos
            native print_float
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed == [4.0, 0.0, 1.0]

    def test_cmp(self):
        assert run_expr_int("iconst 3\niconst 5\ncmp") == -1
        assert run_expr_int("iconst 5\niconst 5\ncmp") == 0
        assert run_expr_int("iconst 7\niconst 5\ncmp") == 1
        assert run_expr_int("fconst 1.5\nfconst 2.5\ncmp") == -1


class TestControlFlow:
    def test_loop_sums(self):
        # sum 1..10
        text = """
        .func main 0 2
            iconst 0
            store 0
            iconst 10
            store 1
        loop:
            load 1
            ifle done
            load 0
            load 1
            iadd
            store 0
            load 1
            iconst 1
            isub
            store 1
            goto loop
        done:
            load 0
            native print_int
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed == [55]

    def test_all_branch_kinds(self):
        for op, value, expected in [
            ("ifeq", 0, 1), ("ifeq", 5, 0),
            ("ifne", 5, 1), ("ifne", 0, 0),
            ("iflt", -1, 1), ("iflt", 0, 0),
            ("ifle", 0, 1), ("ifle", 1, 0),
            ("ifgt", 1, 1), ("ifgt", 0, 0),
            ("ifge", 0, 1), ("ifge", -1, 0),
        ]:
            text = f"""
            .func main 0 1
                iconst {value}
                {op} yes
                iconst 0
                native print_int
                ret
            yes:
                iconst 1
                native print_int
                ret
            """
            platform, _ = run_program(text)
            assert platform.printed == [expected], (op, value)

    def test_stack_manipulation(self):
        assert run_expr_int("iconst 3\ndup\niadd") == 6
        assert run_expr_int("iconst 3\niconst 9\nswap\nisub") == 6
        assert run_expr_int("iconst 3\niconst 9\npop") == 3


class TestCallsAndGlobals:
    def test_call_with_return(self):
        text = """
        .func add2 2 2
            load 0
            load 1
            iadd
            retv
        .func main 0 1
            iconst 20
            iconst 22
            call add2
            native print_int
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed == [42]

    def test_recursion_fib(self):
        text = """
        .func fib 1 1
            load 0
            iconst 2
            cmp
            iflt base
            load 0
            iconst 1
            isub
            call fib
            load 0
            iconst 2
            isub
            call fib
            iadd
            retv
        base:
            load 0
            retv
        .func main 0 1
            iconst 12
            call fib
            native print_int
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed == [144]

    def test_globals(self):
        text = """
        .global counter
        .func bump 0 0
            gload counter
            iconst 1
            iadd
            gstore counter
            ret
        .func main 0 0
            call bump
            call bump
            call bump
            gload counter
            native print_int
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed == [3]

    def test_deep_recursion_overflows(self):
        text = """
        .func spin 1 1
            load 0
            iconst 1
            iadd
            call spin
            retv
        .func main 0 1
            iconst 0
            call spin
            pop
            ret
        """
        with pytest.raises(GuestError) as excinfo:
            run_program(text)
        assert "StackOverflow" in str(excinfo.value)


class TestArraysAndObjects:
    def test_array_roundtrip(self):
        text = """
        .func main 0 2
            iconst 5
            newarray i
            store 0
            load 0
            iconst 2
            iconst 99
            astore
            load 0
            iconst 2
            aload
            native print_int
            load 0
            arraylen
            native print_int
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed == [99, 5]

    def test_float_array_default(self):
        text = """
        .func main 0 1
            iconst 3
            newarray f
            store 0
            load 0
            iconst 0
            aload
            native print_float
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed == [0.0]

    def test_object_fields(self):
        text = """
        .class Point x y
        .func main 0 1
            newobj Point
            store 0
            load 0
            iconst 3
            putfield Point.x
            load 0
            iconst 4
            putfield Point.y
            load 0
            getfield Point.x
            load 0
            getfield Point.y
            iadd
            native print_int
            ret
        """
        platform, _ = run_program(text)
        assert platform.printed == [7]

    def test_index_out_of_bounds_throws(self):
        text = """
        .func main 0 1
            iconst 2
            newarray i
            store 0
            load 0
            iconst 5
            aload
            pop
            ret
        """
        with pytest.raises(GuestError) as excinfo:
            run_program(text)
        assert "IndexOutOfBounds" in str(excinfo.value)

    def test_null_reference_throws(self):
        text = """
        .func main 0 1
            iconst 0
            arraylen
            pop
            ret
        """
        with pytest.raises(GuestError) as excinfo:
            run_program(text)
        assert "NullReference" in str(excinfo.value)


class TestExceptions:
    def test_catch_guest_throw(self):
        text = """
        .func main 0 1
        try_start:
            iconst 7
            throw
        try_end:
            iconst -100
            native print_int
            ret
        handler:
            native print_int
            ret
        .catch try_start try_end handler
        """
        platform, _ = run_program(text)
        assert platform.printed == [7]

    def test_catch_division_by_zero(self):
        text = """
        .func main 0 1
        t0:
            iconst 1
            iconst 0
            idiv
            native print_int
        t1:
            ret
        handler:
            native print_int
            ret
        .catch t0 t1 handler
        """
        platform, _ = run_program(text)
        assert platform.printed == [-1]  # EXC_DIV_BY_ZERO

    def test_exception_unwinds_calls(self):
        text = """
        .func boom 0 0
            iconst 42
            throw
            ret
        .func middle 0 0
            call boom
            ret
        .func main 0 1
        t0:
            call middle
        t1:
            ret
        handler:
            native print_int
            ret
        .catch t0 t1 handler
        """
        platform, _ = run_program(text)
        assert platform.printed == [42]

    def test_uncaught_propagates_as_guest_error(self):
        text = """
        .func main 0 0
            iconst 13
            throw
            ret
        """
        with pytest.raises(GuestError):
            run_program(text)

    def test_nested_handlers_inner_wins(self):
        text = """
        .func main 0 1
        outer_start:
        inner_start:
            iconst 5
            throw
        inner_end:
            ret
        outer_end:
            ret
        inner_h:
            iconst 1
            native print_int
            ret
        outer_h:
            iconst 2
            native print_int
            ret
        .catch inner_start inner_end inner_h
        .catch outer_start outer_end outer_h
        """
        platform, _ = run_program(text)
        assert platform.printed == [1]


class TestThreading:
    def test_round_robin_interleaves_deterministically(self):
        # Two threads each bump a shared global; with deterministic
        # scheduling, the final interleaving is identical across runs.
        def run_once():
            text = """
            .global a
            .func worker 1 2
                iconst 2000
                store 1
            loop:
                load 1
                ifle done
                gload a
                iconst 1
                iadd
                gstore a
                load 1
                iconst 1
                isub
                store 1
                goto loop
            done:
                ret
            .func main 0 0
                iconst 0
                call worker
                gload a
                native print_int
                ret
            """
            platform = NullPlatform()
            program = assemble(text, natives=platform)
            vm = Interpreter(program, platform,
                             VmConfig(thread_quantum=97))
            # Spawn a second copy of worker as a real thread.
            vm.spawn_thread(program.function("worker"), [1])
            vm.run()
            return platform.printed, vm.instruction_count

        first = run_once()
        second = run_once()
        assert first == second

    def test_spawn_thread_arity_check(self):
        text = """
        .func worker 1 1
            ret
        .func main 0 0
            ret
        """
        platform = NullPlatform()
        program = assemble(text, natives=platform)
        vm = Interpreter(program, platform)
        with pytest.raises(VMRuntimeError):
            vm.spawn_thread(program.function("worker"), [])

    def test_all_threads_finish(self):
        text = """
        .func worker 1 1
            ret
        .func main 0 0
            ret
        """
        platform = NullPlatform()
        program = assemble(text, natives=platform)
        vm = Interpreter(program, platform)
        vm.spawn_thread(program.function("worker"), [5])
        vm.run()
        assert vm.live_threads == 0


class TestGarbageCollection:
    def test_gc_reclaims_garbage(self):
        # Allocate many short-lived arrays with a tiny GC threshold.
        text = """
        .func main 0 2
            iconst 300
            store 0
        loop:
            load 0
            ifle done
            iconst 64
            newarray i
            pop
            load 0
            iconst 1
            isub
            store 0
            goto loop
        done:
            ret
        """
        platform = NullPlatform()
        program = assemble(text, natives=platform)
        config = VmConfig(heap=HeapConfig(gc_threshold_bytes=16_384))
        vm = Interpreter(program, platform, config)
        vm.run()
        assert vm.heap.gc_runs > 0
        assert vm.heap.objects_collected > 0

    def test_gc_keeps_reachable_objects(self):
        text = """
        .global keeper
        .func main 0 2
            iconst 8
            newarray i
            dup
            iconst 0
            iconst 777
            astore
            gstore keeper
            iconst 400
            store 0
        loop:
            load 0
            ifle done
            iconst 64
            newarray i
            pop
            load 0
            iconst 1
            isub
            store 0
            goto loop
        done:
            gload keeper
            iconst 0
            aload
            native print_int
            ret
        """
        platform = NullPlatform()
        program = assemble(text, natives=platform)
        config = VmConfig(heap=HeapConfig(gc_threshold_bytes=16_384))
        vm = Interpreter(program, platform, config)
        vm.run()
        assert vm.heap.gc_runs > 0
        assert platform.printed == [777]

    def test_gc_determinism(self):
        def run_once():
            text = """
            .func main 0 2
                iconst 200
                store 0
            loop:
                load 0
                ifle done
                iconst 100
                newarray f
                pop
                load 0
                iconst 1
                isub
                store 0
                goto loop
            done:
                ret
            """
            platform = NullPlatform()
            program = assemble(text, natives=platform)
            config = VmConfig(heap=HeapConfig(gc_threshold_bytes=32_768))
            vm = Interpreter(program, platform, config)
            vm.run()
            return (vm.heap.gc_runs, vm.heap.objects_collected,
                    vm.instruction_count, platform.cycles)

        assert run_once() == run_once()


class TestVmMachinery:
    def test_instruction_count_advances(self):
        _, vm = run_program(".func main 0 0\n    nop\n    nop\n    ret")
        assert vm.instruction_count == 3

    def test_halt_stops_execution(self):
        platform, vm = run_program("""
        .func main 0 0
            halt
            iconst 1
            native print_int
            ret
        """)
        assert platform.printed == []
        assert vm.halted

    def test_max_instructions_limit(self):
        text = """
        .func main 0 0
        loop:
            goto loop
        """
        platform = NullPlatform()
        program = assemble(text, natives=platform)
        vm = Interpreter(program, platform)
        executed = vm.run(max_instructions=500)
        assert executed == 500

    def test_platform_quantum_called(self):
        text = """
        .func main 0 1
            iconst 3000
            store 0
        loop:
            load 0
            ifle done
            load 0
            iconst 1
            isub
            store 0
            goto loop
        done:
            ret
        """
        platform = NullPlatform()
        program = assemble(text, natives=platform)
        vm = Interpreter(program, platform, VmConfig(poll_interval=100))
        vm.run()
        assert platform.quantum_calls > 100

    @pytest.mark.parametrize("field", ("thread_quantum", "poll_interval"))
    @pytest.mark.parametrize("value", (0, -1, -5))
    def test_scheduling_counts_below_one_rejected(self, field, value):
        with pytest.raises(VMLoadError):
            VmConfig(**{field: value})
        assert getattr(VmConfig(**{field: 1}), field) == 1

    def test_implicit_return_at_code_end(self):
        _, vm = run_program(".func main 0 0\n    nop")
        assert vm.live_threads == 0

    def test_operand_stack_underflow_is_host_error(self):
        with pytest.raises(VMRuntimeError):
            run_program(".func main 0 0\n    pop\n    ret")

    def test_entry_function_must_exist(self):
        with pytest.raises(VMLoadError):
            assemble(".func other 0 0\n    ret")

    def test_run_twice_is_safe(self):
        platform, vm = run_program(".func main 0 0\n    ret")
        assert vm.run() == 0


class TestDisassembler:
    def test_roundtrip_reassembles(self):
        text = """
        .class Pair a b
        .global g
        .func helper 1 2
            load 0
            iconst 1
            iadd
            retv
        .func main 0 2
            iconst 5
            call helper
            gstore g
            newobj Pair
            store 0
            load 0
            iconst 9
            putfield Pair.a
        loop:
            gload g
            ifle out
            gload g
            iconst 1
            isub
            gstore g
            goto loop
        out:
            ret
        """
        platform = NullPlatform()
        program = assemble(text, natives=platform)
        listing = disassemble(program)
        assert ".func main" in listing
        assert "putfield" in listing
        # The listing must itself be assemblable (labels are L<pc>).
        program2 = assemble(listing, natives=platform)
        assert program2.function("main").ops == program.function("main").ops
        assert program2.function("main").args == program.function("main").args
