"""Loaded program representation: functions, classes, globals.

A :class:`Program` is what the assembler (:mod:`repro.asm`) or the MiniJ
compiler (:mod:`repro.lang`) produces and what the interpreter executes.
Code is stored as two parallel lists per function (opcodes and operands),
which keeps the interpreter's dispatch loop cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import VMLoadError
from repro.vm.isa import BRANCH_OPS, CONDITIONAL_OPS, OPERAND_KIND, Op


@dataclass(frozen=True)
class ExceptionHandler:
    """One entry of a function's exception table.

    Covers pcs in ``[start_pc, end_pc)``; on an in-range throw, control
    transfers to ``handler_pc`` with the exception code pushed.
    """

    start_pc: int
    end_pc: int
    handler_pc: int


@dataclass
class Function:
    """One compiled function."""

    name: str
    num_params: int
    num_locals: int          # includes parameter slots
    ops: list[int] = field(default_factory=list)
    args: list = field(default_factory=list)
    handlers: list[ExceptionHandler] = field(default_factory=list)
    index: int = -1          # assigned at link time

    def __post_init__(self) -> None:
        if self.num_params < 0 or self.num_locals < self.num_params:
            raise VMLoadError(
                f"function '{self.name}': invalid slot counts "
                f"(params={self.num_params}, locals={self.num_locals})")

    def __getstate__(self) -> dict:
        # The trace compiler memoizes compiled-region artifacts (code
        # objects) on the instance; code objects cannot pickle and the
        # cache is a pure in-process accelerator, so drop it.
        state = dict(self.__dict__)
        state.pop("_tracejit_cache", None)
        return state

    @property
    def code_length(self) -> int:
        return len(self.ops)

    def find_handler(self, pc: int) -> ExceptionHandler | None:
        """First exception-table entry covering ``pc``, if any."""
        for handler in self.handlers:
            if handler.start_pc <= pc < handler.end_pc:
                return handler
        return None

    def region_heads(self) -> list[int]:
        """Candidate entry pcs for straight-line region compilation.

        A head is any pc control can *jump* to: the function entry,
        every branch target (loop heads are backward-branch targets),
        the fall-through successor of each conditional branch, the
        return point after each CALL, and each exception handler.  Code
        between consecutive heads is only ever entered at the top, so a
        region compiler may fuse it into one superinstruction.
        """
        length = len(self.ops)
        heads = {0}
        for pc, (op, arg) in enumerate(zip(self.ops, self.args)):
            if op in BRANCH_OPS:
                heads.add(arg)
            if op in CONDITIONAL_OPS or op == Op.CALL or op == Op.NATIVE:
                heads.add(pc + 1)
        for handler in self.handlers:
            heads.add(handler.handler_pc)
        return sorted(h for h in heads if 0 <= h < length)


@dataclass
class ClassDef:
    """A record type: named fields laid out at consecutive offsets."""

    name: str
    fields: list[str]
    index: int = -1

    def field_offset(self, name: str) -> int:
        try:
            return self.fields.index(name)
        except ValueError:
            raise VMLoadError(
                f"class '{self.name}' has no field '{name}'") from None

    @property
    def size_slots(self) -> int:
        return len(self.fields)


class Program:
    """A linked program: functions + classes + globals, ready to run."""

    def __init__(self, functions: list[Function],
                 classes: list[ClassDef] | None = None,
                 global_names: list[str] | None = None,
                 entry: str = "main") -> None:
        if not functions:
            raise VMLoadError("a program needs at least one function")
        self.functions = functions
        self.classes = classes or []
        self.global_names = global_names or []
        self.entry = entry
        self._func_by_name: dict[str, Function] = {}
        for idx, function in enumerate(functions):
            if function.name in self._func_by_name:
                raise VMLoadError(f"duplicate function '{function.name}'")
            function.index = idx
            self._func_by_name[function.name] = function
        for idx, class_def in enumerate(self.classes):
            class_def.index = idx
        if entry not in self._func_by_name:
            raise VMLoadError(f"entry function '{entry}' not defined")
        if self._func_by_name[entry].num_params != 0:
            raise VMLoadError(f"entry function '{entry}' must take no "
                              "parameters")
        self._validate()

    def function(self, name: str) -> Function:
        """Look up a function by name."""
        try:
            return self._func_by_name[name]
        except KeyError:
            raise VMLoadError(f"undefined function '{name}'") from None

    @property
    def entry_function(self) -> Function:
        return self._func_by_name[self.entry]

    @property
    def num_globals(self) -> int:
        return len(self.global_names)

    def _validate(self) -> None:
        """Static checks: operands in range for their kind, handlers."""
        for function in self.functions:
            length = function.code_length
            if len(function.args) != length:
                raise VMLoadError(
                    f"function '{function.name}': ops/args length mismatch")
            # Operand kind -> (what the operand names, its bound).
            bounds = {"target": ("branch target", length),
                      "func": ("call index", len(self.functions)),
                      "slot": ("local slot", function.num_locals),
                      "global": ("global", self.num_globals),
                      "class": ("class", len(self.classes))}
            for pc, (op, arg) in enumerate(zip(function.ops, function.args)):
                what, bound = bounds.get(OPERAND_KIND.get(op), (None, 0))
                if what is not None and not 0 <= arg < bound:
                    raise VMLoadError(
                        f"function '{function.name}' pc={pc}: {what} "
                        f"{arg} out of range")
            for handler in function.handlers:
                if not (0 <= handler.start_pc <= handler.end_pc <= length
                        and 0 <= handler.handler_pc < length):
                    raise VMLoadError(
                        f"function '{function.name}': bad handler range "
                        f"{handler}")

    def total_instructions(self) -> int:
        """Static code size across functions (for reporting)."""
        return sum(f.code_length for f in self.functions)
