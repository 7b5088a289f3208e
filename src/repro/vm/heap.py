"""Guest heap with a deterministic mark-and-sweep garbage collector.

§3.6: "During execution, no memory pages are allocated or released on the
TC; the JVM performs its own memory management via garbage collection.
Garbage collection is not a source of time noise, as long as it is itself
deterministic."

Our GC is deterministic by construction: it triggers at a fixed allocated-
bytes threshold, scans roots in a fixed order, and charges a cost that is a
pure function of the number of objects scanned and bytes swept.  Heap
objects carry stable virtual addresses from a bump allocator so array and
field accesses feed the cache model with reproducible addresses; addresses
are never reused (the virtual address space is large and free), which keeps
the address stream identical whether or not a GC happened to reclaim the
handle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import VMRuntimeError
from repro.vm.isa import EXC_OUT_OF_MEMORY

#: Heap virtual addresses start here (see the machine memory map).
HEAP_BASE = 0x1000_0000
_WORD = 8

KIND_INT_ARRAY = 0
KIND_FLOAT_ARRAY = 1
KIND_OBJECT = 2


@dataclass(frozen=True)
class HeapConfig:
    """Allocation limits and GC cost coefficients."""

    max_heap_bytes: int = 64 * 1024 * 1024
    gc_threshold_bytes: int = 8 * 1024 * 1024
    gc_base_cycles: int = 20_000
    gc_cycles_per_live_object: int = 40
    gc_cycles_per_swept_byte: int = 1


class HeapObject:
    """One heap allocation: an array or a record."""

    __slots__ = ("kind", "data", "vaddr", "size_bytes", "class_index", "marked")

    def __init__(self, kind: int, data: list, vaddr: int,
                 size_bytes: int, class_index: int = -1) -> None:
        self.kind = kind
        self.data = data
        self.vaddr = vaddr
        self.size_bytes = size_bytes
        self.class_index = class_index
        self.marked = False


class GuestThrow(Exception):
    """Internal control-flow signal: the guest raised exception ``code``.

    The interpreter catches this and walks the exception tables; it is not
    part of the public API.
    """

    def __init__(self, code: int) -> None:
        self.code = code
        super().__init__(f"guest exception {code}")


class Heap:
    """Handle-based guest heap.

    References are positive integers indexing ``_objects``; 0 is null.
    Handles of collected objects become ``None`` entries; the allocator
    never reuses handles, so a dangling reference is detected rather than
    silently aliased.
    """

    def __init__(self, config: HeapConfig | None = None,
                 base: int = HEAP_BASE) -> None:
        self.config = config or HeapConfig()
        self._objects: list[HeapObject | None] = [None]  # index 0 = null
        # ``base`` lets the executive give each guest process its own heap
        # arena (disjoint virtual addresses, so cross-process cache
        # behaviour matches distinct physical frames).
        self._bump = base
        self.allocated_bytes = 0
        self.live_bytes = 0
        self.bytes_since_gc = 0
        self.gc_runs = 0
        self.objects_collected = 0

    # -- allocation --------------------------------------------------------

    def _allocate(self, kind: int, data: list, size_bytes: int,
                  class_index: int = -1) -> tuple[int, bool]:
        """Returns (handle, gc_wanted)."""
        if self.live_bytes + size_bytes > self.config.max_heap_bytes:
            raise GuestThrow(EXC_OUT_OF_MEMORY)
        obj = HeapObject(kind, data, self._bump, size_bytes, class_index)
        # Bump by the rounded size so every object begins on a word boundary.
        self._bump += (size_bytes + _WORD - 1) & ~(_WORD - 1)
        self._objects.append(obj)
        handle = len(self._objects) - 1
        self.allocated_bytes += size_bytes
        self.live_bytes += size_bytes
        self.bytes_since_gc += size_bytes
        gc_wanted = self.bytes_since_gc >= self.config.gc_threshold_bytes
        return handle, gc_wanted

    def new_array(self, kind: int, length: int) -> tuple[int, bool]:
        """Allocate an int or float array of ``length`` elements."""
        if length < 0:
            raise VMRuntimeError(f"negative array length {length}")
        fill = 0 if kind == KIND_INT_ARRAY else 0.0
        return self._allocate(kind, [fill] * length, 16 + length * _WORD)

    def new_object(self, class_index: int, num_fields: int) -> tuple[int, bool]:
        """Allocate a record with ``num_fields`` zeroed slots."""
        return self._allocate(KIND_OBJECT, [0] * num_fields,
                              16 + num_fields * _WORD, class_index)

    # -- access ------------------------------------------------------------

    def get(self, handle: int) -> HeapObject:
        """Dereference a handle; raises on null or dangling references."""
        if handle <= 0 or handle >= len(self._objects):
            raise GuestThrow(-3)  # EXC_NULL_REFERENCE
        obj = self._objects[handle]
        if obj is None:
            raise VMRuntimeError(
                f"dangling reference {handle} (collected object)")
        return obj

    # -- garbage collection --------------------------------------------------

    def collect(self, roots: list[int]) -> int:
        """Mark-and-sweep from ``roots``; returns the deterministic cost.

        Our object graphs are flat by construction at the *reference* level
        only through record fields and array-of-ref is not a first-class
        type, but record fields may hold handles; we conservatively treat
        every integer field value that is a valid live handle as a
        reference.  (The MiniJ compiler only stores references it created,
        so conservatism costs nothing in practice and keeps the collector
        simple and deterministic.)
        """
        cfg = self.config
        # Mark.
        stack = [r for r in roots if 0 < r < len(self._objects)
                 and self._objects[r] is not None]
        scanned = 0
        while stack:
            handle = stack.pop()
            obj = self._objects[handle]
            if obj is None or obj.marked:
                continue
            obj.marked = True
            scanned += 1
            if obj.kind == KIND_OBJECT:
                for value in obj.data:
                    if (isinstance(value, int) and 0 < value
                            < len(self._objects)
                            and self._objects[value] is not None
                            and not self._objects[value].marked):
                        stack.append(value)
        # Sweep.
        swept_bytes = 0
        for idx in range(1, len(self._objects)):
            obj = self._objects[idx]
            if obj is None:
                continue
            if obj.marked:
                obj.marked = False
            else:
                swept_bytes += obj.size_bytes
                self.live_bytes -= obj.size_bytes
                self.objects_collected += 1
                self._objects[idx] = None
        self.gc_runs += 1
        self.bytes_since_gc = 0
        return (cfg.gc_base_cycles
                + cfg.gc_cycles_per_live_object * scanned
                + cfg.gc_cycles_per_swept_byte * swept_bytes)
