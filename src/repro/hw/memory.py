"""Physical memory, frame allocation, and virtual→physical translation.

Section 3.6 of the paper: "even if the TC has the same virtual memory layout
during play and replay, the pages could still be backed by different
physical frames, which could lead to different conflicts in physically-
indexed caches.  To prevent this, Sanity deterministically chooses the
frames that will be mapped to the TC's address space."

:class:`FrameAllocator` therefore supports two modes:

* ``deterministic=True`` — frames are handed out in a fixed sequence
  (Sanity's reserved-frame kernel module, §4.2);
* ``deterministic=False`` — frames are drawn pseudo-randomly per execution,
  modelling an ordinary OS allocator; this perturbs physically-indexed
  cache behaviour between runs.
"""

from __future__ import annotations

from repro.determinism import SplitMix64, ZeroNoise
from repro.errors import HardwareConfigError

PAGE_SIZE = 4096


class FrameAllocator:
    """Hands out physical frames to back guest virtual pages.

    Frames come from ``_order`` at a cursor: the ``range`` itself in the
    deterministic mode (no per-frame list is built), or one list
    shuffled once per execution in the pseudo-random mode.
    """

    def __init__(self, num_frames: int, deterministic: bool,
                 noise_rng: SplitMix64 | ZeroNoise) -> None:
        if num_frames <= 0:
            raise HardwareConfigError(f"need at least one frame: {num_frames}")
        self.num_frames = num_frames
        self.deterministic = deterministic
        self._rng = noise_rng
        self._order: range | list[int] = range(num_frames)
        self._cursor = 0
        if not deterministic and isinstance(noise_rng, SplitMix64):
            # A fresh shuffle per execution models OS allocator randomness.
            self._order = list(self._order)
            noise_rng.shuffle(self._order)

    def allocate(self) -> int:
        """Return the next physical frame number."""
        cursor = self._cursor
        if cursor == self.num_frames:
            raise HardwareConfigError("out of physical frames")
        self._cursor = cursor + 1
        return self._order[cursor]

    @property
    def frames_remaining(self) -> int:
        return self.num_frames - self._cursor


class AddressSpace:
    """Flat virtual address space with on-demand frame backing.

    The guest VM allocates virtual addresses linearly (code region, stack
    region, heap region); translation assigns a physical frame to each
    virtual page the first time it is touched.  Translation feeds the
    physically-indexed caches, so the frame choice matters for timing.
    """

    def __init__(self, allocator: FrameAllocator,
                 page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise HardwareConfigError(
                f"page size must be a positive power of two: {page_size}")
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self._allocator = allocator
        self._page_table: dict[int, int] = {}

    def translate(self, vaddr: int) -> int:
        """Translate a virtual address to a physical address."""
        vpn = vaddr >> self._page_shift
        pfn = self._page_table.get(vpn)
        if pfn is None:
            pfn = self._allocator.allocate()
            self._page_table[vpn] = pfn
        return (pfn << self._page_shift) | (vaddr & (self.page_size - 1))

    def vpn_of(self, vaddr: int) -> int:
        """Virtual page number containing ``vaddr`` (for the TLB)."""
        return vaddr >> self._page_shift

    @property
    def mapped_pages(self) -> int:
        return len(self._page_table)

    def mapping_fingerprint(self) -> int:
        """Digest of the page table (used in determinism tests)."""
        from repro.determinism import mix64

        acc = 0
        for vpn in sorted(self._page_table):
            acc = mix64(acc ^ (vpn * 2654435761 + self._page_table[vpn]))
        return acc
