"""Opcode sampling in the interpreter hot loop.

A full per-instruction opcode trace would dominate the simulation's host
runtime, so the profiler samples instead: the interpreter calls
:meth:`OpcodeSampler.record` with the current opcode once every
``stride`` executed instructions (it piggybacks on the platform poll,
``Interpreter.poll``, so the disabled cost is a single ``is None`` check
per poll, not per instruction).  Under the deterministic round-robin
scheduler the sample points are identical across runs of the same
program, so sampled histograms are reproducible, and — like every
``repro.obs`` collector — sampling never touches the virtual clock.

Since the trace-compiling tier-up, samples carry their *site* — the
``(function, pc)`` pair — not just the bare opcode, so hot-region
detection can reconstruct which bytecode ranges the samples landed in.
The aggregate opcode histogram (and its export shape) is unchanged;
site-resolved data rides alongside under an export ``version`` field.
"""

from __future__ import annotations


class OpcodeSampler:
    """Sampled opcode frequencies (and sample sites) for one machine run."""

    #: Export-shape version: 1 was the bare opcode histogram; 2 added
    #: site-resolved samples (``sites``) while keeping every v1 field.
    EXPORT_VERSION = 2

    __slots__ = ("stride", "counts", "sites")

    def __init__(self, stride: int = 256) -> None:
        #: Instructions between samples (the VM's poll interval).
        self.stride = stride
        #: Raw opcode value -> number of samples.
        self.counts: dict[int, int] = {}
        #: (function index, pc, raw opcode) -> number of samples.  Callers
        #: that record without a site (the v1 API) leave this empty.
        self.sites: dict[tuple[int, int, int], int] = {}

    def record(self, op: int, function: int = -1, pc: int = -1) -> None:
        """Count one sampled opcode, optionally with its site (hot path)."""
        counts = self.counts
        counts[op] = counts.get(op, 0) + 1
        if pc >= 0:
            sites = self.sites
            key = (function, pc, op)
            sites[key] = sites.get(key, 0) + 1

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def histogram(self) -> dict[str, int]:
        """Opcode-name histogram, most frequent first.

        Uses the same :func:`~repro.vm.isa.opcode_name` mnemonics as the
        site export (``OP_<code>`` for unknown opcodes), so histogram
        keys and ``sites[*]["op"]`` values round-trip through one parser.
        """
        from repro.vm.isa import opcode_name  # deferred: obs stays light

        return {opcode_name(op): count
                for op, count in sorted(self.counts.items(),
                                        key=lambda kv: (-kv[1], kv[0]))}

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` most frequently sampled opcodes."""
        return list(self.histogram().items())[:n]

    def hot_sites(self, n: int = 10) -> list[tuple[int, int, int]]:
        """The ``n`` most-sampled ``(function, pc)`` sites.

        Opcode splits at one site are merged; ties break on (function,
        pc) so the ranking is deterministic.
        """
        merged: dict[tuple[int, int], int] = {}
        for (function, pc, _op), count in self.sites.items():
            key = (function, pc)
            merged[key] = merged.get(key, 0) + count
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(function, pc, count)
                for (function, pc), count in ranked[:n]]

    def estimated_instructions(self) -> int:
        """Instructions represented by the samples (samples * stride)."""
        return self.samples * self.stride

    def export(self) -> dict:
        """JSON-ready snapshot; v1 consumers read the same top-level keys.

        ``version``/``sites`` are additive: ``stride``, ``samples`` and
        ``histogram`` keep their v1 meaning and shape exactly.
        """
        from repro.vm.isa import opcode_name

        return {
            "version": self.EXPORT_VERSION,
            "stride": self.stride,
            "samples": self.samples,
            "histogram": self.histogram(),
            "sites": [
                {"function": function, "pc": pc,
                 "op": opcode_name(op), "count": count}
                for (function, pc, op), count in sorted(self.sites.items())
            ],
        }

    @classmethod
    def from_export(cls, data: dict) -> "OpcodeSampler":
        """Rebuild a sampler from an :meth:`export` snapshot.

        The inverse of :meth:`export` for both v1 (histogram only) and
        v2 (``sites``) shapes: mnemonics parse back to raw opcode
        values — including the ``OP_<code>`` names of opcodes without
        a mnemonic — so
        ``OpcodeSampler.from_export(s.export()).export() == s.export()``
        holds exactly.  Raises :class:`ObservabilityError` on a
        mnemonic no parser recognizes.
        """
        from repro.errors import ObservabilityError
        from repro.vm.isa import Op

        def code_of(name: str) -> int:
            try:
                return int(Op[name])
            except KeyError:
                if name.startswith("OP_") and name[3:].isdigit():
                    return int(name[3:])
                raise ObservabilityError(
                    f"unknown opcode mnemonic in sampler export: {name!r}")

        sampler = cls(stride=int(data.get("stride", 256)))
        for name, count in data.get("histogram", {}).items():
            op = code_of(name)
            sampler.counts[op] = sampler.counts.get(op, 0) + int(count)
        for site in data.get("sites", ()):
            key = (int(site["function"]), int(site["pc"]),
                   code_of(site["op"]))
            sampler.sites[key] = sampler.sites.get(key, 0) + \
                int(site["count"])
        return sampler
