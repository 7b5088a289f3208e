"""Module-to-layer map and the fold of a cProfile run into layer numbers.

Every function that cProfile reports is identified as ``module:function``:
``repro.machine.platform:mem_access`` for repository code, the filename
itself for generated code (``<tracejit fft+12>:_block``), ``tdrbench.*``
for this benchmark's own harness.  :data:`RULES` assigns each repository
function to exactly one layer; :func:`check_map` refuses a profile in
which some ``repro.*`` or generated function matches no layer or more
than one.

Functions outside the repository (builtins, the standard library) have no
layer of their own.  Their self time is handed to their callers, split by
the time each caller edge spent in them, and climbs through further
non-repository callers until it reaches a mapped function.  Time with no
mapped ancestor lands in ``other``.  The per-layer self times therefore
add up to the profiled total by construction; :func:`fold` still checks it.
"""

from __future__ import annotations

import os
from collections import defaultdict
from fnmatch import fnmatchcase

#: (layer, include patterns, exclude patterns) over ``module:function``.
#: A layer may own several rules; what must be unique is the layer.
RULES: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = [
    ("vm.interp", ("repro.vm:*", "repro.vm.interpreter:*", "repro.vm.heap:*",
                   "repro.vm.isa:*", "repro.vm.natives:*",
                   "repro.vm.program:*", "repro.vm.platform:*"), ()),
    ("vm.jit", ("<tracejit *:*", "repro.vm.tracejit:*"), ()),
    ("machine.idle", ("repro.machine.platform:_native_wait_packet",
                      "repro.machine.platform:_try_recv",
                      "repro.machine.machine:service_world"), ()),
    ("machine.natives", ("repro.machine.platform:_native_*",
                         "repro.machine.platform:_exec",
                         "repro.machine.natives:*"),
     ("repro.machine.platform:_native_wait_packet",)),
    ("machine.charging", ("repro.machine.platform:*",),
     ("repro.machine.platform:_native_*", "repro.machine.platform:_exec",
      "repro.machine.platform:_try_recv")),
    ("machine.core", ("repro.machine:*", "repro.machine.*:*"),
     ("repro.machine.platform:*", "repro.machine.natives:*",
      "repro.machine.machine:service_world")),
    ("hw", ("repro.hw:*", "repro.hw.*:*"), ()),
    ("determinism", ("repro.determinism:*",), ()),
    ("core.session", ("repro.core.session:*", "repro.core.symmetric:*"), ()),
    ("core.log", ("repro.core.log:*",), ()),
    ("core.audit", ("repro.core:*", "repro.core.audit:*", "repro.core.tdr:*",
                    "repro.core.resilience:*"), ()),
    ("core.attestation", ("repro.core.attestation:*",), ()),
    ("core.replay_cache", ("repro.core.replay_cache:*",), ()),
    ("core.segments", ("repro.core.segments:*", "repro.core.checkpoint:*"),
     ()),
    ("service", ("repro.service:*", "repro.service.*:*"), ()),
    ("analysis.parallel", ("repro.analysis.parallel:*",), ()),
    ("analysis", ("repro.analysis:*", "repro.analysis.*:*"),
     ("repro.analysis.parallel:*",)),
    ("exec", ("repro.exec:*", "repro.exec.*:*"), ()),
    ("lang", ("repro.lang:*", "repro.lang.*:*", "repro.asm:*",
              "repro.asm.*:*"), ()),
    ("apps", ("repro.apps:*", "repro.apps.*:*"), ()),
    ("obs", ("repro.obs:*", "repro.obs.*:*"), ()),
    ("channels", ("repro.channels:*", "repro.channels.*:*",
                  "repro.detectors:*", "repro.detectors.*:*"), ()),
    ("faults", ("repro.faults:*", "repro.faults.*:*"), ()),
    ("net", ("repro.net:*", "repro.net.*:*"), ()),
    ("misc", ("repro:*", "repro.errors:*", "repro.tools:*",
              "repro.tools.*:*"), ()),
    ("bench", ("tdrbench.*:*",), ()),
]

#: Layers in report order, plus the sink for time with no mapped caller.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in RULES)) + ("other",)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PREFIXES = ((os.path.join(_ROOT, "src") + os.sep, ""),
             (os.path.join(_ROOT, "tdrbench") + os.sep, "tdrbench."))


class LayerMapError(Exception):
    """A repository function maps to no layer, or to more than one."""


def qualname(key: tuple) -> str | None:
    """``module:function`` for a profile key, or None outside the repo."""
    filename, _, function = key
    if filename.startswith("<tracejit "):
        return f"{filename}:{function}"
    path = os.path.abspath(filename) if filename[:1] not in ("~", "<") \
        else filename
    for prefix, package in _PREFIXES:
        if path.startswith(prefix):
            module = path[len(prefix):-len(".py")].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            return f"{package}{module}:{function}"
    return None


def layers_of(name: str) -> set[str]:
    """Every layer whose rules claim ``name``."""
    return {layer for layer, include, exclude in RULES
            if any(fnmatchcase(name, p) for p in include)
            and not any(fnmatchcase(name, p) for p in exclude)}


def check_map(keys) -> dict[tuple, str | None]:
    """Classify profile keys; raise if a repo function is not mapped once."""
    out: dict[tuple, str | None] = {}
    bad = []
    for key in keys:
        name = qualname(key)
        if name is None:
            out[key] = None
            continue
        found = layers_of(name)
        if len(found) != 1:
            bad.append(f"{name} -> {sorted(found) or 'no layer'}")
            continue
        out[key] = found.pop()
    if bad:
        raise LayerMapError("layer map is not a partition:\n  "
                            + "\n  ".join(sorted(bad)))
    return out


class Fold:
    """One profile folded by layer: self seconds, calls, and lookups."""

    def __init__(self, stats: dict) -> None:
        self.stats = stats
        self.layer = check_map(stats)
        self.by_name = {}
        for key, row in stats.items():
            name = qualname(key)
            if name is not None:
                self.by_name.setdefault(name, []).append(row)
        self._shares: dict[tuple, dict[str, float]] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        for key, (_, nc, tt, _, _) in stats.items():
            layer = self.layer[key]
            if layer is not None:
                self.self_s[layer] += tt
                self.calls[layer] += nc
            else:
                for owner, weight in self._owners(key, ()).items():
                    self.self_s[owner] += tt * weight
        self.total_s = sum(row[2] for row in stats.values())
        folded = sum(self.self_s.values())
        if abs(folded - self.total_s) > 0.01 * max(self.total_s, 1e-9):
            raise LayerMapError(f"layer self times sum to {folded:.6f}s, "
                                f"profile total is {self.total_s:.6f}s")

    def _owners(self, key: tuple, path: tuple) -> dict[str, float]:
        """How a non-repository function's time splits across layers."""
        if key in self._shares:
            return self._shares[key]
        callers = self.stats[key][4]
        edges = [(caller, edge[2]) for caller, edge in callers.items()
                 if caller != key and caller not in path]
        weight_total = sum(w for _, w in edges)
        if weight_total <= 0.0:
            edges = [(caller, float(callers[caller][0]))
                     for caller, _ in edges]
            weight_total = sum(w for _, w in edges)
        shares: dict[str, float] = defaultdict(float)
        if weight_total <= 0.0:
            shares["other"] = 1.0
        else:
            for caller, weight in edges:
                share = weight / weight_total
                layer = self.layer.get(caller)
                if layer is not None:
                    shares[layer] += share
                elif caller in self.stats:
                    for owner, sub in self._owners(
                            caller, path + (key,)).items():
                        shares[owner] += share * sub
                else:
                    shares["other"] += share
        if not path:
            self._shares[key] = shares
        return shares

    def frac(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0) / self.total_s \
            if self.total_s else 0.0

    def ncalls(self, name: str) -> int:
        """Total calls of every function registered under ``name``."""
        return sum(row[1] for row in self.by_name.get(name, ()))

    def cum_s(self, name: str) -> float:
        return sum(row[3] for row in self.by_name.get(name, ()))

    def edge_calls(self, callee: str, caller: str) -> int:
        """Calls of ``callee`` made directly by ``caller``."""
        count = 0
        for key, row in self.stats.items():
            if qualname(key) != callee:
                continue
            for caller_key, edge in row[4].items():
                if qualname(caller_key) == caller:
                    count += edge[0]
        return count
