"""Layer spans recorded from outside the program.

The traced run wraps the public entry point of each layer (workload
trace generation, the cache filter, allocation, the page walk, mapping
selection, translate, decode, the timing tiers, the tier split and
``Machine.run`` itself) with a recorder that keeps one :class:`Span`
per call.  Nothing in ``src/`` is modified: :func:`installed` patches
the classes for the duration of a ``with`` block and restores the
original attributes on exit, so untraced passes run the bare program.

A span's *self time* is its duration minus the durations of its direct
children.  The program is single-threaded, so spans nest strictly and
the recorder tracks the open span with a stack.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "Span",
    "SpanRecorder",
    "clock",
    "installed",
    "layer_targets",
    "top_layer",
]

#: The benchmark's one clock: CPU seconds of this process.  The program
#: runs serially on one thread, so this is its busy time; unlike wall
#: time it is not inflated when the hypervisor deschedules the VM (on a
#: shared 2-vCPU VM, steal time made the wall time of one cell vary by
#: up to 1.8x while its CPU time varied by 1.2x).
clock = time.process_time


@dataclass
class Span:
    """One call into a layer."""

    layer: str
    start: float
    end: float
    parent: int | None
    cell: str | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def top_layer(layer: str) -> str:
    """The layer a span belongs to (``"hbm.simulate.fast"`` -> ``"hbm"``)."""
    return layer.split(".", 1)[0]


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell: str | None = None
        self._open: list[int] = []

    def wrap(self, layer, fn, count=None, before=None):
        """``fn`` recording one span per call.

        ``layer`` is a name or a function of the receiver returning one.
        ``count(receiver, result, snapshot)`` returns the span's counts,
        where ``snapshot`` is ``before(receiver)`` taken at entry.
        """

        @functools.wraps(fn)
        def traced(receiver, *args, **kwargs):
            name = layer(receiver) if callable(layer) else layer
            snapshot = before(receiver) if before is not None else None
            span = Span(
                name,
                clock(),
                0.0,
                self._open[-1] if self._open else None,
                self.cell,
            )
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(receiver, *args, **kwargs)
            finally:
                self._open.pop()
                span.end = clock()
            if count is not None:
                span.counts = count(receiver, result, snapshot)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent is None]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]))


_MISSING = object()


@contextmanager
def installed(recorder: SpanRecorder, targets):
    """Wrap ``(cls, method, layer, count, before)`` targets, then restore."""
    saved = []
    try:
        for cls, name, layer, count, before in targets:
            saved.append((cls, name, cls.__dict__.get(name, _MISSING)))
            setattr(
                cls, name, recorder.wrap(layer, getattr(cls, name), count, before)
            )
        yield recorder
    finally:
        for cls, name, original in reversed(saved):
            if original is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, original)


def _defining_class(cls: type, name: str) -> type:
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no {name}")


def _count_trace(_workload, traces, _snapshot) -> dict:
    return {"program_accesses": sum(len(t) for t in traces)}


def _count_filter(_engine, external, _snapshot) -> dict:
    return {
        "program_accesses": int(external.program_accesses),
        "external": len(external.trace),
        "writes": int(external.trace.is_write.sum()),
        "l1_hits": external.l1_hit_rate * external.program_accesses,
        "llc_hits": external.llc_hit_rate * external.program_accesses,
    }


def _count_requests(_backend, stats, _snapshot) -> dict:
    return {"requests": int(stats.requests)}


def _selection_layer(tenant) -> str:
    return "ml" if tenant.system.clustering == "dl" else "core"


def layer_targets(workloads) -> list[tuple]:
    """The entry points wrapped in a traced pass, with their layer names."""
    from repro.core.sdam import GlobalMappingTranslator, SDAMController
    from repro.cpu.accelerator import AcceleratorModel
    from repro.cpu.cpu import CPUModel
    from repro.hbm.decode import DecodePlan
    from repro.hbm.device import HBMDevice
    from repro.hbm.fastmodel import WindowModel
    from repro.hbm.vectormodel import VectorModel
    from repro.mem.kernel import Kernel
    from repro.mem.malloc import MappingAwareAllocator
    from repro.mem.virtual import AddressSpace
    from repro.service.tenant import TenantContext
    from repro.system.machine import Machine
    from repro.tier.backend import TieredBackend

    trace_classes = {_defining_class(type(w), "trace") for w in workloads}
    targets = [
        (cls, "trace", "workloads", _count_trace, None)
        for cls in sorted(trace_classes, key=lambda c: c.__qualname__)
    ]
    targets += [
        (CPUModel, "external_trace", "cpu", _count_filter, None),
        (AcceleratorModel, "external_trace", "cpu", _count_filter, None),
        (Kernel, "add_addr_map", "mem.alloc",
         lambda *_: {"mappings": 1}, None),
        (MappingAwareAllocator, "malloc", "mem.alloc", None, None),
        (AddressSpace, "translate_trace", "mem.translate",
         lambda space, _pa, faults: {"faults": space.total_faults - faults},
         lambda space: space.total_faults),
        (TenantContext, "profile", "profiling", None, None),
        (TenantContext, "select", _selection_layer, None, None),
        (SDAMController, "translate", "hbm.translate", None, None),
        (GlobalMappingTranslator, "translate", "hbm.translate", None, None),
        (DecodePlan, "decode", "hbm.decode", None, None),
        (WindowModel, "simulate_decoded", "hbm.simulate.fast",
         _count_requests, None),
        (VectorModel, "simulate_decoded", "hbm.simulate.vector",
         _count_requests, None),
        (HBMDevice, "simulate_decoded", "hbm.simulate.event",
         _count_requests, None),
        (TieredBackend, "simulate_decoded", "tier", None, None),
        (Machine, "run", "system", None, None),
    ]
    return targets
