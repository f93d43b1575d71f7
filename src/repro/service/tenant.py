"""``TenantContext``: an alias of :class:`~repro.system.machine.Machine`.

The tenant-scoped pipeline context was folded back into ``Machine``,
which now runs the whole pipeline.  The alias stays because the
benchmark's layer tracer (``perfbench/spans.py``) imports
``TenantContext`` from here and wraps its ``profile`` and ``select``
methods, which are ``Machine``'s.  Deleting this module is a benchmark
change: it goes with pointing the tracer at ``Machine``.  Nothing in
``repro`` imports it.
"""

from repro.system.machine import Machine

TenantContext = Machine
