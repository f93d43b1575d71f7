"""Tenant-scoped machine core: the immutable artifacts tenants share and
the per-tenant pipeline context that :class:`~repro.system.machine.Machine`
and the co-run machine run through."""

from repro.service.tenant import SharedArtifacts, TenantContext

__all__ = ["SharedArtifacts", "TenantContext"]
