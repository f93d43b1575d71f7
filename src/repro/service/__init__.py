"""Multi-tenant service core: shared immutable artifacts, tenant
contexts, the tenant registry (first-fit mapping-budget carving), the
batching front-end, and the isolation selftest campaign."""

from repro.lazy import lazy_exports
from repro.service.tenant import SharedArtifacts, TenantContext

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ServiceCampaignResult": ("repro.service.campaign", "ServiceCampaignResult"),
        "run_service_campaign": ("repro.service.campaign", "run_service_campaign"),
        "TenantRegistry": ("repro.service.registry", "TenantRegistry"),
        "TenantSpec": ("repro.service.registry", "TenantSpec"),
        "MappingService": ("repro.service.service", "MappingService"),
        "ServiceReport": ("repro.service.service", "ServiceReport"),
        "TenantResult": ("repro.service.service", "TenantResult"),
    },
)

__all__ = [
    "MappingService",
    "ServiceCampaignResult",
    "ServiceReport",
    "SharedArtifacts",
    "TenantContext",
    "TenantRegistry",
    "TenantResult",
    "TenantSpec",
    "run_service_campaign",
]
