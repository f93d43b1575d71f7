"""Multi-tenant service core: shared immutable artifacts, tenant
contexts, the tenant registry (first-fit mapping-budget carving), the
batching front-end, and the isolation selftest campaign."""

from repro.service.campaign import ServiceCampaignResult, run_service_campaign
from repro.service.registry import TenantRegistry, TenantSpec
from repro.service.service import MappingService, ServiceReport, TenantResult
from repro.service.tenant import SharedArtifacts, TenantContext

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
