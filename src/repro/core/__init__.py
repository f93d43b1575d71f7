"""SDAM core: address mappings, chunks, AMU, CMT and the controller.

This package is the paper's primary contribution — everything the
modified memory controller and its software-visible control plane need.
"""

from repro.core.amu import AddressMappingUnit, amu_area_report
from repro.core.bitfield import AddressLayout, BitField
from repro.core.bitmatrix import BitOperator, BitProjection, gf2_inverse, gf2_matmul
from repro.core.bitshuffle import (
    rank_bits_by_flip_rate,
    select_global_mapping,
    select_window_permutation,
)
from repro.core.chunks import ChunkGeometry
from repro.core.cmt import ChunkMappingTable, cmt_storage_report
from repro.core.hashing import default_hash_mapping, hash_mapping
from repro.core.mapping import identity_mapping, mapping_from_field_sources
from repro.core.selection import (
    MappingSelection,
    mapping_for_stride,
    select_application_mapping,
    select_mappings_dl,
    select_mappings_kmeans,
)
from repro.core.sdam import (
    AddressTranslator,
    GlobalMappingTranslator,
    SDAMController,
)
from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "GuardPlan": ("repro.core.security", "GuardPlan"),
        "plan_guard_rows": ("repro.core.security", "plan_guard_rows"),
        "verify_isolation": ("repro.core.security", "verify_isolation"),
        "VerificationReport": ("repro.core.verification", "VerificationReport"),
        "audit_controller": ("repro.core.verification", "audit_controller"),
        "verify_mapping": ("repro.core.verification", "verify_mapping"),
    },
)

__all__ = [
    "AddressLayout",
    "AddressMappingUnit",
    "AddressTranslator",
    "BitField",
    "BitOperator",
    "BitProjection",
    "ChunkGeometry",
    "ChunkMappingTable",
    "GlobalMappingTranslator",
    "GuardPlan",
    "MappingSelection",
    "SDAMController",
    "VerificationReport",
    "amu_area_report",
    "audit_controller",
    "cmt_storage_report",
    "default_hash_mapping",
    "gf2_inverse",
    "gf2_matmul",
    "hash_mapping",
    "identity_mapping",
    "mapping_for_stride",
    "mapping_from_field_sources",
    "plan_guard_rows",
    "rank_bits_by_flip_rate",
    "select_application_mapping",
    "select_global_mapping",
    "select_mappings_dl",
    "select_mappings_kmeans",
    "select_window_permutation",
    "verify_isolation",
    "verify_mapping",
]
