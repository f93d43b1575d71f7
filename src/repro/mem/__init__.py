"""OS memory-management substrate: chunks, VM, kernel, malloc."""

from repro.lazy import lazy_exports
from repro.mem.kernel import Kernel
from repro.mem.malloc import Allocation, Heap, MappingAwareAllocator
from repro.mem.physical import Chunk, ChunkGroup, PhysicalMemory
from repro.mem.virtual import AddressSpace, VMArea

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ChunkMigrator": ("repro.mem.migration", "ChunkMigrator"),
        "MigrationReport": ("repro.mem.migration", "MigrationReport"),
    },
)

__all__ = [
    "AddressSpace",
    "Allocation",
    "Chunk",
    "ChunkGroup",
    "ChunkMigrator",
    "MigrationReport",
    "Heap",
    "Kernel",
    "MappingAwareAllocator",
    "PhysicalMemory",
    "VMArea",
]
