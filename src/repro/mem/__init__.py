"""OS memory-management substrate: chunks, VM, kernel, malloc."""

from repro.mem.kernel import Kernel
from repro.mem.malloc import Allocation, Heap, MappingAwareAllocator
from repro.mem.migration import ChunkMigrator, MigrationReport
from repro.mem.physical import Chunk, ChunkGroup, PhysicalMemory
from repro.mem.virtual import AddressSpace, VMArea

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
