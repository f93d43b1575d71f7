"""The kernel substrate: syscalls gluing VM, physical chunks and the CMT.

Models the paper's Linux modifications (Table 4): the mapping-id
argument threaded through ``mmap()``, the chunk-aware physical page
allocator invoked from the page-fault handler, and the driver that
writes chunk/mapping bindings into the hardware CMT.

When constructed without an :class:`~repro.core.sdam.SDAMController`
the kernel behaves like the baseline systems: the mapping-id argument
is accepted (the ABI is unchanged) but every allocation lands in one
global chunk group and no CMT writes happen.
"""

from __future__ import annotations

import numpy as np

from repro.core.chunks import ChunkGeometry
from repro.core.mapping import PermutationMapping, identity_mapping
from repro.core.sdam import (
    AddressTranslator,
    GlobalMappingTranslator,
    SDAMController,
)
from repro.errors import ProfilingError
from repro.mem.physical import PhysicalMemory
from repro.mem.virtual import AddressSpace, VMArea

__all__ = ["Kernel"]


class _CMTDriver:
    """Table 4's driver rows: program the CMT as chunks change hands.

    The kernel's callbacks live on this object and on
    :class:`_FaultHandler` rather than on the kernel itself, so physical
    memory and the address spaces hold no reference back to the kernel.
    A finished run's memory model is then freed by reference counting,
    without waiting for the cyclic garbage collector.
    """

    def __init__(self, sdam: SDAMController | None, mappings: dict[int, int]):
        self.sdam = sdam
        self.mappings = mappings  # the kernel's software id -> CMT index

    def chunk_assigned(self, chunk_no: int, mapping_id: int) -> None:
        if self.sdam is not None:
            self.sdam.assign_chunk(chunk_no, self.mappings[mapping_id])

    def chunk_released(self, chunk_no: int) -> None:
        if self.sdam is not None:
            self.sdam.release_chunk(chunk_no)


class _FaultHandler:
    """Page-fault handler: allocate a VMA's new frames from the right group."""

    def __init__(
        self, physical: PhysicalMemory, mappings: dict[int, int], sdam_enabled: bool
    ):
        self.physical = physical
        self.mappings = mappings
        self.sdam_enabled = sdam_enabled

    def __call__(self, mapping_id: int, count: int) -> list[int]:
        effective = mapping_id if self.sdam_enabled else 0
        if effective not in self.mappings:
            raise ProfilingError(
                f"mapping id {mapping_id} was never registered via add_addr_map"
            )
        return self.physical.alloc_frames(count, effective)


class Kernel:
    """Minimal OS: processes, physical memory, SDAM control plane."""

    def __init__(
        self,
        geometry: ChunkGeometry,
        sdam: SDAMController | None = None,
        chunk_colours: int = 8,
    ):
        self.geometry = geometry
        self.sdam = sdam
        # mapping-id 0 is the boot default (identity), always present.
        self._registered_mappings: dict[int, int] = {0: 0}
        driver = _CMTDriver(sdam, self._registered_mappings)
        self.physical = PhysicalMemory(
            geometry,
            on_chunk_assigned=driver.chunk_assigned,
            on_chunk_released=driver.chunk_released,
            chunk_colours=chunk_colours,
        )
        self._fault_handler = _FaultHandler(
            self.physical, self._registered_mappings, sdam is not None
        )
        self._spaces: dict[int, AddressSpace] = {}
        self._next_pid = 1
        self._identity_translator: GlobalMappingTranslator | None = None

    @property
    def sdam_enabled(self) -> bool:
        """True when an SDAM controller is attached."""
        return self.sdam is not None

    # -- mapping registration (the add_addr_map() syscall backend) ----------
    def add_addr_map(self, mapping, namespace: str | None = None) -> int:
        """Register an address mapping; returns its mapping id.

        ``mapping`` is a window permutation (array-like) or a full-width
        :class:`PermutationMapping` restricted to the chunk window.  On a
        baseline kernel the id is accepted but aliases the default.
        With ``namespace`` set (one co-running application's), the
        intern is charged against that slice of the mapping budget.
        """
        if self.sdam is None:
            return 0
        hardware_index = self.sdam.register_mapping(mapping, namespace=namespace)
        # Software mapping ids mirror the hardware table indices 1:1.
        self._registered_mappings[hardware_index] = hardware_index
        return hardware_index

    def registered_mapping_ids(self) -> list[int]:
        """Mapping ids registered via add_addr_map."""
        return sorted(self._registered_mappings)

    def hardware_index_of(self, mapping_id: int) -> int:
        """CMT index currently backing a software mapping id."""
        return self._registered_mappings[mapping_id]

    def rebind_mapping(self, mapping_id: int, hardware_index: int) -> None:
        """Point a software mapping id at a different CMT index.

        The RAS repair path uses this after composing a replacement
        permutation: existing VMAs keep their mapping id, but chunks
        acquired from now on are programmed with the healed mapping.
        """
        if self.sdam is None:
            raise ProfilingError("mapping rebind requires SDAM")
        if mapping_id not in self._registered_mappings:
            raise ProfilingError(
                f"mapping id {mapping_id} was never registered"
            )
        if not 0 <= hardware_index < self.sdam.cmt.live_mappings:
            raise ProfilingError(
                f"hardware index {hardware_index} is not interned"
            )
        self._registered_mappings[mapping_id] = hardware_index

    def full_mapping(self, mapping_id: int) -> PermutationMapping | None:
        """Full-width permutation behind a mapping id (None on baseline)."""
        if self.sdam is None:
            return None
        return self.sdam.full_mapping(self._registered_mappings[mapping_id])

    # -- processes -----------------------------------------------------------
    def spawn(self) -> AddressSpace:
        """Create a process address space wired to the fault handler."""
        pid = self._next_pid
        self._next_pid += 1
        space = AddressSpace(
            page_bytes=self.geometry.page_bytes,
            fault_handler=self._fault_handler,
            pid=pid,
        )
        self._spaces[pid] = space
        return space

    @property
    def spaces(self) -> list[AddressSpace]:
        """All live process address spaces."""
        return list(self._spaces.values())

    # -- RAS: page relocation ------------------------------------------------
    def relocate_frame(self, frame_pa: int) -> int | None:
        """Move a live frame off its page and retire the old page.

        Allocates a replacement frame in the same mapping group,
        switches the owning PTE, then atomically frees-and-retires the
        old page (never returning it to the allocator).  Returns the
        new frame's PA, or None if the frame was allocated but mapped
        by no process (it is then just discarded).  The caller copies
        the data — the kernel model holds no contents.
        """
        chunk_no = self.physical._frame_owner.get(frame_pa)
        if chunk_no is None:
            raise ProfilingError(f"frame {frame_pa:#x} is not allocated")
        chunk = self.physical.chunk(chunk_no)
        mapping_id = chunk.mapping_id if chunk is not None else 0
        owner = None
        vpn = None
        for space in self._spaces.values():
            vpn = space.vpn_of_frame(frame_pa)
            if vpn is not None:
                owner = space
                break
        if owner is None:
            self.physical.discard_frame(frame_pa, retire=True)
            return None
        new_pa = self.physical.alloc_frame(
            mapping_id if mapping_id is not None else 0
        )
        owner.remap(vpn, new_pa)
        self.physical.discard_frame(frame_pa, retire=True)
        return new_pa

    # -- syscalls ---------------------------------------------------------------
    def sys_mmap(
        self,
        space: AddressSpace,
        length: int,
        mapping_id: int = 0,
        name: str = "",
    ) -> VMArea:
        """mmap with the paper's extra mapping-id argument."""
        effective = mapping_id if self.sdam is not None else 0
        if effective not in self._registered_mappings:
            raise ProfilingError(
                f"mapping id {mapping_id} was never registered via add_addr_map"
            )
        return space.mmap(length, mapping_id=effective, name=name)

    def sys_munmap(self, space: AddressSpace, vma: VMArea) -> None:
        """Tear down a mapping, freeing its frames."""
        space.munmap(vma, free_frame=self.physical.free_frame)

    # -- full translation pipeline ------------------------------------------
    @property
    def address_translator(self) -> AddressTranslator:
        """The PA-to-HA translator this kernel drives.

        The SDAM controller when one is attached, else the boot-time
        identity — either way an object the fused datapath
        (:func:`repro.hbm.decode.decode_translated`) can consume.
        """
        if self.sdam is not None:
            return self.sdam
        if self._identity_translator is None:
            self._identity_translator = GlobalMappingTranslator(
                identity_mapping(self.geometry.address_bits)
            )
        return self._identity_translator

    def translate_to_hardware(
        self, space: AddressSpace, va: np.ndarray
    ) -> np.ndarray:
        """VA -> PA (page table) -> HA (SDAM or identity).

        The legacy two-step path: it materialises the HA array.  The
        machine's evaluate stage instead feeds ``space.translate_trace``
        output and :attr:`address_translator` to the fused decoder.
        """
        pa = space.translate_trace(va)
        if self.sdam is None:
            return pa
        return self.sdam.translate(pa)
