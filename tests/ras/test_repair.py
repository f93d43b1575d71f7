"""Tests for fault-cube geometry and repair-mapping composition."""

import numpy as np
import pytest

from repro.core.bitmatrix import BitOperator
from repro.core.chunks import ChunkGeometry
from repro.errors import DeviceFaultError
from repro.ras.campaign import small_ras_config
from repro.ras.repair import (
    FaultCube,
    compose_repair,
    cube_for,
    preimage_pages,
    row_fault_chunk,
)

CONFIG = small_ras_config()
GEOMETRY = ChunkGeometry(total_bytes=CONFIG.total_bytes)


class TestCubeGeometry:
    def test_row_cube_pins_one_chunk(self):
        cube = cube_for(CONFIG, GEOMETRY, "row", channel=2, bank=1, row=300)
        assert cube.chunk_no == row_fault_chunk(CONFIG, GEOMETRY, 300)
        assert cube.applies_to(cube.chunk_no)
        assert not cube.applies_to(cube.chunk_no + 1)

    def test_bank_and_channel_cubes_span_all_chunks(self):
        for kind, kwargs in (
            ("bank", dict(channel=2, bank=1)),
            ("channel", dict(channel=2)),
        ):
            cube = cube_for(CONFIG, GEOMETRY, kind, **kwargs)
            assert cube.chunk_no is None
            assert cube.applies_to(0) and cube.applies_to(31)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DeviceFaultError):
            cube_for(CONFIG, GEOMETRY, "rank", channel=0)

    def test_mask_value_consistent_with_matches(self):
        cube = cube_for(CONFIG, GEOMETRY, "bank", channel=3, bank=2)
        offsets = np.arange(1 << GEOMETRY.window_bits, dtype=np.uint64)
        matched = offsets[cube.matches(offsets)]
        assert matched.size == (1 << GEOMETRY.window_bits) >> len(cube.fixed)
        assert ((matched & np.uint64(cube.mask)) == np.uint64(cube.value)).all()

    def test_preimage_sizes_under_identity(self):
        """Under the identity mapping the channel bits lie *inside*
        every page, so a dead channel's preimage is the whole chunk —
        the motivation for composing a repair mapping at all."""
        identity = BitOperator.from_permutation(
            np.arange(GEOMETRY.window_bits)
        )
        sizes = {}
        for kind, kwargs in (
            ("row", dict(channel=1, bank=0, row=5)),
            ("bank", dict(channel=1, bank=0)),
            ("channel", dict(channel=1)),
        ):
            cube = cube_for(CONFIG, GEOMETRY, kind, **kwargs)
            sizes[kind] = len(preimage_pages(identity, cube, GEOMETRY))
        pages_per_chunk = GEOMETRY.chunk_bytes // GEOMETRY.page_bytes
        assert sizes["row"] == 1  # row bits sit above the page bits
        assert sizes["channel"] == pages_per_chunk  # every page reaches it
        assert 1 < sizes["bank"] <= pages_per_chunk


class TestComposeRepair:
    def quarantined(self, perm, cube, retired_pages):
        """No non-retired page offset may reach the cube."""
        operator = BitOperator.from_permutation(perm)
        leaked = set(preimage_pages(operator, cube, GEOMETRY)) - set(
            retired_pages
        )
        return not leaked

    def test_row_repair_costs_one_page(self):
        cube = cube_for(CONFIG, GEOMETRY, "row", channel=2, bank=1, row=40)
        rng = np.random.default_rng(0)
        perm, pages = compose_repair(GEOMETRY, [cube], rng)
        assert len(pages) == 1
        assert self.quarantined(perm, cube, pages)

    def test_bank_repair_costs_sixteen_pages(self):
        cube = cube_for(CONFIG, GEOMETRY, "bank", channel=2, bank=1)
        rng = np.random.default_rng(0)
        perm, pages = compose_repair(GEOMETRY, [cube], rng)
        assert len(pages) == 16
        assert self.quarantined(perm, cube, pages)

    def test_channel_repair_costs_its_capacity_share(self):
        """Exact-channel quarantine retires 1/num_channels of the chunk
        (64 pages here) — far better than the identity's whole chunk."""
        cube = cube_for(CONFIG, GEOMETRY, "channel", channel=6)
        rng = np.random.default_rng(0)
        perm, pages = compose_repair(GEOMETRY, [cube], rng)
        pages_per_chunk = GEOMETRY.chunk_bytes // GEOMETRY.page_bytes
        assert len(pages) == pages_per_chunk // CONFIG.num_channels
        assert self.quarantined(perm, cube, pages)

    def test_live_pages_steer_the_search(self):
        """With most pages live, the composer lands on the free ones."""
        cube = cube_for(CONFIG, GEOMETRY, "row", channel=0, bank=0, row=12)
        pages_per_chunk = GEOMETRY.chunk_bytes // GEOMETRY.page_bytes
        live = set(range(64, pages_per_chunk))
        rng = np.random.default_rng(1)
        _perm, pages = compose_repair(GEOMETRY, [cube], rng, live_pages=live)
        assert not (set(pages) & live)

    def test_multiple_cubes_quarantined_together(self):
        cubes = [
            cube_for(CONFIG, GEOMETRY, "bank", channel=1, bank=3),
            cube_for(CONFIG, GEOMETRY, "row", channel=6, bank=0, row=900),
        ]
        rng = np.random.default_rng(2)
        perm, pages = compose_repair(GEOMETRY, cubes, rng)
        for cube in cubes:
            assert self.quarantined(perm, cube, pages)

    def test_no_cubes_rejected(self):
        with pytest.raises(DeviceFaultError):
            compose_repair(GEOMETRY, [], np.random.default_rng(0))

    def test_composition_returns_valid_permutation(self):
        cube = cube_for(CONFIG, GEOMETRY, "channel", channel=4)
        rng = np.random.default_rng(3)
        perm, _pages = compose_repair(GEOMETRY, [cube], rng)
        assert sorted(int(p) for p in perm) == list(
            range(GEOMETRY.window_bits)
        )


class TestFaultCubeDataclass:
    def test_fixed_bits_define_mask_and_value(self):
        cube = FaultCube(fixed=((0, 1), (3, 0), (5, 1)))
        assert cube.mask == 0b101001
        assert cube.value == 0b100001
