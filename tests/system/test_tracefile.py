"""Tests for profile persistence and the stage store."""

import numpy as np

from repro.system.machine import Machine
from repro.system.config import system_by_key
from repro.system.tracefile import (
    load_profile,
    load_selection,
    save_profile,
    save_selection,
)
from repro.core.selection import MappingSelection, select_mappings_kmeans
from repro.workloads import MixedStrideWorkload


class TestSelectionRoundtrip:
    def test_cluster_numbering_survives(self, tmp_path):
        """A hotter variable with a higher id keeps cluster 0: the file
        keeps the binding order that numbers the clusters."""
        perms = [np.arange(15), np.arange(15)[::-1].copy()]
        selection = MappingSelection(
            method="kmeans",
            k=2,
            window_perms=perms,
            variable_cluster={5: 0, 2: 1},
            elapsed_seconds=0.0,
        )
        loaded = load_selection(save_selection(tmp_path / "s", selection))
        assert list(loaded.variable_cluster.items()) == [(5, 0), (2, 1)]
        assert [p.tolist() for p in loaded.window_perms] == [
            p.tolist() for p in perms
        ]


class TestProfileRoundtrip:
    def test_offline_profile_reuse(self, tmp_path):
        """Profile once, persist, select mappings from the loaded copy."""
        workload = MixedStrideWorkload(
            strides=(1, 16), accesses_per_stride=1500
        )
        machine = Machine(system_by_key("bs_dm"))
        profile = machine.profile(workload)
        path = save_profile(tmp_path / "profile.npz", profile)
        loaded = load_profile(path)
        assert loaded.name == profile.name
        assert loaded.total_references == profile.total_references
        assert loaded.num_variables == profile.num_variables
        # The loaded profile drives mapping selection identically.
        original = select_mappings_kmeans(
            profile, 2, machine.layout, machine.geometry, coverage=1.0
        )
        reloaded = select_mappings_kmeans(
            loaded, 2, machine.layout, machine.geometry, coverage=1.0
        )
        assert [p.tolist() for p in original.window_perms] == [
            p.tolist() for p in reloaded.window_perms
        ]

    def test_sub_traces_preserved(self, tmp_path):
        workload = MixedStrideWorkload(
            strides=(4,), accesses_per_stride=800
        )
        machine = Machine(system_by_key("bs_dm"))
        profile = machine.profile(workload)
        loaded = load_profile(save_profile(tmp_path / "p.npz", profile))
        for original, restored in zip(profile.profiles, loaded.profiles):
            assert original.name == restored.name
            np.testing.assert_array_equal(
                original.addresses, restored.addresses
            )


class TestStageStoreSelfHealing:
    """The checksummed store behind the experiment engine: a bad entry
    is a miss, and the next store republishes it."""

    @staticmethod
    def _store(tmp_path):
        from repro.system.tracefile import StageStore

        return StageStore(tmp_path / "cache")

    def test_store_writes_checksum_sidecar(self, tmp_path):
        store = self._store(tmp_path)
        store.store("result", "k1", {"answer": 42})
        blob = store.root / "result" / "k1.json"
        sidecar = store.root / "result" / "k1.json.sha256"
        assert blob.exists() and sidecar.exists()
        import hashlib

        assert (
            sidecar.read_text().strip()
            == hashlib.sha256(blob.read_bytes()).hexdigest()
        )
        assert store.load("result", "k1") == {"answer": 42}

    def test_corrupt_entry_is_a_miss_not_raised(self, tmp_path):
        store = self._store(tmp_path)
        store.store("result", "k1", {"answer": 42})
        blob = store.root / "result" / "k1.json"
        blob.write_bytes(b'{"answer": 4')  # torn write
        assert store.load("result", "k1") is None
        # Re-storing republishes blob and sidecar.
        store.store("result", "k1", {"answer": 42})
        assert store.load("result", "k1") == {"answer": 42}

    def test_undecodable_npz_is_a_miss(self, tmp_path):
        import hashlib

        store = self._store(tmp_path)
        # A blob whose sidecar matches but whose decoder rejects it.
        target = store.root / "profile" / "bad.npz"
        target.parent.mkdir(parents=True)
        target.write_bytes(b"not an npz archive")
        (store.root / "profile" / "bad.npz.sha256").write_text(
            hashlib.sha256(target.read_bytes()).hexdigest() + "\n"
        )
        assert store.load("profile", "bad") is None

    def test_entry_without_sidecar_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        store.store("result", "k", {"ok": True})
        (store.root / "result" / "k.json.sha256").unlink()
        assert store.load("result", "k") is None
        assert store.load("result", "absent") is None

    def test_concurrent_same_key_writes_are_collision_free(self, tmp_path):
        """Threads racing on one key never tear a published entry."""
        import threading

        store = self._store(tmp_path)
        payload = {"answer": 42, "blob": "x" * 4096}
        errors = []

        def write():
            try:
                for _ in range(20):
                    store.store("result", "contested", payload)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.load("result", "contested") == payload
        # No tmp debris left behind either.
        assert not list(store.root.glob("*/.tmp-*"))
