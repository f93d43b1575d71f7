"""End-to-end address-mapping selection (Section 6.2).

Given per-variable profiles, produce one AMU window permutation per
variable, using one of the paper's three strategies:

* **direct / per-application** (``SDM+BSM``): one bit-shuffle mapping
  for the whole application, chosen from the aggregate flip rates.
* **K-Means** (``SDM+BSM+ML``): cluster the major variables' bit-flip-
  rate vectors into *k* patterns; one mapping per cluster centroid.
* **DL-assisted K-Means** (``SDM+BSM+DL``): cluster learned LSTM
  embeddings instead; mappings still come from each cluster's average
  flip rates (step 3 of Section 6.2).

Each result records wall-clock profiling time, which is what Fig. 13
compares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.bitfield import AddressLayout
from repro.core.bitshuffle import select_window_permutation
from repro.core.chunks import ChunkGeometry
from repro.errors import ProfilingError
from repro.ml.dlkmeans import AutoencoderConfig, DLAssistedKMeans
from repro.ml.kmeans import KMeans
from repro.profiling.profiler import VariableProfile, WorkloadProfile

__all__ = [
    "MappingSelection",
    "mapping_for_stride",
    "select_application_mapping",
    "select_mappings_kmeans",
    "select_mappings_dl",
]


def mapping_for_stride(
    stride_lines: int,
    layout: AddressLayout,
    geometry: ChunkGeometry,
) -> np.ndarray:
    """The programmer-directed path: a window permutation from a known
    stride, no profiling (Section 6.2's opening paragraph).

    A stride of ``s`` cache lines flips window bit ``log2(s)`` on every
    access and the bits above it down the carry chain; the synthetic
    flip-rate vector below encodes exactly that, so the regular
    bit-shuffle selector routes those bits to the channel field.
    """
    if stride_lines < 1:
        raise ProfilingError("stride must be at least one line")
    low, high = geometry.window_slice()
    hot = int(np.log2(stride_lines))
    rates = np.zeros(high - low)
    for position in range(high - low):
        distance = position - hot
        if distance >= 0:
            rates[position] = 2.0 ** (-distance)
    return select_window_permutation(rates, layout, geometry)


@dataclass
class MappingSelection:
    """Chosen window permutations and the variable-to-cluster binding.

    Clusters are numbered by the first appearance of their members in
    ``variable_cluster``; clusters without members come last, in their
    given order.  Every selector fills ``variable_cluster`` in the
    profile's major order (most references first, ties by variable
    id), so the numbering, which becomes the registration order and so
    each mapping's chunk colour, depends only on which variables share
    a mapping, never on the labels a clusterer happened to draw.
    Construction renumbers any other labelling, consistently in
    ``window_perms`` and ``variable_cluster``.
    """

    method: str
    k: int
    window_perms: list[np.ndarray]
    variable_cluster: dict[int, int]  # variable id -> cluster index
    elapsed_seconds: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        order = list(dict.fromkeys(self.variable_cluster.values()))
        seen = set(order)
        order += [c for c in range(len(self.window_perms)) if c not in seen]
        if order == list(range(len(order))):
            return
        number = {old: new for new, old in enumerate(order)}
        self.variable_cluster = {
            variable_id: number[cluster]
            for variable_id, cluster in self.variable_cluster.items()
        }
        if self.window_perms:
            self.window_perms = [self.window_perms[old] for old in order]

    def perm_for_variable(self, variable_id: int) -> np.ndarray | None:
        """The window permutation chosen for a variable, if any."""
        cluster = self.variable_cluster.get(variable_id)
        if cluster is None:
            return None
        return self.window_perms[cluster]

    @property
    def num_mappings(self) -> int:
        """Distinct mappings the selection produced.

        A selection rebuilt by ``MachineResult.from_dict`` has no
        permutations, only their count in ``details["num_mappings"]``.
        """
        return len(self.window_perms) or int(
            self.details.get("num_mappings", 0)
        )


def _perm_from_rates(
    rates: np.ndarray, layout: AddressLayout, geometry: ChunkGeometry
) -> np.ndarray:
    return select_window_permutation(rates, layout, geometry)


def select_application_mapping(
    profile: WorkloadProfile,
    layout: AddressLayout,
    geometry: ChunkGeometry,
) -> MappingSelection:
    """One mapping for the whole application (the ``SDM+BSM`` policy)."""
    start = time.perf_counter()
    window = geometry.window_slice()
    addresses = (
        np.concatenate([p.addresses for p in profile.profiles])
        if profile.profiles
        else np.zeros(0, dtype=np.uint64)
    )
    if addresses.size == 0:
        raise ProfilingError("profile has no addresses")
    from repro.profiling.bfrv import window_flip_rates

    rates = window_flip_rates(addresses, window)
    perm = _perm_from_rates(rates, layout, geometry)
    variable_cluster = {p.variable_id: 0 for p in profile.profiles}
    return MappingSelection(
        method="application-bsm",
        k=1,
        window_perms=[perm],
        variable_cluster=variable_cluster,
        elapsed_seconds=time.perf_counter() - start,
    )


def _majors_or_fail(
    profile: WorkloadProfile, coverage: float
) -> list[VariableProfile]:
    majors = profile.major_variables(coverage)
    if not majors:
        raise ProfilingError("no major variables to cluster")
    return majors


def _cluster_mappings(
    vectors: np.ndarray,
    labels: np.ndarray,
    k: int,
    layout: AddressLayout,
    geometry: ChunkGeometry,
) -> list[np.ndarray]:
    """Step 3: per cluster, average flip rates pick the mapping.

    ``vectors`` holds one flip-rate row per major variable, in the
    order of ``labels``.
    """
    perms: list[np.ndarray] = []
    for cluster in range(k):
        members = vectors[labels == cluster]
        if len(members):
            rates = np.mean(members, axis=0)
        else:
            rates = np.ones(vectors.shape[1])
        perms.append(_perm_from_rates(rates, layout, geometry))
    return perms


def _select_clusters(
    method: str,
    majors: list[VariableProfile],
    k: int,
    layout: AddressLayout,
    geometry: ChunkGeometry,
    start: float,
    fit,
) -> MappingSelection:
    """Steps 2 and 3 for both clusterers, from the majors' flip rates.

    With no more majors than clusters every major is a cluster of its
    own, whatever a clusterer would learn, so ``fit(vectors, k)``,
    which returns one label per major and the clusterer's details,
    runs only when ``k`` is below the number of majors.
    ``details["trained"]`` says whether it ran.
    """
    window = geometry.window_slice()
    vectors = np.stack([m.window_flip_rates(window) for m in majors])
    effective_k = min(k, len(majors))
    if effective_k == len(majors):
        labels = np.arange(effective_k)
        details = {"trained": False}
    else:
        labels, details = fit(vectors, effective_k)
        details["trained"] = True
    perms = _cluster_mappings(vectors, labels, effective_k, layout, geometry)
    variable_cluster = {
        m.variable_id: int(label) for m, label in zip(majors, labels)
    }
    return MappingSelection(
        method=method,
        k=effective_k,
        window_perms=perms,
        variable_cluster=variable_cluster,
        elapsed_seconds=time.perf_counter() - start,
        details=details,
    )


def select_mappings_kmeans(
    profile: WorkloadProfile,
    k: int,
    layout: AddressLayout,
    geometry: ChunkGeometry,
    seed: int = 0,
    coverage: float = 0.8,
) -> MappingSelection:
    """Cluster major variables on BFRVs with K-Means (``SDM+BSM+ML``)."""
    start = time.perf_counter()
    majors = _majors_or_fail(profile, coverage)

    def fit(vectors: np.ndarray, clusters: int):
        result = KMeans(clusters, seed=seed).fit(vectors)
        return result.labels, {
            "inertia": result.inertia,
            "iterations": result.iterations,
        }

    return _select_clusters(
        "kmeans", majors, k, layout, geometry, start, fit
    )


def select_mappings_dl(
    profile: WorkloadProfile,
    k: int,
    layout: AddressLayout,
    geometry: ChunkGeometry,
    config: AutoencoderConfig | None = None,
    coverage: float = 0.8,
) -> MappingSelection:
    """Cluster major variables on learned embeddings (``SDM+BSM+DL``)."""
    start = time.perf_counter()
    majors = _majors_or_fail(profile, coverage)
    window = geometry.window_slice()

    def fit(_vectors: np.ndarray, clusters: int):
        delta_traces = [m.delta_trace() for m in majors]
        result = DLAssistedKMeans(clusters, config=config).fit(
            delta_traces, window=window
        )
        return result.labels, {
            "vocab_coverage": result.vocab_coverage,
            "final_loss": result.loss_history[-1]
            if result.loss_history
            else None,
        }

    return _select_clusters(
        "dl-kmeans", majors, k, layout, geometry, start, fit
    )
