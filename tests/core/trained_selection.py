"""Trained reference selections for the forced cells.

When a profile has no more major variables than clusters, the
selectors return one cluster per major without fitting.  These helpers
fit K-Means and DL-assisted K-Means anyway, directly, so a test can
check that training would have given the same selection.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitshuffle import select_window_permutation
from repro.core.selection import MappingSelection
from repro.ml.dlkmeans import DLAssistedKMeans
from repro.ml.kmeans import KMeans


def trained_selection(method, profile, k, layout, geometry, coverage, *,
                      seed=0, dl_config=None) -> MappingSelection:
    """The selection ``method`` (``"kmeans"`` or ``"dl-kmeans"``) makes
    when its clusterer is fitted, numbered by
    :class:`~repro.core.selection.MappingSelection`'s rule."""
    majors = profile.major_variables(coverage)
    window = geometry.window_slice()
    clusters = min(k, len(majors))
    vectors = np.stack([m.window_flip_rates(window) for m in majors])
    if method == "kmeans":
        labels = KMeans(clusters, seed=seed).fit(vectors).labels
    else:
        labels = DLAssistedKMeans(clusters, config=dl_config).fit(
            [m.delta_trace() for m in majors], window=window
        ).labels
    perms = [
        select_window_permutation(
            np.mean(vectors[labels == cluster], axis=0)
            if np.any(labels == cluster)
            else np.ones(vectors.shape[1]),
            layout,
            geometry,
        )
        for cluster in range(clusters)
    ]
    return MappingSelection(
        method=method,
        k=clusters,
        window_perms=perms,
        variable_cluster={
            m.variable_id: int(label) for m, label in zip(majors, labels)
        },
        elapsed_seconds=0.0,
    )


def same_selection(a: MappingSelection, b: MappingSelection) -> bool:
    """Equal bindings and equal window permutations, in order."""
    return (
        list(a.variable_cluster.items()) == list(b.variable_cluster.items())
        and len(a.window_perms) == len(b.window_perms)
        and all(
            np.array_equal(x, y) for x, y in zip(a.window_perms, b.window_perms)
        )
    )
