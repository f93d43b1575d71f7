"""Forced selections equal trained ones on every paper suite.

A cell is forced when its profile has no more major variables than
clusters: the selectors then return one cluster per major without
fitting K-Means or training the LSTM.  For every forced cell of the
standard and data-intensive suites on the CPU and of the data-intensive
suite on the accelerator, at 4 and 32 clusters, this fits both
clusterers anyway, with the figures' DL configuration, and checks that
the fitted selection, numbered by ``MappingSelection``'s rule, has the
same bindings and window permutations.  Run it with ``python -m
pytest`` from the repository root (it imports the reference from
``tests``).
"""

from __future__ import annotations

from repro.core.selection import select_mappings_dl, select_mappings_kmeans
from repro.ml import AutoencoderConfig
from repro.system import Machine, system_by_key
from repro.workloads import data_intensive_suite, parsec_suite, spec2006_suite
from tests.core.trained_selection import same_selection, trained_selection

# The DL configuration of Figs. 12 and 15.
DL_CONFIG = AutoencoderConfig(pretrain_steps=60, joint_steps=30)
COVERAGE = Machine.SELECTION_COVERAGE
SUITES = (
    ("cpu", spec2006_suite() + parsec_suite()),
    ("cpu", data_intensive_suite()),
    ("accelerator", data_intensive_suite()),
)


def test_every_forced_cell_equals_the_trained_selection():
    forced_cells, mismatches = 0, []
    for engine, workloads in SUITES:
        machine = Machine(system_by_key("bs_dm"), engine=engine)
        for workload in workloads:
            profile = machine.profile(workload)
            majors = len(profile.major_variables(COVERAGE))
            trained = {}  # method -> reference; every forced k fits the same
            for k in (4, 32):
                if k < majors:
                    continue
                forced_cells += 1
                args = (profile, k, machine.layout, machine.geometry)
                forced = {
                    "kmeans": select_mappings_kmeans(*args, coverage=COVERAGE),
                    "dl-kmeans": select_mappings_dl(
                        *args, config=DL_CONFIG, coverage=COVERAGE
                    ),
                }
                for method, selection in forced.items():
                    assert selection.details == {"trained": False}
                    if method not in trained:
                        trained[method] = trained_selection(
                            method, *args, COVERAGE, dl_config=DL_CONFIG
                        )
                    if not same_selection(selection, trained[method]):
                        mismatches.append((engine, workload.name, k, method))
    # 27 CPU apps and 8 accelerator apps at k = 4 and 32: 49 are forced.
    assert forced_cells == 49
    assert mismatches == []
