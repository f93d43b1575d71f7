"""Forced selections: with no more majors than clusters, the selectors
return one cluster per major without fitting, and that must be the
selection a fitted clusterer gives, numbered by ``MappingSelection``'s
rule.  ``benchmarks/test_forced_selection.py`` checks every forced cell
of the three paper suites with the figures' DL configuration."""

import pytest

from repro.api import QUICK_DL_CONFIG
from repro.core.selection import select_mappings_dl, select_mappings_kmeans
from repro.system import Machine, system_by_key
from repro.workloads import data_intensive_suite, spec2006_suite
from tests.core.trained_selection import same_selection, trained_selection

COVERAGE = Machine.SELECTION_COVERAGE

CELLS = [  # (engine, workload, k); each has at most k majors
    ("cpu", "mcf", 4),
    ("cpu", "hashjoin", 4),
    ("accelerator", "pagerank", 32),
]


def _workload(name):
    return next(
        w for w in spec2006_suite() + data_intensive_suite() if w.name == name
    )


@pytest.mark.parametrize("engine,name,k", CELLS)
def test_forced_selection_equals_trained(engine, name, k):
    machine = Machine(system_by_key("bs_dm"), engine=engine)
    profile = machine.profile(_workload(name))
    majors = len(profile.major_variables(COVERAGE))
    assert 1 < majors <= k
    args = (profile, k, machine.layout, machine.geometry)

    forced = select_mappings_kmeans(*args, coverage=COVERAGE)
    assert forced.details == {"trained": False}
    assert list(forced.variable_cluster.values()) == list(range(majors))
    assert same_selection(
        forced, trained_selection("kmeans", *args, COVERAGE)
    )

    forced = select_mappings_dl(*args, config=QUICK_DL_CONFIG, coverage=COVERAGE)
    assert forced.details == {"trained": False}
    assert same_selection(
        forced,
        trained_selection(
            "dl-kmeans", *args, COVERAGE, dl_config=QUICK_DL_CONFIG
        ),
    )
