"""Workload helpers for the common SDAM workflows.

The curated surface is :mod:`repro` itself; sweeps run through
:class:`repro.Session` (:mod:`repro.system.runner`)::

    from repro import Session, mixed_stride_workload

    session = Session()
    result = session.run(mixed_stride_workload(), "sdm_bsm_ml4")
    sweep = session.sweep(evaluation_workloads())
    sweep.table.geomean("SDM+BSM+ML(4)")
"""

from __future__ import annotations

from repro.ml import AutoencoderConfig
from repro.workloads import (
    MixedStrideWorkload,
    StridedCopyWorkload,
    Workload,
    data_intensive_suite,
    parsec_suite,
    spec2006_suite,
)

__all__ = [
    "QUICK_DL_CONFIG",
    "evaluation_workloads",
    "mixed_stride_workload",
    "strided_workload",
]

#: A small DL configuration for quick sweeps (``repro suite --quick``).
QUICK_DL_CONFIG = AutoencoderConfig(pretrain_steps=40, joint_steps=20)


def evaluation_workloads(*, quick: bool = True) -> list[Workload]:
    """The Fig. 12 workload population (trimmed when ``quick``)."""
    workloads = spec2006_suite() + parsec_suite() + data_intensive_suite()
    return workloads[:4] if quick else workloads


def strided_workload(stride_lines: int = 16, **kwargs) -> Workload:
    """The paper's synthetic data copy at one stride."""
    return StridedCopyWorkload(stride_lines=stride_lines, **kwargs)


def mixed_stride_workload(
    strides: tuple[int, ...] = (1, 4, 8, 16), **kwargs
) -> Workload:
    """The four-pattern mix of Fig. 4 / Fig. 11."""
    return MixedStrideWorkload(strides=strides, **kwargs)
