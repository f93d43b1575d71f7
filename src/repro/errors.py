"""Exception hierarchy for the SDAM reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
The sub-classes mirror the major subsystems: address-mapping math, the
chunk-mapping table, the OS memory allocators, and the simulators.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class MappingError(ReproError):
    """An address mapping is malformed (not a permutation, wrong width...)."""


class MappingIntegrityError(MappingError):
    """A strict-mode verification check failed on live translation state.

    Carries enough context for a runtime scrubber to act on: ``code``
    distinguishes corrupt CMT state (``"cmt-binding"``, ``"cmt-config"``)
    from a bad user mapping (``"bijectivity"``) or a broken datapath
    (``"translation"``); ``chunk_no``/``mapping_index`` locate the
    failure when known.
    """

    def __init__(
        self,
        message: str,
        code: str = "",
        chunk_no: int | None = None,
        mapping_index: int | None = None,
    ):
        super().__init__(message)
        self.code = code
        self.chunk_no = chunk_no
        self.mapping_index = mapping_index


class CMTError(ReproError):
    """Chunk-mapping-table misuse: unknown chunk, table overflow, etc."""


class AllocationError(ReproError):
    """Physical or virtual memory could not be allocated."""


class OutOfMemoryError(AllocationError):
    """No free chunks/frames/heap space remain."""


class AddressError(ReproError):
    """An address is outside the valid physical/virtual range."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent."""


class SimulationError(ReproError):
    """The memory simulator was driven into an invalid state."""


class ProfilingError(ReproError):
    """Profiling data is missing or inconsistent (unknown variable...)."""


class TrainingError(ReproError):
    """A machine-learning component failed to train or converge."""


class CacheCorruptionError(ReproError):
    """A stage-cache entry failed its checksum or could not be decoded.

    The store never propagates this to sweep code — the entry is
    quarantined and reported as a miss — but maintenance ops
    (``StageStore.verify``) and tests see it directly.
    """


class WorkerCrashError(ReproError):
    """A worker process died (or was made to die) mid-stage.

    Raised by injected ``raise`` faults and used to classify broken
    process pools; it is in the default retry class set, so a crashed
    cell is re-executed rather than recorded as failed.
    """


class RetryExhaustedError(ReproError):
    """A transient failure persisted through every allowed attempt."""


class BackendDivergenceError(SimulationError):
    """The runtime divergence guard found a cross-tier mismatch.

    Raised in ``mode="raise"`` when a sampled decoded chunk replayed
    through the reference tier disagrees with the primary tier beyond
    the declared tolerance (in ``mode="demote"`` the run degrades to
    the reference tier instead).  ``report`` is the structured
    divergence report (sampled chunk, both tiers' numbers, the
    tolerance band violated).
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = dict(report or {})


class RASError(ReproError):
    """The RAS subsystem was misused or could not complete a repair."""


class DeviceFaultError(RASError):
    """A device fault specification is malformed (bad site, bad target)."""


class CampaignInterrupted(ReproError):
    """A long-running campaign stopped at a checkpoint before finishing.

    Raised by the deterministic ``stop_after`` test/CI hook (modelling
    a mid-campaign kill) after the checkpoint has been persisted;
    ``checkpoint_path`` names the file a ``resume`` run continues from.
    """

    def __init__(self, message: str, checkpoint_path: str | None = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
