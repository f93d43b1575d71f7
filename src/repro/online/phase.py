"""Phase-change detection over streaming bit-flip-rate vectors.

A mapping is justified by the BFRV it was selected from.  The detector
keeps that *reference* vector and compares each new decayed estimate
against it; when the distance stays above a trigger threshold for a
configurable number of consecutive windows (persistence — one noisy
window never fires), the workload has entered a new phase and the
controller should reconsider its mapping.

Hysteresis is built in twice over: the persistence requirement on the
way up, and the rule that the reference only moves when the *caller*
accepts the new phase (after a remap, or after an explicit decline) —
so a stationary trace, whose estimate never leaves the reference's
neighbourhood, can never fire at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ProfilingError

__all__ = ["PhaseEvent", "PhaseDetector", "bfrv_distance"]


def bfrv_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute per-bit difference of two flip-rate vectors.

    Scale-free in the number of bits and bounded by 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ProfilingError("flip-rate vectors have different shapes")
    return float(np.abs(a - b).mean())


@dataclass(frozen=True)
class PhaseEvent:
    """One detected phase change."""

    window: int  # detector window index at which the change fired
    distance: float  # distance from the reference when it fired
    streak: int  # consecutive over-threshold windows behind it


class PhaseDetector:
    """Flags when the decayed BFRV diverges from the mapping's reference.

    Parameters
    ----------
    threshold:
        Trigger distance.  Must be exceeded on ``persistence``
        consecutive windows to fire.
    persistence:
        Consecutive over-threshold windows required (the hysteresis
        against one-window noise).

    The distance is :func:`bfrv_distance`.
    """

    def __init__(
        self,
        threshold: float = 0.08,
        persistence: int = 2,
    ):
        if threshold <= 0:
            raise ProfilingError("threshold must be positive")
        if persistence < 1:
            raise ProfilingError("persistence must be >= 1")
        self.threshold = threshold
        self.persistence = persistence
        self._reference: np.ndarray | None = None
        self._streak = 0
        self.windows_seen = 0
        self.last_distance = 0.0
        self.events: list[PhaseEvent] = []

    @property
    def reference(self) -> np.ndarray | None:
        """The BFRV that justified the current mapping (a copy)."""
        return None if self._reference is None else self._reference.copy()

    def set_reference(self, rates: np.ndarray) -> None:
        """Re-anchor on the BFRV that now justifies the current regime."""
        self._reference = np.asarray(rates, dtype=np.float64).copy()
        self._streak = 0

    def observe(self, rates: np.ndarray) -> PhaseEvent | None:
        """Fold one window's estimate in; returns an event when firing.

        The first observation becomes the reference.  After an event
        the caller decides what to do and must re-anchor with
        :meth:`set_reference`; until then the detector keeps firing at
        most every ``persistence`` windows.
        """
        self.windows_seen += 1
        if self._reference is None:
            self.set_reference(rates)
            self.last_distance = 0.0
            return None
        self.last_distance = bfrv_distance(rates, self._reference)
        if self.last_distance <= self.threshold:
            self._streak = 0
            return None
        self._streak += 1
        if self._streak < self.persistence:
            return None
        event = PhaseEvent(
            window=self.windows_seen,
            distance=self.last_distance,
            streak=self._streak,
        )
        self.events.append(event)
        self._streak = 0
        return event

    def __repr__(self) -> str:
        return (
            f"PhaseDetector(threshold={self.threshold}, "
            f"persistence={self.persistence}, events={len(self.events)})"
        )
