"""Deterministic fault injection for guarded backend execution.

A :class:`FaultPlan` is a picklable list of :class:`FaultSpec` s, each
naming a ``backend.*`` site pattern (see :mod:`repro.faults.sites`)
and a token pattern.  The divergence guard asks the plan
:meth:`~FaultPlan.should_fire` at each sampled chunk; each spec fires
once, on the first event it matches, so the same plan against the same
run injects the same fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch

from repro.errors import ConfigError
from repro.faults.sites import BACKEND_SITES, matches_known_site

__all__ = ["FaultPlan", "FaultSpec"]


@dataclass(frozen=True)
class FaultSpec:
    """One injectable failure: an ``fnmatch`` pattern over the site
    name and one over the token the backend supplies."""

    site: str
    match: str = "*"

    def __post_init__(self):
        if not matches_known_site(self.site, family="backend"):
            hint = (
                "; device.* sites are injected through "
                "repro.ras.DeviceFaultPlan, not a FaultPlan"
                if matches_known_site(self.site, family="device")
                else ""
            )
            raise ConfigError(
                f"fault site pattern {self.site!r} matches no backend "
                f"fault site (known: {', '.join(BACKEND_SITES)}){hint}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of one-shot fault specs."""

    specs: tuple[FaultSpec, ...] = ()
    _fired: set = field(
        default_factory=set, init=False, compare=False, repr=False
    )

    @classmethod
    def single(cls, site: str, match: str = "*") -> "FaultPlan":
        """A one-spec plan (the common test-fixture shape)."""
        return cls(specs=(FaultSpec(site=site, match=match),))

    def should_fire(self, site: str, token: str) -> FaultSpec | None:
        """The first unspent spec matching this event, now spent."""
        for index, spec in enumerate(self.specs):
            if (
                index not in self._fired
                and fnmatch(site, spec.site)
                and fnmatch(token, spec.match)
            ):
                self._fired.add(index)
                return spec
        return None
