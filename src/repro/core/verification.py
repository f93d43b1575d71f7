"""Correctness audits for the Section 4 functional guarantee.

"One PA can map to only one HA or vice versa": this module provides
executable checks of that property — exhaustive within a chunk,
sampled across the device — plus an audit of the chunk-number
preservation rule and the AMU/CMT configuration consistency.  Useful
both in tests and as a runtime debugging aid when composing custom
mappings.

Both entry points accept ``strict=True``, under which the first failed
check raises a structured :class:`~repro.errors.MappingIntegrityError`
instead of accumulating into the report.  The error's ``code`` field
classifies the failure — ``"cmt-config"``/``"cmt-binding"`` point at
corrupt CMT state, ``"translation"`` at the datapath, ``"bijectivity"``
at a bad user mapping — which is how the RAS scrubber tells an SRAM
upset apart from a mis-composed mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitmatrix import BitOperator
from repro.core.chunks import ChunkGeometry
from repro.core.sdam import SDAMController
from repro.errors import CMTError, MappingError, MappingIntegrityError

__all__ = [
    "VerificationFailure",
    "VerificationReport",
    "audit_controller",
    "verify_mapping",
]


@dataclass(frozen=True)
class VerificationFailure:
    """One failed check, with enough context to act on it."""

    message: str
    code: str = ""
    chunk_no: int | None = None
    mapping_index: int | None = None

    def as_error(self) -> MappingIntegrityError:
        """The failure as a raisable structured error."""
        return MappingIntegrityError(
            self.message,
            code=self.code,
            chunk_no=self.chunk_no,
            mapping_index=self.mapping_index,
        )


@dataclass
class VerificationReport:
    """Outcome of a correctness audit.

    With ``strict=True`` the first failing check raises its
    :class:`~repro.errors.MappingIntegrityError` immediately.
    """

    checks_run: int = 0
    failures: list[str] = field(default_factory=list)
    records: list[VerificationFailure] = field(default_factory=list)
    strict: bool = False

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return not self.failures

    def check(
        self,
        passed: bool,
        message: str,
        code: str = "",
        chunk_no: int | None = None,
        mapping_index: int | None = None,
    ) -> None:
        """Record one check; ``message`` (plus context) is kept on failure."""
        self.checks_run += 1
        if passed:
            return
        record = VerificationFailure(
            message=message,
            code=code,
            chunk_no=chunk_no,
            mapping_index=mapping_index,
        )
        self.failures.append(message)
        self.records.append(record)
        if self.strict:
            raise record.as_error()

    def raise_if_failed(self) -> None:
        """Raise :class:`MappingError` if any check failed."""
        if self.failures:
            raise MappingError(
                "verification failed: " + "; ".join(self.failures)
            )

    def __repr__(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return f"VerificationReport({self.checks_run} checks, {status})"


def verify_mapping(
    operator: BitOperator,
    exhaustive_bits: int = 16,
    strict: bool = False,
) -> VerificationReport:
    """Check a single mapping is a bijection.

    Exhaustive over the low ``exhaustive_bits`` of the space (with the
    remaining bits zero), plus an inverse round-trip over random
    samples of the full width.  ``strict=True`` raises a
    ``code="bijectivity"`` :class:`MappingIntegrityError` on the first
    failure.
    """
    report = VerificationReport(strict=strict)
    width = operator.width
    span = 1 << min(exhaustive_bits, width)
    space = np.arange(span, dtype=np.uint64)
    mapped = np.asarray(operator.apply(space))
    report.check(
        np.unique(mapped).size == span,
        f"mapping aliases values within the low {min(exhaustive_bits, width)}"
        " bits",
        code="bijectivity",
    )
    try:
        inverse = operator.invert()
    except MappingError:
        report.check(False, "mapping has no inverse", code="bijectivity")
        return report
    rng = np.random.default_rng(0)
    sample = rng.integers(0, 1 << width, 512, dtype=np.uint64)
    roundtrip = np.asarray(inverse.apply(np.asarray(operator.apply(sample))))
    report.check(
        bool(np.array_equal(roundtrip, sample)),
        "inverse(apply(x)) != x on random samples",
        code="bijectivity",
    )
    return report


def audit_controller(
    controller: SDAMController,
    sample_chunks: int = 8,
    lines_per_chunk: int = 2048,
    seed: int = 0,
    strict: bool = False,
) -> VerificationReport:
    """Audit a live SDAM controller against the Section 4 rules.

    * every interned mapping is an invertible window permutation
      (``code="cmt-config"`` on failure);
    * every sampled chunk points at an interned mapping
      (``code="cmt-binding"``);
    * chunk numbers pass through translation unchanged and translation
      is injective within each sampled chunk (``code="translation"``).

    With ``strict=True`` the first failure raises, so a runtime
    scrubber can dispatch on the error's ``code``/``chunk_no``/
    ``mapping_index`` instead of parsing messages.
    """
    report = VerificationReport(strict=strict)
    geometry: ChunkGeometry = controller.geometry
    cmt = controller.cmt

    for index in range(cmt.live_mappings):
        perm = cmt.config_of(index)
        report.check(
            sorted(perm.tolist()) == list(range(geometry.window_bits)),
            f"mapping {index} is not a window permutation",
            code="cmt-config",
            mapping_index=index,
        )
        try:
            operator = controller.operator_of(index)
        except MappingError as error:
            report.check(
                False,
                f"mapping {index} rejected by AMU: {error}",
                code="cmt-config",
                mapping_index=index,
            )
            continue
        # Only the window block may differ from the identity.
        low, high = geometry.window_slice()
        matrix = operator.matrix
        kept = np.eye(operator.width, dtype=np.uint8)
        kept[low:high, low:high] = matrix[low:high, low:high]
        report.check(
            bool(np.array_equal(matrix, kept)),
            f"mapping {index} leaks outside the chunk window",
            code="cmt-config",
            mapping_index=index,
        )

    rng = np.random.default_rng(seed)
    chunk_numbers = rng.integers(
        0, geometry.num_chunks, min(sample_chunks, geometry.num_chunks)
    )
    for chunk_no in np.unique(chunk_numbers):
        index = cmt.mapping_index_of(int(chunk_no))
        bound = 0 <= index < cmt.live_mappings
        report.check(
            bound,
            f"chunk {chunk_no} bound to unknown mapping {index}",
            code="cmt-binding",
            chunk_no=int(chunk_no),
            mapping_index=int(index),
        )
        if not bound:
            continue
        base = geometry.chunk_base(int(chunk_no))
        offsets = rng.choice(
            geometry.lines_per_chunk,
            size=min(lines_per_chunk, geometry.lines_per_chunk),
            replace=False,
        ).astype(np.uint64)
        pa = np.uint64(base) + offsets * np.uint64(geometry.line_bytes)
        try:
            ha = controller.translate(pa)
        except (MappingError, CMTError) as error:
            report.check(
                False,
                f"chunk {chunk_no}: translation failed: {error}",
                code="translation",
                chunk_no=int(chunk_no),
                mapping_index=int(index),
            )
            continue
        report.check(
            bool(
                np.array_equal(
                    geometry.chunk_number(ha), geometry.chunk_number(pa)
                )
            ),
            f"chunk {chunk_no}: chunk number not preserved",
            code="translation",
            chunk_no=int(chunk_no),
            mapping_index=int(index),
        )
        report.check(
            np.unique(ha).size == pa.size,
            f"chunk {chunk_no}: translation aliases addresses",
            code="translation",
            chunk_no=int(chunk_no),
            mapping_index=int(index),
        )
    return report
