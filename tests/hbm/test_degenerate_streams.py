"""Degenerate chunk streams through every fidelity tier.

Empty iterables, zero-length chunks and one-request-per-chunk streams
are all legal inputs to ``simulate_decoded`` — they fall out naturally
from short traces and trailing partial windows — and every tier must handle them identically to the
equivalent whole trace (or, for an empty stream, return all-zero
stats rather than crash).
"""

import numpy as np
import pytest

from repro.hbm import create_backend, hbm2_config
from repro.hbm.decode import DecodedTrace, decode_trace
from repro.hbm.stats import RunStats

CONFIG = hbm2_config()
TIERS = ("fast", "vector", "event")


def _trace(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lines = CONFIG.total_bytes // CONFIG.line_bytes
    return rng.integers(0, lines, n, dtype=np.uint64) * np.uint64(
        CONFIG.line_bytes
    )


def _empty_chunk() -> DecodedTrace:
    zeros = np.zeros(0, dtype=np.int64)
    return DecodedTrace(
        channel=zeros, bank=zeros, row=zeros, column=zeros, global_bank=zeros
    )


def _slice(decoded: DecodedTrace, lo: int, hi: int) -> DecodedTrace:
    return DecodedTrace(
        channel=decoded.channel[lo:hi],
        bank=decoded.bank[lo:hi],
        row=decoded.row[lo:hi],
        column=decoded.column[lo:hi],
        global_bank=decoded.global_bank[lo:hi],
    )


def _assert_identical(a: RunStats, b: RunStats):
    assert a.requests == b.requests
    assert a.bytes_moved == b.bytes_moved
    assert a.makespan_ns == b.makespan_ns
    assert a.row_hits == b.row_hits
    assert a.row_misses == b.row_misses
    np.testing.assert_array_equal(
        a.per_channel_requests, b.per_channel_requests
    )


@pytest.mark.parametrize("tier", TIERS)
class TestDegenerateStreams:
    def test_empty_iterable(self, tier):
        stats = create_backend(tier, CONFIG).simulate_decoded(iter([]))
        assert stats.requests == 0
        assert stats.bytes_moved == 0
        assert stats.makespan_ns == 0.0
        assert stats.row_hits == 0 and stats.row_misses == 0

    def test_stream_of_only_empty_chunks(self, tier):
        stats = create_backend(tier, CONFIG).simulate_decoded(
            iter([_empty_chunk(), _empty_chunk()])
        )
        assert stats.requests == 0
        assert stats.makespan_ns == 0.0

    def test_empty_whole_trace(self, tier):
        stats = create_backend(tier, CONFIG).simulate_decoded(_empty_chunk())
        assert stats.requests == 0

    def test_zero_length_chunks_interleaved(self, tier):
        decoded = decode_trace(_trace(600), CONFIG)
        whole = create_backend(tier, CONFIG).simulate_decoded(decoded)
        mixed = [
            _empty_chunk(),
            _slice(decoded, 0, 250),
            _empty_chunk(),
            _empty_chunk(),
            _slice(decoded, 250, 600),
            _empty_chunk(),
        ]
        chunked = create_backend(tier, CONFIG).simulate_decoded(iter(mixed))
        _assert_identical(chunked, whole)

    def test_single_request_chunks(self, tier):
        decoded = decode_trace(_trace(96), CONFIG)
        whole = create_backend(tier, CONFIG).simulate_decoded(decoded)
        singles = (
            _slice(decoded, i, i + 1) for i in range(len(decoded))
        )
        chunked = create_backend(tier, CONFIG).simulate_decoded(singles)
        _assert_identical(chunked, whole)


class TestIterDecodedChunks:
    """``iter_decoded_chunks`` at the edges of its domain."""

    def _translator(self):
        from repro.core.mapping import identity_mapping
        from repro.core.sdam import GlobalMappingTranslator

        return GlobalMappingTranslator(
            identity_mapping(CONFIG.layout().width)
        )

    def test_empty_trace_yields_no_chunks(self):
        from repro.hbm.decode import iter_decoded_chunks

        chunks = list(
            iter_decoded_chunks(
                np.zeros(0, dtype=np.uint64), self._translator(), CONFIG
            )
        )
        assert chunks == []
        for tier in TIERS:
            stats = create_backend(tier, CONFIG).simulate_decoded(
                iter_decoded_chunks(
                    np.zeros(0, dtype=np.uint64), self._translator(), CONFIG
                )
            )
            assert stats.requests == 0

    def test_chunk_size_one_is_bit_identical(self):
        from repro.hbm.decode import iter_decoded_chunks

        pa = _trace(64)
        translator = self._translator()
        for tier in TIERS:
            whole = create_backend(tier, CONFIG).simulate_decoded(
                decode_trace(pa, CONFIG)
            )
            chunked = create_backend(tier, CONFIG).simulate_decoded(
                iter_decoded_chunks(pa, translator, CONFIG, 1)
            )
            _assert_identical(chunked, whole)

    def test_invalid_chunk_size_rejected(self):
        from repro.errors import MappingError
        from repro.hbm.decode import iter_decoded_chunks

        with pytest.raises(MappingError, match="chunk_accesses"):
            list(
                iter_decoded_chunks(
                    _trace(8), self._translator(), CONFIG, 0
                )
            )
