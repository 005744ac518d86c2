"""Tests for repro.service.ingest — the measurement wire format."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.service import MeasurementBatch, parse_line, read_stream


class TestMeasurementBatch:
    def test_default_is_empty(self):
        batch = MeasurementBatch()
        assert batch.empty
        assert len(batch) == 0

    def test_holds_integer_ranks(self):
        batch = MeasurementBatch(ranks=np.array([3, 1, 2]))
        assert not batch.empty
        assert len(batch) == 3
        assert batch.ranks.dtype == np.int64

    def test_rejects_non_positive_ranks(self):
        with pytest.raises(ParameterError):
            MeasurementBatch(ranks=np.array([1, 0, 2]))

    def test_rejects_float_ranks(self):
        with pytest.raises(ParameterError):
            MeasurementBatch(ranks=np.array([1.5, 2.0]))

    def test_rejects_matrix_ranks(self):
        with pytest.raises(ParameterError):
            MeasurementBatch(ranks=np.ones((2, 2), dtype=np.int64))


class TestParseLine:
    def test_parses_whitespace_separated_ranks(self):
        batch = parse_line("5 1  12\t3")
        np.testing.assert_array_equal(batch.ranks, [5, 1, 12, 3])

    def test_blank_line_is_empty_batch(self):
        assert parse_line("").empty
        assert parse_line("   \n").empty

    def test_comment_only_line_is_empty_batch(self):
        assert parse_line("# a comment\n").empty

    def test_trailing_comment_is_stripped(self):
        batch = parse_line("4 2 # burst from cache tap\n")
        np.testing.assert_array_equal(batch.ranks, [4, 2])

    def test_non_integer_token_rejected(self):
        with pytest.raises(ParameterError):
            parse_line("3 four 5")

    @pytest.mark.parametrize(
        "line",
        [
            "1_000",  # int() accepts digit separators
            "\u0661\u0662",  # Arabic-Indic digits, also int()-only
            "4 \uff15",  # a full-width digit
            "+5",
            "+ 5",  # numpy's parser would read this as 5
            "- 1",
            "3 -",
            "1\xa02",  # a non-ASCII space inside the payload
            "2.0",
            "0x1f",
        ],
    )
    def test_only_unsigned_ascii_decimal_tokens_accepted(self, line):
        with pytest.raises(ParameterError):
            parse_line(line)

    @pytest.mark.parametrize(
        "line",
        ["99999999999999999999", "9223372036854775807", "5 18446744073709551616"],
    )
    def test_oversized_rank_token_rejected(self, line):
        # np.fromstring saturates these to the int64 maximum.
        with pytest.raises(ParameterError, match="out of range"):
            parse_line(line)

    def test_largest_rank_token_parses_exactly(self):
        batch = parse_line("9223372036854775806")
        assert batch.ranks.tolist() == [2**63 - 2]

    def test_matches_per_token_int_parsing(self):
        """The one-call parse agrees with the per-token ``int()`` loop."""
        rng = np.random.default_rng(0)
        separators = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\r"]
        for _ in range(200):
            tokens = [str(r) for r in rng.integers(1, 10**12, rng.integers(1, 40))]
            seps = rng.choice(separators, len(tokens))
            line = "".join(t + s for t, s in zip(tokens, seps)) + "\n"
            want = [int(token) for token in line.split()]
            assert parse_line(line).ranks.tolist() == want


class TestReadStream:
    def test_yields_one_batch_per_line(self):
        stream = io.StringIO("1 2\n\n3\n")
        batches = list(read_stream(stream))
        assert [len(b) for b in batches] == [2, 0, 1]

    def test_accepts_plain_string_iterables(self):
        batches = list(read_stream(["7 7 7", "# idle"]))
        assert [len(b) for b in batches] == [3, 0]

    def test_decodes_utf8_byte_lines(self):
        stream = io.BytesIO("1 2\n# caf\u00e9\n3\n".encode("utf-8"))
        assert [len(b) for b in read_stream(stream)] == [2, 0, 1]

    def test_non_utf8_line_is_named(self):
        stream = io.BytesIO(b"1 2\n\xff\xfe 3\n")
        with pytest.raises(ParameterError, match="line 2"):
            list(read_stream(stream))

    def test_malformed_line_is_named(self):
        with pytest.raises(ParameterError, match="line 3"):
            list(read_stream(["1", "", "2 x"]))
