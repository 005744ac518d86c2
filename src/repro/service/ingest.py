"""Measurement-batch ingestion for the online optimizer.

One measurement batch is one control-loop tick's worth of observed
request ranks.  The wire format is deliberately trivial — one UTF-8
line per batch, ASCII-whitespace-separated decimal ranks, ``#``
comments — so traffic taps, replay files and shell pipelines can all
feed `repro serve`.
A blank line is a well-formed *empty* batch: the window saw no traffic
that tick, and the service idles through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, TextIO, Union

import numpy as np

from ..errors import ParameterError

__all__ = ["MeasurementBatch", "parse_line", "read_stream"]

#: Exclusive upper bound on a parsed rank: the int64 maximum, which is
#: also what ``np.fromstring`` saturates an out-of-range token to.
_RANK_LIMIT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class MeasurementBatch:
    """One tick's observed request ranks (1-based catalog positions)."""

    ranks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        ranks = np.asarray(self.ranks)
        if ranks.ndim != 1:
            raise ParameterError(
                f"measurement ranks must be one-dimensional, got shape {ranks.shape}"
            )
        if ranks.size and (
            not np.issubdtype(ranks.dtype, np.integer) or np.any(ranks < 1)
        ):
            raise ParameterError("measurement ranks must be integers >= 1")
        object.__setattr__(self, "ranks", ranks.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return int(self.ranks.size)

    @property
    def empty(self) -> bool:
        """Whether the window saw no traffic this tick."""
        return self.ranks.size == 0


def parse_line(line: str) -> MeasurementBatch:
    """Parse one text line into a :class:`MeasurementBatch`.

    Ranks are unsigned ASCII decimal integers separated by ASCII
    whitespace (space, tab, CR, LF, VT, FF); anything after ``#`` is a
    comment; a blank (or comment-only) line is an empty batch.  Any
    other token — a sign, ``1_000``, a non-ASCII digit, a rank of
    ``2**63 - 1`` or more — rejects the line with ``ParameterError``.
    """
    payload = line.split("#", 1)[0].strip()
    if not payload:
        return MeasurementBatch()
    ranks = None
    # numpy's integer parser reads a sign, even one apart from its digits
    # ("+ 5"), so a signed line never reaches it: ranks are positive.
    if "+" not in payload and "-" not in payload:
        try:
            ranks = np.fromstring(payload, dtype=np.int64, sep=" ")
        except ValueError:
            ranks = None
    if ranks is None:
        raise ParameterError(
            f"measurement line is not whitespace-separated integer ranks: "
            f"{payload!r}"
        )
    # An out-of-range token saturates to the int64 maximum instead of
    # raising, so that maximum is rejected as a rank.
    if ranks.max() >= _RANK_LIMIT:
        raise ParameterError(
            f"measurement rank out of range (must be below 2**63 - 1): "
            f"{payload!r}"
        )
    return MeasurementBatch(ranks=ranks)


def read_stream(
    stream: Union[TextIO, BinaryIO, Iterable[Union[str, bytes]]],
) -> Iterator[MeasurementBatch]:
    """Iterate a stream as measurement batches, one per line.

    Works on text or binary file objects and on plain iterables of
    ``str`` or ``bytes`` lines alike; a ``bytes`` line is decoded as
    UTF-8.  Every line (including blank ones — idle ticks) yields a
    batch, so tick indices in the service line up with line numbers in
    the stream.  A line that is not UTF-8 or not well formed raises
    ``ParameterError`` naming its 1-based line number.
    """
    for number, line in enumerate(stream, 1):
        try:
            batch = parse_line(
                line.decode("utf-8") if isinstance(line, bytes) else line
            )
        except (UnicodeDecodeError, ParameterError) as exc:
            raise ParameterError(f"line {number}: {exc}") from exc
        yield batch
