"""Range-granular access tracing for operators and solvers.

Events are recorded at 512-byte granularity (64 doubles — the same unit as
the vector-range schedule).  Each traced stream registers once with its byte
length and a kind: "vector" streams enter the memory-transfer accounting that
is compared against the analytic model, "metadata" streams (geometry tables,
index blocks) are kept separate.  A record is one touch of a stream: a
sequence of contiguous range runs [start, stop) in touch order.  Records and
runs are stored run-length encoded in growable parallel integer columns, so a
full-vector sweep costs one run whatever the stream's length.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["GRAIN_BYTES", "READ", "WRITE", "READWRITE", "Stream",
           "EventChunk", "TraceColumns", "AccessRecorder",
           "ContractViolation", "runs_of", "expand_runs"]

GRAIN_BYTES = 512  # 64 doubles, one schedule range

READ = 1
WRITE = 2
READWRITE = 3

assert array("q").itemsize == np.dtype(np.int64).itemsize


class ContractViolation(RuntimeError):
    """A callback touched data outside the range it was scheduled for."""


@dataclass(frozen=True)
class Stream:
    sid: int
    name: str
    kind: str  # "vector" | "metadata"
    n_bytes: int

    @property
    def n_ranges(self) -> int:
        return -(-self.n_bytes // GRAIN_BYTES)

    def range_doubles(self, r: int) -> float:
        """Number of doubles actually backing range r (the tail is partial)."""
        lo = r * GRAIN_BYTES
        return (min(lo + GRAIN_BYTES, self.n_bytes) - lo) / 8.0


def runs_of(ranges) -> tuple:
    """(starts, stops) of the ascending contiguous runs of a range-id
    sequence, in touch order, as int64 `array`s ready for `record_runs`.
    Duplicate and descending ids start new runs, so expanding the runs gives
    the sequence back."""
    ranges = np.asarray(ranges, dtype=np.int64).ravel()
    if ranges.size == 0:
        return array("q"), array("q")
    breaks = np.flatnonzero(np.diff(ranges) != 1) + 1
    starts = ranges[np.concatenate(([0], breaks))]
    stops = ranges[np.concatenate((breaks - 1, [ranges.size - 1]))] + 1
    return array("q", starts.tobytes()), array("q", stops.tobytes())


def expand_runs(starts, stops) -> np.ndarray:
    """The range ids of runs [start, stop), concatenated in order."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(stops, dtype=np.int64) - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


@dataclass(frozen=True)
class EventChunk:
    """One record, read back from the recorder's columns."""
    iteration: int
    region: int  # region-instance id
    tag: str
    sid: int
    mode: int
    starts: np.ndarray  # runs [start, stop) of 512-byte range ids,
    stops: np.ndarray   # in touch order

    @property
    def ranges(self) -> np.ndarray:
        """The record's range ids within the stream, runs expanded."""
        return expand_runs(self.starts, self.stops)


class TraceColumns(NamedTuple):
    """The trace as int64 columns: one entry per record (iteration, region,
    sid, mode, and `first`, the index of its first run; its runs end where
    the next record's begin) and one per run (start, stop)."""
    iteration: np.ndarray
    region: np.ndarray
    sid: np.ndarray
    mode: np.ndarray
    first: np.ndarray
    start: np.ndarray
    stop: np.ndarray


class AccessRecorder:
    """Collects ordered access events grouped into region instances.

    A region instance is one execution of a fused vector-access region (or
    one operator application); the analytic-model comparison counts unique
    (stream, range, direction) touches per region instance, which encodes the
    cache-reuse assumption of the transfer model.  The combined solver
    variants open a single region instance per iteration, which is exactly
    their fusion claim.
    """

    def __init__(self):
        self.streams = {}
        self._by_sid = {}
        self.iteration = -1
        self._region = -1
        self._tags = []             # region id -> tag
        # per record
        self._iteration_col = array("q")
        self._region_col = array("q")
        self._sid = array("q")
        self._mode = array("q")
        self._first = array("q")
        # per run
        self._start = array("q")
        self._stop = array("q")

    # -- setup ------------------------------------------------------------

    def register(self, name: str, n_bytes: int, kind: str = "vector") -> Stream:
        if name in self.streams:
            stream = self.streams[name]
            if stream.n_bytes != n_bytes or stream.kind != kind:
                raise ValueError(f"stream {name!r} re-registered inconsistently")
            return stream
        stream = Stream(len(self.streams), name, kind, n_bytes)
        self.streams[name] = stream
        self._by_sid[stream.sid] = stream
        return stream

    def register_dofs(self, name: str, n_dofs: int) -> Stream:
        """Register a vector stream of n_dofs doubles."""
        return self.register(name, 8 * n_dofs)

    # -- event flow --------------------------------------------------------

    def begin_iteration(self, k: int) -> None:
        self.iteration = k

    def begin_region(self, tag: str) -> int:
        rid = len(self._tags)
        self._tags.append(tag)
        self._region = rid
        return rid

    def resume_region(self, rid: int) -> None:
        """Continue recording into an earlier region instance (used when a
        fused vector region brackets a matrix-vector product)."""
        if not 0 <= rid < len(self._tags):
            raise KeyError(rid)
        self._region = rid

    def region_tag(self, rid: int) -> str:
        """The tag a region instance was opened with ("" outside regions)."""
        return self._tags[rid] if rid >= 0 else ""

    def _begin_record(self, sid: int, mode: int) -> None:
        self._iteration_col.append(self.iteration)
        self._region_col.append(self._region)
        self._sid.append(sid)
        self._mode.append(mode)
        self._first.append(len(self._start))

    def record_stream(self, name: str, mode: int) -> None:
        """Record a touch of every range of a stream (a full-vector sweep)."""
        stream = self.streams[name]
        if stream.n_ranges > 0:
            self._begin_record(stream.sid, mode)
            self._start.append(0)
            self._stop.append(stream.n_ranges)

    def record_runs(self, name: str, runs: tuple, mode: int) -> None:
        """Record prebuilt (starts, stops) runs, as `runs_of` returns them."""
        stream = self.streams[name]
        starts, stops = runs
        if len(starts):
            self._begin_record(stream.sid, mode)
            self._start.extend(starts)
            self._stop.extend(stops)

    def record_dofs(self, name: str, lo: int, hi: int, mode: int) -> None:
        """Record a touch of the doubles [lo, hi) of a stream: one run of
        the ranges they overlap."""
        if hi <= lo:
            return
        self._begin_record(self.streams[name].sid, mode)
        self._start.append(8 * lo // GRAIN_BYTES)
        self._stop.append(-(-8 * hi // GRAIN_BYTES))

    # -- inspection ---------------------------------------------------------

    def mark(self) -> int:
        return len(self._sid)

    def columns(self) -> TraceColumns:
        """A copy of the trace's columns as int64 arrays."""
        return TraceColumns(*(np.frombuffer(col, dtype=np.int64).copy() for col in (
            self._iteration_col, self._region_col, self._sid, self._mode,
            self._first, self._start, self._stop)))

    @property
    def chunks(self) -> tuple:
        """The records as EventChunks, read from one `columns()` copy."""
        cols = self.columns()
        ends = np.append(cols.first[1:], len(cols.start))
        return tuple(
            EventChunk(k, region, self.region_tag(region), sid, mode,
                       cols.start[a:b], cols.stop[a:b])
            for k, region, sid, mode, a, b in zip(
                cols.iteration.tolist(), cols.region.tolist(), cols.sid.tolist(),
                cols.mode.tolist(), cols.first.tolist(), ends.tolist()))

    def assert_within(self, mark: int, dof_lo: int, dof_hi: int,
                      n_dofs: int) -> None:
        """Check that every dof-length vector event since `mark` stays inside
        the dof span [dof_lo, dof_hi).  Streams of other lengths are scaled
        proportionally (e.g. a scalar diagonal on a 3-component vector)."""
        for i in range(mark, len(self._sid)):
            stream = self._by_sid[self._sid[i]]
            if stream.kind != "vector":
                continue
            scale = stream.n_bytes / (8 * n_dofs)
            lo = math.floor(dof_lo * 8 * scale / GRAIN_BYTES)
            hi = math.ceil(dof_hi * 8 * scale / GRAIN_BYTES)
            a = self._first[i]
            b = self._first[i + 1] if i + 1 < len(self._first) else len(self._start)
            first = min(self._start[a:b])
            last = max(self._stop[a:b]) - 1
            if first < lo or last >= max(hi, lo + 1):
                raise ContractViolation(
                    f"stream {stream.name!r} touched ranges "
                    f"[{first}, {last}] outside the scheduled span [{lo}, {hi}) "
                    f"in region {self.region_tag(self._region_col[i])!r}")
