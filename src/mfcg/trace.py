"""Range-granular access tracing for operators and solvers.

Events are recorded at 512-byte granularity (64 doubles — the same unit as
the vector-range schedule).  Each traced stream registers once with its byte
length and a kind: "vector" streams enter the memory-transfer accounting that
is compared against the analytic model, "metadata" streams (geometry tables,
index blocks) are kept separate.  Events are stored as compact numpy chunks
so full-solve traces of ~10^5-DoF problems stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GRAIN_BYTES", "READ", "WRITE", "READWRITE", "Stream",
           "EventChunk", "AccessRecorder", "ContractViolation"]

GRAIN_BYTES = 512  # 64 doubles, one schedule range

READ = 1
WRITE = 2
READWRITE = 3


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


@dataclass(frozen=True)
class EventChunk:
    iteration: int
    region: int  # region-instance id
    tag: str
    sid: int
    mode: int
    ranges: np.ndarray  # 512-byte range ids within the stream


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
        self.chunks = []
        self.iteration = -1
        self._region = -1
        self._next_region = 0
        self._tag = ""
        self._tags = {}

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

    def register_dofs(self, name: str, n_dofs: int, kind: str = "vector") -> Stream:
        return self.register(name, 8 * n_dofs, kind)

    # -- event flow --------------------------------------------------------

    def begin_iteration(self, k: int) -> None:
        self.iteration = k

    def begin_region(self, tag: str) -> int:
        rid = self._next_region
        self._next_region += 1
        self._region = rid
        self._tag = tag
        self._tags[rid] = tag
        return rid

    def resume_region(self, rid: int) -> None:
        """Continue recording into an earlier region instance (used when a
        fused vector region brackets a matrix-vector product)."""
        self._region = rid
        self._tag = self._tags[rid]

    def record_stream(self, name: str, mode: int) -> None:
        """Record a touch of every range of a stream (a full-vector sweep)."""
        stream = self.streams[name]
        self.record_ranges(name, np.arange(stream.n_ranges), mode)

    def record_ranges(self, name: str, ranges, mode: int) -> None:
        stream = self.streams[name]
        ranges = np.asarray(ranges, dtype=np.int64)
        if ranges.size == 0:
            return
        self.chunks.append(EventChunk(self.iteration, self._region, self._tag,
                                      stream.sid, mode, ranges))

    def record_span(self, name: str, byte_lo: int, byte_hi: int, mode: int) -> None:
        if byte_hi <= byte_lo:
            return
        lo = byte_lo // GRAIN_BYTES
        hi = -(-byte_hi // GRAIN_BYTES)
        self.record_ranges(name, np.arange(lo, hi), mode)

    def record_dofs(self, name: str, lo: int, hi: int, mode: int) -> None:
        self.record_span(name, 8 * lo, 8 * hi, mode)

    # -- inspection ---------------------------------------------------------

    def mark(self) -> int:
        return len(self.chunks)

    def assert_within(self, mark: int, dof_lo: int, dof_hi: int,
                      n_dofs: int) -> None:
        """Check that every dof-length vector event since `mark` stays inside
        the dof span [dof_lo, dof_hi).  Streams of other lengths are scaled
        proportionally (e.g. a scalar diagonal on a 3-component vector)."""
        for chunk in self.chunks[mark:]:
            stream = self._by_sid[chunk.sid]
            if stream.kind != "vector":
                continue
            scale = stream.n_bytes / (8 * n_dofs)
            lo = int(np.floor(dof_lo * 8 * scale / GRAIN_BYTES))
            hi = int(np.ceil(dof_hi * 8 * scale / GRAIN_BYTES))
            if chunk.ranges.min() < lo or chunk.ranges.max() >= max(hi, lo + 1):
                raise ContractViolation(
                    f"stream {stream.name!r} touched ranges "
                    f"[{chunk.ranges.min()}, {chunk.ranges.max()}] outside the "
                    f"scheduled span [{lo}, {hi}) in region {chunk.tag!r}")
