"""Memory-locality analysis: analytic transfer model, trace summaries,
range-liveliness reporting, and a fully-associative LRU cache replay.

The analytic model counts ideal doubles moved per degree of freedom per
solver iteration, assuming each fused vector-access region streams its
operands exactly once.  Traces recorded by the instrumented solvers are
summarized with the same counting unit (unique stream touches per region
instance) so the two sides are directly comparable; the cache replay then
drops the perfect-reuse assumption and answers what an LRU cache of a given
capacity would actually fetch from RAM.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .dofs import RangeSchedule
from .trace import GRAIN_BYTES, READ, WRITE, AccessRecorder

__all__ = ["TransferPrediction", "predict_transfer", "TagTally",
           "TraceSummary", "summarize_trace", "LivelinessReport",
           "liveliness", "LINE_BYTES", "CacheModel", "CacheReplayResult",
           "replay_cache"]


# -- analytic transfer model --------------------------------------------------


@dataclass(frozen=True)
class TransferPrediction:
    """Ideal doubles per DoF per iteration, split into the fused
    vector-access regions and the matrix-vector product."""
    variant: str
    vector_reads: float
    vector_writes: float
    matvec_reads: float
    matvec_writes: float

    @property
    def reads_per_dof(self) -> float:
        return self.vector_reads + self.matvec_reads

    @property
    def writes_per_dof(self) -> float:
        return self.vector_writes + self.matvec_writes


def predict_transfer(variant: str, s: int = None) -> TransferPrediction:
    """Modeled ideal memory transfer per iteration.

    Non-combined variants stream their vector operations apart from the
    operator application, which adds (2 reads, 1 write) on top of the listed
    vector-access counts.  The combined variants run everything inside one
    region per iteration, so their numbers are totals: 3.5/3.5, with the
    preconditioned form reading the scalar inverse diagonal on top (one third
    of a vector on the three-component benchmark problems the model is
    normalized to).  The s-step variant amortizes its reduction cluster and
    block updates over s iterations.
    """
    if variant == "cg":
        return TransferPrediction("cg", 9.0, 3.0, 2.0, 1.0)
    if variant == "pcg":
        return TransferPrediction("pcg", 13.0, 4.0, 2.0, 1.0)
    if variant == "pipelined":
        return TransferPrediction("pipelined", 7.0, 6.0, 2.0, 1.0)
    if variant == "sstep":
        if s is None:
            raise ValueError("the s-step prediction needs s")
        if s < 1:
            raise ValueError("s must be at least 1")
        return TransferPrediction("sstep", 5.0 + 4.0 / s, 1.0 + 2.0 / s,
                                  2.0, 1.0)
    if variant == "combined_cg":
        return TransferPrediction("combined_cg", 3.5, 3.5, 0.0, 0.0)
    if variant == "combined_pcg":
        return TransferPrediction("combined_pcg", 3.5 + 1.0 / 3.0, 3.5,
                                  0.0, 0.0)
    if variant == "matvec":
        return TransferPrediction("matvec", 0.0, 0.0, 2.0, 1.0)
    raise ValueError(f"unknown variant {variant!r}")


# -- trace summaries -----------------------------------------------------------


@dataclass(frozen=True)
class TagTally:
    tag: str
    instances: int
    reads_per_iteration: float     # doubles / DoF / iteration
    writes_per_iteration: float
    reads_per_instance: float      # doubles / DoF / region instance
    writes_per_instance: float


@dataclass(frozen=True)
class TraceSummary:
    n_dofs: int
    n_iterations: int
    tags: dict                      # tag -> TagTally (vector streams)
    vector_reads: float             # per-iteration sum over vector-access tags
    vector_writes: float
    matvec_reads: float             # per matvec instance
    matvec_writes: float
    metadata_reads: float           # per iteration, all metadata streams
    metadata_writes: float


_NON_ROW_TAGS = frozenset({"matvec", "drift_check"})


def _union_bytes(region, sid, start, stop, n_regions, streams):
    """Bytes of the unique ranges that the runs [start, stop) of each
    (region, stream) group touch, summed per region over vector streams and
    over metadata streams.

    The runs are sorted by group and start; a running maximum of their
    stops marks where each union interval ends, so overlapping runs count
    once.  Each range counts GRAIN_BYTES, and the stream's partial tail its
    own bytes when the group's union reaches the stream's end."""
    if len(start) == 0:
        return np.zeros(n_regions), np.zeros(n_regions)
    group = region * len(streams) + sid
    order = np.lexsort((start, group))
    group, region, sid = group[order], region[order], sid[order]
    start, stop = start[order], stop[order]
    begins = np.concatenate(([True], group[1:] != group[:-1]))
    # lift each group above every earlier one, so that one running maximum
    # over all runs never carries a stop from one group into the next
    lift = (np.cumsum(begins) - 1) * (stop.max() - start.min() + 1)
    lo, reach = start + lift, np.maximum.accumulate(stop + lift)
    opens = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
    closes = np.append(opens[1:], len(lo)) - 1
    begins = np.flatnonzero(begins)
    n_unique = np.add.reduceat(reach[closes] - lo[opens],
                               np.searchsorted(opens, begins))
    sid, region = sid[begins], region[begins]
    n_ranges = np.array([s.n_ranges for s in streams])
    tail_extra = np.array([8 * s.range_doubles(s.n_ranges - 1) - GRAIN_BYTES
                           for s in streams])
    vector = np.array([s.kind == "vector" for s in streams])[sid]
    nbytes = GRAIN_BYTES * n_unique + np.where(
        np.maximum.reduceat(stop, begins) == n_ranges[sid], tail_extra[sid], 0.0)
    return (np.bincount(region[vector], weights=nbytes[vector], minlength=n_regions),
            np.bincount(region[~vector], weights=nbytes[~vector], minlength=n_regions))


def summarize_trace(recorder: AccessRecorder, n_dofs: int,
                    n_iterations: int) -> TraceSummary:
    """Reduce a recorded trace to doubles per DoF with the model's counting
    unit: within one region instance every (stream, range, direction) counts
    once.  Only iterations 1..n_iterations enter (setup work is labeled
    iteration 0).  Vector and metadata streams are tallied separately."""
    if n_iterations < 1:
        raise ValueError("need at least one iteration")
    cols = recorder.columns()
    streams = sorted(recorder.streams.values(), key=lambda s: s.sid)
    kept = np.flatnonzero((cols.iteration >= 1) & (cols.iteration <= n_iterations))
    # region instances in order of their first record in the window
    regions, first_seen, where = np.unique(cols.region[kept], return_index=True,
                                           return_inverse=True)
    n_regions = len(regions)
    run_counts = np.diff(np.append(cols.first, len(cols.start)))
    record_region = np.full(len(cols.sid), -1)
    record_region[kept] = where
    run_record = np.repeat(np.arange(len(cols.sid)), run_counts)
    run_region = record_region[run_record]
    in_window = run_region >= 0
    run_mode = cols.mode[run_record]
    run_sid = cols.sid[run_record]

    def direction(bit):
        sel = in_window & ((run_mode & bit) != 0)
        vector, metadata = _union_bytes(run_region[sel], run_sid[sel],
                                        cols.start[sel], cols.stop[sel],
                                        n_regions, streams)
        return vector / 8.0, metadata / 8.0

    reads, meta_reads = direction(READ)
    writes, meta_writes = direction(WRITE)

    per_tag = {}
    for i in np.argsort(first_seen):
        acc = per_tag.setdefault(recorder.region_tag(int(regions[i])), [0.0, 0.0, 0])
        acc[0] += reads[i]
        acc[1] += writes[i]
        acc[2] += 1
    meta_r = float(meta_reads.sum())
    meta_w = float(meta_writes.sum())

    scale = 1.0 / (n_dofs * n_iterations)
    tags = {}
    for tag, (r, w, inst) in per_tag.items():
        r, w = float(r), float(w)
        tags[tag] = TagTally(tag, inst, r * scale, w * scale,
                             r / (n_dofs * inst), w / (n_dofs * inst))
    row_r = sum(t.reads_per_iteration for n, t in tags.items()
                if n not in _NON_ROW_TAGS)
    row_w = sum(t.writes_per_iteration for n, t in tags.items()
                if n not in _NON_ROW_TAGS)
    mv = tags.get("matvec")
    return TraceSummary(n_dofs, n_iterations, tags, row_r, row_w,
                        mv.reads_per_instance if mv else 0.0,
                        mv.writes_per_instance if mv else 0.0,
                        meta_r * scale, meta_w * scale)


# -- liveliness ----------------------------------------------------------------


@dataclass(frozen=True)
class LivelinessReport:
    distances: np.ndarray           # per range: last - first touch batch
    n_batches: int
    same_batch_fraction: float
    cdf_distances: np.ndarray       # sorted unique distances
    cdf_fractions: np.ndarray       # fraction of ranges with distance <= d

    @property
    def n_ranges(self) -> int:
        return len(self.distances)

    def fraction_within(self, distance) -> np.ndarray:
        """CDF evaluated at arbitrary distances (vectorized, step function)."""
        idx = np.searchsorted(self.cdf_distances, np.asarray(distance),
                              side="right")
        padded = np.concatenate([[0.0], self.cdf_fractions])
        return padded[idx]


def liveliness(schedule: RangeSchedule) -> LivelinessReport:
    """How long each 64-entry vector range stays in flight during one
    operator application, in cell batches.  Distance zero means the range is
    produced and finished within a single batch."""
    first = np.asarray(schedule.first_touch_batch)
    last = np.asarray(schedule.last_touch_batch)
    distances = last - first
    n_batches = int(last.max()) + 1 if len(last) else 1
    uniq, counts = np.unique(distances, return_counts=True)
    fractions = np.cumsum(counts) / len(distances)
    return LivelinessReport(distances, n_batches,
                            float(np.mean(distances == 0)),
                            uniq, fractions)


# -- LRU cache replay ----------------------------------------------------------

LINE_BYTES = 64  # cache line of the replay model, eight doubles


@dataclass(frozen=True)
class CacheModel:
    """Fully-associative LRU cache of LINE_BYTES lines, write-allocate and
    read-for-ownership accounting; capacity reasoning only, hardware-neutral."""
    capacity_bytes: int

    def __post_init__(self):
        if self.capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")


@dataclass(frozen=True)
class CacheReplayResult:
    capacity_bytes: int
    loads_per_dof: float            # doubles / DoF / iteration, all streams
    stores_per_dof: float
    vector_loads_per_dof: float
    vector_stores_per_dof: float
    metadata_loads_per_dof: float
    metadata_stores_per_dof: float


def replay_cache(recorder: AccessRecorder, model: CacheModel, n_dofs: int,
                 n_iterations: int) -> CacheReplayResult:
    """Replay every recorded event (including setup) through the cache model
    and report RAM traffic in doubles per DoF per iteration.

    Events arrive at range granularity and every range is touched whole, so
    tracking recency per range with line-weighted sizes is exactly equivalent
    to a per-line LRU; each recorded run is walked range by range.  A write
    to a non-resident range incurs a read-for-ownership load; dirty evictions
    and the final flush count as stores.
    """
    capacity_lines = model.capacity_bytes // LINE_BYTES
    lines_of = {}
    kind_of = {}
    for stream in recorder.streams.values():
        kind_of[stream.sid] = stream.kind
        tail = stream.n_ranges - 1
        full = GRAIN_BYTES // LINE_BYTES
        tail_lines = -(-int(stream.range_doubles(tail) * 8) // LINE_BYTES)
        lines_of[stream.sid] = (full, tail, tail_lines)
    doubles_per_line = LINE_BYTES / 8.0

    cache = OrderedDict()           # (sid, rid) -> [n_lines, dirty]
    get, touch, evict = cache.get, cache.move_to_end, cache.popitem
    occupancy = 0
    loads = {"vector": 0, "metadata": 0}
    stores = {"vector": 0, "metadata": 0}

    for sid, mode, start, stop in recorder.iter_runs():
        kind = kind_of[sid]
        full, tail, tail_lines = lines_of[sid]
        writes = bool(mode & WRITE)
        missed = 0
        for rid in range(start, stop):
            key = (sid, rid)
            entry = get(key)
            if entry is None:
                n_lines = tail_lines if rid == tail else full
                missed += n_lines
                cache[key] = [n_lines, writes]
                occupancy += n_lines
                while occupancy > capacity_lines and cache:
                    old_key, (old_lines, old_dirty) = evict(last=False)
                    occupancy -= old_lines
                    if old_dirty:
                        stores[kind_of[old_key[0]]] += old_lines
            else:
                if writes:
                    entry[1] = True
                touch(key)
        loads[kind] += missed

    for (sid, _), (n_lines, dirty) in cache.items():
        if dirty:
            stores[kind_of[sid]] += n_lines

    scale = doubles_per_line / (n_dofs * n_iterations)
    return CacheReplayResult(
        model.capacity_bytes,
        (loads["vector"] + loads["metadata"]) * scale,
        (stores["vector"] + stores["metadata"]) * scale,
        loads["vector"] * scale, stores["vector"] * scale,
        loads["metadata"] * scale, stores["metadata"] * scale)
