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
from operator import itemgetter

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


# iterations per repeat of a solve's events: one for most variants, two for
# the combined ones, which update x every other iteration
_PERIODS = (1, 2)


class _LRU:
    """A fully-associative LRU cache of whole ranges with line-weighted
    sizes, counting the lines it loads and stores per stream kind."""

    def __init__(self, streams, capacity_lines: int):
        self.capacity_lines = capacity_lines
        self.lines_of = {}
        self.kind_of = {}
        for stream in streams:
            self.kind_of[stream.sid] = stream.kind
            tail = stream.n_ranges - 1
            full = GRAIN_BYTES // LINE_BYTES
            tail_lines = -(-int(stream.range_doubles(tail) * 8) // LINE_BYTES)
            self.lines_of[stream.sid] = (full, tail, tail_lines)
        self.cache = OrderedDict()      # (sid, rid) -> [n_lines, dirty]
        self.occupancy = 0
        self.loads = {"vector": 0, "metadata": 0}
        self.stores = {"vector": 0, "metadata": 0}

    def walk(self, sids, modes, starts, stops) -> None:
        """Touch the runs [start, stop) of (sid, mode) in order, range by
        range."""
        capacity_lines, lines_of, kind_of = self.capacity_lines, self.lines_of, self.kind_of
        cache = self.cache
        get, touch, evict = cache.get, cache.move_to_end, cache.popitem
        occupancy = self.occupancy
        loads, stores = self.loads, self.stores
        for sid, mode, start, stop in zip(sids, modes, starts, stops):
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
        self.occupancy = occupancy

    def state(self) -> tuple:
        """The resident ranges from least to most recent, and their dirty
        flags; their sizes follow from the ranges."""
        return list(self.cache), list(map(itemgetter(1), self.cache.values()))

    def counts(self) -> tuple:
        """Lines loaded and stored so far, per kind."""
        return (*self.loads.values(), *self.stores.values())

    def repeat(self, since: tuple, times: int) -> None:
        """Count `times` more of what was loaded and stored since `counts()`
        returned `since`."""
        for tally, was in ((self.loads, since[:2]), (self.stores, since[2:])):
            for kind, old in zip(tally, was):
                tally[kind] += times * (tally[kind] - old)

    def flush(self) -> None:
        """Store every dirty resident range."""
        for (sid, _), (n_lines, dirty) in self.cache.items():
            if dirty:
                self.stores[self.kind_of[sid]] += n_lines


def replay_cache(recorder: AccessRecorder, model: CacheModel, n_dofs: int,
                 n_iterations: int) -> CacheReplayResult:
    """Replay every recorded event (including setup) through the cache model
    and report RAM traffic in doubles per DoF per iteration.

    Events arrive at range granularity and every range is touched whole, so
    tracking recency per range with line-weighted sizes is exactly equivalent
    to a per-line LRU; each recorded run is walked range by range.  A write
    to a non-resident range incurs a read-for-ownership load; dirty evictions
    and the final flush count as stores.

    The trace splits into iteration blocks, the stretches of records with
    one iteration label, and a solve records the same events in each block
    of its steady state, with a period of one block, or two for the combined
    variants.  Events compare by stream, mode, runs and ranges, never by
    region id.  At a boundary where the next period's events repeat the
    previous period's, and a comparison can follow, the cache state (the
    resident ranges in LRU order and their dirty flags) is kept.  When it
    equals the state one period earlier, the replay is deterministic from
    there: each following period that repeats those events loads and stores
    exactly what that period did, and leaves the same state behind.  So
    those periods are counted, not walked, and the walk resumes where the
    events differ (the last iteration, a finalization, a periodic check).
    The result is the full walk's, exactly.
    """
    if n_iterations < 1:
        raise ValueError("need at least one iteration")
    if n_dofs < 1:
        raise ValueError("need at least one DoF")
    cols = recorder.columns()
    lru = _LRU(recorder.streams.values(), model.capacity_bytes // LINE_BYTES)
    run_first = np.append(cols.first, len(cols.start))
    records = np.flatnonzero(np.diff(cols.iteration)) + 1
    records = np.concatenate(([0], records, [len(cols.sid)])) if len(cols.sid) else [0]
    n_blocks = len(records) - 1

    def same(b, c):
        """Whether iteration blocks b and c record the same events."""
        (r0, r1), (q0, q1) = records[b:b + 2], records[c:c + 2]
        (a0, a1), (p0, p1) = run_first[[r0, r1]], run_first[[q0, q1]]
        return (r1 - r0 == q1 - q0 and a1 - a0 == p1 - p0
                and np.array_equal(cols.sid[r0:r1], cols.sid[q0:q1])
                and np.array_equal(cols.mode[r0:r1], cols.mode[q0:q1])
                and np.array_equal(cols.first[r0:r1] - a0, cols.first[q0:q1] - p0)
                and np.array_equal(cols.start[a0:a1], cols.start[p0:p1])
                and np.array_equal(cols.stop[a0:a1], cols.stop[p0:p1]))

    def repeats(b, period):
        """Whether blocks b .. b+period-1 repeat the period before them."""
        return (period <= b <= n_blocks - period
                and all(same(b + i, b - period + i) for i in range(period)))

    kept = {}                       # boundary -> (cache state, counts)
    b = 0
    while b < n_blocks:
        periods = [p for p in _PERIODS if repeats(b, p)]
        # a state is taken only where it can be compared with a kept one, or
        # a later one with it
        if periods and (any(b - p in kept for p in periods)
                        or any(repeats(b + p, p) for p in _PERIODS)):
            state, counts = lru.state(), lru.counts()
            period = next((p for p in periods
                           if b - p in kept and kept[b - p][0] == state), 0)
            if period:
                times = 1
                while repeats(b + times * period, period):
                    times += 1
                lru.repeat(kept[b - period][1], times)
                b += times * period
                kept.clear()
                continue
            kept = {k: v for k, v in kept.items() if k > b - max(_PERIODS)}
            kept[b] = state, counts
        r0, r1 = records[b:b + 2]
        runs = np.diff(run_first[r0:r1 + 1])
        a0, a1 = run_first[[r0, r1]]
        lru.walk(np.repeat(cols.sid[r0:r1], runs).tolist(),
                 np.repeat(cols.mode[r0:r1], runs).tolist(),
                 cols.start[a0:a1].tolist(), cols.stop[a0:a1].tolist())
        b += 1
    lru.flush()

    loads, stores = lru.loads, lru.stores
    scale = (LINE_BYTES / 8.0) / (n_dofs * n_iterations)
    return CacheReplayResult(
        model.capacity_bytes,
        (loads["vector"] + loads["metadata"]) * scale,
        (stores["vector"] + stores["metadata"]) * scale,
        loads["vector"] * scale, stores["vector"] * scale,
        loads["metadata"] * scale, stores["metadata"] * scale)
