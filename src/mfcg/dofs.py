"""Degree-of-freedom distribution, cell batching, locality renumbering, and
the range pre/post schedule for split vector operations.

Unknowns of the continuous finite element space are stored once; each cell
keeps only 3^3 starting indices (one per vertex/edge/face/interior entity of
the cell) from which all (p+1)^3 node indices are expanded once per batch at
set-up (`batch_index`), in the lane order of the cell loop.  Nodes of one
entity are numbered contiguously, which is what makes the compressed form
lossless.  Vector-valued problems interleave components per node:
dof = node * components + c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import HexMesh, _lattice_coords
from .trace import GRAIN_BYTES

__all__ = [
    "DofHandler",
    "BatchPlan",
    "RangeSchedule",
    "RANGE_SIZE",
    "distribute_dofs",
    "batch_size",
    "make_batches",
    "renumber_optimized",
    "compute_range_schedule",
    "batch_index",
]

RANGE_SIZE = GRAIN_BYTES // 8  # dofs per schedule range, one trace grain


@dataclass(frozen=True)
class DofHandler:
    """Numbering of a continuous Lagrange space on a structured hex mesh."""

    n_dofs: int
    components: int
    degree: int
    cells_per_dim: tuple
    cell_index_blocks: np.ndarray = field(repr=False, compare=False)
    constrained_dofs: np.ndarray = field(repr=False, compare=False)
    numbering_kind: str = "default-cell-order"
    permutation: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.cells_per_dim
        return nx * ny * nz

    @property
    def n_nodes(self) -> int:
        return self.n_dofs // self.components


@dataclass(frozen=True)
class BatchPlan:
    """Cells grouped into batches processed back to back."""

    batches: tuple

    @property
    def n_batches(self) -> int:
        return len(self.batches)


@dataclass(frozen=True, eq=False)
class RangeSchedule:
    """First/last touching batch of every 64-entry vector range, the
    derived per-batch pre/post work lists, and the per-batch DoF indices
    (`batch_index`) they were built from."""

    first_touch_batch: np.ndarray = field(repr=False)
    last_touch_batch: np.ndarray = field(repr=False)
    pre_schedule: tuple = field(repr=False)
    post_schedule: tuple = field(repr=False)
    batch_indices: tuple = field(repr=False)

    @property
    def n_ranges(self) -> int:
        return len(self.first_touch_batch)


# ---------------------------------------------------------------------------
# distribution

# Per-direction slot of a local node: 0 (low face), 1 (interior), 2 (high
# face).  An entity of the cell is one slot triple; its nodes are the tensor
# product of the per-direction spans (1, p-1, 1 nodes).


def _slots(p: int) -> np.ndarray:
    i = np.arange(p + 1)
    return np.where(i == 0, 0, np.where(i == p, 2, 1))


# (sx, sy, sz) of the 27 entity slots of a cell, slot index sx + 3 sy + 9 sz
_ENTITY_SLOTS = np.stack(np.unravel_index(np.arange(27), (3, 3, 3), order="F"), axis=1)


def _slot_sizes(p: int) -> np.ndarray:
    """Number of nodes of the entity in each of the 27 slots: 1, p-1, 1
    nodes per direction."""
    return np.where(_ENTITY_SLOTS == 1, p - 1, 1).prod(axis=1)


@lru_cache(maxsize=None)
def _expansion_template(p: int):
    """(entity index, offset) of every local node, x fastest.

    expanded_scalar = blocks[cell][entity] + offset reconstructs all (p+1)^3
    node indices of a cell from its 27 block starts.
    """
    slots = _slots(p)
    coord = np.where((np.arange(p + 1) > 0) & (np.arange(p + 1) < p),
                     np.arange(p + 1) - 1, 0)
    sx, sy, sz = (slots[None, None, :], slots[None, :, None], slots[:, None, None])
    cx, cy, cz = (coord[None, None, :], coord[None, :, None], coord[:, None, None])
    entity = sx + 3 * sy + 9 * sz
    mx = np.where(sx == 1, p - 1, 1)
    my = np.where(sy == 1, p - 1, 1)
    offset = cx + mx * (cy + my * cz)
    return entity.ravel(), offset.ravel()


def distribute_dofs(mesh: HexMesh, p: int, components: int = 1,
                    constrain_boundary: bool = False) -> DofHandler:
    """Number the unknowns cell by cell in lexicographic order, assigning each
    newly seen vertex/edge/face/interior entity a contiguous index block."""
    if p < 1:
        raise ValueError("degree must be >= 1")
    if components not in (1, 3):
        raise ValueError("components must be 1 or 3")
    nx, ny, _ = mesh.cells_per_dim
    # entity id on the refined lattice: 2*cell_coord + slot per direction
    rx, ry = 2 * nx + 1, 2 * ny + 1
    sizes = _slot_sizes(p)
    live = sizes > 0  # degree 1 has no edge, face or interior nodes
    cx, cy, cz = (c[:, None] for c in _lattice_coords(mesh.cells_per_dim))
    sx, sy, sz = _ENTITY_SLOTS[live].T
    rid = (2 * cx + sx) + rx * ((2 * cy + sy) + ry * (2 * cz + sz))
    # walking cells in order and their entities in slot order (x fastest),
    # each entity gets the next block when it is first seen
    _, first, inverse = np.unique(rid.ravel(), return_index=True, return_inverse=True)
    size = sizes[live][first % rid.shape[1]]
    seen = np.argsort(first)
    start = np.empty_like(size)
    start[seen] = np.cumsum(size[seen]) - size[seen]
    blocks = np.full((mesh.n_cells, 27), -1, dtype=np.int32)
    blocks[:, live] = start[inverse].reshape(rid.shape)
    n_dofs = int(size.sum()) * components
    constrained = np.empty(0, dtype=np.int64)
    handler = DofHandler(n_dofs, components, p, mesh.cells_per_dim, blocks, constrained)
    if constrain_boundary:
        nodes = _boundary_nodes(handler)
        constrained = (nodes[:, None] * components + np.arange(components)).ravel()
        handler = DofHandler(n_dofs, components, p, mesh.cells_per_dim, blocks,
                             np.sort(constrained))
    return handler


def _boundary_nodes(handler: DofHandler) -> np.ndarray:
    """Scalar node indices lying on the domain boundary."""
    p = handler.degree
    coords = np.stack(_lattice_coords(handler.cells_per_dim), axis=1)
    low = coords == 0
    high = coords == np.asarray(handler.cells_per_dim) - 1
    touching = np.flatnonzero((low | high).any(axis=1))
    # (i, j, k) of the local nodes, x fastest
    local = np.stack(np.unravel_index(np.arange((p + 1) ** 3), (p + 1,) * 3,
                                      order="F"), axis=1)
    on_face = ((low[touching, None, :] & (local == 0))
               | (high[touching, None, :] & (local == p))).any(axis=2)
    return np.unique(_expand_scalar(handler, touching)[on_face])


def _expand_scalar(handler: DofHandler, cells: np.ndarray) -> np.ndarray:
    """(len(cells), (p+1)^3) scalar node indices, nodes x fastest."""
    entity, offset = _expansion_template(handler.degree)
    return handler.cell_index_blocks[cells][:, entity].astype(np.int64) + offset


def batch_index(handler: DofHandler, cells) -> np.ndarray:
    """The flat DoF index of a batch of cells in the cell loop's lane order,
    (z, y, x, cell, component): the batch's cells and components innermost."""
    c = handler.components
    return (_expand_scalar(handler, cells).T[:, :, None] * c + np.arange(c)).reshape(-1)


# ---------------------------------------------------------------------------
# batching


def batch_size(p: int, components: int, simd_lanes: int) -> int:
    """Cells per batch: enough to fill roughly 1024 values of temporary
    storage per lane, but at least 2, times the number of SIMD lanes."""
    if p < 1 or components < 1 or simd_lanes < 1:
        raise ValueError("all batch-size inputs must be >= 1")
    return max(1024 // (components * (p + 1) ** 3), 2) * simd_lanes


def _morton_order(cells_per_dim) -> np.ndarray:
    """Cell indices ordered along the Morton curve (x bits lowest)."""
    bits = max(max(n - 1, 0).bit_length() for n in cells_per_dim)
    coords = _lattice_coords(cells_per_dim)
    code = np.zeros_like(coords[0])
    for b in range(bits):
        for d, c in enumerate(coords):
            code |= ((c >> b) & 1) << (3 * b + d)
    return np.argsort(code, kind="stable")


def make_batches(mesh: HexMesh, size: int, traversal: str = "lexicographic") -> BatchPlan:
    """Order cells by the chosen traversal and chunk into batches of `size`
    (the last batch may be partial)."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if traversal == "lexicographic":
        order = np.arange(mesh.n_cells, dtype=np.int64)
    elif traversal == "morton":
        order = _morton_order(mesh.cells_per_dim)
    else:
        raise ValueError(f"unknown traversal {traversal!r}")
    batches = tuple(order[i:i + size] for i in range(0, len(order), size))
    return BatchPlan(batches)


# ---------------------------------------------------------------------------
# renumbering


def renumber_optimized(handler: DofHandler, plan: BatchPlan) -> DofHandler:
    """Renumber unknowns by data locality of the batched cell loop.

    Category order: (1) entities touched by exactly one batch, in batch
    order; (2) entities touched by several batches; (3) entities shared with
    remote processes (structurally present, always empty in this
    single-process build); (4) constrained unknowns at the very end.

    A 64-entry range inherits the union of its entities' live windows, so
    entities are packed next to neighbors with near-identical windows:
    category 2 is ordered by descending window midpoint (its head, living
    near the last batches, meets the tail of category 1; its tail, living
    near batch 0, meets the constrained entities, which sit wide in the
    schedule anyway), remaining ties by old index for determinism.  Entity
    blocks stay contiguous, keeping the compressed per-cell storage valid.
    """
    if handler.numbering_kind != "default-cell-order":
        raise ValueError("handler already renumbered")
    comp = handler.components
    blocks = handler.cell_index_blocks
    cell_batch = np.empty(handler.n_cells, dtype=np.int64)
    cell_batch[np.concatenate(plan.batches)] = np.repeat(
        np.arange(plan.n_batches), [len(cells) for cells in plan.batches])

    # one row per (cell, slot) incidence; entities are keyed by block start
    cell, slot = np.nonzero(blocks >= 0)
    old_start, inverse = np.unique(blocks[cell, slot].astype(np.int64),
                                   return_inverse=True)
    size = np.empty_like(old_start)
    size[inverse] = _slot_sizes(handler.degree)[slot]
    first = np.full(len(old_start), plan.n_batches, dtype=np.int64)
    last = np.full(len(old_start), -1, dtype=np.int64)
    np.minimum.at(first, inverse, cell_batch[cell])
    np.maximum.at(last, inverse, cell_batch[cell])

    constrained = _constrained_node_mask(handler)
    prefix = np.concatenate(([0], np.cumsum(constrained)))
    covered = prefix[old_start + size] - prefix[old_start]
    if np.any((covered > 0) & (covered < size)):
        raise ValueError("partially constrained entity cannot keep "
                         "contiguous blocks")
    category = np.where(constrained[old_start], 3, np.where(first == last, 0, 1))

    def ordered(cat, *keys):
        members = np.flatnonzero(category == cat)
        return members[np.lexsort([k[members] for k in keys])]

    # lexsort's last key is the primary one
    order = np.concatenate((ordered(0, old_start, last, first),
                            ordered(1, old_start, last - first, -(first + last)),
                            ordered(3, old_start, last, first)))
    new_start = np.empty_like(old_start)
    new_start[order] = np.cumsum(size[order]) - size[order]

    # nodes keep their offset inside their entity's block
    offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    node_perm = np.full(handler.n_nodes, -1, dtype=np.int64)
    node_perm[np.repeat(old_start, size) + offset] = np.repeat(new_start, size) + offset
    if size.sum() != handler.n_nodes or np.any(node_perm < 0):
        raise AssertionError("renumbering did not produce a bijection")

    new_blocks = np.full_like(blocks, -1)
    new_blocks[cell, slot] = new_start[inverse]

    perm = (node_perm[:, None] * comp + np.arange(comp)).ravel()
    new_constrained = np.sort(perm[handler.constrained_dofs])
    return DofHandler(handler.n_dofs, comp, handler.degree, handler.cells_per_dim,
                      new_blocks, new_constrained, "optimized", perm)


def _constrained_node_mask(handler: DofHandler) -> np.ndarray:
    """Mask of the scalar nodes whose every component is constrained; rejects
    partial per-component constraints (they would break the interleaved
    layout)."""
    mask = np.zeros(handler.n_nodes, dtype=bool)
    if handler.constrained_dofs.size == 0:
        return mask
    comp = handler.components
    nodes, counts = np.unique(handler.constrained_dofs // comp, return_counts=True)
    if np.any(counts != comp):
        raise ValueError("constraints must cover whole nodes (all components)")
    mask[nodes] = True
    return mask


# ---------------------------------------------------------------------------
# range schedule


def compute_range_schedule(handler: DofHandler, plan: BatchPlan) -> RangeSchedule:
    """First/last touching batch of every 64-entry range, plus per-batch
    pre/post lists, built batch by batch from each batch's `batch_index`,
    which the schedule keeps.  Ranges holding constrained unknowns are
    scheduled pre at batch 0 and post at the last batch, since the identity
    rows are applied alongside the final batch.  A range that no cell
    touches raises ValueError."""
    n_ranges = -(-handler.n_dofs // RANGE_SIZE)
    n_batches = plan.n_batches
    indices = tuple(batch_index(handler, cells) for cells in plan.batches)
    # the last batch to write a range wins: forward for last, in reverse
    # for first
    last = np.full(n_ranges, -1, dtype=np.int64)
    for b, index in enumerate(indices):
        last[index // RANGE_SIZE] = b
    untouched = np.flatnonzero(last < 0)
    if untouched.size:
        raise ValueError(f"DoF range {untouched[0]} (DoFs from "
                         f"{untouched[0] * RANGE_SIZE}) is touched by no cell")
    first = np.empty_like(last)
    for b in reversed(range(n_batches)):
        first[indices[b] // RANGE_SIZE] = b
    pre_batch = first.copy()
    post_batch = last.copy()
    if handler.constrained_dofs.size:
        constrained_ranges = np.unique(handler.constrained_dofs // RANGE_SIZE)
        pre_batch[constrained_ranges] = 0
        post_batch[constrained_ranges] = n_batches - 1
    return RangeSchedule(first, last, _group_by(pre_batch, n_batches),
                         _group_by(post_batch, n_batches), indices)


def _group_by(keys: np.ndarray, n_groups: int) -> tuple:
    """Per group g in range(n_groups): the ascending indices i with
    keys[i] == g, as flatnonzero(keys == g) gives them."""
    order = np.argsort(keys, kind="stable")
    return tuple(np.split(order, np.cumsum(np.bincount(keys, minlength=n_groups))[:-1]))
