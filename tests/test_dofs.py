"""DoF numbering, batching, renumbering, and range-schedule tests.

The correctness oracle for shared unknowns is an independent numbering by
global lattice coordinates: local node (i,j,k) of cell (cx,cy,cz) sits at
lattice point (cx*p+i, cy*p+j, cz*p+k), and two expansions must agree exactly
where the lattice points agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import expand_cell_indices
from mfcg.dofs import (
    RANGE_SIZE,
    batch_size,
    compute_range_schedule,
    distribute_dofs,
    expand_batch,
    make_batches,
    renumber_optimized,
)
from mfcg.mesh import build_cartesian_mesh


def lattice_ids(mesh, p):
    """Oracle: per cell, global lattice ids of all (p+1)^3 nodes, x fastest."""
    nx, ny, nz = mesh.cells_per_dim
    gx, gy = nx * p + 1, ny * p + 1
    out = np.empty((mesh.n_cells, (p + 1) ** 3), dtype=np.int64)
    for cell in range(mesh.n_cells):
        cx, cy, cz = cell % nx, (cell // nx) % ny, cell // (nx * ny)
        n = 0
        for k in range(p + 1):
            for j in range(p + 1):
                for i in range(p + 1):
                    out[cell, n] = (cx * p + i) + gx * ((cy * p + j) + gy * (cz * p + k))
                    n += 1
    return out


def scalar_expansions(handler):
    cells = np.arange(handler.n_cells)
    expanded = expand_batch(handler, cells)
    if handler.components > 1:
        expanded = expanded.reshape(handler.n_cells, -1, handler.components)[:, :, 0]
        expanded = expanded // handler.components
    return expanded


class TestDistribute:
    @pytest.mark.parametrize("cells,p,expected", [
        ((1, 1, 1), 1, 8),
        ((2, 1, 1), 1, 12),
        ((2, 2, 2), 3, 343),
    ])
    def test_dof_counts(self, cells, p, expected):
        handler = distribute_dofs(build_cartesian_mesh(cells), p)
        assert handler.n_dofs == expected

    @pytest.mark.parametrize("cells,p", [((2, 1, 1), 1), ((2, 2, 2), 2),
                                         ((3, 2, 1), 3), ((2, 2, 2), 5)])
    def test_count_formula(self, cells, p):
        handler = distribute_dofs(build_cartesian_mesh(cells), p)
        assert handler.n_dofs == np.prod([c * p + 1 for c in cells])

    @pytest.mark.parametrize("cells,p", [((2, 1, 1), 1), ((2, 2, 2), 2),
                                         ((3, 2, 2), 3), ((2, 3, 2), 4)])
    def test_matches_lattice_oracle(self, cells, p):
        mesh = build_cartesian_mesh(cells)
        handler = distribute_dofs(mesh, p)
        expanded = scalar_expansions(handler)
        lattice = lattice_ids(mesh, p)
        # same lattice point <-> same dof, across all cells
        mapping = {}
        for cell in range(mesh.n_cells):
            for lat, dof in zip(lattice[cell], expanded[cell]):
                assert mapping.setdefault(lat, dof) == dof
        assert len(mapping) == handler.n_dofs
        assert sorted(mapping.values()) == list(range(handler.n_dofs))

    def test_expansion_injective_per_cell(self):
        handler = distribute_dofs(build_cartesian_mesh((2, 2, 2)), 3)
        for cell in range(handler.n_cells):
            idx = expand_cell_indices(handler, cell)
            assert len(np.unique(idx)) == len(idx)
            assert idx.min() >= 0 and idx.max() < handler.n_dofs

    def test_every_dof_referenced(self):
        handler = distribute_dofs(build_cartesian_mesh((2, 2, 1)), 2)
        seen = np.unique(expand_batch(handler, np.arange(handler.n_cells)))
        assert len(seen) == handler.n_dofs

    def test_interior_contiguous(self):
        handler = distribute_dofs(build_cartesian_mesh((1, 1, 1)), 4)
        idx = expand_cell_indices(handler, 0).reshape(5, 5, 5)
        interior = idx[1:-1, 1:-1, 1:-1].ravel()
        assert np.array_equal(interior, np.arange(interior[0], interior[0] + 27))

    def test_p1_expansion_is_vertices(self):
        handler = distribute_dofs(build_cartesian_mesh((1, 1, 1)), 1)
        assert sorted(expand_cell_indices(handler, 0)) == list(range(8))

    def test_shared_face_identical(self):
        handler = distribute_dofs(build_cartesian_mesh((2, 1, 1)), 3)
        left = expand_cell_indices(handler, 0).reshape(4, 4, 4)
        right = expand_cell_indices(handler, 1).reshape(4, 4, 4)
        np.testing.assert_array_equal(left[:, :, 3], right[:, :, 0])

    def test_interleaved_components(self):
        mesh = build_cartesian_mesh((2, 1, 1))
        scalar = distribute_dofs(mesh, 2, components=1)
        vector = distribute_dofs(mesh, 2, components=3)
        assert vector.n_dofs == 3 * scalar.n_dofs
        s = expand_cell_indices(scalar, 1)
        v = expand_cell_indices(vector, 1).reshape(-1, 3)
        np.testing.assert_array_equal(v, s[:, None] * 3 + np.arange(3))

    def test_boundary_constraints(self):
        handler = distribute_dofs(build_cartesian_mesh((2, 2, 2)), 2,
                                  constrain_boundary=True)
        # 5^3 lattice: interior nodes 3^3 = 27
        assert handler.n_dofs - len(handler.constrained_dofs) == 27
        assert np.array_equal(handler.constrained_dofs,
                              np.unique(handler.constrained_dofs))

    def test_boundary_constraints_components(self):
        handler = distribute_dofs(build_cartesian_mesh((2, 1, 1)), 1,
                                  components=3, constrain_boundary=True)
        assert len(handler.constrained_dofs) == handler.n_dofs  # p=1: all on hull

    def test_validation(self):
        mesh = build_cartesian_mesh((1, 1, 1))
        with pytest.raises(ValueError):
            distribute_dofs(mesh, 0)
        with pytest.raises(ValueError):
            distribute_dofs(mesh, 2, components=2)
        handler = distribute_dofs(mesh, 2)
        with pytest.raises(IndexError):
            expand_cell_indices(handler, 1)


class TestBatchSize:
    def test_reference_values(self):
        assert batch_size(5, 3, 8) == 16
        assert batch_size(5, 1, 8) == 32
        assert batch_size(1, 1, 1) == 128

    def test_floor_of_two(self):
        assert batch_size(9, 3, 1) == 2
        assert batch_size(9, 3, 4) == 8

    @given(p=st.integers(1, 12), c=st.sampled_from([1, 3]), lanes=st.integers(1, 16))
    def test_formula(self, p, c, lanes):
        assert batch_size(p, c, lanes) == max(1024 // (c * (p + 1) ** 3), 2) * lanes


class TestBatches:
    def test_single_batch(self):
        plan = make_batches(build_cartesian_mesh((2, 2, 2)), 16)
        assert plan.n_batches == 1
        assert np.array_equal(plan.batches[0], np.arange(8))

    def test_exact_chunks(self):
        plan = make_batches(build_cartesian_mesh((4, 4, 3)), 16)
        assert [len(b) for b in plan.batches] == [16, 16, 16]

    def test_partial_tail(self):
        plan = make_batches(build_cartesian_mesh((3, 3, 3)), 16)
        assert [len(b) for b in plan.batches] == [16, 11]

    def test_every_cell_once(self):
        plan = make_batches(build_cartesian_mesh((3, 2, 4)), 5, "morton")
        all_cells = np.concatenate(plan.batches)
        assert sorted(all_cells) == list(range(24))

    def test_morton_2x2x2(self):
        plan = make_batches(build_cartesian_mesh((2, 2, 2)), 8, "morton")
        order = plan.batches[0]
        coords = [(c % 2, (c // 2) % 2, c // 4) for c in order]
        assert coords[:5] == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]

    def test_morton_oracle_nonpow2(self):
        mesh = build_cartesian_mesh((3, 4, 2))

        def interleave(x, y, z):
            code = 0
            for b in range(3):
                code |= ((x >> b) & 1) << (3 * b)
                code |= ((y >> b) & 1) << (3 * b + 1)
                code |= ((z >> b) & 1) << (3 * b + 2)
            return code

        expected = sorted(range(mesh.n_cells),
                          key=lambda c: interleave(c % 3, (c // 3) % 4, c // 12))
        plan = make_batches(mesh, 100, "morton")
        assert list(plan.batches[0]) == expected

    def test_unknown_traversal(self):
        with pytest.raises(ValueError):
            make_batches(build_cartesian_mesh((1, 1, 1)), 4, "hilbert")


class TestRenumber:
    def test_is_permutation(self):
        mesh = build_cartesian_mesh((3, 3, 3))
        handler = distribute_dofs(mesh, 3, constrain_boundary=True)
        plan = make_batches(mesh, 8)
        new = renumber_optimized(handler, plan)
        assert sorted(new.permutation) == list(range(handler.n_dofs))
        assert new.numbering_kind == "optimized"

    def test_expansions_follow_permutation(self):
        mesh = build_cartesian_mesh((3, 2, 2))
        handler = distribute_dofs(mesh, 2, components=3, constrain_boundary=True)
        plan = make_batches(mesh, 4, "morton")
        new = renumber_optimized(handler, plan)
        cells = np.arange(mesh.n_cells)
        np.testing.assert_array_equal(expand_batch(new, cells),
                                      new.permutation[expand_batch(handler, cells)])

    def test_single_batch_identity_when_unconstrained(self):
        mesh = build_cartesian_mesh((2, 2, 2))
        handler = distribute_dofs(mesh, 2)
        new = renumber_optimized(handler, make_batches(mesh, 16))
        np.testing.assert_array_equal(new.permutation, np.arange(handler.n_dofs))

    def test_single_batch_constrained_last(self):
        mesh = build_cartesian_mesh((2, 2, 2))
        handler = distribute_dofs(mesh, 2, constrain_boundary=True)
        new = renumber_optimized(handler, make_batches(mesh, 16))
        k = len(handler.constrained_dofs)
        assert np.array_equal(new.constrained_dofs,
                              np.arange(handler.n_dofs - k, handler.n_dofs))
        # free dofs keep their relative order
        free = np.setdiff1d(np.arange(handler.n_dofs), handler.constrained_dofs)
        assert np.all(np.diff(new.permutation[free]) > 0)

    def test_two_batch_shared_face(self):
        # hand-checkable: 2 cells of p=1, one per batch, no constraints; the
        # 4 face nodes shared by both batches get the highest numbers
        mesh = build_cartesian_mesh((2, 1, 1))
        handler = distribute_dofs(mesh, 1)
        plan = make_batches(mesh, 1)
        assert plan.n_batches == 2
        new = renumber_optimized(handler, plan)
        left = set(expand_cell_indices(new, 0))
        right = set(expand_cell_indices(new, 1))
        shared = left & right
        assert shared == {8, 9, 10, 11}
        assert set(range(4)) < left  # batch-0 private nodes come first

    def test_constrained_tail_multibatch(self):
        mesh = build_cartesian_mesh((4, 2, 2))
        handler = distribute_dofs(mesh, 3, constrain_boundary=True)
        new = renumber_optimized(handler, make_batches(mesh, 4))
        k = len(handler.constrained_dofs)
        assert np.array_equal(new.constrained_dofs,
                              np.arange(handler.n_dofs - k, handler.n_dofs))

    def test_category_one_before_category_two(self):
        mesh = build_cartesian_mesh((4, 1, 1))
        handler = distribute_dofs(mesh, 2)
        plan = make_batches(mesh, 2)
        new = renumber_optimized(handler, plan)
        touching = {}
        for b, cells in enumerate(plan.batches):
            for dof in np.unique(expand_batch(new, cells)):
                touching.setdefault(int(dof), set()).add(b)
        single = [d for d, bs in touching.items() if len(bs) == 1]
        multi = [d for d, bs in touching.items() if len(bs) > 1]
        assert max(single) < min(multi)

    def test_double_renumber_rejected(self):
        mesh = build_cartesian_mesh((2, 1, 1))
        handler = distribute_dofs(mesh, 1)
        plan = make_batches(mesh, 2)
        new = renumber_optimized(handler, plan)
        with pytest.raises(ValueError):
            renumber_optimized(new, plan)


class TestRangeSchedule:
    def test_single_batch(self):
        mesh = build_cartesian_mesh((2, 2, 2))
        handler = distribute_dofs(mesh, 3)
        schedule = compute_range_schedule(handler, make_batches(mesh, 16))
        assert schedule.n_ranges == -(-handler.n_dofs // RANGE_SIZE)
        assert np.all(schedule.first_touch_batch == 0)
        assert np.all(schedule.last_touch_batch == 0)

    def test_brute_force_oracle(self):
        mesh = build_cartesian_mesh((3, 2, 2))
        handler = distribute_dofs(mesh, 2)
        plan = make_batches(mesh, 4)
        schedule = compute_range_schedule(handler, plan)
        n_ranges = schedule.n_ranges
        first = [None] * n_ranges
        last = [None] * n_ranges
        for b, cells in enumerate(plan.batches):
            for cell in cells:
                for dof in expand_cell_indices(handler, int(cell)):
                    r = dof // RANGE_SIZE
                    if first[r] is None:
                        first[r] = b
                    last[r] = b
        assert list(schedule.first_touch_batch) == first
        assert list(schedule.last_touch_batch) == last

    def test_every_range_scheduled_once(self):
        mesh = build_cartesian_mesh((4, 3, 2))
        handler = distribute_dofs(mesh, 3, constrain_boundary=True)
        plan = make_batches(mesh, 6, "morton")
        schedule = compute_range_schedule(handler, plan)
        pre = np.concatenate(schedule.pre_schedule)
        post = np.concatenate(schedule.post_schedule)
        assert sorted(pre) == list(range(schedule.n_ranges))
        assert sorted(post) == list(range(schedule.n_ranges))

    def test_pre_before_first_post_after_last(self):
        mesh = build_cartesian_mesh((4, 2, 2))
        handler = distribute_dofs(mesh, 2, constrain_boundary=True)
        plan = make_batches(mesh, 4)
        schedule = compute_range_schedule(handler, plan)
        for b, ranges in enumerate(schedule.pre_schedule):
            assert np.all(schedule.first_touch_batch[ranges] >= b)
        for b, ranges in enumerate(schedule.post_schedule):
            assert np.all(schedule.last_touch_batch[ranges] <= b)

    def test_constrained_ranges_wide(self):
        mesh = build_cartesian_mesh((4, 2, 2))
        handler = distribute_dofs(mesh, 2, constrain_boundary=True)
        plan = make_batches(mesh, 4)
        schedule = compute_range_schedule(handler, plan)
        constrained_ranges = np.unique(handler.constrained_dofs // RANGE_SIZE)
        for r in constrained_ranges:
            assert r in schedule.pre_schedule[0]
            assert r in schedule.post_schedule[plan.n_batches - 1]

    def test_category_one_range_first_equals_last(self):
        mesh = build_cartesian_mesh((4, 1, 1))
        handler = distribute_dofs(mesh, 3)
        plan = make_batches(mesh, 2)
        new = renumber_optimized(handler, plan)
        schedule = compute_range_schedule(new, plan)
        # after renumbering, leading ranges hold single-batch dofs only
        assert schedule.first_touch_batch[0] == schedule.last_touch_batch[0]


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(1, 3), ny=st.integers(1, 3), nz=st.integers(1, 3),
       p=st.integers(1, 4), size=st.integers(1, 8),
       traversal=st.sampled_from(["lexicographic", "morton"]),
       constrain=st.booleans())
def test_renumber_permutation_property(nx, ny, nz, p, size, traversal, constrain):
    mesh = build_cartesian_mesh((nx, ny, nz))
    handler = distribute_dofs(mesh, p, constrain_boundary=constrain)
    plan = make_batches(mesh, size, traversal)
    new = renumber_optimized(handler, plan)
    assert sorted(new.permutation) == list(range(handler.n_dofs))
    cells = np.arange(mesh.n_cells)
    np.testing.assert_array_equal(expand_batch(new, cells),
                                  new.permutation[expand_batch(handler, cells)])
    k = len(handler.constrained_dofs)
    assert np.array_equal(new.constrained_dofs,
                          np.arange(handler.n_dofs - k, handler.n_dofs))
