"""Problem set-up against the per-cell implementations it replaced.

Numbering, renumbering, schedules, spans and connectivity are index
arithmetic and must equal the loops in _oracles exactly.  Geometry and the
right-hand side change only the 3x3 algebra (closed-form cofactors instead
of LAPACK) and must agree to 1e-14 relative to the largest entry.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfcg.mesh
import mfcg.operator
from _oracles import (
    SYMMETRIC_INDEX,
    build_fem,
    cells_first_build_rhs,
    gather_geometry,
    lapack_diagonal,
    lapack_geometry,
    lapack_jacobians,
    loop_boundary_nodes,
    loop_build_rhs,
    loop_cell_stream_ranges,
    loop_distribute_dofs,
    loop_first_touch_spans,
    loop_morton_order,
    loop_range_schedule,
    loop_renumber_optimized,
    matrix_stack,
    quadratic_geometry_nodes,
    whole_mesh_diagonal,
)
from mfcg.bench import assemble_problem, build_rhs
from mfcg.dofs import (
    RANGE_SIZE,
    _boundary_nodes,
    _morton_order,
    batch_size,
    compute_range_schedule,
    distribute_dofs,
    expand_batch,
    make_batches,
    renumber_optimized,
)
from mfcg.mesh import (
    GeometryVariant,
    _jacobians,
    adjugate,
    build_cartesian_mesh,
    deform_mesh,
    jacobian_adjugate,
    precompute_geometry,
    symmetric_coefficients,
)
from mfcg.operator import _cell_stream_ranges
from mfcg.tensor import gauss_quadrature, lagrange_basis
from mfcg.trace import expand_runs

CELLS = [(1, 1, 1), (3, 5, 2), (4, 4, 4), (6, 6, 6)]
REL = 1e-14


def assert_close(actual, expected, rel=REL):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rel * scale


def assert_same_handler(actual, expected):
    assert actual.n_dofs == expected.n_dofs
    assert actual.numbering_kind == expected.numbering_kind
    np.testing.assert_array_equal(actual.cell_index_blocks, expected.cell_index_blocks)
    assert actual.cell_index_blocks.dtype == expected.cell_index_blocks.dtype
    np.testing.assert_array_equal(actual.constrained_dofs, expected.constrained_dofs)
    if expected.permutation is None:
        assert actual.permutation is None
    else:
        np.testing.assert_array_equal(actual.permutation, expected.permutation)


def assert_same_schedule(handler, plan):
    schedule = compute_range_schedule(handler, plan)
    first, last, pre, post = loop_range_schedule(handler, plan)
    np.testing.assert_array_equal(schedule.first_touch_batch, first)
    np.testing.assert_array_equal(schedule.last_touch_batch, last)
    assert len(schedule.pre_schedule) == len(pre) == plan.n_batches
    for got, want in zip(schedule.pre_schedule + schedule.post_schedule, pre + post):
        np.testing.assert_array_equal(got, want)


def check_numbering(cells, p, comp, constrain, size, traversal):
    mesh = build_cartesian_mesh(cells)
    handler = distribute_dofs(mesh, p, components=comp, constrain_boundary=constrain)
    assert_same_handler(handler, loop_distribute_dofs(mesh, p, comp, constrain))
    plan = make_batches(mesh, size, traversal)
    assert_same_schedule(handler, plan)
    renumbered = renumber_optimized(handler, plan)
    assert_same_handler(renumbered, loop_renumber_optimized(handler, plan))
    assert_same_schedule(renumbered, plan)


# ---------------------------------------------------------------------------
# index arithmetic: exact equality


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("comp", [1, 3])
def test_numbering_renumbering_and_schedules_match_loops(cells, p, comp):
    check_numbering(cells, p, comp, True, batch_size(p, comp, 2), "morton")


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("p", [1, 3])
def test_unconstrained_lexicographic_match_loops(cells, p):
    check_numbering(cells, p, 1, False, 5, "lexicographic")


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("p", [1, 2, 5])
def test_boundary_nodes_match_loop(cells, p):
    handler = distribute_dofs(build_cartesian_mesh(cells), p)
    nodes = _boundary_nodes(handler)
    np.testing.assert_array_equal(nodes, loop_boundary_nodes(handler))
    assert nodes.dtype == np.int64


@pytest.mark.parametrize("cells", CELLS + [(1, 7, 3), (8, 2, 1)])
def test_morton_order_matches_loop(cells):
    order = _morton_order(cells)
    np.testing.assert_array_equal(order, loop_morton_order(cells))
    assert order.dtype == np.int64


@pytest.mark.parametrize("cells", [(3, 5, 2), (6, 6, 6)])
@pytest.mark.parametrize("numbering", ["default", "optimized"])
@pytest.mark.parametrize("variant", [GeometryVariant.FINAL_TENSOR_LOAD,
                                     GeometryVariant.QUADRATIC_COMPUTE])
def test_operator_spans_and_metadata_ranges_match_loops(cells, numbering, variant):
    op, _ = build_fem(cells, p=2, comp=3, batch=7, traversal="morton",
                      numbering=numbering, variant=variant)
    assert op._zero_spans == loop_first_touch_spans(op)
    batch_runs, constrained_runs = op._trace_runs
    for cells_b, (src_dst, geom, idxm) in zip(op.plan.batches, batch_runs):
        np.testing.assert_array_equal(
            expand_runs(*src_dst),
            np.unique(expand_batch(op.handler, cells_b) // RANGE_SIZE))
        np.testing.assert_array_equal(
            expand_runs(*geom),
            loop_cell_stream_ranges(cells_b, op.geometry.doubles_per_cell * 8))
        np.testing.assert_array_equal(expand_runs(*idxm),
                                      loop_cell_stream_ranges(cells_b, 27 * 4))
    np.testing.assert_array_equal(expand_runs(*constrained_runs),
                                  np.unique(op.handler.constrained_dofs // RANGE_SIZE))
    assert _cell_stream_ranges(np.empty(0, dtype=np.int64), 8).size == 0


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6), nz=st.integers(1, 6),
       p=st.integers(1, 4), comp=st.sampled_from([1, 3]),
       constrain=st.booleans(), size=st.integers(1, 40),
       traversal=st.sampled_from(["lexicographic", "morton"]))
def test_numbering_property(nx, ny, nz, p, comp, constrain, size, traversal):
    check_numbering((nx, ny, nz), p, comp, constrain, size, traversal)
    np.testing.assert_array_equal(_morton_order((nx, ny, nz)),
                                  loop_morton_order((nx, ny, nz)))


# ---------------------------------------------------------------------------
# closed-form geometry: 1e-14 relative to LAPACK


@pytest.mark.parametrize("cells", [(1, 1, 1), (3, 5, 2), (4, 4, 4)])
@pytest.mark.parametrize("nq", [2, 4, 6])
def test_geometry_matches_lapack(cells, nq):
    mesh = deform_mesh(build_cartesian_mesh(cells), 0.05)
    quad = gauss_quadrature(nq)
    inv, jxw, sym = lapack_geometry(mesh, quad)
    every = np.arange(mesh.n_cells)
    final = precompute_geometry(mesh, GeometryVariant.FINAL_TENSOR_LOAD, quad, every).payload
    assert_close(final["jxw"].T, jxw)
    assert_close(final["G"].transpose(0, 1, 3, 2), sym[SYMMETRIC_INDEX])
    loaded = precompute_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD, quad,
                                 every).payload
    assert_close(matrix_stack(loaded["inverse_jacobian"]).transpose(1, 0, 2, 3), inv)
    assert_close(loaded["jxw"].T, jxw)


def test_adjugate_and_metric_tensor_on_random_matrices():
    rng = np.random.default_rng(3)
    jac = rng.standard_normal((50, 8, 3, 3)) + 3.0 * np.eye(3)
    det = np.linalg.det(jac)
    entries = np.moveaxis(jac, (-2, -1), (0, 1))
    assert_close(matrix_stack(adjugate(entries)), np.linalg.inv(jac) * det[..., None, None])
    weights = rng.uniform(0.5, 1.0, 8)
    inv = np.linalg.inv(jac)
    want = np.einsum("...ak,...bk->...ab", inv, inv) * (det * weights)[..., None, None]
    got = symmetric_coefficients(adjugate(entries), weights / det)
    assert got.shape == (3, 3, 50, 8)
    for a in range(3):
        for b in range(3):
            assert_close(got[a, b], want[..., a, b], rel=1e-13)
            np.testing.assert_array_equal(got[a, b], got[b, a])


@pytest.mark.parametrize("variant", list(GeometryVariant))
def test_batch_geometry_matches_lapack(variant):
    # every variant's (G, jxw), through the operator's one reader; the
    # affine one on an undeformed mesh
    affine = variant == GeometryVariant.AFFINE
    op, _ = build_fem((3, 2, 2), p=3, variant=variant, batch=5,
                      deformed=0.0 if affine else 0.05)
    _, jxw, sym = lapack_geometry(op.mesh, op.quadrature)
    for b, cells in enumerate(op.plan.batches):
        got_G, got_jxw = op._batch_geometry(b)
        assert_close(got_jxw, jxw[cells].T)
        assert_close(got_G, sym[:, cells].transpose(0, 2, 1)[SYMMETRIC_INDEX])


@pytest.mark.parametrize("variant", list(GeometryVariant))
def test_geometry_is_stored_cells_last(variant):
    # one layout from set-up to kernel: per-point payload arrays end in
    # (n_q^3, n_cells), node arrays are (n_nodes, 3, n_cells), and the
    # kernel's G is a C-contiguous (3, 3, n_q^3, n_batch): a G with
    # transposed strides once made the flux 3.5x slower
    affine = variant == GeometryVariant.AFFINE
    op, _ = build_fem((3, 2, 2), p=2, variant=variant, batch=5,
                      deformed=0.0 if affine else 0.05)
    n_cells, points = op.mesh.n_cells, len(op.quadrature) ** 3
    payload = precompute_geometry(op.mesh, variant, op.quadrature,
                                  np.arange(n_cells)).payload
    arrays = [("nodes", op.mesh.quadratic_nodes)] + list(payload.items())
    for key, value in arrays:
        if key == "nodes":
            assert value.shape[1:] == (3, n_cells)
        else:
            assert value.shape[-2:] == (points, n_cells), key
        assert value.flags.c_contiguous, key
    for b, cells in enumerate(op.plan.batches):
        G, _ = op._batch_geometry(b)
        assert G.shape == (3, 3, points, len(cells))
        assert G.flags.c_contiguous


@pytest.mark.parametrize("variant", list(GeometryVariant))
def test_geometry_is_held_once_per_batch(variant):
    # the operator holds its geometry once, per batch, as precompute_geometry
    # returns it: every array C-contiguous with the batch's cells on its
    # last axis, and no payload left on op.geometry; each batch's program
    # reads G and jxw as stored for the final-tensor and affine variants,
    # and forms them from its store with one geometry_coefficients call for
    # the others
    affine = variant == GeometryVariant.AFFINE
    stored = variant in (GeometryVariant.FINAL_TENSOR_LOAD, GeometryVariant.AFFINE)
    op, _ = build_fem((3, 2, 2), p=2, variant=variant, batch=5,
                      deformed=0.0 if affine else 0.05)
    points = len(op.quadrature) ** 3
    assert points != op.mesh.n_cells
    for b, cells in enumerate(op.plan.batches):
        store = op._batch_store[b]
        assert store.variant == variant and store.payload
        for key, value in store.payload.items():
            assert value.flags.c_contiguous, key
            assert value.shape[-1] == len(cells), key
        G, jxw = op._batch_geometry(b)
        assert G.shape == (3, 3, points, len(cells))
        assert jxw.shape == (points, len(cells))
        if stored:
            assert G is store.payload["G"] and jxw is store.payload["jxw"]
        program = op._programs[b][0]
        reads = [operands for function, operands, _ in program
                 if function is mfcg.mesh.geometry_coefficients]
        assert len(reads) == (0 if stored else 1)
        assert all(data is store and gradients for data, gradients in reads)
        fluxes = [operands[1] for function, operands, _ in program
                  if function is np.einsum]
        home = store.payload["G"] if stored else op._formed
        assert fluxes and all(np.shares_memory(g, home) for g in fluxes)
    assert op.geometry.payload == {}
    assert op.geometry.doubles_per_cell == store.doubles_per_cell


@pytest.mark.parametrize("eq", ["laplace", "mass"])
@pytest.mark.parametrize("variant", list(GeometryVariant))
def test_formed_buffer_holds_what_the_kernel_forms(variant, eq):
    # the buffer a batch forms its geometry into holds, for the widest
    # batch, exactly the parts that its store lacks: G (nine entries) for
    # the inverse-Jacobian variant's Laplace operators, G and w det J for
    # the compute variants, w det J only for their mass operators; the
    # final-tensor and affine variants form nothing and have no buffer
    affine = variant == GeometryVariant.AFFINE
    op, _ = build_fem((3, 2, 2), p=2, eq=eq, variant=variant, batch=5,
                      deformed=0.0 if affine else 0.05)
    gradients = eq == "laplace"
    formed = 0
    for b, cells in enumerate(op.plan.batches):
        G, jxw = mfcg.mesh.stored_coefficients(op._batch_store[b], gradients)
        outs = [out for function, _, out in op._programs[b][0]
                if function is mfcg.mesh.geometry_coefficients]
        missing = (gradients and G is None, jxw is None)
        assert len(outs) == any(missing)
        for G_out, jxw_out in outs:
            assert (G_out is not None, jxw_out is not None) == missing
            assert all(np.shares_memory(a, op._formed) for a in (G_out, jxw_out)
                       if a is not None)
            if len(cells) == max(map(len, op.plan.batches)):
                formed = sum(a.size for a in (G_out, jxw_out) if a is not None)
    assert (op._formed is None) if formed == 0 else (op._formed.size == formed)


@pytest.mark.parametrize("variant", list(GeometryVariant))
def test_mass_store_holds_only_what_its_kernel_reads(variant):
    # a mass operator reads w det J: stored, or formed from the geometry
    # nodes by the compute variants; no G and no J^-1
    affine = variant == GeometryVariant.AFFINE
    op, _ = build_fem((3, 2, 2), p=2, eq="mass", variant=variant, batch=5,
                      deformed=0.0 if affine else 0.05)
    computed = variant in (GeometryVariant.QUADRATIC_COMPUTE,
                           GeometryVariant.ISOPARAMETRIC_COMPUTE)
    for store in op._batch_store:
        assert set(store.payload) == ({"nodes"} if computed else {"jxw"})


@pytest.mark.parametrize("eq,comp", [("laplace", 1), ("mass", 3),
                                     ("mass_plus_laplace", 1)])
@pytest.mark.parametrize("p", [1, 3, 5])
def test_diagonal_matches_lapack(eq, comp, p):
    op, _ = build_fem((3, 2, 4), p=p, comp=comp, eq=eq, scaling=0.5)
    assert_close(op.compute_diagonal().inverse_diagonal, lapack_diagonal(op))


def test_degenerate_jacobian_raises():
    mesh = build_cartesian_mesh((2, 1, 1))
    nodes = np.stack([quadratic_geometry_nodes(mesh, c) for c in range(2)], axis=-1)
    basis = lagrange_basis(2, gauss_quadrature(3))
    flat = nodes.copy()
    flat[:, 2, 1] = 0.0  # second cell collapsed to zero thickness
    with pytest.raises(ValueError, match="degenerate"):
        jacobian_adjugate(flat, basis, 3)
    mirrored = nodes.copy()
    mirrored[:, 0, 0] *= -1.0  # inverted orientation: det J < 0
    with pytest.raises(ValueError, match="degenerate"):
        jacobian_adjugate(mirrored, basis, 3)
    nan = nodes.copy()
    nan[4, 1, 0] = np.nan
    with pytest.raises(ValueError, match="degenerate"):
        jacobian_adjugate(nan, basis, 3)
    with pytest.raises(ValueError, match="non-positive Jacobian"):
        deform_mesh(mesh, 5.0)


def test_closed_form_determinant_matches_lapack():
    mesh = deform_mesh(build_cartesian_mesh((4, 4, 4)), 0.05)
    nodes = np.stack([quadratic_geometry_nodes(mesh, c) for c in range(mesh.n_cells)])
    basis = lagrange_basis(2, gauss_quadrature(5))
    jac = _jacobians(nodes.transpose(1, 2, 0), basis, 5)
    _, det = jacobian_adjugate(nodes.transpose(1, 2, 0), basis, 5)
    want_jac, want_det = lapack_jacobians(nodes, basis, 5)
    np.testing.assert_array_equal(matrix_stack(jac).transpose(1, 0, 2, 3), want_jac)
    assert_close(det.T, want_det)


# ---------------------------------------------------------------------------
# one-pass right-hand side


@pytest.mark.parametrize("bp,degree,cells,numbering", [
    ("BP1", 1, (1, 1, 1), "default"),
    ("BP3", 2, (3, 5, 2), "default"),
    ("BP2", 2, (4, 4, 4), "optimized"),
    ("BP4", 3, (3, 5, 2), "optimized"),
    ("BP5", 5, (4, 4, 4), "optimized"),
    ("BP5", 3, (6, 6, 6), "default"),
])
def test_rhs_matches_per_cell_loop(bp, degree, cells, numbering):
    op, b, _ = assemble_problem(bp, degree, cells, numbering=numbering)
    assert_close(b, loop_build_rhs(op))


def bits(a):
    """The bytes of a float64 array as uint64, for bit-exact comparisons."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("bp", ["BP1", "BP2", "BP3", "BP4", "BP5"])
@pytest.mark.parametrize("variant", list(GeometryVariant))
def test_diagonal_is_bit_identical_to_whole_mesh_pass(bp, variant):
    # batch by batch, from the operator's store (BP5 with the final tensor)
    # or from each batch's own Gauss-Lobatto geometry, the diagonal keeps
    # every bit of the whole-mesh pass; Morton batches are unsorted
    op, _, minv = assemble_problem(bp, 3, (4, 4, 4), geometry=variant, simd_lanes=1)
    assert op.plan.n_batches > 1
    np.testing.assert_array_equal(bits(minv.inverse_diagonal), bits(whole_mesh_diagonal(op)))


@pytest.mark.parametrize("bp", ["BP1", "BP2", "BP3", "BP4", "BP5"])
def test_setup_peak_is_bounded_by_what_it_holds(bp):
    # every per-cell array is built batch by batch; the diagonal's whole-mesh
    # Gauss-Lobatto geometry used to take the peak of BP1-BP4 to 1.6-3.8x
    # what the problem holds, a whole-mesh index of the node sums BP1's to
    # 1.42x, and their whole-mesh nodal arrays BP1's to 1.24x
    tracemalloc.start()
    try:
        problem = assemble_problem(bp, 3, (16, 16, 16))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del problem  # held until measured
    assert peak <= 1.3 * held, peak / held


@pytest.mark.parametrize("bp", ["BP1", "BP2", "BP3", "BP4", "BP5"])
def test_setup_holds_no_whole_mesh_nodal_array(bp):
    # the right-hand side and the diagonal add each batch's nodal values
    # straight into the vector they return: beyond it, neither allocates
    # half of one value per (cell, node).  One SIMD lane keeps a batch's
    # transients (16 cells) below that bound
    op, _, _ = assemble_problem(bp, 3, (12, 12, 12), simd_lanes=1)
    bound = op.handler.n_cells * 4 ** 3 * 8 / 2
    for build in (lambda: build_rhs(op),
                  lambda: op.compute_diagonal().inverse_diagonal):
        tracemalloc.start()
        try:
            vector = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - vector.nbytes < bound, (peak - vector.nbytes) / bound


@pytest.mark.parametrize("bp", ["BP1", "BP2"])
def test_mass_diagonal_forms_no_coefficients(monkeypatch, bp):
    # a mass operator's diagonal reads only w det J: G is never formed
    op, _, minv = assemble_problem(bp, 3, (3, 3, 3))
    calls = []
    original = mfcg.mesh.symmetric_coefficients

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(mfcg.mesh, "symmetric_coefficients", counting)
    np.testing.assert_array_equal(op.compute_diagonal().inverse_diagonal,
                                  minv.inverse_diagonal)
    assert calls == []


@pytest.mark.parametrize("bp,degree,cells", [
    ("BP1", 2, (3, 5, 4)),
    ("BP2", 2, (4, 4, 4)),
    ("BP3", 2, (10, 10, 10)),
    ("BP4", 3, (3, 5, 2)),
    ("BP5", 3, (6, 6, 6)),
    ("BP5", 5, (4, 4, 4)),
])
def test_rhs_is_bit_identical_to_cells_first_pass(bp, degree, cells):
    # batch by batch and lanes-last, each batch added in lane order, the
    # right-hand side keeps every operation of the one-pass cells-first
    # formulation, and so every bit
    op, b, _ = assemble_problem(bp, degree, cells, simd_lanes=1)
    assert op.plan.n_batches > 1
    np.testing.assert_array_equal(bits(b), bits(cells_first_build_rhs(op)))


@pytest.mark.parametrize("cells", [(2, 2, 2), (5, 4, 3)])
def test_rhs_builds_the_lattice_once(monkeypatch, cells):
    # the lattice of all cells is built once per mesh, by the first set-up
    # step that needs it (here the deformation check), and shared by the
    # geometry and the right-hand side
    meshes = []
    original = mfcg.mesh._quadratic_lattice

    def counting(mesh):
        meshes.append(mesh)
        return original(mesh)

    monkeypatch.setattr(mfcg.mesh, "_quadratic_lattice", counting)
    op, _ = build_fem(cells, p=2)
    build_rhs(op)
    assert len(meshes) == 1 and meshes[0] is op.mesh


def test_single_cell_nodes_match_all_cell_lattice():
    # the separable all-cell lattice equals, bit for bit, the per-point map
    # of each cell's own lattice, deformed or not, with a different h per
    # direction
    for cells, amplitude in [((3, 5, 2), 0.05), ((3, 5, 2), 0.0),
                             ((2, 3, 4), 0.05), ((7, 1, 2), 0.05)]:
        mesh = deform_mesh(build_cartesian_mesh(cells), amplitude)
        every = mesh.quadratic_nodes
        for cell in range(mesh.n_cells):
            np.testing.assert_array_equal(bits(quadratic_geometry_nodes(mesh, cell)),
                                          bits(every[..., cell]))
        with pytest.raises(IndexError):
            quadratic_geometry_nodes(mesh, mesh.n_cells)


def test_gauss_lobatto_rhs_matches_loop():
    op, _ = build_fem((3, 2, 2), p=4, quadrature="gauss_lobatto", nq=5)
    assert_close(build_rhs(op), loop_build_rhs(op))


@pytest.mark.parametrize("bp,degree,rules", [
    ("BP5", 3, 1),  # the diagonal reuses the operator's final tensor
    ("BP5", 5, 1),
    ("BP3", 2, 2),  # Gauss points: the diagonal needs its own at p+1
])
def test_geometry_computed_once_per_problem(monkeypatch, bp, degree, rules):
    # each cell's geometry is computed once per quadrature rule: the
    # operator's calls and the diagonal's, one per batch each, cover every
    # cell exactly once per rule
    counted = {}
    original = mfcg.operator.precompute_geometry

    def counting(mesh, variant, quad, cells):
        key = quad.points.tobytes()
        covered = np.asarray(cells)
        counted[key] = np.concatenate([counted.get(key, covered[:0]), covered])
        return original(mesh, variant, quad, cells)

    monkeypatch.setattr(mfcg.operator, "precompute_geometry", counting)
    op, _, minv = assemble_problem(bp, degree, (5, 5, 5), simd_lanes=1)
    assert op.plan.n_batches > 1
    assert len(counted) == rules
    for covered in counted.values():
        np.testing.assert_array_equal(np.sort(covered), np.arange(op.mesh.n_cells))
    monkeypatch.setattr(mfcg.operator, "precompute_geometry", original)
    np.testing.assert_array_equal(minv.inverse_diagonal,
                                  op.compute_diagonal().inverse_diagonal)
    assert_close(minv.inverse_diagonal, lapack_diagonal(op))


@pytest.mark.parametrize("variant", list(GeometryVariant))
@pytest.mark.parametrize("eq", ["laplace", "mass"])
def test_batch_store_is_bit_identical_to_gathered_payload(variant, eq):
    # computing each batch's geometry straight into its store keeps every
    # bit of the whole-mesh payload gathered per batch; 24 cells in Morton
    # order, in batches of 5, leave unsorted batches and an uneven last one
    affine = variant == GeometryVariant.AFFINE
    op, _ = build_fem((3, 2, 4), p=3, eq=eq, variant=variant, batch=5,
                      traversal="morton", deformed=0.0 if affine else 0.05)
    assert [len(cells) for cells in op.plan.batches] == [5, 5, 5, 5, 4]
    assert any(np.any(np.diff(cells) < 0) for cells in op.plan.batches)
    payload = precompute_geometry(op.mesh, variant, op.quadrature,
                                  np.arange(op.mesh.n_cells)).payload
    for b, cells in enumerate(op.plan.batches):
        want = gather_geometry(op, payload, np.asarray(cells))
        got = op._batch_store[b].payload
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key].shape == want[key].shape, key
            np.testing.assert_array_equal(bits(got[key]), bits(want[key]), err_msg=key)


@pytest.mark.parametrize("variant", list(GeometryVariant))
@pytest.mark.parametrize("quadrature,nq", [("gauss", 5), ("gauss_lobatto", 4)])
def test_rhs_from_operator_jxw_matches_loop(variant, quadrature, nq):
    # every variant's w det J gives the same right-hand side
    affine = variant == GeometryVariant.AFFINE
    op, _ = build_fem((3, 2, 2), p=3, nq=nq, quadrature=quadrature,
                      variant=variant, deformed=0.0 if affine else 0.05)
    assert_close(build_rhs(op), loop_build_rhs(op))
