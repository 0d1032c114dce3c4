import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbem import (
    Mesh,
    CoefVec,
    cr_space,
    conforming_space,
    curl_field,
    embed_coarse_in_fine,
    jump_field,
    clement_interpolate,
    project_pwconst,
    build_initial_square_mesh,
    graded_square_mesh,
    uniform_refine,
)
from crbem.assembly import REFLECTION, TURN, _quarter_turn, panel_map
from crbem.spaces import (
    PwConstVecField,
    barycentric_gradients,
    dof_map,
    dof_orbits,
    element_vertex_values,
)

from conforming import conforming_to_cr, prolong_conforming


def unit_right_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([0]))


class TestDofSpaces:
    def test_cr_counts_interior_edges(self, initial_mesh):
        space = cr_space(initial_mesh)
        assert space.dof_count == 8
        assert np.all(initial_mesh.edge_boundary[space.entity_to_dof < 0])

    def test_conforming_counts_interior_nodes(self, initial_mesh):
        space = conforming_space(initial_mesh)
        assert space.dof_count == 1
        assert space.dof_to_entity[0] == 8  # the center vertex

    def test_coefvec_length_checked(self, initial_mesh):
        space = cr_space(initial_mesh)
        with pytest.raises(ValueError):
            CoefVec(space, np.zeros(3))


def _turnable_mesh(kind):
    """The 128-panel uniform mesh, or a 512-panel graded one of beta = 2
    or 3."""
    if kind == "uniform":
        mesh = build_initial_square_mesh()
        for _ in range(2):
            mesh = uniform_refine(mesh)[0]
        return mesh
    return uniform_refine(graded_square_mesh(8, float(kind[-1])))[0]


@pytest.mark.parametrize("space_fn", [cr_space, conforming_space])
@pytest.mark.parametrize("kind", ["uniform", "graded2", "graded3"])
class TestDofOrbits:
    def _turn(self, kind, space_fn):
        mesh = _turnable_mesh(kind)
        sigma = _quarter_turn(mesh.triangle_coords())
        assert sigma is not None
        space = space_fn(mesh)
        return space, sigma, dof_map(space, sigma, TURN.slots)

    def _reflect(self, kind, space_fn):
        mesh = _turnable_mesh(kind)
        rho = panel_map(mesh.triangle_coords(), REFLECTION)
        assert rho is not None
        space = space_fn(mesh)
        return space, rho, dof_map(space, rho, REFLECTION.slots)

    def test_permutation_of_order_four(self, kind, space_fn):
        space, _, img = self._turn(kind, space_fn)
        ident = np.arange(space.dof_count)
        assert np.array_equal(np.sort(img), ident)
        assert not np.array_equal(img[img], ident)
        assert np.array_equal(img[img[img[img]]], ident)

    def test_every_slot_gives_the_same_image(self, kind, space_fn):
        # both panels of an interior edge, and every panel at a node
        space, sigma, img = self._turn(kind, space_fn)
        dofs = space.element_dofs
        live = dofs >= 0
        assert np.array_equal(img[dofs[live]], dofs[sigma][live])

    def test_image_is_the_turned_entity(self, kind, space_fn):
        space, _, img = self._turn(kind, space_fn)
        mesh = space.mesh
        # the vertices of each DOF's entity: an edge's two, or the node
        ends = (mesh.edge_vertices if space.kind == "cr"
                else np.arange(mesh.num_vertices)[:, None])
        xy = mesh.vertices[ends[space.dof_to_entity]]
        turned = np.stack([1.0 - xy[..., 1], xy[..., 0]], axis=-1)
        image = mesh.vertices[ends[space.dof_to_entity[img]]]
        # the turned vertices, in either order, exactly
        assert ((turned == image).all(axis=(1, 2))
                | (turned == image[:, ::-1]).all(axis=(1, 2))).all()

    def test_orbit_sizes(self, kind, space_fn):
        space, sigma, img = self._turn(kind, space_fn)
        orbits = dof_orbits(space, sigma, TURN.slots)
        sizes = np.bincount(orbits)
        lone = np.flatnonzero(sizes == 1)
        assert set(sizes) <= {1, 4}
        if space.kind == "cr":
            assert len(lone) == 0
        else:
            # the center vertex, alone
            assert len(lone) == 1
            center = space.dof_to_entity[orbits == lone[0]]
            assert np.array_equal(space.mesh.vertices[center], [[0.5, 0.5]])
        # numbered by smallest DOF, and an orbit is closed under the turn
        first = np.unique(orbits, return_index=True)[1]
        assert np.array_equal(orbits[first], np.arange(len(sizes)))
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(orbits[img], orbits)

    def test_reflection_permutation_of_order_two(self, kind, space_fn):
        space, _, img = self._reflect(kind, space_fn)
        ident = np.arange(space.dof_count)
        assert np.array_equal(np.sort(img), ident)
        assert not np.array_equal(img, ident)
        assert np.array_equal(img[img], ident)

    def test_reflection_slots_give_the_same_image(self, kind, space_fn):
        # slot k of panel t goes to slot (0, 2, 1)[k] of panel rho[t]
        space, rho, img = self._reflect(kind, space_fn)
        dofs = space.element_dofs
        live = dofs >= 0
        assert np.array_equal(img[dofs[live]], dofs[rho][:, [0, 2, 1]][live])

    def test_image_is_the_reflected_entity(self, kind, space_fn):
        space, _, img = self._reflect(kind, space_fn)
        mesh = space.mesh
        # the edge midpoint or the node of each DOF, reflected exactly
        points = (mesh.edge_midpoints if space.kind == "cr"
                  else mesh.vertices)
        xy = points[space.dof_to_entity]
        reflected = np.stack([xy[:, 0], 1.0 - xy[:, 1]], axis=-1)
        assert np.array_equal(points[space.dof_to_entity[img]], reflected)

    def test_reflection_orbit_sizes(self, kind, space_fn):
        space, rho, img = self._reflect(kind, space_fn)
        orbits = dof_orbits(space, rho, REFLECTION.slots)
        sizes = np.bincount(orbits)
        assert set(sizes) == {1, 2}
        # alone: exactly the DOFs on the axis y = 1/2
        mesh = space.mesh
        points = (mesh.edge_midpoints if space.kind == "cr"
                  else mesh.vertices)
        on_axis = points[space.dof_to_entity][:, 1] == 0.5
        assert np.array_equal(sizes[orbits] == 1, on_axis)
        first = np.unique(orbits, return_index=True)[1]
        assert np.array_equal(orbits[first], np.arange(len(sizes)))
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(orbits[img], orbits)


class TestBasisGradient:
    def test_barycentric_gradient(self):
        grads = barycentric_gradients(unit_right_triangle())[0]
        assert np.allclose(grads, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_cr_gradient_of_hypotenuse_basis(self):
        # psi = 1 - 2*lambda_0 = 2x + 2y - 1 has gradient (2, 2)
        grads = barycentric_gradients(unit_right_triangle())
        assert np.allclose(-2.0 * grads[0, 0], [2.0, 2.0])

    def test_translation_invariance(self):
        mesh = Mesh(np.array([[3.0, 5.0], [4.0, 5.0], [3.0, 6.0]]),
                    np.array([[0, 1, 2]]), np.array([0]))
        assert np.allclose(barycentric_gradients(mesh)[0, 0], [-1.0, -1.0])


class TestCurlField:
    def test_linear_function_curl(self, initial_mesh):
        # conforming function equal to x has gradient (1,0), curl (0,-1);
        # build it from the center hat scaled to match in one element:
        # instead use an explicit one-element mesh
        mesh = unit_right_triangle()
        space = cr_space(mesh)  # no interior edges: zero function
        assert space.dof_count == 0
        zero = curl_field(CoefVec(space, np.zeros(0)))
        assert np.allclose(zero.values, 0.0)

    def test_center_hat_curl_matches_gradient_rotation(self, initial_mesh):
        space = conforming_space(initial_mesh)
        phi = CoefVec(space, np.ones(1))
        curls = curl_field(phi).values
        vv = element_vertex_values(phi)
        grads = np.einsum("tj,tjc->tc", vv, barycentric_gradients(initial_mesh))
        assert np.allclose(curls[:, 0], grads[:, 1])
        assert np.allclose(curls[:, 1], -grads[:, 0])
        # |curl| = |grad| elementwise
        assert np.allclose(np.linalg.norm(curls, axis=1),
                           np.linalg.norm(grads, axis=1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 16 - 1))
    def test_linearity(self, seed):
        mesh = build_initial_square_mesh()
        space = cr_space(mesh)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(space.dof_count)
        v = rng.standard_normal(space.dof_count)
        al, be = rng.standard_normal(2)
        lhs = curl_field(CoefVec(space, al * u + be * v)).values
        rhs = (al * curl_field(CoefVec(space, u)).values
               + be * curl_field(CoefVec(space, v)).values)
        scale = np.abs(lhs).max() + 1e-30
        assert np.abs(lhs - rhs).max() <= 1e-13 * max(scale, 1.0)


class TestEmbedding:
    def test_children_inherit_parent_curl(self, refined_once):
        coarse, fine = refined_once
        space = cr_space(coarse)
        rng = np.random.default_rng(0)
        coeffs = CoefVec(space, rng.standard_normal(space.dof_count))
        embedded = embed_coarse_in_fine(coeffs, fine)
        parent = curl_field(coeffs).values
        assert np.array_equal(embedded.values, parent[fine.parent])

    def test_zero_function(self, refined_once):
        coarse, fine = refined_once
        space = cr_space(coarse)
        embedded = embed_coarse_in_fine(coeffs=CoefVec(space, np.zeros(8)),
                                        fine_mesh=fine)
        assert np.allclose(embedded.values, 0.0)

    def test_prolongated_conforming_has_zero_curl_difference(self, refined_once):
        coarse, fine = refined_once
        space = conforming_space(coarse)
        phi = CoefVec(space, np.ones(space.dof_count))
        fine_phi = prolong_conforming(phi, fine)
        diff = (curl_field(fine_phi).values
                - embed_coarse_in_fine(phi, fine).values)
        assert np.abs(diff).max() < 1e-13


class TestJumps:
    def test_conforming_function_has_zero_jumps(self, refined_once):
        _, fine = refined_once
        space = conforming_space(fine)
        rng = np.random.default_rng(1)
        phi = CoefVec(space, rng.standard_normal(space.dof_count))
        jumps = jump_field(conforming_to_cr(phi))
        interior = ~fine.edge_boundary
        assert np.abs(jumps.jump_lo[interior]).max() < 1e-13
        assert np.abs(jumps.jump_hi[interior]).max() < 1e-13

    def test_cr_jump_vanishes_at_midpoints(self, refined_once):
        _, fine = refined_once
        space = cr_space(fine)
        rng = np.random.default_rng(2)
        phi = CoefVec(space, rng.standard_normal(space.dof_count))
        jumps = jump_field(phi)
        mids = 0.5 * (jumps.jump_lo + jumps.jump_hi)
        assert np.abs(mids).max() < 1e-12  # interior and boundary alike

    def test_tangential_derivative_from_endpoint_jumps(self, initial_mesh):
        space = cr_space(initial_mesh)
        phi = CoefVec(space, np.eye(8)[3])
        jumps = jump_field(phi)
        e = space.dof_to_entity[3]
        length = initial_mesh.edge_lengths[e]
        c = jumps.jump_hi[e]
        assert jumps.jump_lo[e] == pytest.approx(-c, abs=1e-14)
        assert jumps.jump_deriv[e] == pytest.approx(2 * c / length, rel=1e-12)


class TestClement:
    def test_reproduces_coarse_conforming(self, refined_once):
        coarse, fine = refined_once
        space = conforming_space(coarse)
        phi = CoefVec(space, np.array([0.7]))
        fine_cr = conforming_to_cr(prolong_conforming(phi, fine))
        out = clement_interpolate(fine_cr, coarse)
        assert np.abs(out.values - phi.values).max() < 1e-10

    def test_reproduces_on_finer_pair(self):
        coarse = build_initial_square_mesh()
        coarse, _ = uniform_refine(coarse)
        fine, _ = uniform_refine(coarse)
        space = conforming_space(coarse)
        rng = np.random.default_rng(3)
        phi = CoefVec(space, rng.standard_normal(space.dof_count))
        fine_cr = conforming_to_cr(prolong_conforming(phi, fine))
        out = clement_interpolate(fine_cr, coarse)
        assert np.abs(out.values - phi.values).max() < 1e-10

    def test_zero_maps_to_zero(self, refined_once):
        coarse, fine = refined_once
        space = cr_space(fine)
        out = clement_interpolate(CoefVec(space, np.zeros(space.dof_count)),
                                  coarse)
        assert np.allclose(out.values, 0.0)

    def test_locality(self):
        coarse = build_initial_square_mesh()
        coarse, _ = uniform_refine(coarse)
        fine, _ = uniform_refine(coarse)
        space = cr_space(fine)
        # one fine DOF, deep inside the patch of a single coarse node
        conf = conforming_space(coarse)
        values = np.zeros(space.dof_count)
        target_edge = None
        for dof, e in enumerate(space.dof_to_entity):
            ts = fine.edge_tris[e]
            parents = set(fine.parent[ts])
            if len(parents) == 1:
                target_edge = e
                values[dof] = 1.0
                break
        out = clement_interpolate(CoefVec(space, values), coarse)
        mid = fine.edge_midpoints[target_edge]
        parent = fine.parent[fine.edge_tris[target_edge][0]]
        support_nodes = set(coarse.triangles[parent])
        for z, dof in zip(conf.dof_to_entity, range(conf.dof_count)):
            if out.values[dof] != 0.0:
                # nonzero output only at nodes whose patch holds the data
                patch = np.flatnonzero((coarse.triangles == z).any(axis=1))
                assert parent in patch

    def test_requires_uniform_refinement(self, initial_mesh):
        from crbem import refine_nvb
        fine, _ = refine_nvb(initial_mesh, [0])
        space = cr_space(fine)
        with pytest.raises(ValueError, match="uniform"):
            clement_interpolate(CoefVec(space, np.zeros(space.dof_count)),
                                initial_mesh)


def _apply_on_zero(operator, coarse, fine):
    """One of the three operators that read fine.parent, on zero data."""
    if operator == "embed":
        space = cr_space(coarse)
        return embed_coarse_in_fine(CoefVec(space, np.zeros(space.dof_count)),
                                    fine)
    if operator == "clement":
        space = cr_space(fine)
        return clement_interpolate(CoefVec(space, np.zeros(space.dof_count)),
                                   coarse)
    return project_pwconst(
        PwConstVecField(fine, np.zeros((fine.num_triangles, 2))), coarse)


@pytest.mark.parametrize("operator", ["embed", "clement", "project"])
class TestParentCheck:
    def test_mesh_without_parents(self, initial_mesh, operator):
        for coarse, fine in ((initial_mesh, initial_mesh),
                             (graded_square_mesh(4, 2.0),
                              graded_square_mesh(8, 2.0))):
            with pytest.raises(ValueError, match="not a refinement"):
                _apply_on_zero(operator, coarse, fine)

    @pytest.mark.parametrize("edit", ["miss", "overrun"])
    def test_parents_index_every_coarse_triangle_and_nothing_else(
            self, refined_once, operator, edit):
        coarse, fine = refined_once
        parent = fine.parent.copy()
        if edit == "miss":
            parent[parent == 3] = 2
        else:
            # the other children of triangle 0 still cover it
            parent[np.flatnonzero(parent == 0)[0]] = coarse.num_triangles
        bad = Mesh(fine.vertices, fine.triangles, fine.ref_edge, parent)
        with pytest.raises(ValueError, match="not a refinement"):
            _apply_on_zero(operator, coarse, bad)


class TestProjection:
    def test_constant_children(self, refined_once):
        coarse, fine = refined_once
        values = np.tile([2.0, -1.0], (fine.num_triangles, 1))
        out = project_pwconst(PwConstVecField(fine, values), coarse)
        assert np.allclose(out.values, [2.0, -1.0])

    def test_equal_area_average(self, refined_once):
        coarse, fine = refined_once
        values = np.zeros((fine.num_triangles, 2))
        kids = np.flatnonzero(fine.parent == 0)
        values[kids[:2], 0] = 0.0
        values[kids[2:], 0] = 2.0
        out = project_pwconst(PwConstVecField(fine, values), coarse)
        assert out.values[0, 0] == pytest.approx(1.0)

    def test_residual_orthogonal_to_coarse_constants(self, refined_once):
        coarse, fine = refined_once
        rng = np.random.default_rng(4)
        field = PwConstVecField(fine, rng.standard_normal((fine.num_triangles, 2)))
        proj = project_pwconst(field, coarse)
        resid = field.values - proj.values[fine.parent]
        sums = np.zeros((coarse.num_triangles, 2))
        np.add.at(sums, fine.parent, resid * fine.areas[:, None])
        assert np.abs(sums).max() < 1e-12

    def test_pythagoras(self, refined_once):
        coarse, fine = refined_once
        rng = np.random.default_rng(5)
        field = PwConstVecField(fine, rng.standard_normal((fine.num_triangles, 2)))
        proj = project_pwconst(field, coarse)
        lifted = proj.values[fine.parent]
        resid = field.values - lifted

        def norm2(v):
            return ((v ** 2).sum(axis=1) * fine.areas).sum()

        total = norm2(field.values)
        assert abs(total - norm2(lifted) - norm2(resid)) < 1e-10 * total
