import io

import numpy as np
import pytest

from crbem import (
    Mesh,
    build_initial_square_mesh,
    refine_nvb,
    uniform_refine,
    graded_square_mesh,
    mesh_io_write,
)

from meshfile import MeshFormatError, mesh_io_read, validate_conforming


def min_interior_angle(mesh):
    p = mesh.triangle_coords()
    worst = np.inf
    for j in range(3):
        a = p[:, (j + 1) % 3] - p[:, j]
        b = p[:, (j + 2) % 3] - p[:, j]
        cosang = ((a * b).sum(1)
                  / np.linalg.norm(a, axis=1) / np.linalg.norm(b, axis=1))
        worst = min(worst, np.arccos(np.clip(cosang, -1, 1)).min())
    return worst


class TestInitialMesh:
    def test_counts(self, initial_mesh):
        m = initial_mesh
        assert m.num_triangles == 8
        assert m.num_vertices == 9
        assert m.num_edges == 16
        assert int(m.edge_boundary.sum()) == 8
        assert len(m.interior_edges()) == 8

    def test_total_area(self, initial_mesh):
        assert initial_mesh.areas.sum() == pytest.approx(1.0, abs=1e-15)

    def test_congruent_elements(self, initial_mesh):
        assert np.allclose(initial_mesh.areas, 0.125)

    def test_reference_edges_on_diagonals(self, initial_mesh):
        m = initial_mesh
        for t in range(8):
            e = m.tri_edges[t, m.ref_edge[t]]
            a, b = m.vertices[m.edge_vertices[e]]
            # diagonal edges connect a corner to the center
            assert np.allclose(sorted([abs(a - 0.5).sum(), abs(b - 0.5).sum()]),
                               [0.0, 1.0])

    def test_boundary_edge_patch(self, initial_mesh):
        tris = initial_mesh.edge_tris[initial_mesh.edge_boundary]
        assert np.all(tris[:, 0] >= 0) and np.all(tris[:, 1] == -1)

    def test_interior_edge_patch(self, initial_mesh):
        tris = initial_mesh.edge_tris[initial_mesh.interior_edges()]
        assert np.all(tris >= 0) and np.all(tris[:, 0] < tris[:, 1])


class TestRefinement:
    def test_uniform_counts(self, refined_once):
        coarse, fine = refined_once
        assert fine.num_triangles == 32
        assert fine.num_vertices == 25
        assert np.all(np.bincount(fine.parent) == 4)

    def test_uniform_twice(self, refined_once):
        _, fine = refined_once
        finer, _ = uniform_refine(fine)
        assert finer.num_triangles == 128

    def test_children_tile_parent(self, refined_once):
        coarse, fine = refined_once
        tiled = np.zeros(coarse.num_triangles)
        np.add.at(tiled, fine.parent, fine.areas)
        assert np.abs(tiled - coarse.areas).max() < 1e-12 * coarse.areas.max()

    def test_width_halves_under_uniform(self, refined_once):
        coarse, fine = refined_once
        h_fine = np.sqrt(fine.areas)
        h_parent = np.sqrt(coarse.areas)[fine.parent]
        assert np.allclose(h_fine, h_parent / 2)

    def test_single_triangle_mesh_bisec3(self):
        tri = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
                   np.array([[0, 1, 2]]), np.array([0]))
        fine, _ = refine_nvb(tri, [0])
        assert fine.num_triangles == 4
        assert np.array_equal(fine.parent, [0, 0, 0, 0])

    def test_all_marked_equals_uniform(self, initial_mesh):
        a, _ = refine_nvb(initial_mesh, range(8))
        b, _ = uniform_refine(initial_mesh)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.ref_edge, b.ref_edge)

    def test_single_mark_closure(self, initial_mesh):
        fine, _ = refine_nvb(initial_mesh, [0])
        validate_conforming(fine)
        assert 4 <= fine.num_triangles <= 32
        # recorded closure outcome for this mesh and marking
        assert fine.num_triangles == 15

    def test_empty_marking_is_identity(self, initial_mesh):
        clone, _ = refine_nvb(initial_mesh, [])
        assert np.array_equal(clone.triangles, initial_mesh.triangles)
        assert np.array_equal(clone.parent, np.arange(8))

    def test_refinement_returns_its_read_only_parents(self, initial_mesh):
        for fine, parent in (refine_nvb(initial_mesh, [0]),
                             uniform_refine(initial_mesh)):
            assert np.array_equal(parent, fine.parent)
            assert not parent.flags.writeable

    def test_marked_out_of_range(self, initial_mesh):
        with pytest.raises(IndexError):
            refine_nvb(initial_mesh, [42])

    def test_random_marking_keeps_conformity_and_angles(self, initial_mesh):
        rng = np.random.default_rng(7)
        mesh = initial_mesh
        reference_angle = None
        for round_ in range(10):
            k = max(1, mesh.num_triangles // 8)
            marked = rng.choice(mesh.num_triangles, size=k, replace=False)
            coarse = mesh
            mesh, _ = refine_nvb(mesh, marked)
            validate_conforming(mesh)
            parent_areas = np.zeros(coarse.num_triangles)
            np.add.at(parent_areas, mesh.parent, mesh.areas)
            angle = min_interior_angle(mesh)
            if round_ == 1:
                reference_angle = angle
            if round_ >= 2:
                assert angle >= reference_angle - 1e-12


class TestGradedMesh:
    def test_beta_one_is_uniform(self):
        g = graded_square_mesh(8, 1.0)
        u = build_initial_square_mesh()
        for _ in range(2):
            u, _ = uniform_refine(u)
        assert np.array_equal(g.triangles, u.triangles)
        assert np.allclose(g.vertices, u.vertices)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_no_parents(self, beta):
        # a graded mesh refines no mesh, not even at beta = 1
        assert np.all(graded_square_mesh(8, beta).parent == -1)

    def test_boundary_layer_width(self):
        g = graded_square_mesh(4, 2.0)
        xs = np.unique(g.vertices[:, 0])
        assert xs[1] == pytest.approx(0.125)  # (2/4)^2 / 2

    def test_midpoint_fixed(self):
        for beta in (1.5, 2.0, 3.0):
            g = graded_square_mesh(8, beta)
            assert 0.5 in g.vertices[:, 0]

    def test_conforming_and_positive(self):
        g = graded_square_mesh(16, 3.0)
        validate_conforming(g)
        assert g.areas.min() > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            graded_square_mesh(4, 0.5)
        with pytest.raises(ValueError):
            graded_square_mesh(3, 2.0)
        with pytest.raises(ValueError):
            graded_square_mesh(6, 2.0)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = graded_square_mesh(4, 2.0)
        buf = io.StringIO()
        mesh_io_write(mesh, buf)
        buf.seek(0)
        path = tmp_path / "m.mesh"
        mesh_io_write(mesh, path)
        for back in (mesh_io_read(buf), mesh_io_read(path),
                     mesh_io_read(str(path))):
            assert np.array_equal(back.vertices, mesh.vertices)
            assert np.array_equal(back.triangles, mesh.triangles)
            assert np.array_equal(back.ref_edge, mesh.ref_edge)
            assert np.array_equal(back.parent, mesh.parent)

    def test_empty_file(self):
        with pytest.raises(MeshFormatError, match="line 1"):
            mesh_io_read(io.StringIO(""))

    @pytest.mark.parametrize("text", ["-1 1\n",
                                      "3 -1\n0 0 1\n1 0 1\n0 1 1\n"])
    def test_negative_header_count(self, text):
        with pytest.raises(MeshFormatError, match="line 1: negative"):
            mesh_io_read(io.StringIO(text))

    def test_malformed_vertex_line(self):
        text = "3 1\n0 0 1\n1 0 1\nbad line here\n0 1 2 0 -1\n"
        with pytest.raises(MeshFormatError, match="line 4"):
            mesh_io_read(io.StringIO(text))

    @pytest.mark.parametrize("line, field, value", [
        (11, 0, "99999999999999999999999"),
        (11, 3, "99999999999999999999999"),
        (11, 4, "99999999999999999999999"),
        (2, 2, "7"),
    ], ids=["vertex-index", "ref-edge", "parent", "boundary-flag"])
    def test_out_of_range_field_rejected(self, initial_mesh, line, field,
                                         value):
        # integers past int64 and boundary flags other than 0 and 1
        buf = io.StringIO()
        mesh_io_write(initial_mesh, buf)
        lines = buf.getvalue().splitlines()
        parts = lines[line - 1].split()
        parts[field] = value
        lines[line - 1] = " ".join(parts)
        with pytest.raises(MeshFormatError, match=f"^line {line}: "):
            mesh_io_read(io.StringIO("\n".join(lines) + "\n"))

    def test_hanging_node_rejected(self):
        # lower half splits the diagonal at its midpoint, upper half keeps
        # the full diagonal: vertex 4 hangs on edge (0, 2)
        text = "\n".join([
            "5 3",
            "0 0 1",
            "1 0 1",
            "1 1 1",
            "0 1 1",
            "0.5 0.5 0",
            "0 1 4 0 -1",
            "1 2 4 0 -1",
            "0 2 3 0 -1",
        ]) + "\n"
        with pytest.raises(MeshFormatError, match="hanging|conform"):
            mesh_io_read(io.StringIO(text))
