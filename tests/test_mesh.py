import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrace.mesh import (
    Mesh,
    OffFormatError,
    build_laplacian,
    component_count,
    grid_mesh,
    icosphere,
    load_mesh,
    mesh_edges,
    quadratic_form,
    save_mesh,
)

MINIMAL_OFF = "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


class TestOffFormat:
    def test_smallest_valid_mesh(self, tmp_path):
        path = tmp_path / "tri.off"
        path.write_text(MINIMAL_OFF)
        mesh = load_mesh(path)
        assert mesh.vertex_count == 3
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_out_of_range_face_index(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "NOFF\n3 1 3\n",
            "OFF\n3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
            "OFF\n3 1 3\n0 0 0\n1 0 0\n3 0 1 2\n",  # missing a vertex line
            "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n",  # quad face
        ],
    )
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.off"
        path.write_text(text)
        with pytest.raises(OffFormatError):
            load_mesh(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.off"
        path.write_text("# header comment\nOFF\n\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n\n3 0 1 2\n")
        assert load_mesh(path).vertex_count == 3

    def test_icosphere_file_roundtrip(self, tmp_path):
        # one icosahedron subdivision: V - E + F = 2 forces 42/120/80
        mesh = icosphere(1)
        assert mesh.vertex_count == 42
        assert mesh.face_count == 80
        edges = mesh.edges()
        assert mesh.vertex_count - edges.shape[0] + mesh.face_count == 2
        path = tmp_path / "ico.off"
        save_mesh(path, mesh)
        loaded = load_mesh(path)
        assert loaded.vertex_count == 42
        assert np.array_equal(loaded.faces, mesh.faces)
        assert np.allclose(loaded.positions, mesh.positions)


class TestMeshValidation:
    def test_degenerate_face_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Mesh(np.eye(3), [(0, 1, 1)])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Mesh(np.eye(3), [(0, 1, -1)])

    def test_positions_shape_checked(self):
        with pytest.raises(ValueError, match="positions"):
            Mesh(np.zeros((3, 2)), [(0, 1, 2)])

    def test_immutable_after_construction(self, triangle_mesh):
        with pytest.raises(ValueError):
            triangle_mesh.positions[0, 0] = 5.0

    def test_edges_deduplicated(self, path_mesh):
        # the shared edge (1,2) appears in both faces but is counted once
        edges = path_mesh.edges()
        assert edges.tolist() == [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]


class TestLaplacian:
    def test_single_triangle_is_k3(self, triangle_laplacian):
        expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        assert np.array_equal(triangle_laplacian.matrix.toarray(), expected)

    def test_path_mesh_degrees(self, path_mesh):
        # hand enumeration of edges {01,02,12,13,23} gives degrees (2,3,3,2)
        lap = build_laplacian(path_mesh)
        assert lap.degrees.tolist() == [2, 3, 3, 2]
        assert np.array_equal(np.diag(lap.matrix.toarray()), [2, 3, 3, 2])

    def test_row_sums_zero(self):
        lap = build_laplacian(icosphere(1))
        assert np.abs(np.asarray(lap.matrix.sum(axis=1))).max() == 0.0

    def test_off_diagonal_entries(self):
        lap = build_laplacian(icosphere(0)).matrix.toarray()
        off = lap[~np.eye(lap.shape[0], dtype=bool)]
        assert set(np.unique(off)) <= {0.0, -1.0}

    def test_positive_semidefinite_random_forms(self):
        lap = build_laplacian(icosphere(1))
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.standard_normal(lap.dimension)
            assert float(v @ (lap.matrix @ v)) >= -1e-12

    def test_face_order_and_rotation_invariance(self):
        mesh = icosphere(1)
        rng = np.random.default_rng(3)
        faces = mesh.faces[rng.permutation(mesh.face_count)]
        faces = np.roll(faces, 1, axis=1)  # rotate every face tuple
        shuffled = Mesh(mesh.positions, faces)
        a = build_laplacian(mesh).matrix
        b = build_laplacian(shuffled).matrix
        assert (a != b).nnz == 0

    def test_disconnected_mesh_warns(self):
        positions = np.vstack([np.eye(3), np.eye(3) + 10.0])
        with pytest.warns(UserWarning, match="connected components"):
            lap = build_laplacian(Mesh(positions, [(0, 1, 2), (3, 4, 5)]))
        assert lap.degrees.tolist() == [2] * 6

    def test_grid_mesh(self):
        mesh = grid_mesh(2, 3)
        assert mesh.vertex_count == 6
        assert mesh.face_count == 4
        with pytest.raises(ValueError):
            grid_mesh(1, 5)


def scipy_component_count(m, edges):
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    adjacency = sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                                  shape=(m, m))
    return connected_components(adjacency, directed=False)[0]


TWO_TRIANGLES = Mesh(np.vstack([np.eye(3), np.eye(3) + 10.0]), [(0, 1, 2), (3, 4, 5)])


class TestComponentCount:
    @pytest.mark.parametrize("mesh", [
        icosphere(1), icosphere(2), icosphere(3), grid_mesh(4, 7), TWO_TRIANGLES,
        # a vertex on no face is a component of its own
        Mesh(np.vstack([np.eye(3), np.ones((1, 3))]), [(0, 1, 2)]),
    ], ids=["icosphere-1", "icosphere-2", "icosphere-3", "grid-4x7", "two-triangles",
            "isolated-vertex"])
    def test_matches_scipy_on_meshes(self, mesh):
        edges = mesh.edges()
        expected = scipy_component_count(mesh.vertex_count, edges)
        assert component_count(mesh.vertex_count, edges) == expected
        assert expected == (1 if mesh.vertex_count > 6 else 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_on_sparse_random_graphs(self, seed):
        # fewer edges than vertices, in random label order: many components,
        # long chains, and roots hooked through several rounds
        rng = np.random.default_rng(seed)
        m = 300
        edges = np.sort(rng.integers(0, m, size=(250, 2)), axis=1)
        edges = edges[edges[:, 0] != edges[:, 1]]
        assert component_count(m, edges) == scipy_component_count(m, edges)

    def test_no_edges(self):
        assert component_count(5, np.empty((0, 2), dtype=np.int64)) == 5


class TestQuadraticForm:
    def test_constant_rows_in_null_space(self, triangle_laplacian):
        assert quadratic_form(triangle_laplacian, np.full((3, 4), 2.5)) == 0.0

    def test_k3_single_indicator(self, triangle_laplacian):
        # edges (0,1),(0,2),(1,2): squared differences 1 + 1 + 0
        assert quadratic_form(triangle_laplacian, np.array([1.0, 0.0, 0.0])) == 2.0

    def test_matches_dense_trace(self):
        # dense-matrix oracle tr(BᵀLB) on a mesh with m <= 200
        mesh = icosphere(2)
        lap = build_laplacian(mesh)
        rng = np.random.default_rng(7)
        b = rng.standard_normal((mesh.vertex_count, 5))
        dense = float(np.trace(b.T @ (lap.matrix.toarray() @ b)))
        assert abs(quadratic_form(lap, b) - dense) < 1e-10 * abs(dense)

    def test_dimension_mismatch(self, triangle_laplacian):
        with pytest.raises(ValueError, match="dimension"):
            quadratic_form(triangle_laplacian, np.zeros((4, 2)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_nonnegative_for_any_values(self, seed):
        mesh = grid_mesh(3, 3)
        lap = build_laplacian(mesh)
        values = np.random.default_rng(seed).standard_normal((9, 2))
        assert quadratic_form(lap, values) >= 0.0


def test_mesh_edges_empty():
    assert mesh_edges(np.empty((0, 3), dtype=int)).shape == (0, 2)
