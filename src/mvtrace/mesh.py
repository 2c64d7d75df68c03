"""Triangulated surface meshes and their combinatorial graph Laplacian.

A mesh is a set of 3D vertex positions plus triangle faces indexing into
them.  The only geometric structure the rest of the package consumes is the
undirected vertex-adjacency graph of the triangulation, summarized by the
combinatorial Laplacian L = D - A (degree matrix minus 0/1 adjacency).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse


class OffFormatError(ValueError):
    """Malformed ASCII OFF file."""


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh.

    Parameters
    ----------
    positions : ndarray, shape (m, 3)
        Vertex coordinates (unitless).
    faces : ndarray, shape (f, 3)
        Vertex-index triples.  Every index must lie in ``[0, m)`` and the
        three indices of a face must be distinct.
    """

    positions: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=np.float64)
        faces = np.asarray(self.faces, dtype=np.int64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (m, 3), got {positions.shape}")
        if positions.shape[0] < 1:
            raise ValueError("mesh needs at least one vertex")
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must be (f, 3), got {faces.shape}")
        m = positions.shape[0]
        if faces.size:
            if faces.min() < 0 or faces.max() >= m:
                raise ValueError(
                    f"face index out of range [0, {m}): "
                    f"min {faces.min()}, max {faces.max()}"
                )
            degenerate = (
                (faces[:, 0] == faces[:, 1])
                | (faces[:, 0] == faces[:, 2])
                | (faces[:, 1] == faces[:, 2])
            )
            if degenerate.any():
                raise ValueError(
                    f"degenerate face(s) with repeated vertex index at rows "
                    f"{np.nonzero(degenerate)[0].tolist()}"
                )
        positions.setflags(write=False)
        faces.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "faces", faces)

    @property
    def vertex_count(self) -> int:
        return self.positions.shape[0]

    @property
    def face_count(self) -> int:
        return self.faces.shape[0]

    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (e, 2) array with i < j."""
        return mesh_edges(self.faces)


def mesh_edges(faces: np.ndarray) -> np.ndarray:
    """Deduplicated undirected edge list of a triangle set, sorted by (i, j)."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


def load_mesh(path) -> Mesh:
    """Read an ASCII OFF file.

    The expected layout is a header line ``OFF``, a counts line
    ``<V> <F> <E>`` (the edge count is ignored), ``V`` coordinate lines and
    ``F`` face lines ``3 i j k``.  Blank lines and ``#`` comments are
    skipped.

    Raises
    ------
    OffFormatError
        If the file cannot be parsed as OFF.
    ValueError
        If parsed indices violate mesh invariants (e.g. out of range).
    """
    lines = _meaningful_lines(Path(path).read_text())
    if not lines:
        raise OffFormatError(f"{path}: empty file")
    if lines[0].split() != ["OFF"]:
        raise OffFormatError(f"{path}: missing OFF header, got {lines[0]!r}")
    if len(lines) < 2:
        raise OffFormatError(f"{path}: missing counts line")
    counts = lines[1].split()
    if len(counts) != 3:
        raise OffFormatError(f"{path}: counts line must be '<V> <F> <E>', got {lines[1]!r}")
    try:
        n_vertices, n_faces, _ = (int(tok) for tok in counts)
    except ValueError as exc:
        raise OffFormatError(f"{path}: non-integer counts line {lines[1]!r}") from exc
    if n_vertices < 1 or n_faces < 0:
        raise OffFormatError(f"{path}: bad counts V={n_vertices} F={n_faces}")
    body = lines[2:]
    if len(body) < n_vertices + n_faces:
        raise OffFormatError(
            f"{path}: expected {n_vertices} vertex and {n_faces} face lines, "
            f"found {len(body)}"
        )
    positions = np.empty((n_vertices, 3), dtype=np.float64)
    for i in range(n_vertices):
        tokens = body[i].split()
        if len(tokens) < 3:
            raise OffFormatError(f"{path}: vertex line {i} has {len(tokens)} fields")
        try:
            positions[i] = [float(t) for t in tokens[:3]]
        except ValueError as exc:
            raise OffFormatError(f"{path}: bad vertex line {body[i]!r}") from exc
    faces = np.empty((n_faces, 3), dtype=np.int64)
    for i in range(n_faces):
        tokens = body[n_vertices + i].split()
        try:
            arity = int(tokens[0])
        except (IndexError, ValueError) as exc:
            raise OffFormatError(f"{path}: bad face line {body[n_vertices + i]!r}") from exc
        if arity != 3 or len(tokens) < 4:
            raise OffFormatError(
                f"{path}: only triangle faces supported, got {body[n_vertices + i]!r}"
            )
        try:
            faces[i] = [int(t) for t in tokens[1:4]]
        except ValueError as exc:
            raise OffFormatError(f"{path}: bad face line {body[n_vertices + i]!r}") from exc
    return Mesh(positions, faces)


def save_mesh(path, mesh: Mesh) -> None:
    """Write a mesh as ASCII OFF (edge count included in the header)."""
    n_edges = mesh.edges().shape[0]
    out = [f"OFF\n{mesh.vertex_count} {mesh.face_count} {n_edges}\n"]
    for p in mesh.positions:
        out.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
    for f in mesh.faces:
        out.append(f"3 {f[0]} {f[1]} {f[2]}\n")
    Path(path).write_text("".join(out))


def _meaningful_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def icosphere(subdivisions: int) -> Mesh:
    """Unit icosphere: an icosahedron subdivided ``subdivisions`` times.

    Each subdivision splits every triangle into four, projecting edge
    midpoints back onto the unit sphere, so the result has
    ``10 * 4**k + 2`` vertices and ``20 * 4**k`` faces.
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    vert_list = [v for v in verts]
    for _ in range(subdivisions):
        midpoint: dict[tuple[int, int], int] = {}

        def midpoint_index(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = vert_list[a] + vert_list[b]
                p /= np.linalg.norm(p)
                vert_list.append(p)
                midpoint[key] = len(vert_list) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab = midpoint_index(a, b)
            bc = midpoint_index(b, c)
            ca = midpoint_index(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return Mesh(np.array(vert_list), np.array(faces, dtype=np.int64))


def grid_mesh(rows: int, cols: int) -> Mesh:
    """Planar triangulated grid with ``rows * cols`` vertices (z = 0)."""
    if rows < 2 or cols < 2:
        raise ValueError("grid mesh needs rows >= 2 and cols >= 2")
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    positions = np.column_stack(
        [jj.ravel().astype(float), ii.ravel().astype(float), np.zeros(rows * cols)]
    )
    faces = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            v = i * cols + j
            faces.append((v, v + 1, v + cols))
            faces.append((v + 1, v + cols + 1, v + cols))
    return Mesh(positions, np.array(faces, dtype=np.int64))


@dataclass(frozen=True)
class GraphLaplacian:
    """Combinatorial Laplacian L = D - A of a mesh's vertex graph.

    ``matrix`` is sparse CSR, symmetric, with row sums exactly zero:
    diagonal entries are vertex degrees and off-diagonals are -1 on edges.
    ``edges`` is the deduplicated undirected edge list used to build it.
    """

    matrix: sparse.csr_matrix
    edges: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        degrees = np.asarray(self.degrees, dtype=np.int64)
        edges.setflags(write=False)
        degrees.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "degrees", degrees)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def build_laplacian(mesh: Mesh) -> GraphLaplacian:
    """Build L = D - A over the undirected edge set of the mesh faces.

    Duplicate edges shared by adjacent faces are counted once.  A warning is
    emitted for disconnected meshes (the Laplacian is then block-diagonal).
    """
    m = mesh.vertex_count
    edges = mesh.edges()
    degrees = np.bincount(edges.ravel(), minlength=m).astype(np.int64)
    if edges.shape[0]:
        i = np.concatenate([edges[:, 0], edges[:, 1], np.arange(m)])
        j = np.concatenate([edges[:, 1], edges[:, 0], np.arange(m)])
        vals = np.concatenate(
            [-np.ones(2 * edges.shape[0]), degrees.astype(np.float64)]
        )
    else:
        i = j = np.arange(m)
        vals = np.zeros(m)
    lap = sparse.csr_matrix((vals, (i, j)), shape=(m, m))
    n_components = component_count(m, edges)
    if n_components > 1:
        warnings.warn(
            f"mesh has {n_components} connected components; "
            "Laplacian is block-diagonal",
            stacklevel=2,
        )
    return GraphLaplacian(matrix=lap, edges=edges, degrees=degrees)


def component_count(m: int, edges: np.ndarray) -> int:
    """Connected components of the graph on ``m`` vertices with undirected
    ``edges``, isolated vertices included.

    Union by hooking plus pointer jumping: each round points the root of
    every edge's larger label at the smaller one, then compresses every
    vertex to its root, until each edge's ends share a root.
    """
    labels = np.arange(m)
    i, j = edges[:, 0], edges[:, 1]
    while not np.array_equal(labels[i], labels[j]):
        li, lj = labels[i], labels[j]
        np.minimum.at(labels, np.maximum(li, lj), np.minimum(li, lj))
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]
    return int(np.count_nonzero(labels == np.arange(m)))


def quadratic_form(laplacian: GraphLaplacian, values: np.ndarray) -> float:
    """Edge-energy tr(BᵀLB) = Σ_{(i,j) in edges} ||B_i - B_j||².

    ``values`` holds one row per vertex (a 1-D vector is treated as a single
    column).  Computed by edge enumeration, which is exact for the
    combinatorial Laplacian.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[0] != laplacian.dimension:
        raise ValueError(
            f"row count {values.shape[0]} != Laplacian dimension {laplacian.dimension}"
        )
    if laplacian.edges.shape[0] == 0:
        return 0.0
    diff = values[laplacian.edges[:, 0]] - values[laplacian.edges[:, 1]]
    return float(np.sum(diff * diff))
