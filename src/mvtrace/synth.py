"""Synthetic multi-view datasets with planted structure.

Every subject gets a per-vertex latent factor matrix H (m x k_true).  The
background field is spatially smoothed white noise (one low-pass filtering
pass of white noise through (I + lambda*L)^-1, lambda = 1, rescaled to unit
variance).  Planted clusters are functionally coherent: inside a cluster the
background is blended with a per-(subject, cluster) shared factor,

    h_j = sqrt(1 - w^2) * background_j + w * g_cluster,   w = cluster_coherence,

which keeps every vertex latent at unit variance while giving cluster
members high mutual correlation and only background-level correlation with
vertices outside the cluster.  Without that coherence the score functional
is spread over too many weakly informative vertices to be either estimable
or localizable from a 40-subject cohort.

Both views observe the same latents through fixed random loading matrices,
so fusing them is beneficial by construction:

    x_task = H @ A_task + noise,   x_rest = H @ A_rest + noise.

The score is a planted trace model y = tr(beta_trueᵀ H) + noise, where
beta_true is nonzero only on the planted clusters and is scaled so the
noiseless score has unit population variance.  Scores are z-scored across
the cohort unless ``standardize_scores=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .data import SubjectRecord, save_dataset
from .mesh import GraphLaplacian, Mesh, build_laplacian, grid_mesh, icosphere


@dataclass
class GeneratorConfig:
    n_subjects: int = 40
    mesh: str = "icosphere-2"          # 'icosphere-<k>' or 'grid-<r>x<c>'
    d_task: int = 24
    d_rest: int = 30
    latent_dim_true: int = 4
    n_clusters: int = 3
    cluster_size: int = 8
    noise_sigma: float = 0.05          # score observation noise sd
    view_noise_sigma: float | tuple[float, float] = 0.4  # per-feature view noise sd (task, rest)
    loading_weights: tuple[float, float] = (1.0, 1.0)
    smoothing: float = 1.0
    cluster_coherence: float = 0.95    # shared-factor weight inside clusters
    # score-irrelevant structured variation added to the rest view only
    # (high-variance nuisance latents, off by default)
    rest_nuisance_dim: int = 0
    rest_nuisance_scale: float = 0.0
    standardize_scores: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ValueError("n_subjects must be >= 1")
        if self.latent_dim_true > min(self.d_task, self.d_rest):
            raise ValueError(
                "latent_dim_true must be <= min(d_task, d_rest) so each view "
                "can carry the full latent signal"
            )
        if self.n_clusters < 1 or self.cluster_size < 1:
            raise ValueError("need at least one cluster of at least one vertex")
        if isinstance(self.view_noise_sigma, (int, float)):
            self.view_noise_sigma = (float(self.view_noise_sigma), float(self.view_noise_sigma))
        else:
            self.view_noise_sigma = tuple(float(v) for v in self.view_noise_sigma)
        self.loading_weights = tuple(float(w) for w in self.loading_weights)
        for name in ("noise_sigma", "view_noise_sigma", "loading_weights", "smoothing",
                     "rest_nuisance_scale"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.noise_sigma < 0 or min(self.view_noise_sigma) < 0:
            raise ValueError("noise levels must be nonnegative")
        if not (0.0 <= self.cluster_coherence < 1.0):
            raise ValueError("cluster_coherence must be in [0, 1)")
        if self.rest_nuisance_dim < 0 or self.rest_nuisance_scale < 0:
            raise ValueError("rest nuisance settings must be nonnegative")


@dataclass
class GroundTruth:
    """Everything the generator planted, for oracle-based checks."""

    beta_true: np.ndarray                 # (m, k_true); zero off support
    support: np.ndarray                   # sorted planted vertex indices
    clusters: list[np.ndarray]
    cluster_ids: np.ndarray               # cluster id per support vertex
    latents: dict[str, np.ndarray]        # subject_id -> H (m, k_true)
    score_mean: float                     # raw-score stats used for z-scoring
    score_std: float


def make_mesh(spec: str) -> Mesh:
    """Build a mesh from a spec string: 'icosphere-<k>' or 'grid-<r>x<c>'."""
    if spec.startswith("icosphere-"):
        try:
            k = int(spec.split("-", 1)[1])
        except ValueError:
            raise ValueError(f"bad mesh spec {spec!r}: expected 'icosphere-<k>'")
        return icosphere(k)
    if spec.startswith("grid-"):
        body = spec.split("-", 1)[1]
        parts = body.split("x")
        if len(parts) != 2:
            raise ValueError(f"bad mesh spec {spec!r}: expected 'grid-<r>x<c>'")
        try:
            rows, cols = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad mesh spec {spec!r}: expected 'grid-<r>x<c>'")
        return grid_mesh(rows, cols)
    raise ValueError(f"bad mesh spec {spec!r}: expected 'icosphere-<k>' or 'grid-<r>x<c>'")


def _smooth_columns(laplacian: GraphLaplacian, white: np.ndarray, lam: float) -> np.ndarray:
    """Apply (I + lam*L)^-1 column-wise via conjugate-gradient solves."""
    from scipy.sparse.linalg import cg  # only generate loads scipy.sparse.linalg

    m = laplacian.dimension
    operator = sparse.identity(m, format="csr") + lam * laplacian.matrix
    out = np.empty_like(white)
    for k in range(white.shape[1]):
        solution, info = cg(operator, white[:, k], rtol=1e-8, atol=0.0)
        if info != 0:
            raise RuntimeError(f"CG smoothing failed to converge (info={info})")
        out[:, k] = solution
    return out


def _smoothed_entry_std(laplacian: GraphLaplacian, lam: float) -> float:
    """Population std of one entry of (I + lam*L)^-1 w for unit white w.

    Var averaged over vertices is tr(S²)/m with S = (I + lam*L)^-1, computed
    from the Laplacian eigenvalues (desk-scale meshes).
    """
    eigenvalues = np.linalg.eigvalsh(laplacian.matrix.toarray())
    return float(np.sqrt(np.mean(1.0 / (1.0 + lam * eigenvalues) ** 2)))


def _grow_clusters(
    laplacian: GraphLaplacian, n_clusters: int, cluster_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Pick spatially contiguous vertex clusters by BFS over mesh edges."""
    m = laplacian.dimension
    neighbors: list[list[int]] = [[] for _ in range(m)]
    for i, j in laplacian.edges:
        neighbors[i].append(int(j))
        neighbors[j].append(int(i))
    taken = np.zeros(m, dtype=bool)
    clusters = []
    for _ in range(n_clusters):
        # prefer seeds not adjacent to an existing cluster
        free = [
            v for v in range(m)
            if not taken[v] and not any(taken[u] for u in neighbors[v])
        ]
        if not free:
            free = [v for v in range(m) if not taken[v]]
        if not free:
            raise ValueError("mesh too small for the requested clusters")
        seed_vertex = int(rng.choice(free))
        cluster = [seed_vertex]
        taken[seed_vertex] = True
        frontier = [seed_vertex]
        while len(cluster) < cluster_size and frontier:
            nxt = []
            for v in frontier:
                for u in neighbors[v]:
                    if not taken[u] and len(cluster) < cluster_size:
                        taken[u] = True
                        cluster.append(u)
                        nxt.append(u)
            frontier = nxt
        if len(cluster) < cluster_size:
            raise ValueError("could not grow a contiguous cluster to the requested size")
        clusters.append(np.array(sorted(cluster), dtype=int))
    return clusters


def _planted_beta(
    m: int, k: int, clusters: list[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Cluster-coherent coefficient rows with positive mean entries."""
    beta = np.zeros((m, k))
    for cluster in clusters:
        base = np.abs(rng.standard_normal(k))
        base /= np.linalg.norm(base)
        for v in cluster:
            beta[v] = base + 0.1 * rng.standard_normal(k)
    return beta


def generate(config: GeneratorConfig):
    """Generate (subjects, mesh, ground_truth) from a seeded config."""
    rng = np.random.default_rng(config.seed)
    mesh = make_mesh(config.mesh)
    m = mesh.vertex_count
    if config.n_clusters * config.cluster_size > m:
        raise ValueError(
            f"{config.n_clusters} clusters of {config.cluster_size} vertices do "
            f"not fit on a mesh with {m} vertices"
        )
    laplacian = build_laplacian(mesh)
    k = config.latent_dim_true

    clusters = _grow_clusters(laplacian, config.n_clusters, config.cluster_size, rng)
    beta = _planted_beta(m, k, clusters, rng)

    # scale beta so the noiseless score tr(betaᵀH) has unit population
    # variance; the background and cluster-factor parts are independent:
    # Var = (1-w²) sum_k ||S beta_k||²/g²  +  w² sum_c ||sum_{j in c} beta_j||²
    entry_std = _smoothed_entry_std(laplacian, config.smoothing)
    smoothed_beta = _smooth_columns(laplacian, beta, config.smoothing)
    w = config.cluster_coherence
    field_var = float(np.sum(smoothed_beta**2)) / entry_std**2
    cluster_var = sum(float(np.sum(beta[c].sum(axis=0) ** 2)) for c in clusters)
    signal_var = (1.0 - w**2) * field_var + w**2 * cluster_var
    beta /= np.sqrt(signal_var)

    w_task, w_rest = config.loading_weights
    loading_task = w_task * rng.standard_normal((k, config.d_task)) / np.sqrt(k)
    loading_rest = w_rest * rng.standard_normal((k, config.d_rest)) / np.sqrt(k)
    q = config.rest_nuisance_dim
    loading_nuisance = (
        config.rest_nuisance_scale * rng.standard_normal((q, config.d_rest)) / np.sqrt(q)
        if q > 0
        else None
    )

    subjects = []
    latents: dict[str, np.ndarray] = {}
    raw_scores = np.empty(config.n_subjects)
    for i in range(config.n_subjects):
        sid = f"s{i:03d}"
        white = rng.standard_normal((m, k))
        h = _smooth_columns(laplacian, white, config.smoothing) / entry_std
        if w > 0:
            for cluster in clusters:
                shared = rng.standard_normal(k)
                h[cluster] = np.sqrt(1.0 - w**2) * h[cluster] + w * shared
        latents[sid] = h
        x_task = h @ loading_task + config.view_noise_sigma[0] * rng.standard_normal(
            (m, config.d_task)
        )
        x_rest = h @ loading_rest + config.view_noise_sigma[1] * rng.standard_normal(
            (m, config.d_rest)
        )
        if loading_nuisance is not None:
            x_rest += rng.standard_normal((m, q)) @ loading_nuisance
        raw_scores[i] = float(np.sum(beta * h)) + config.noise_sigma * rng.standard_normal()
        subjects.append(SubjectRecord(sid, x_task, x_rest, raw_scores[i]))

    score_mean = float(raw_scores.mean())
    score_std = float(raw_scores.std()) if config.n_subjects > 1 else 1.0
    if config.standardize_scores and score_std > 0:
        for s in subjects:
            s.score = (s.score - score_mean) / score_std

    support = np.array(sorted(np.concatenate(clusters)), dtype=int)
    cluster_ids = np.empty(len(support), dtype=int)
    for cid, cluster in enumerate(clusters):
        for v in cluster:
            cluster_ids[np.searchsorted(support, v)] = cid
    ground_truth = GroundTruth(
        beta_true=beta,
        support=support,
        clusters=clusters,
        cluster_ids=cluster_ids,
        latents=latents,
        score_mean=score_mean,
        score_std=score_std,
    )
    return subjects, mesh, ground_truth


def write_dataset(directory, subjects, mesh, ground_truth: GroundTruth | None = None) -> Path:
    """Write the generator output using the dataset directory contract."""
    kwargs = {}
    if ground_truth is not None:
        kwargs = {
            "beta_true": ground_truth.beta_true,
            "support": ground_truth.support,
            "cluster_ids": ground_truth.cluster_ids,
        }
    return save_dataset(directory, subjects, mesh, **kwargs)
