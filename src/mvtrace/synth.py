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

Generation makes two passes over the subjects.  The first draws every random
number in the generator's fixed per-subject order (white field, one shared
factor per cluster when w > 0, task noise, rest noise, nuisance latents when
``rest_nuisance_dim > 0``, score noise).  Then one block conjugate-gradient
solve smooths beta's columns and every subject's white columns together, and
the second pass assembles the subjects.  The block solve runs scipy's
per-column ``cg`` arithmetic column by column (see ``_smooth_columns``), so a
cohort is byte-identical to one smoothed a column at a time, and generation
needs no ``scipy.sparse.linalg``.
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
        if self.smoothing < 0:
            # I + smoothing*L would be indefinite: a roughened field, not a smooth one
            raise ValueError(f"smoothing must be >= 0, got {self.smoothing!r}")
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


def _smooth_columns(laplacian: GraphLaplacian, columns: np.ndarray, lam: float) -> np.ndarray:
    """Apply (I + lam*L)^-1 to every column of ``columns`` in one block CG solve.

    Each column follows the arithmetic of ``scipy.sparse.linalg.cg(operator,
    b, rtol=1e-8, atol=0.0)`` step for step, so the result is bit-identical
    to solving the columns one at a time: x0 = 0 and no preconditioner; a
    zero column is returned as it is; at the top of each of at most 10*m
    iterations a column stops once sqrt(r.r) < 1e-8*||b||; rho = r.r, p = r
    on the first pass and p*(rho/rho_prev) + r after it, q = operator @ p,
    alpha = rho/(p.q), x += alpha*p, r -= alpha*q.  The block changes only
    how the operations are issued.  Every dot is ``np.vecdot`` over the
    C-contiguous rows of the transposed block, one BLAS ddot per row, as
    ``np.dot`` on a column; elementwise updates round each entry alone; and
    one sparse product ``operator @ P`` (scipy's csr_matvecs) sums each row
    of every column in the order of the one-vector csr_matvec.  A converged
    column leaves the block.  A column still unconverged after 10*m
    iterations raises RuntimeError, as a nonzero ``info`` from ``cg`` did.
    """
    m = laplacian.dimension
    operator = sparse.identity(m, format="csr") + lam * laplacian.matrix
    out = columns.T.copy()  # one right-hand side per row, replaced by its solution
    b_norm = np.sqrt(np.vecdot(out, out))
    active = np.flatnonzero(b_norm != 0)  # rows of out still unconverged
    atol = 1e-8 * b_norm[active]
    x = np.zeros((active.size, m))
    r = out[active]
    p = rho_prev = None
    for iteration in range(10 * m):
        rho = np.vecdot(r, r)
        keep = ~(np.sqrt(rho) < atol)  # as cg's test: a NaN residual keeps iterating
        if not keep.all():
            out[active[~keep]] = x[~keep]
            active, atol, x, r, rho = active[keep], atol[keep], x[keep], r[keep], rho[keep]
            if iteration:
                p, rho_prev = p[keep], rho_prev[keep]
        if not active.size:
            break
        p = r.copy() if iteration == 0 else p * (rho / rho_prev)[:, None] + r
        q = np.ascontiguousarray((operator @ p.T).T)
        alpha = rho / np.vecdot(p, q)
        x += alpha[:, None] * p
        r -= alpha[:, None] * q
        rho_prev = rho
    if active.size:
        raise RuntimeError(
            f"CG smoothing failed to converge: {active.size} of {len(out)} columns "
            f"after {10 * m} iterations"
        )
    return np.ascontiguousarray(out.T)


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

    w_task, w_rest = config.loading_weights
    loading_task = w_task * rng.standard_normal((k, config.d_task)) / np.sqrt(k)
    loading_rest = w_rest * rng.standard_normal((k, config.d_rest)) / np.sqrt(k)
    q = config.rest_nuisance_dim
    loading_nuisance = (
        config.rest_nuisance_scale * rng.standard_normal((q, config.d_rest)) / np.sqrt(q)
        if q > 0
        else None
    )

    # draw pass: `fields` holds beta's k columns, then subject i's white field
    # in columns k*(i+1) .. k*(i+2), so one solve smooths them all; each view
    # starts as its scaled noise and gets its signal added in the assembly
    # pass (noise + signal rounds as signal + noise did)
    w = config.cluster_coherence
    sigma_task, sigma_rest = config.view_noise_sigma
    fields = np.empty((m, k * (config.n_subjects + 1)))
    fields[:, :k] = beta
    draws = []
    for i in range(config.n_subjects):
        fields[:, k * (i + 1):k * (i + 2)] = rng.standard_normal((m, k))
        shared = [rng.standard_normal(k) for _ in clusters] if w > 0 else []
        x_task = sigma_task * rng.standard_normal((m, config.d_task))
        x_rest = sigma_rest * rng.standard_normal((m, config.d_rest))
        nuisance = rng.standard_normal((m, q)) if loading_nuisance is not None else None
        score_noise = config.noise_sigma * rng.standard_normal()
        draws.append((shared, x_task, x_rest, nuisance, score_noise))
    smoothed = _smooth_columns(laplacian, fields, config.smoothing)

    # scale beta so the noiseless score tr(betaᵀH) has unit population
    # variance; the background and cluster-factor parts are independent:
    # Var = (1-w²) sum_k ||S beta_k||²/g²  +  w² sum_c ||sum_{j in c} beta_j||²
    entry_std = _smoothed_entry_std(laplacian, config.smoothing)
    field_var = float(np.sum(smoothed[:, :k] ** 2)) / entry_std**2
    cluster_var = sum(float(np.sum(beta[c].sum(axis=0) ** 2)) for c in clusters)
    signal_var = (1.0 - w**2) * field_var + w**2 * cluster_var
    beta /= np.sqrt(signal_var)

    # assembly pass
    subjects = []
    latents: dict[str, np.ndarray] = {}
    raw_scores = np.empty(config.n_subjects)
    for i, (shared, x_task, x_rest, nuisance, score_noise) in enumerate(draws):
        sid = f"s{i:03d}"
        h = smoothed[:, k * (i + 1):k * (i + 2)] / entry_std
        for cluster, g in zip(clusters, shared):
            h[cluster] = np.sqrt(1.0 - w**2) * h[cluster] + w * g
        latents[sid] = h
        x_task += h @ loading_task
        x_rest += h @ loading_rest
        if nuisance is not None:
            x_rest += nuisance @ loading_nuisance
        raw_scores[i] = float(np.sum(beta * h)) + score_noise
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
