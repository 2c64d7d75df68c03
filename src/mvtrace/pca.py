"""PCA baseline via deterministic thin SVD.

Produces the same latent interface as the autoencoders: an ``enc``-dimensional
code per input vector, obtained by projecting onto the top principal
directions of the mean-centered training data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class PcaModel:
    mean: np.ndarray              # (d,)
    components: np.ndarray        # (enc, d), orthonormal rows
    explained_variance: np.ndarray  # (enc,), nonincreasing

    @property
    def enc(self) -> int:
        return self.components.shape[0]


# rows a fit reads at most; more are subsampled
MAX_ROWS = 200_000


def fit_pca(data: np.ndarray, enc: int, *, seed: int = 0) -> PcaModel:
    """Top-``enc`` principal directions of mean-centered ``data`` (N x d).

    Uses a dense thin SVD.  Data with more than ``MAX_ROWS`` rows is
    subsampled (seeded, without replacement) before fitting; this keeps the
    memory footprint bounded with negligible effect on the top components.
    The sign of each component is fixed so its largest-magnitude entry is
    positive.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (samples x features)")
    n, d = data.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not (1 <= enc <= min(n, d)):
        raise ValueError(f"enc={enc} must be in [1, min(N, d)] = [1, {min(n, d)}]")
    if n > MAX_ROWS:
        rng = np.random.default_rng(seed)
        data = data[rng.choice(n, size=MAX_ROWS, replace=False)]
        n = MAX_ROWS
    mean = data.mean(axis=0)
    centered = data - mean
    _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
    if singular_values[min(enc, len(singular_values)) - 1] < 1e-12 * max(singular_values[0], 1.0):
        warnings.warn("data is rank-deficient at the requested enc", stacklevel=2)
    components = vt[:enc].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    explained = singular_values[:enc] ** 2 / (n - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def pca_encode(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project the rows of ``x`` (N x d) onto the principal directions:
    (x - mean) @ componentsᵀ, an N x enc array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.mean.shape[0]:
        raise ValueError(f"input shape {x.shape} != (N, {model.mean.shape[0]})")
    return (x - model.mean) @ model.components.T


def pca_decode(model: PcaModel, z: np.ndarray) -> np.ndarray:
    """Map the rows of ``z`` (N x enc) back to data space: mean + z @ components."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.enc:
        raise ValueError(f"code shape {z.shape} != (N, {model.enc})")
    return model.mean + z @ model.components


def reconstruction_mse(model: PcaModel, data: np.ndarray) -> float:
    """Mean over all entries of the squared reconstruction residual."""
    data = np.asarray(data, dtype=np.float64)
    recon = pca_decode(model, pca_encode(model, data))
    diff = data - recon
    return float(np.mean(diff * diff))
