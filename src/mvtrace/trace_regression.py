"""Trace regression with Laplacian smoothness and row-group sparsity.

The model maps a per-subject latent matrix Z (m vertices x d features) to a
scalar through the Frobenius inner product tr(betaᵀZ).  Coefficients are
estimated by minimizing

    sum_i (y_i - tr(betaᵀZ_i))²  +  eta/2 * tr(betaᵀ L beta)
                                 +  alpha * sum_j ||beta_j||_2

where L is the mesh graph Laplacian and beta_j is the j-th vertex row.  The
row-norm penalty is convex but non-differentiable and drives whole vertex
rows to zero, so the problem is solved with a monotone variant of FISTA:
proximal gradient steps with momentum, where a candidate iterate is accepted
only if it does not increase the objective.

Each solve's step is fixed at 1/L, where L = 2·λmax(XᵀX) + eta·(largest
absolute row sum of L) bounds the gradient's Lipschitz constant from above
on the rows it solves for: the data part is exact (``eigvalsh`` of the
subject Gram matrix) and the Laplacian part is Gershgorin's bound.  An
iteration makes one forward pass (predictions at the candidate, for its
objective) and one adjoint pass (the gradient at the momentum point) over the
stacked latents; the momentum point's predictions are combined from those
already computed.

With alpha > 0, the solution keeps few vertex rows, so MFISTA runs on a
working set W of rows (Celer: Massias, Gramfort & Salmon 2018; Blitz:
Johnson & Guestrin 2015).  The restriction is exact: rows
outside W are zero, so the model and tr(betaᵀLbeta) = tr(beta_Wᵀ L_WW beta_W)
only need latents[:, W, :] and L[W][:, W].  The optimality condition of a
zero row j is ||g_j|| <= alpha for the smooth part's gradient g.  W starts
from the support of the initial beta; each step adds the rows outside W that
break the condition, largest ||g_j|| first, up to max(2·|W|,
WORKING_SET_MIN_GROWTH) rows, and solves the restricted problem from the
current beta with its own step 1/L_W (L_W <= L, so the step is larger than
the full problem's).  After each solve one forward and one adjoint pass
over all rows give the full gradient and the duality gap

    gap = P(beta) - (2s·yᵀr - s²·(||r||² + eta/2·<beta, L beta>)),

with r = y - X·beta and s = min(1, alpha / max_j ||g_j||), which bounds
P(beta) - P*.  A restricted solve stops on the plateau rule, or once its own
gap (every GAP_CHECK_PERIOD iterations) is at most WORKING_SET_GAP_RATIO times
the last full gap; if that early stop leaves no row to add, the same W is
solved again to its plateau.  The fit ends when a solve reached its plateau
and no row outside W breaks the condition.  When W would hold more than
half the rows it becomes every row, and that solve is the plain loop with
the full step and no gap checks.  ``FistaConfig.max_iters`` bounds all
solves together.  With alpha = 0 the plain loop runs over all rows.

``evaluation.run_fold`` solves a fold's penalties as a path, in order of
decreasing alpha, each fit starting from the previous fit's beta through
``fit_mfista``'s ``init``; the first starts from zero.  A warm-started fit
stops on the same plateau rule from another start, and restricted sums run
over fewer rows with another step, so results differ from a cold solve over
all rows in the last digits, within the solver's accuracy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

logger = logging.getLogger(__name__)

# fit_mfista's working set W: each step adds up to max(2·|W|,
# WORKING_SET_MIN_GROWTH) rows (Celer's initial size), and a restricted solve
# stops once its duality gap, computed every GAP_CHECK_PERIOD iterations, is at
# most WORKING_SET_GAP_RATIO times the last full gap (Celer's inner tolerance)
WORKING_SET_MIN_GROWTH = 100
WORKING_SET_GAP_RATIO = 0.3
GAP_CHECK_PERIOD = 10


class DivergenceError(RuntimeError):
    """Objective became non-finite: the inputs hold huge values, or the
    initial coefficients are not finite."""


@dataclass
class RegularizationConfig:
    """Penalty weights: ``alpha`` for row-group sparsity, ``eta`` for the
    Laplacian quadratic term."""

    alpha: float = 5e-4
    eta: float = 1e-3

    def __post_init__(self):
        if self.alpha < 0 or self.eta < 0:
            raise ValueError("alpha and eta must be nonnegative")


@dataclass
class FistaConfig:
    max_iters: int = 2000
    rel_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tolerance <= 0:
            raise ValueError("rel_tolerance must be > 0")


@dataclass
class RegressionDataset:
    """n latent matrices (n, m, d), their scores (n,), and the Laplacian.

    ``laplacian`` is an m x m scipy sparse matrix, kept as CSR, or None
    (treated as zero; only valid when eta = 0).
    """

    latents: np.ndarray
    scores: np.ndarray
    laplacian: object = None

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=np.float64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.latents.ndim != 3:
            raise ValueError("latents must be (n, m, d)")
        if self.scores.shape != (self.latents.shape[0],):
            raise ValueError("scores length must match latent count")
        if self.laplacian is not None:
            if not sparse.issparse(self.laplacian):
                raise TypeError("laplacian must be a scipy sparse matrix or None")
            self.laplacian = self.laplacian.tocsr()
            if self.laplacian.shape[0] != self.latents.shape[1]:
                raise ValueError(f"Laplacian dimension {self.laplacian.shape[0]} != "
                                 f"vertex count {self.latents.shape[1]}")

    @property
    def n_subjects(self) -> int:
        return self.latents.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.latents.shape[1], self.latents.shape[2]


def predict(beta: np.ndarray, z: np.ndarray) -> float:
    """tr(betaᵀZ): the Frobenius inner product of beta and Z."""
    beta = np.asarray(beta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if beta.shape != z.shape:
        raise ValueError(f"shape mismatch: beta {beta.shape} vs Z {z.shape}")
    return float(np.sum(beta * z))


def predict_many(beta: np.ndarray, latents: np.ndarray) -> np.ndarray:
    """Predictions for a stack of latent matrices (n, m, d)."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.shape[1:] != np.asarray(beta).shape:
        raise ValueError(
            f"shape mismatch: beta {np.asarray(beta).shape} vs latents "
            f"{latents.shape[1:]}"
        )
    return np.tensordot(latents, beta, axes=([1, 2], [0, 1]))


def row_norms(beta: np.ndarray) -> np.ndarray:
    # einsum sums each row's squares without the m x d temporary of
    # np.linalg.norm(axis=1), at half its cost; MFISTA calls this twice per
    # iteration
    beta = np.asarray(beta, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", beta, beta))


def penalty(beta: np.ndarray, reg: RegularizationConfig) -> float:
    """The non-smooth part: alpha * sum_j ||beta_j||."""
    return float(reg.alpha * np.sum(row_norms(beta)))


def _smooth_laplacian(dataset: RegressionDataset, eta: float):
    """The Laplacian matrix the smooth part uses: None when eta = 0."""
    if eta <= 0:
        return None
    if dataset.laplacian is None:
        raise ValueError("eta > 0 requires a Laplacian on the dataset")
    return dataset.laplacian


def _smooth_value(beta, scores, x_beta, l_beta, eta: float) -> float:
    """The smooth part from the products X·beta and L·beta (None if eta = 0)."""
    residual = scores - x_beta
    value = float(residual @ residual)
    if l_beta is not None:
        value += 0.5 * eta * float(np.sum(beta * l_beta))
    return value


def _smooth_gradient(latents, scores, x_beta, l_beta, eta: float) -> np.ndarray:
    """The smooth part's gradient from X·beta and L·beta: one adjoint pass."""
    grad = -2.0 * np.tensordot(scores - x_beta, latents, axes=(0, 0))
    if l_beta is not None:
        grad = grad + eta * l_beta
    return grad


def _duality_gap(latents, scores, beta, x_beta, l_beta, alpha: float, eta: float):
    """(gap, ||g_j||) at beta for the group penalty: the dual point is the
    residual scaled by s = min(1, alpha / max_j ||g_j||); one adjoint pass."""
    grad_norms = row_norms(_smooth_gradient(latents, scores, x_beta, l_beta, eta))
    top = grad_norms.max(initial=0.0)
    s = 1.0 if top <= alpha else alpha / top
    smooth = _smooth_value(beta, scores, x_beta, l_beta, eta)
    primal = smooth + alpha * float(np.sum(row_norms(beta)))
    dual = 2.0 * s * float(scores @ (scores - x_beta)) - s * s * smooth
    return max(primal - dual, 0.0), grad_norms


def smooth_part(beta: np.ndarray, dataset: RegressionDataset, eta: float) -> float:
    lap = _smooth_laplacian(dataset, eta)
    return _smooth_value(beta, dataset.scores, predict_many(beta, dataset.latents),
                         None if lap is None else lap @ beta, eta)


def objective(beta: np.ndarray, dataset: RegressionDataset, reg: RegularizationConfig) -> float:
    """Full objective: data term + eta/2 tr(betaᵀLbeta) + row penalty."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != dataset.shape:
        raise ValueError(f"beta shape {beta.shape} != dataset shape {dataset.shape}")
    return smooth_part(beta, dataset, reg.eta) + penalty(beta, reg)


def smooth_gradient(beta: np.ndarray, dataset: RegressionDataset, eta: float) -> np.ndarray:
    """Gradient of the smooth part: -2 sum_i r_i Z_i + eta L beta."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != dataset.shape:
        raise ValueError(f"beta shape {beta.shape} != dataset shape {dataset.shape}")
    lap = _smooth_laplacian(dataset, eta)
    return _smooth_gradient(dataset.latents, dataset.scores,
                            predict_many(beta, dataset.latents),
                            None if lap is None else lap @ beta, eta)


def prox_group(beta: np.ndarray, threshold: float) -> np.ndarray:
    """Row-wise block soft-thresholding.

    Each row is scaled by max(0, 1 - threshold/||row||); rows with norm at
    most ``threshold`` (and zero rows) map to zero.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    beta = np.asarray(beta, dtype=np.float64)
    if threshold == 0:
        return beta.copy()
    norms = row_norms(beta)
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(0.0, 1.0 - threshold / norms[nz])
    return beta * scale[:, None]


def lipschitz_constant(dataset: RegressionDataset, eta: float) -> float:
    """Upper bound on the Lipschitz constant of the smooth part's gradient.

    The data term contributes 2·λmax(XᵀX) exactly, with X the n × (m·d)
    matrix of flattened latents; ``eigvalsh`` reads it from the n × n
    subject Gram matrix XXᵀ, which has the same nonzero eigenvalues.
    The Laplacian term contributes eta times Gershgorin's bound on λmax(L),
    the largest absolute row sum (2·max degree for an unweighted mesh).
    """
    n = dataset.n_subjects
    flat = dataset.latents.reshape(n, -1)
    lam_data = max(float(np.linalg.eigvalsh(flat @ flat.T)[-1]), 0.0)
    lam_lap = 0.0
    lap = dataset.laplacian
    if eta > 0 and lap is not None and lap.shape[0] > 0:
        lam_lap = float(abs(lap).sum(axis=1).max())
    return 2.0 * lam_data + eta * lam_lap


@dataclass
class FitResult:
    beta: np.ndarray
    objectives: np.ndarray
    converged: bool
    iterations: int
    step_size: float
    # duality gap at beta, an upper bound on objective(beta) - optimum; None
    # for alpha = 0
    gap: float | None = None


def fit_mfista(
    dataset: RegressionDataset,
    reg: RegularizationConfig | None = None,
    fista: FistaConfig | None = None,
    init: np.ndarray | None = None,
) -> FitResult:
    """Monotone FISTA from a zero (or given) initial coefficient matrix.

    Standard FISTA momentum plus the monotone safeguard: the proximal
    candidate becomes the new iterate only when its objective does not
    exceed the incumbent's; otherwise the incumbent is kept and only the
    momentum point moves through the candidate.  The returned objective
    sequence (incumbent value per iteration, starting at the initial point)
    is therefore nonincreasing by construction.  The step is 1/L for the
    upper bound L of ``lipschitz_constant`` on the rows a solve runs on.

    Each iteration reads the latents twice: one adjoint pass for the
    gradient at the momentum point y and one forward pass for the
    candidate's objective.  The predictions X·beta of the incumbent and the
    candidate are kept, and X·y follows from them by the same momentum
    combination that forms y, since X is linear.  The sparse products L·y
    and L·z are computed afresh.

    With alpha > 0, MFISTA runs on a growing working set W of vertex rows
    (module docstring).  Each solve restarts the momentum; a solve on a
    strict subset takes its own, larger step and also stops once its duality
    gap is at most WORKING_SET_GAP_RATIO times the last full gap, and a W of
    more than half the rows becomes every row (the plain loop).
    ``iterations`` and ``objectives`` span every solve, ``step_size`` is the
    last solve's step (0 when beta = 0 already meets the optimality
    condition and no solve runs), and ``gap`` is the duality gap of the last
    pass over all rows.

    A solve stops when the relative objective decrease over a 10-iteration
    window falls below ``rel_tolerance``.  ``max_iters`` bounds the
    iterations of all solves together; reaching it ends the fit with
    ``converged=False`` and a logged warning.  Only iterations whose
    candidate was accepted count toward the window: a rejected candidate
    leaves the incumbent unchanged, so counting it would read a momentum
    oscillation as a converged plateau.
    """
    reg = reg or RegularizationConfig()
    fista = fista or FistaConfig()
    m, d = dataset.shape
    x = np.zeros((m, d)) if init is None else np.array(init, dtype=np.float64)
    if x.shape != (m, d):
        raise ValueError(f"init shape {x.shape} != dataset shape {(m, d)}")
    latents, scores, eta, alpha = dataset.latents, dataset.scores, reg.eta, reg.alpha
    lap = _smooth_laplacian(dataset, eta)

    def laplacian_times(beta):
        return None if lap is None else lap @ beta

    px = predict_many(x, latents)
    fx = _smooth_value(x, scores, px, laplacian_times(x), eta) + penalty(x, reg)
    if not np.isfinite(fx):
        raise DivergenceError(f"objective non-finite at the initial point: {fx}")
    if alpha == 0:
        fit = _solve(dataset, reg, x, fx, fista.max_iters, fista.rel_tolerance)
        if not fit.converged:
            _warn_max_iters(fista)
        return fit

    gap, grad_norms = _duality_gap(latents, scores, x, px, laplacian_times(x), alpha, eta)
    held = x.any(axis=1)
    objectives = [fx]
    iterations, fit = 0, None
    while True:
        outside = np.flatnonzero(~held & (grad_norms > alpha))
        if fit is None:
            if outside.size == 0 and not held.any():
                break  # beta = 0 meets the optimality condition
        elif held.all() or iterations >= fista.max_iters or (
                outside.size == 0 and fit.converged):
            break
        grow = max(2 * int(held.sum()), WORKING_SET_MIN_GROWTH)
        held[outside[np.argsort(-grad_norms[outside], kind="stable")[:grow]]] = True
        if 2 * held.sum() > m:
            held[:] = True
        rows = np.flatnonzero(held)
        if rows.size == m:
            sub, gap_stop = dataset, None
        else:
            # take() keeps the copy C-ordered, so products reshape it as a view
            sub = RegressionDataset(latents.take(rows, axis=1), scores,
                                    None if lap is None else lap[rows][:, rows])
            # with no row to add (the previous solve stopped on its gap, or a
            # warm start breaks no condition outside W) it runs to its plateau
            gap_stop = WORKING_SET_GAP_RATIO * gap if outside.size else None
        fit = _solve(sub, reg, x[rows], objectives[-1], fista.max_iters - iterations,
                     fista.rel_tolerance, gap_stop)
        x = np.zeros((m, d))
        x[rows] = fit.beta
        objectives.extend(fit.objectives[1:])
        iterations += fit.iterations
        px = predict_many(x, latents)
        gap, grad_norms = _duality_gap(latents, scores, x, px, laplacian_times(x),
                                       alpha, eta)
    converged = outside.size == 0 and (fit is None or fit.converged)
    if not converged:
        _warn_max_iters(fista)
    return FitResult(
        beta=x,
        objectives=np.array(objectives),
        converged=converged,
        iterations=iterations,
        step_size=0.0 if fit is None else fit.step_size,
        gap=gap,
    )


def _solve(dataset, reg, x, fx, max_iters, rel_tolerance, gap_stop=None) -> FitResult:
    """The MFISTA loop over every row of ``dataset`` from ``x``, whose
    objective is ``fx``.  ``converged`` means the plateau rule stopped it.
    With ``gap_stop``, the duality gap at the incumbent is computed every
    GAP_CHECK_PERIOD iterations, and the loop stops with that ``gap`` once it
    is at most ``gap_stop``; otherwise ``gap`` is None."""
    latents, scores, eta, alpha = dataset.latents, dataset.scores, reg.eta, reg.alpha
    lap = _smooth_laplacian(dataset, eta)

    def laplacian_times(beta):
        return None if lap is None else lap @ beta

    def value(beta, x_beta):
        return (_smooth_value(beta, scores, x_beta, laplacian_times(beta), eta)
                + penalty(beta, reg))

    step = 1.0 / max(lipschitz_constant(dataset, eta), 1e-12)
    # px, pz, py: the n predictions X·x, X·z, X·y
    px = predict_many(x, latents)
    y, py = x, px
    t = 1.0
    objectives = [fx]
    accepted = [fx]
    converged = False
    iterations = 0
    gap = None
    for k in range(max_iters):
        grad = _smooth_gradient(latents, scores, py, laplacian_times(y), eta)
        z = prox_group(y - step * grad, step * alpha)
        pz = predict_many(z, latents)
        fz = value(z, pz)
        if not np.isfinite(fz):
            raise DivergenceError(
                f"objective non-finite at iteration {k}: the inputs hold "
                "non-finite or overflowing values"
            )
        x_prev, px_prev = x, px
        if fz <= fx:
            x, px, fx = z, pz, fz
            accepted.append(fx)
        # else keep the incumbent; momentum still moves through z below
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        a, b = t / t_next, (t - 1.0) / t_next
        y = x + a * (z - x) + b * (x - x_prev)
        py = px + a * (pz - px) + b * (px - px_prev)
        t = t_next
        objectives.append(fx)
        iterations = k + 1
        if len(accepted) > 10:
            past = accepted[-11]
            if past - accepted[-1] < rel_tolerance * max(abs(past), 1e-12):
                converged = True
                break
        if gap_stop is not None and iterations % GAP_CHECK_PERIOD == 0:
            inner = _duality_gap(latents, scores, x, px, laplacian_times(x), alpha, eta)[0]
            if inner <= gap_stop:
                gap = inner
                break
    return FitResult(
        beta=x,
        objectives=np.array(objectives),
        converged=converged,
        iterations=iterations,
        step_size=step,
        gap=gap,
    )


def _warn_max_iters(fista: FistaConfig) -> None:
    logger.warning(
        "MFISTA stopped at max_iters=%d without meeting rel_tolerance=%g",
        fista.max_iters, fista.rel_tolerance,
    )


def export_beta(path, beta: np.ndarray, *, tol: float = 0.0) -> None:
    """Write beta as MVRL plus a text sidecar of nonzero rows.

    The sidecar ``<stem>_support.txt`` has one ``<vertex> <row_norm>`` line
    per row with norm greater than ``tol``.
    """
    from . import io

    path = Path(path)
    io.write_matrix(path, beta)
    norms = row_norms(beta)
    lines = [f"{j} {norms[j]:.17g}\n" for j in range(len(norms)) if norms[j] > tol]
    sidecar = path.with_name(path.stem + "_support.txt")
    sidecar.write_text("".join(lines))
