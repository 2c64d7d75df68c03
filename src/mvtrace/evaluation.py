"""Cross-validation harness, metrics, and weight-map significance.

Fold hygiene is the boundary between a fold's two stages.  The score-blind
``fold_latents`` fits the representation on the training subjects' vertex
samples only, then freezes it and z-scores the training latents with
training statistics; it reads no score.  The score-reading ``solve_fold``
fits the trace regression on the training scores and scores the held-out
subjects, encoded by the frozen model with the same statistics.  Nothing
fitted ever sees a test subject, and ``run_fold`` is the two in turn.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import SubjectRecord, scores_array
from .trace_regression import (
    FistaConfig,
    RegressionDataset,
    RegularizationConfig,
    fit_mfista,
    predict_many,
)

# the significance threshold of a run's map and the default of ``mvtrace map``
T_CRIT = 2.45


@dataclass
class CvPlan:
    """Seeded partition of subject indices into near-equal folds."""

    n_subjects: int
    n_folds: int
    folds: list[np.ndarray]

    def test_indices(self, fold_id: int) -> np.ndarray:
        return self.folds[fold_id]

    def train_indices(self, fold_id: int) -> np.ndarray:
        mask = np.ones(self.n_subjects, dtype=bool)
        mask[self.folds[fold_id]] = False
        return np.nonzero(mask)[0]


def make_folds(n: int, k: int, seed: int) -> CvPlan:
    """Random disjoint folds covering all n subjects, sizes differing by <= 1.
    At least two folds, so that every fold has training subjects."""
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    folds = [np.sort(chunk) for chunk in np.array_split(order, k)]
    return CvPlan(n_subjects=n, n_folds=k, folds=folds)


def mean_squared_error(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch")
    return float(np.mean((y_true - y_pred) ** 2))


def r_squared(y_true, y_pred) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot.

    Raises on a constant ``y_true`` (undefined denominator).
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch")
    if y_true.size < 2:
        raise ValueError("need at least 2 observations")
    total = float(np.sum((y_true - y_true.mean()) ** 2))
    if total == 0:
        raise ValueError("r_squared undefined for constant y_true")
    residual = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - residual / total


@dataclass
class FoldResult:
    fold_id: int
    mse: float
    r2: float | None  # None where R² is undefined (one test subject, constant scores)
    beta: np.ndarray
    predictions: list[tuple[str, float, float]]  # (subject_id, y_true, y_pred)
    converged: bool
    objectives: np.ndarray


@dataclass
class CvResult:
    """Fold results with fold means and standard errors.  The R² figures
    average the folds where R² is defined; they are None if there is none.
    ``pooled_r2`` is the R² of every out-of-fold prediction taken together
    (None when undefined), which small test folds do not swing."""

    folds: list[FoldResult]
    mean_mse: float
    stderr_mse: float
    mean_r2: float | None
    stderr_r2: float | None
    pooled_r2: float | None

    @classmethod
    def from_folds(cls, folds: list[FoldResult]) -> "CvResult":
        mses = np.array([f.mse for f in folds])
        r2s = np.array([f.r2 for f in folds if f.r2 is not None])
        pooled = [p for f in folds for p in f.predictions]
        return cls(
            folds=folds,
            mean_mse=float(mses.mean()),
            stderr_mse=_stderr(mses),
            mean_r2=float(r2s.mean()) if len(r2s) else None,
            stderr_r2=_stderr(r2s) if len(r2s) else None,
            pooled_r2=_defined_r_squared(np.array([p[1] for p in pooled]),
                                         np.array([p[2] for p in pooled])),
        )

    @property
    def betas(self) -> list[np.ndarray]:
        return [f.beta for f in self.folds]


def _stderr(values: np.ndarray) -> float:
    k = len(values)
    return float(values.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0


def fold_latents(
    subjects: list[SubjectRecord],
    spec,
    train_idx: np.ndarray,
    fit_seed: int,
    standardize_latents: bool = True,
):
    """The score-blind stage of a fold: fit ``spec`` on the training
    subjects, encode them and, with ``standardize_latents`` (default),
    z-score every latent column with the training-fold statistics.  No
    score is read.

    Returns ``(train, encode)``: the (n_train, m, d) training stack in
    ``train_idx`` order, and ``encode(subjects, rows)``, the (n, len(rows),
    d) stack of other subjects' latents on vertex ``rows``, z-scored with
    the same statistics.  Each stack is allocated once and every subject's
    latents are written into it as they are encoded, then z-scored in
    place, so beside the stack only one subject's latents exist at a time.

    Autoencoder codes have an arbitrary per-column scale (a rescaled code
    with an inversely rescaled decoder reconstructs identically), so without
    the z-scoring the penalty weights would not be comparable across
    representations.
    """
    train_subjects = [subjects[i] for i in train_idx]
    model = spec.fit(train_subjects, int(fit_seed))
    train = _latent_stack(model, train_subjects, slice(None))
    if standardize_latents:
        center = train.mean(axis=(0, 1))
        train -= center
        # each column's population std, without a stack-sized temporary
        scale = np.sqrt(np.einsum("ijk,ijk->k", train, train)
                        / (train.shape[0] * train.shape[1]))
        scale = np.where(scale < 1e-12, 1.0, scale)
        train /= scale

    def encode(others: list[SubjectRecord], rows: np.ndarray) -> np.ndarray:
        latents = _latent_stack(model, others, rows)
        if standardize_latents:
            latents -= center
            latents /= scale
        return latents

    return train, encode


def _latent_stack(model, subjects: list[SubjectRecord], rows) -> np.ndarray:
    """The (n, rows, d) C-contiguous stack of the ``subjects``' latents on
    vertex ``rows`` (an index array or a slice), in one new array that each
    subject's latents are written into as they are encoded."""
    first = model.encode_subject(subjects[0])[rows]
    stack = np.empty((len(subjects), *first.shape))
    stack[0] = first
    del first  # so that one subject's latents exist beside the stack at a time
    for i in range(1, len(subjects)):
        stack[i] = model.encode_subject(subjects[i])[rows]
    return stack


def solve_fold(
    latents,
    subjects: list[SubjectRecord],
    laplacian,
    penalties: list[tuple[RegularizationConfig, FistaConfig]],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    fold_id: int,
) -> list[FoldResult]:
    """The score-reading stage of a fold: fit the regression (smoothed by
    the GraphLaplacian ``laplacian``) on the training scores once per
    (reg, fista) pair of ``penalties``, then score the test subjects; the
    FoldResults come in pair order.  ``latents`` is ``fold_latents``'s
    output for ``train_idx`` and is left unchanged, so it can be solved
    again on other scores.

    The pairs are solved as a warm-started path, from the largest alpha to
    the smallest (a stable sort, so equal alphas keep list order), each fit
    starting from the previous fit's beta whatever its eta; the first fit
    starts from zero.
    """
    if not penalties:
        raise ValueError("empty penalty list")
    train, encode = latents
    dataset = RegressionDataset(
        latents=train,
        scores=scores_array([subjects[i] for i in train_idx]),
        laplacian=laplacian.matrix,
    )
    fits = [None] * len(penalties)
    beta = None
    for i in sorted(range(len(penalties)), key=lambda i: -penalties[i][0].alpha):
        fits[i] = fit_mfista(dataset, *penalties[i], init=beta)
        beta = fits[i].beta
    # the test subjects' latents on the rows some fit keeps (every beta is zero
    # on the others); each fit is scored on its own rows only, so its
    # predictions do not depend on the other penalties of the fold
    supports = [np.flatnonzero(fit.beta.any(axis=1)) for fit in fits]
    kept = np.unique(np.concatenate(supports))
    test_latents = encode([subjects[i] for i in test_idx], kept)
    y_true = np.array([subjects[i].score for i in test_idx])
    results = []
    for fit, support in zip(fits, supports):
        y_pred = predict_many(fit.beta[support],
                              test_latents[:, np.searchsorted(kept, support)])
        rows = [(subjects[i].subject_id, subjects[i].score, float(p))
                for i, p in zip(test_idx, y_pred)]
        results.append(FoldResult(
            fold_id=fold_id,
            mse=mean_squared_error(y_true, y_pred),
            r2=_defined_r_squared(y_true, y_pred),
            beta=fit.beta,
            predictions=rows,
            converged=fit.converged,
            objectives=fit.objectives,
        ))
    return results


def run_fold(
    subjects: list[SubjectRecord],
    laplacian,
    spec,
    penalties: list[tuple[RegularizationConfig, FistaConfig]],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    fold_id: int,
    fit_seed: int,
    standardize_latents: bool = True,
) -> list[FoldResult]:
    """One fold: ``fold_latents`` on the training split, then ``solve_fold``
    for every (reg, fista) pair of ``penalties``, in pair order."""
    if not penalties:
        raise ValueError("empty penalty list")  # before the fit
    latents = fold_latents(subjects, spec, train_idx, fit_seed, standardize_latents)
    return solve_fold(latents, subjects, laplacian, penalties, train_idx, test_idx, fold_id)


def _defined_r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float | None:
    """R², or None on a one-subject test fold or constant scores."""
    try:
        return r_squared(y_true, y_pred)
    except ValueError:
        return None


# a fold worker's (subjects, laplacian, spec, penalties, standardize_latents),
# set once per worker process by the pool's initializer
_worker_inputs = None


def _set_worker_inputs(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_fold(task):
    """run_fold on a worker's inputs; ``task`` is (train_idx, test_idx,
    fold_id, fit_seed)."""
    subjects, laplacian, spec, penalties, standardize_latents = _worker_inputs
    return run_fold(subjects, laplacian, spec, penalties, *task, standardize_latents)


def run_cv(
    subjects: list[SubjectRecord],
    laplacian,
    spec,
    penalties: list[tuple[RegularizationConfig, FistaConfig]],
    plan: CvPlan,
    *,
    seed: int = 0,
    jobs: int = 1,
    standardize_latents: bool = True,
) -> list[CvResult]:
    """Full k-fold cross-validation of representation + trace regression.

    ``penalties`` is a list of (reg, fista) pairs: each fold's representation
    is fit once for every pair (see ``run_fold``) and one CvResult per pair
    comes back, in pair order.  Fold fit seeds derive from ``seed`` through a
    SeedSequence, so results are reproducible and independent of ``jobs``.
    """
    if not penalties:
        raise ValueError("empty penalty list")
    fold_seeds = np.random.SeedSequence(seed).generate_state(plan.n_folds)
    tasks = [(plan.train_indices(f), plan.test_indices(f), f, int(fold_seeds[f]))
             for f in range(plan.n_folds)]
    # a pool forks all its workers up front: never more than there are folds
    workers = min(jobs, plan.n_folds)
    if workers > 1:
        # the cohort goes to each worker once; a task is only its fold's indices
        inputs = (subjects, laplacian, spec, penalties, standardize_latents)
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_worker_inputs,
                                 initargs=inputs) as pool:
            folds = list(pool.map(_worker_fold, tasks))
    else:
        folds = [run_fold(subjects, laplacian, spec, penalties, *task, standardize_latents)
                 for task in tasks]
    return [CvResult.from_folds([fold[p] for fold in folds])
            for p in range(len(penalties))]


@dataclass
class SignificanceMap:
    """Per-vertex one-sample t statistics over fold maps, and t > t_crit."""

    t: np.ndarray
    mask: np.ndarray


def significance_map(betas: list[np.ndarray], t_crit: float = T_CRIT) -> SignificanceMap:
    """Cross-fold t-test of per-vertex weights.

    Each fold's d-vector row is reduced to its norm signed by its mean
    entry, s_j; then t_j = mean_f(s_j) / (sd_f(s_j)/sqrt(k)) over the k
    fold maps, in list order.  Vertices with zero cross-fold variance get
    t = +inf when the mean is nonzero and t = 0 otherwise; the mask is
    ``t > t_crit``.
    """
    if len(betas) < 2:
        raise ValueError("need at least 2 fold maps")
    shapes = {np.asarray(b).shape for b in betas}
    if len(shapes) != 1:
        raise ValueError(f"fold maps disagree on shape: {shapes}")
    stack = np.stack([np.asarray(b, dtype=np.float64) for b in betas])  # (k, m, d)
    k = stack.shape[0]
    scalars = np.linalg.norm(stack, axis=2) * np.sign(stack.mean(axis=2))
    mean = scalars.mean(axis=0)
    sd = scalars.std(axis=0, ddof=1)
    t = np.zeros_like(mean)
    nonzero_sd = sd > 0
    t[nonzero_sd] = mean[nonzero_sd] / (sd[nonzero_sd] / np.sqrt(k))
    degenerate = ~nonzero_sd
    t[degenerate & (mean != 0)] = np.inf
    return SignificanceMap(t=t, mask=t > t_crit)


@dataclass
class SweepPoint:
    """One grid entry: the label of its rows in the output tables and its
    representation spec, from which the tables' latent dims are read."""

    label: str
    spec: object


def point_dims(point: SweepPoint) -> tuple[object, object, object]:
    """(enc, enc_t, enc_r) for CSV rows; blanks become empty strings."""
    config = getattr(point.spec, "config", None)
    if config is None:
        return getattr(point.spec, "enc", ""), "", ""
    enc_t, enc_r = config.enc_split if config.enc_split is not None else ("", "")
    return config.enc, enc_t, enc_r


# --- CSV export --------------------------------------------------------------

FOLD_HEADER = ["config", "enc", "enc_t", "enc_r", "fold", "mse", "r2"]
SUMMARY_HEADER = [
    "config", "enc", "enc_t", "enc_r",
    "mean_mse", "stderr_mse", "mean_r2", "stderr_r2", "pooled_r2",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_fold_csv(path, entries: list[tuple[SweepPoint, CvResult]]) -> None:
    """One row per (config, fold): config,enc,enc_t,enc_r,fold,mse,r2.
    An undefined R² is an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FOLD_HEADER)
        for point, result in entries:
            enc, enc_t, enc_r = point_dims(point)
            for fold in result.folds:
                writer.writerow(
                    [point.label, enc, enc_t, enc_r, fold.fold_id,
                     _fmt(fold.mse), _fmt(fold.r2)]
                )


def write_summary_csv(path, entries: list[tuple[SweepPoint, CvResult]]) -> None:
    """One row per config with fold means and standard errors, and the
    pooled out-of-fold R²."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for point, result in entries:
            enc, enc_t, enc_r = point_dims(point)
            writer.writerow(
                [point.label, enc, enc_t, enc_r,
                 _fmt(result.mean_mse), _fmt(result.stderr_mse),
                 _fmt(result.mean_r2), _fmt(result.stderr_r2), _fmt(result.pooled_r2)]
            )


def write_significance_csv(path, sig: SignificanceMap) -> None:
    """Per-vertex rows: vertex,t,significant."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "t", "significant"])
        for j in range(len(sig.t)):
            writer.writerow([j, _fmt(float(sig.t[j])), int(sig.mask[j])])
