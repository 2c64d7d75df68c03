"""Cross-validation harness, metrics, sweeps, and weight-map significance.

Fold hygiene is strict: for every fold the representation model is fit on
the training subjects' vertex samples only, then frozen and used to encode
everyone; the trace regression is fit on the training fold's latents and
scored on the held-out subjects.  Nothing fitted ever sees a test subject.
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
    predict,
)

REDUCTIONS = ("signed-norm", "mean", "max-abs")


@dataclass
class CvPlan:
    """Seeded partition of subject indices into near-equal folds."""

    n_subjects: int
    n_folds: int
    folds: list[np.ndarray]
    seed: int

    def test_indices(self, fold_id: int) -> np.ndarray:
        return self.folds[fold_id]

    def train_indices(self, fold_id: int) -> np.ndarray:
        mask = np.ones(self.n_subjects, dtype=bool)
        mask[self.folds[fold_id]] = False
        return np.nonzero(mask)[0]


def make_folds(n: int, k: int, seed: int) -> CvPlan:
    """Random disjoint folds covering all n subjects, sizes differing by <= 1."""
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    folds = [np.sort(chunk) for chunk in np.array_split(order, k)]
    return CvPlan(n_subjects=n, n_folds=k, folds=folds, seed=seed)


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
    model: object = None
    latent_mean: np.ndarray | None = None
    latent_std: np.ndarray | None = None


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


def run_fold(
    subjects: list[SubjectRecord],
    laplacian,
    spec,
    reg: RegularizationConfig,
    fista: FistaConfig,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    fold_id: int,
    fit_seed: int,
    keep_model: bool = False,
    standardize_latents: bool = True,
    penalties: list[tuple[RegularizationConfig, FistaConfig]] | None = None,
) -> FoldResult | list[FoldResult]:
    """Fit representation + regression on the training split, score the test split.

    With ``standardize_latents`` (default) every latent column is z-scored
    using training-fold statistics before the regression.  Autoencoder codes
    have an arbitrary per-column scale (a rescaled code with an inversely
    rescaled decoder reconstructs identically), so without this the penalty
    weights would not be comparable across representations.

    ``penalties``, a list of (reg, fista) pairs, replaces ``reg`` and
    ``fista``: the representation is fit and every subject encoded once,
    then the regression is fit and scored once per pair, and the
    FoldResults come back as a list in pair order.  The pairs are solved as
    a warm-started path, from the largest alpha to the smallest (a stable
    sort, so equal alphas keep list order), each fit starting from the
    previous fit's beta whatever its eta; the first fit starts from zero.
    """
    single = penalties is None
    if single:
        penalties = [(reg, fista)]
    train_subjects = [subjects[i] for i in train_idx]
    model = spec.fit(train_subjects, int(fit_seed))
    train_latents = np.stack([model.encode_subject(s).z for s in train_subjects])
    latent_mean = latent_std = None
    if standardize_latents:
        latent_mean = train_latents.mean(axis=(0, 1))
        latent_std = train_latents.std(axis=(0, 1))
        latent_std = np.where(latent_std < 1e-12, 1.0, latent_std)
        train_latents -= latent_mean  # in place: the stack is a fresh array
        train_latents /= latent_std
    dataset = RegressionDataset(
        latents=train_latents,
        scores=scores_array(train_subjects),
        laplacian=laplacian,
    )
    penalties = [(r or RegularizationConfig(), f) for r, f in penalties]
    fits = [None] * len(penalties)
    beta = None
    for i in sorted(range(len(penalties)), key=lambda i: -penalties[i][0].alpha):
        fits[i] = fit_mfista(dataset, *penalties[i], init=beta)
        beta = fits[i].beta
    # one test subject's latents at a time, scored against every fit
    predictions = [[] for _ in fits]
    for i in test_idx:
        z = model.encode_subject(subjects[i]).z
        if standardize_latents:
            z = (z - latent_mean) / latent_std
        for fit, rows in zip(fits, predictions):
            rows.append((subjects[i].subject_id, subjects[i].score, predict(fit.beta, z)))
    results = []
    for fit, rows in zip(fits, predictions):
        y_true = np.array([p[1] for p in rows])
        y_pred = np.array([p[2] for p in rows])
        results.append(FoldResult(
            fold_id=fold_id,
            mse=mean_squared_error(y_true, y_pred),
            r2=_defined_r_squared(y_true, y_pred),
            beta=fit.beta,
            predictions=rows,
            converged=fit.converged,
            objectives=fit.objectives,
            model=model if keep_model else None,
            latent_mean=latent_mean,
            latent_std=latent_std,
        ))
    return results[0] if single else results


def _defined_r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float | None:
    """R², or None on a one-subject test fold or constant scores."""
    try:
        return r_squared(y_true, y_pred)
    except ValueError:
        return None


def _run_fold_payload(args):
    return run_fold(*args)


def run_cv(
    subjects: list[SubjectRecord],
    laplacian,
    spec,
    reg: RegularizationConfig | None = None,
    fista: FistaConfig | None = None,
    plan: CvPlan | None = None,
    *,
    seed: int = 0,
    jobs: int = 1,
    keep_models: bool = False,
    standardize_latents: bool = True,
    penalties: list[tuple[RegularizationConfig, FistaConfig]] | None = None,
) -> CvResult | list[CvResult]:
    """Full k-fold cross-validation of representation + trace regression.

    Fold fit seeds derive from ``seed`` through a SeedSequence, so results
    are reproducible and independent of ``jobs``.

    ``penalties``, a list of (reg, fista) pairs, replaces ``reg`` and
    ``fista``: each fold's representation is fit once for every pair (see
    ``run_fold``) and one CvResult per pair comes back, in pair order.
    """
    single = penalties is None
    if single:
        penalties = [(reg, fista)]
    if plan is None:
        plan = make_folds(len(subjects), min(10, len(subjects)), seed)
    fold_seeds = np.random.SeedSequence(seed).generate_state(plan.n_folds)
    payloads = [
        (
            subjects, laplacian, spec, None, None,
            plan.train_indices(f), plan.test_indices(f), f, int(fold_seeds[f]),
            keep_models, standardize_latents, penalties,
        )
        for f in range(plan.n_folds)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(_run_fold_payload, payloads))
    else:
        folds = [_run_fold_payload(p) for p in payloads]
    results = [CvResult.from_folds([fold[p] for fold in folds])
               for p in range(len(penalties))]
    return results[0] if single else results


@dataclass
class SignificanceMap:
    """Per-vertex one-sample t statistics over fold coefficient maps."""

    t: np.ndarray
    t_crit: float
    mask: np.ndarray
    reduction: str
    n_folds: int


def significance_map(
    betas: list[np.ndarray], t_crit: float = 2.45, reduction: str = "signed-norm"
) -> SignificanceMap:
    """Cross-fold t-test of per-vertex weights.

    Each fold's d-vector row is reduced to a scalar first:

    * ``signed-norm`` (default): row norm signed by the mean entry,
    * ``mean``: mean entry,
    * ``max-abs``: the entry of largest magnitude (keeping its sign).

    Then t_j = mean_f(s_j) / (sd_f(s_j)/sqrt(k)).  Vertices with zero
    cross-fold variance get t = +inf when the mean is nonzero and t = 0
    otherwise; the mask is ``t > t_crit``.
    """
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}")
    if len(betas) < 2:
        raise ValueError("need at least 2 fold maps")
    shapes = {np.asarray(b).shape for b in betas}
    if len(shapes) != 1:
        raise ValueError(f"fold maps disagree on shape: {shapes}")
    stack = np.stack([np.asarray(b, dtype=np.float64) for b in betas])  # (k, m, d)
    k = stack.shape[0]
    if reduction == "signed-norm":
        scalars = np.linalg.norm(stack, axis=2) * np.sign(stack.mean(axis=2))
    elif reduction == "mean":
        scalars = stack.mean(axis=2)
    else:
        idx = np.argmax(np.abs(stack), axis=2)
        scalars = np.take_along_axis(stack, idx[:, :, None], axis=2)[:, :, 0]
    mean = scalars.mean(axis=0)
    sd = scalars.std(axis=0, ddof=1)
    t = np.zeros_like(mean)
    nonzero_sd = sd > 0
    t[nonzero_sd] = mean[nonzero_sd] / (sd[nonzero_sd] / np.sqrt(k))
    degenerate = ~nonzero_sd
    t[degenerate & (mean != 0)] = np.inf
    return SignificanceMap(
        t=t, t_crit=t_crit, mask=t > t_crit, reduction=reduction, n_folds=k
    )


@dataclass
class SweepPoint:
    """One grid entry: a label, a representation spec, optional reg and
    fista overrides, and the latent dims recorded in output tables."""

    label: str
    spec: object
    reg: RegularizationConfig | None = None
    fista: FistaConfig | None = None
    enc: int | None = None
    enc_split: tuple[int, int] | None = None


@dataclass
class SweepResult:
    points: list[SweepPoint]
    results: list[CvResult]


def point_dims(point: SweepPoint) -> tuple[object, object, object]:
    """(enc, enc_t, enc_r) for CSV rows; blanks become empty strings."""
    enc = point.enc
    split = point.enc_split
    if enc is None:
        config = getattr(point.spec, "config", None)
        if config is not None:
            enc = config.enc
            split = getattr(config, "enc_split", None)
        elif hasattr(point.spec, "enc"):
            enc = point.spec.enc
        elif hasattr(point.spec, "columns"):
            enc = point.spec.columns
    enc_t, enc_r = (split if split is not None else ("", ""))
    return (enc if enc is not None else "", enc_t, enc_r)


def sweep(
    points: list[SweepPoint],
    subjects: list[SubjectRecord],
    laplacian,
    plan: CvPlan,
    reg: RegularizationConfig | None = None,
    fista: FistaConfig | None = None,
    *,
    seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Cross-validate every grid point on one fold plan; results in grid order.

    Points with equal specs share one ``run_cv``: each fold's representation
    is fit, and its subjects encoded and z-scored, once for all of them, and
    only the regression and the scoring run per point.  ``reg`` and
    ``fista`` apply to the points that do not set their own.
    """
    if not points:
        raise ValueError("empty sweep grid")
    groups: list[list[int]] = []
    for i, point in enumerate(points):
        group = next((g for g in groups if points[g[0]].spec == point.spec), None)
        if group is None:
            groups.append([i])
        else:
            group.append(i)
    results: list[CvResult | None] = [None] * len(points)
    for group in groups:
        penalties = [(points[i].reg or reg, points[i].fista or fista) for i in group]
        shared = run_cv(subjects, laplacian, points[group[0]].spec, plan=plan,
                        seed=seed, jobs=jobs, penalties=penalties)
        for i, result in zip(group, shared):
            results[i] = result
    return SweepResult(points=points, results=results)


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
