"""Output checks of the benchmark, and an independent reference solver.

Every check tests a property the method must have or the planted truth of
the synthetic cohort; none compares against a stored copy of earlier output.
The readers here parse the program's documented file formats (MVRL, OFF,
CSV) with numpy and the standard library, without importing mvtrace.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np
from scipy import sparse

# Relative tolerance for values the program writes with 12 significant digits.
CSV_RTOL = 1e-9


# --- readers -----------------------------------------------------------------


def read_mvrl(path) -> np.ndarray:
    """An MVRL matrix: 'MVRL', version u32, rows u64, cols u64, f64 payload."""
    raw = Path(path).read_bytes()
    magic, _version, rows, cols = struct.unpack_from("<4sIQQ", raw)
    if magic != b"MVRL" or len(raw) != 24 + 8 * rows * cols:
        raise ValueError(f"{path}: not a well-formed MVRL file")
    return np.frombuffer(raw, dtype="<f8", offset=24).reshape(rows, cols).astype(np.float64)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_laplacian(off_path) -> sparse.csr_matrix:
    """Combinatorial Laplacian D - A of the triangle edges of an OFF mesh."""
    lines = [ln.split("#", 1)[0].strip() for ln in Path(off_path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    n_vertices, n_faces = (int(v) for v in lines[1].split()[:2])
    faces = np.array([[int(v) for v in ln.split()[1:4]]
                      for ln in lines[2 + n_vertices:2 + n_vertices + n_faces]])
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    adjacency = sparse.csr_matrix(
        (np.ones(2 * len(edges)),
         (np.concatenate([edges[:, 0], edges[:, 1]]), np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n_vertices, n_vertices),
    )
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sparse.diags(degrees) - adjacency).tocsr()


class Cohort:
    """A generated dataset directory: scores, raw views, planted support."""

    def __init__(self, path):
        self.path = Path(path)
        rows = read_rows(self.path / "subjects.csv")
        self.ids = [r["subject_id"] for r in rows]
        self.scores = np.array([float(r["score"]) for r in rows])
        self.support = {int(r["vertex"])
                        for r in read_rows(self.path / "ground_truth" / "support.csv")}
        self._views = None
        self._laplacian = None

    @property
    def views(self) -> np.ndarray:
        """(n, m, d_task + d_rest): each subject's concatenated views."""
        if self._views is None:
            self._views = np.stack([
                np.concatenate([read_mvrl(self.path / f"task_{sid}.mvrl"),
                                read_mvrl(self.path / f"rest_{sid}.mvrl")], axis=1)
                for sid in self.ids
            ])
        return self._views

    @property
    def laplacian(self) -> sparse.csr_matrix:
        if self._laplacian is None:
            self._laplacian = read_laplacian(self.path / "mesh.off")
        return self._laplacian


def fold_plan(n: int, k: int, seed: int) -> list[np.ndarray]:
    """The documented fold plan: a seeded permutation cut into k near-equal parts."""
    order = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(order, k)]


def _close(a: float, b: float, rtol: float = CSV_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)


# --- checks on one results directory -------------------------------------------


def check_tables(out: Path, labels: list[str], n_folds: int) -> list[str]:
    """folds.csv has one finite row per (grid point, fold); summary.csv means
    and standard errors are those of the folds.csv rows."""
    problems = []
    folds = read_rows(out / "folds.csv")
    summary = read_rows(out / "summary.csv")
    if len(folds) != len(labels) * n_folds:
        problems.append(f"folds.csv has {len(folds)} rows, expected {len(labels) * n_folds}")
    if [r["config"] for r in summary] != labels:
        problems.append(f"summary.csv configs {[r['config'] for r in summary]} != {labels}")
    for row in summary:
        mine = [r for r in folds if r["config"] == row["config"]]
        if sorted(int(r["fold"]) for r in mine) != list(range(n_folds)):
            problems.append(f"{row['config']}: folds.csv does not list folds 0..{n_folds - 1}")
            continue
        for key in ("mse", "r2"):
            values = np.array([float(r[key]) for r in mine])
            if not np.all(np.isfinite(values)):
                problems.append(f"{row['config']}: non-finite {key} in folds.csv")
                continue
            stderr = values.std(ddof=1) / math.sqrt(n_folds) if n_folds > 1 else 0.0
            if not _close(float(row[f"mean_{key}"]), float(values.mean())):
                problems.append(f"{row['config']}: mean_{key} is not the mean of its folds")
            if not _close(float(row[f"stderr_{key}"]), float(stderr), 1e-8):
                problems.append(f"{row['config']}: stderr_{key} is not the folds' standard error")
    return problems


def fold_values(out: Path, key: str) -> dict[tuple[str, int], float]:
    return {(r["config"], int(r["fold"])): float(r[key]) for r in read_rows(out / "folds.csv")}


def pooled_r2(out: Path, cohort: Cohort, plan: list[np.ndarray]) -> dict[str, float]:
    """Out-of-fold R² per grid point: every subject is scored once, by the
    fold that held it out, so 1 - sum_f(n_f mse_f) / sum_i (y_i - mean y)².

    Unlike the mean of per-fold R², this does not swing with the spread of
    scores inside a 4-subject test fold."""
    total = float(np.sum((cohort.scores - cohort.scores.mean()) ** 2))
    sse: dict[str, float] = {}
    for (label, fold), mse in fold_values(out, "mse").items():
        sse[label] = sse.get(label, 0.0) + mse * len(plan[fold])
    return {label: 1.0 - value / total for label, value in sse.items()}


def read_betas(out: Path, n_folds: int) -> list[np.ndarray]:
    return [read_mvrl(out / f"beta_fold{f}.mvrl") for f in range(n_folds)]


def check_convergence(out: Path, n_folds: int) -> list[str]:
    """Each fold's MFISTA objective trace is nonincreasing (monotone by construction)."""
    traces: dict[int, list[tuple[int, float]]] = {}
    for r in read_rows(out / "convergence.csv"):
        traces.setdefault(int(r["fold"]), []).append((int(r["iteration"]), float(r["objective"])))
    problems = []
    if sorted(traces) != list(range(n_folds)):
        problems.append(f"convergence.csv lists folds {sorted(traces)}")
    for fold, trace in traces.items():
        values = np.array([v for _, v in sorted(trace)])
        if not np.all(np.isfinite(values)) or np.any(np.diff(values) > 0):
            problems.append(f"fold {fold}: objective trace increases or is not finite")
    return problems


def check_significance(out: Path, betas: list[np.ndarray], t_crit: float = 2.45) -> list[str]:
    """significance.csv holds the cross-fold t statistic of the signed row
    norms of the stored betas, and flags t > t_crit."""
    stack = np.stack(betas)
    scalars = np.linalg.norm(stack, axis=2) * np.sign(stack.mean(axis=2))
    mean = scalars.mean(axis=0)
    sd = scalars.std(axis=0, ddof=1)
    t = np.where(mean != 0, np.inf, 0.0)
    varying = sd > 0
    t[varying] = mean[varying] / (sd[varying] / math.sqrt(len(betas)))
    rows = read_rows(out / "significance.csv")
    if [int(r["vertex"]) for r in rows] != list(range(len(t))):
        return ["significance.csv does not list every vertex once, in order"]
    problems = []
    for r, expect in zip(rows, t):
        got = float(r["t"])
        same = got == expect if math.isinf(expect) else _close(got, float(expect))
        if not same or int(r["significant"]) != int(expect > t_crit):
            problems.append(f"vertex {r['vertex']}: t {got} flag {r['significant']}, "
                            f"recomputed {expect:.12g}")
            break
    return problems


def support_f1(betas: list[np.ndarray], truth: set[int]) -> float:
    """F1 against the planted support of the |support| vertices with the
    largest mean |beta| row norm over folds (equal-sized sets, so F1 is also
    the precision; a random pick scores |support| / vertices)."""
    mean_norm = np.mean([np.linalg.norm(b, axis=1) for b in betas], axis=0)
    found = set(np.argsort(-mean_norm, kind="stable")[:len(truth)].tolist())
    return len(found & truth) / len(truth)


# --- independent reference solve -----------------------------------------------


class RawFold:
    """One CV fold of the raw representation, built without the program:
    concatenated views z-scored with training-fold statistics."""

    def __init__(self, cohort: Cohort, train: np.ndarray, test: np.ndarray):
        views = cohort.views
        tr = views[train]
        mean = tr.mean(axis=(0, 1))
        std = tr.std(axis=(0, 1))
        std = np.where(std < 1e-12, 1.0, std)
        self.shape = views.shape[1:]
        self.x_train = ((tr - mean) / std).reshape(len(train), -1)
        self.x_test = ((views[test] - mean) / std).reshape(len(test), -1)
        self.y_train = cohort.scores[train]
        self.y_test = cohort.scores[test]
        self.laplacian = cohort.laplacian
        self.gram_max = float(np.linalg.eigvalsh(self.x_train @ self.x_train.T)[-1])

    def objective(self, beta: np.ndarray, alpha: float, eta: float) -> float:
        residual = self.y_train - self.x_train @ beta.ravel()
        return float(residual @ residual + 0.5 * eta * np.sum(beta * (self.laplacian @ beta))
                     + alpha * np.sum(np.linalg.norm(beta, axis=1)))

    def test_mse(self, beta: np.ndarray) -> float:
        return float(np.mean((self.y_test - self.x_test @ beta.ravel()) ** 2))

    def solve(self, alpha: float, eta: float, lap_max: float,
              tol: float = 1e-11, max_iters: int = 10_000) -> np.ndarray:
        """Accelerated proximal gradient with the exact step 1/L, where
        L = 2 lambda_max(X Xᵀ) + eta lambda_max(Laplacian), restarted when
        the momentum points uphill; stops when an iterate moves by less than
        ``tol`` relative to its norm."""
        step = 1.0 / (2.0 * self.gram_max + eta * lap_max)
        x = np.zeros(self.shape)
        y = x.copy()
        t = 1.0
        for _ in range(max_iters):
            grad = (2.0 * (self.x_train.T @ (self.x_train @ y.ravel() - self.y_train))
                    .reshape(self.shape) + eta * (self.laplacian @ y))
            v = y - step * grad
            norms = np.linalg.norm(v, axis=1)
            scale = np.maximum(0.0, 1.0 - step * alpha / np.maximum(norms, 1e-300))
            x_next = v * scale[:, None]
            moved = np.linalg.norm(x_next - x)
            if np.sum((y - x_next) * (x_next - x)) > 0:
                t = 1.0  # restart: the momentum step went uphill
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            x, t = x_next, t_next
            if moved <= tol * max(np.linalg.norm(x), 1e-300):
                break
        return x


def laplacian_max(laplacian: sparse.csr_matrix) -> float:
    return float(np.linalg.eigvalsh(laplacian.toarray())[-1])


def support_of(beta: np.ndarray) -> set[int]:
    return set(np.nonzero(np.linalg.norm(beta, axis=1) > 0)[0].tolist())


def support_mismatch(a: np.ndarray, b: np.ndarray, rtol: float = 1e-4) -> tuple[list, list]:
    """Rows nonzero in one solution only, split into (large, tiny): tiny
    rows have a norm below ``rtol`` times the largest row of the solution
    that holds them, the size a plateau stop can leave on a row the
    optimum zeros."""
    norms = [np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)]
    large, tiny = [], []
    for j in sorted(support_of(a) ^ support_of(b)):
        holder = norms[0] if norms[0][j] > 0 else norms[1]
        (tiny if holder[j] <= rtol * holder.max() else large).append(j)
    return large, tiny
