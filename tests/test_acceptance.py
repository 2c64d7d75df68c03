"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; the directional pipeline checks run
on seeded synthetic data and are fully deterministic.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from conftest import fit_autoencoder
from mvtrace import evaluation as ev
from mvtrace import io, nn, synth
from mvtrace.autoencoders import (
    ArchitectureConfig,
    AutoencoderSpec,
    OracleSpec,
    PcaSpec,
    RawSpec,
)
from mvtrace.cli import main as cli_main
from mvtrace.mesh import build_laplacian, icosphere, quadratic_form
from mvtrace.pca import fit_pca, reconstruction_mse
from mvtrace.trace_regression import (
    FistaConfig,
    RegressionDataset,
    RegularizationConfig,
    fit_mfista,
    objective,
    predict_many,
    prox_group,
    row_norms,
)


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL  {name}")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its budget: {elapsed:.1f}s >= {budget_seconds}s"
    )
    print(f"[criterion {number:2d}] PASS  {name}  ({elapsed:.1f}s / {budget_seconds:.0f}s budget)")


def support_f1(estimated: set, truth: set) -> float:
    true_positive = len(estimated & truth)
    if true_positive == 0:
        return 0.0
    precision = true_positive / len(estimated)
    recall = true_positive / len(truth)
    return 2 * precision * recall / (precision + recall)


def test_criterion_1_gradient_correctness():
    """Backprop matches central finite differences for every activation pair."""
    from test_nn import finite_difference_grads, gradient_check_case

    with criterion(1, "gradient correctness vs finite differences", 10.0):
        for hidden, output in [("linear", "linear"), ("linear", "sigmoid"),
                               ("relu", "linear"), ("relu", "sigmoid")]:
            for seed in (0, 1, 2):
                mlp, x, target = gradient_check_case([6, 5, 4, 3], hidden, output, seed)
                analytic = [g for pair in nn.backward(mlp, x, target) for g in pair]
                numeric = finite_difference_grads(mlp, x, target)
                for a, b in zip(analytic, numeric):
                    rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-8)
                    assert rel.max() < 1e-5


def test_criterion_2_mfista_monotonicity():
    """Objective sequence nonincreasing at every iteration, exact assertion."""
    with criterion(2, "MFISTA monotone objective on 20 random instances", 30.0):
        from mvtrace.mesh import grid_mesh

        lap = build_laplacian(grid_mesh(3, 4))
        for instance in range(20):
            rng = np.random.default_rng(instance)
            m, d, n = 12, int(rng.integers(1, 4)), int(rng.integers(5, 50))
            latents = rng.standard_normal((n, m, d))
            beta_star = rng.standard_normal((m, d))
            scores = predict_many(beta_star, latents) + 0.5 * rng.standard_normal(n)
            ds = RegressionDataset(latents, scores, lap.matrix)
            reg = RegularizationConfig(
                alpha=float(rng.uniform(0, 5)), eta=float(rng.uniform(0, 5))
            )
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=500))
            assert np.all(np.diff(fit.objectives) <= 0.0)


def test_criterion_3_solver_oracle_equivalence():
    """MFISTA agrees with plain proximal gradient and with closed-form LS."""
    with criterion(3, "solver vs proximal-gradient and least-squares oracles", 60.0):
        for instance in range(10):
            rng = np.random.default_rng(1000 + instance)
            m = int(rng.integers(3, 11))
            d = int(rng.integers(1, 4))
            n = int(rng.integers(5, 51))
            latents = rng.standard_normal((n, m, d))
            scores = predict_many(rng.standard_normal((m, d)), latents)
            scores += 0.3 * rng.standard_normal(n)
            ds = RegressionDataset(latents, scores)
            reg = RegularizationConfig(alpha=float(rng.uniform(0.1, 2.0)), eta=0.0)
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=60000, rel_tolerance=1e-15))
            # independent oracle: plain proximal gradient, 50k iterations
            flat = latents.reshape(n, -1)
            step = 1.0 / (2.0 * np.linalg.eigvalsh(flat.T @ flat).max())
            beta = np.zeros((m, d))
            for _ in range(50_000):
                residual = scores - np.einsum("nmd,md->n", latents, beta)
                candidate = beta + step * 2.0 * np.einsum("n,nmd->md", residual, latents)
                norms = np.linalg.norm(candidate, axis=1, keepdims=True)
                shrink = np.maximum(
                    0.0, 1.0 - step * reg.alpha / np.maximum(norms, 1e-300)
                )
                beta = candidate * shrink
            assert abs(objective(beta, ds, reg) - fit.objectives[-1]) < 1e-8

        # alpha = eta = 0 against the normal-equations solution
        rng = np.random.default_rng(42)
        latents = rng.standard_normal((50, 4, 2))
        scores = predict_many(rng.standard_normal((4, 2)), latents)
        ds = RegressionDataset(latents, scores)
        fit = fit_mfista(ds, RegularizationConfig(alpha=0, eta=0),
                         FistaConfig(max_iters=30000, rel_tolerance=1e-14))
        closed = np.linalg.lstsq(latents.reshape(50, -1), scores, rcond=None)[0]
        closed = closed.reshape(4, 2)
        assert np.linalg.norm(fit.beta - closed) / np.linalg.norm(closed) < 1e-6


def test_criterion_4_prox_brute_force_oracle():
    """Row-wise prox matches a scalar brute-force minimizer on a 1e-4 grid."""
    with criterion(4, "group prox vs brute-force scalar minimizer", 10.0):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((60, 4)) * 2.0
        for threshold in (0.05, 0.6, 1.8, 4.0):
            got = prox_group(rows, threshold)
            for j, row in enumerate(rows):
                norm = np.linalg.norm(row)
                scales = np.arange(0.0, norm + 1e-4, 1e-4)
                costs = 0.5 * (scales - norm) ** 2 + threshold * scales
                best = scales[np.argmin(costs)]
                reference = row / norm * best if norm > 0 else row * 0.0
                assert np.abs(got[j] - reference).max() < 1e-3


def test_criterion_5_laplacian_invariants():
    """Row sums exactly zero, PSD via random forms, edge sum equals dense trace."""
    with criterion(5, "graph Laplacian invariants", 5.0):
        mesh = icosphere(2)
        lap = build_laplacian(mesh)
        assert np.abs(np.asarray(lap.matrix.sum(axis=1))).max() == 0.0
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.standard_normal(lap.dimension)
            assert float(v @ (lap.matrix @ v)) >= -1e-12
        dense = lap.matrix.toarray()
        for _ in range(5):
            b = rng.standard_normal((lap.dimension, 4))
            exact = float(np.trace(b.T @ dense @ b))
            assert abs(quadratic_form(lap, b) - exact) < 1e-10 * abs(exact)


def test_criterion_6_planted_support_recovery():
    """Full 10-fold pipeline recovers planted support and predicts the score."""
    with criterion(6, "planted-support F1 >= 0.8 and mean R2 >= 0.6 (5 seeds)", 600.0):
        # PCA latents keep their native variance-ordered scale here: with a
        # single representation there is nothing to equalize, and the leading
        # components' larger scale is informative for the regression
        reg = RegularizationConfig(alpha=24.0, eta=60.0)
        fista = FistaConfig(max_iters=3000, rel_tolerance=1e-9)
        for seed in range(5):
            subjects, mesh, truth = synth.generate(synth.GeneratorConfig(seed=seed))
            laplacian = build_laplacian(mesh)
            plan = ev.make_folds(len(subjects), 10, seed)
            [result] = ev.run_cv(subjects, laplacian, PcaSpec(enc=4), [(reg, fista)],
                                 plan, seed=seed, standardize_latents=False)
            mean_norms = np.mean([row_norms(b) for b in result.betas], axis=0)
            estimated = set(np.nonzero(mean_norms >= 0.1 * mean_norms.max())[0].tolist())
            f1 = support_f1(estimated, set(truth.support.tolist()))
            assert f1 >= 0.8, f"seed {seed}: support F1 {f1:.3f} < 0.8"
            assert result.mean_r2 >= 0.6, f"seed {seed}: mean R2 {result.mean_r2:.3f} < 0.6"


def test_criterion_7_multi_view_gain():
    """Directional ordering: mdae <= concat-input AE <= raw trace regression.

    The generator gives the task view a clean full-rank copy of the latents
    and the rest view a weak copy plus strong score-irrelevant structure, so
    a joint code must spend capacity on rest-view structure while the
    per-view encoders keep the task signal intact (task-heavy code split).
    All three representations run at the same fixed small penalty weights.
    """
    with criterion(7, "mdae <= concat-AE <= raw ordering (3 seeds)", 900.0):
        reg = RegularizationConfig()  # alpha=5e-4, eta=1e-3
        fista = FistaConfig(max_iters=1500, rel_tolerance=1e-8)
        mdae_spec = AutoencoderSpec(
            config=ArchitectureConfig(kind="mdae", enc=8, enc_split=(5, 3),
                                      hidden_dims=()),
            epochs=300, batch_size=500, learning_rate=1e-3,
        )
        concat_spec = AutoencoderSpec(
            config=ArchitectureConfig(kind="concat-ae", enc=8, hidden_dims=()),
            epochs=300, batch_size=500, learning_rate=1e-3,
        )
        for seed in (0, 1, 2):
            subjects, mesh, _ = synth.generate(synth.GeneratorConfig(
                seed=seed,
                loading_weights=(1.0, 0.35),
                view_noise_sigma=(0.5, 1.0),
                rest_nuisance_dim=3,
                rest_nuisance_scale=3.5,
            ))
            laplacian = build_laplacian(mesh)
            plan = ev.make_folds(len(subjects), 10, seed)
            mse = {}
            for label, spec in (("mdae", mdae_spec), ("concat", concat_spec),
                                ("raw", RawSpec())):
                [result] = ev.run_cv(subjects, laplacian, spec, [(reg, fista)], plan,
                                     seed=seed)
                mse[label] = result.mean_mse
            assert mse["mdae"] <= mse["concat"] <= mse["raw"], f"seed {seed}: {mse}"


def test_criterion_8_linear_ae_matches_pca():
    """Width-k linear autoencoder reaches the PCA-k reconstruction floor."""
    with criterion(8, "linear AE within 5% of PCA reconstruction", 120.0):
        rng = np.random.default_rng(42)
        n, k, d_task, d_rest = 2000, 5, 22, 18
        basis = np.linalg.qr(rng.standard_normal((d_task + d_rest, k)))[0]
        data = rng.standard_normal((n, k)) @ basis.T * 2.0
        data += 0.15 * rng.standard_normal(data.shape)
        config = ArchitectureConfig(kind="concat-ae", enc=k, hidden_dims=())
        model = fit_autoencoder(data[:, :d_task], data[:, d_task:], config,
                                seed=7, epochs=600, batch_size=500, learning_rate=3e-3)
        ae_mse = model.reconstruction_mse(data[:, :d_task], data[:, d_task:])
        standardized = model.scalers[0].transform(data)  # one block over both views
        pca_mse = reconstruction_mse(fit_pca(standardized, k), standardized)
        assert ae_mse <= 1.05 * pca_mse, f"AE {ae_mse:.6f} vs PCA {pca_mse:.6f}"


def test_criterion_9_metric_unit_suite():
    """R-squared and MSE unit identities hold exactly."""
    with criterion(9, "metric unit suite", 1.0):
        y = np.array([1.0, 2.0, 3.0])
        assert ev.r_squared(y, y.copy()) == 1.0
        assert ev.r_squared(y, np.full(3, y.mean())) == 0.0
        assert ev.r_squared(y, np.array([1.0, 2.0, 4.0])) == 0.5
        assert ev.mean_squared_error(y, y.copy()) == 0.0
        assert ev.mean_squared_error(y, y + 1.0) == 1.0
        assert ev.mean_squared_error(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == 5.0


def test_criterion_10_cli_determinism(tmp_path):
    """Two full cmd_run invocations with one config are bit-identical."""
    with criterion(10, "bit-identical rerun of the CLI pipeline", 600.0):
        dataset = tmp_path / "ds"
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"out": str(dataset), "seed": 3}))
        assert cli_main(["generate", "--config", str(gen_cfg)]) == 0
        summaries = []
        for name in ("run-a", "run-b"):
            out = tmp_path / name
            run_cfg = tmp_path / f"{name}.json"
            run_cfg.write_text(json.dumps({
                "dataset": str(dataset),
                "out": str(out),
                "arch": "mdae",
                "enc": 6,
                "enc_split": [4, 2],
                "hidden_dims": [],
                "epochs": 10,
                "alpha": 12.0,
                "eta": 20.0,
                "fista": {"max_iters": 800, "rel_tolerance": 1e-8},
                "cv": {"folds": 10, "seed": 3},
                "seed": 3,
            }))
            assert cli_main(["run", "--config", str(run_cfg)]) == 0
            summaries.append((out / "summary.csv").read_bytes())
            assert (out / "folds.csv").exists()
        assert summaries[0] == summaries[1]


def test_criterion_11_significance_map_sanity(tmp_path):
    """The t > 2.45 mask finds the planted support on stored fold maps."""
    with criterion(11, "significance map covers planted support", 60.0):
        subjects, mesh, truth = synth.generate(synth.GeneratorConfig(seed=0))
        laplacian = build_laplacian(mesh)
        plan = ev.make_folds(len(subjects), 10, 0)
        [result] = ev.run_cv(
            subjects, laplacian, OracleSpec(latents=truth.latents),
            [(RegularizationConfig(alpha=24.0, eta=60.0),
              FistaConfig(max_iters=3000, rel_tolerance=1e-9))], plan, seed=0,
        )
        # store the fold maps, then recompute the map from disk
        for fold in result.folds:
            io.write_matrix(tmp_path / f"beta_fold{fold.fold_id}.mvrl", fold.beta)
        stored = [io.read_matrix(p) for p in sorted(tmp_path.glob("beta_fold*.mvrl"))]
        sig = ev.significance_map(stored, t_crit=2.45)
        support = set(truth.support.tolist())
        flagged = set(np.nonzero(sig.mask)[0].tolist())
        coverage = len(flagged & support) / len(support)
        off_support = sig.mask.sum() - len(flagged & support)
        false_rate = off_support / (mesh.vertex_count - len(support))
        assert coverage >= 0.80, f"coverage {coverage:.2%}"
        assert false_rate <= 0.05, f"false rate {false_rate:.2%}"
