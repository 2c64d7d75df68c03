import numpy as np
import pytest
from conftest import PATH_OBJECTIVE_RTOL

from mvtrace.mesh import build_laplacian, grid_mesh
from mvtrace.trace_regression import (
    DivergenceError,
    FistaConfig,
    FitResult,
    RegressionDataset,
    RegularizationConfig,
    export_beta,
    fit_mfista,
    lipschitz_constant,
    objective,
    predict,
    predict_many,
    prox_group,
    row_norms,
    smooth_gradient,
)


def random_dataset(m, d, n, seed, laplacian=None, beta=None, noise=0.0):
    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((n, m, d))
    if beta is None:
        beta = rng.standard_normal((m, d))
    scores = predict_many(beta, latents) + noise * rng.standard_normal(n)
    return RegressionDataset(latents, scores, laplacian), beta


def reference_prox_rows(values, threshold):
    """Independent row-wise prox via scalar brute force on a 1e-4 grid."""
    out = np.zeros_like(values)
    for j, row in enumerate(values):
        norm = np.linalg.norm(row)
        if norm == 0:
            continue
        unit = row / norm
        scales = np.arange(0.0, norm + 1e-4, 1e-4)
        costs = 0.5 * (scales - norm) ** 2 + threshold * scales
        out[j] = unit * scales[np.argmin(costs)]
    return out


class TestPredict:
    def test_zero_beta(self):
        assert predict(np.zeros((3, 2)), np.ones((3, 2))) == 0.0

    def test_self_inner_product(self):
        z = np.random.default_rng(0).standard_normal((4, 3))
        assert abs(predict(z, z) - np.sum(z * z)) < 1e-12

    def test_hand_case(self):
        beta = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([[3.0, 9.0], [7.0, 5.0]])
        assert predict(beta, z) == 8.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            predict(np.zeros((2, 2)), np.zeros((3, 2)))


class TestObjective:
    def test_zero_everything(self):
        ds = RegressionDataset(np.zeros((3, 2, 2)), np.zeros(3))
        assert objective(np.zeros((2, 2)), ds, RegularizationConfig(alpha=0, eta=0)) == 0.0

    def test_data_term_only(self):
        y = np.array([1.0, -2.0, 3.0])
        ds = RegressionDataset(np.zeros((3, 2, 2)), y)
        assert objective(np.zeros((2, 2)), ds, RegularizationConfig(alpha=0, eta=0)) == float(y @ y)

    def test_reduces_to_vectorized_least_squares(self):
        # flattened linear-regression oracle on a 5-subject, m=4, d=2 instance
        ds, _ = random_dataset(4, 2, 5, seed=1, noise=0.5)
        beta = np.random.default_rng(2).standard_normal((4, 2))
        x = ds.latents.reshape(5, -1)
        expected = float(np.sum((ds.scores - x @ beta.ravel()) ** 2))
        got = objective(beta, ds, RegularizationConfig(alpha=0, eta=0))
        assert abs(got - expected) < 1e-10 * max(expected, 1.0)

    def test_includes_both_penalties(self):
        lap = build_laplacian(grid_mesh(2, 2))
        ds, _ = random_dataset(4, 2, 3, seed=3, laplacian=lap.matrix)
        beta = np.random.default_rng(4).standard_normal((4, 2))
        reg = RegularizationConfig(alpha=0.7, eta=1.3)
        base = objective(beta, ds, RegularizationConfig(alpha=0, eta=0))
        lap_term = 0.5 * 1.3 * float(np.sum(beta * (lap.matrix @ beta)))
        rows = 0.7 * float(np.sum(np.linalg.norm(beta, axis=1)))
        assert abs(objective(beta, ds, reg) - (base + lap_term + rows)) < 1e-10

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            RegularizationConfig(alpha=-1.0)


class TestSmoothGradient:
    def test_matches_finite_differences(self):
        lap = build_laplacian(grid_mesh(2, 5))
        ds, _ = random_dataset(10, 3, 5, seed=5, laplacian=lap.matrix, noise=0.3)
        beta = np.random.default_rng(6).standard_normal((10, 3))
        eta = 0.8
        grad = smooth_gradient(beta, ds, eta)
        reg = RegularizationConfig(alpha=0, eta=eta)
        h = 1e-6
        for idx in [(0, 0), (3, 1), (9, 2), (5, 0)]:
            probe = beta.copy()
            probe[idx] += h
            up = objective(probe, ds, reg)
            probe[idx] -= 2 * h
            down = objective(probe, ds, reg)
            numeric = (up - down) / (2 * h)
            assert abs(grad[idx] - numeric) < 1e-6 * max(abs(numeric), 1.0)

    def test_zero_at_least_squares_solution(self):
        ds, _ = random_dataset(3, 2, 40, seed=7, noise=0.2)
        x = ds.latents.reshape(40, -1)
        beta_ls = np.linalg.lstsq(x, ds.scores, rcond=None)[0].reshape(3, 2)
        grad = smooth_gradient(beta_ls, ds, eta=0.0)
        assert np.abs(grad).max() < 1e-9

    def test_laplacian_null_space(self):
        lap = build_laplacian(grid_mesh(3, 3))
        ds = RegressionDataset(np.zeros((2, 9, 2)), np.zeros(2), lap.matrix)
        beta = np.tile([1.5, -2.0], (9, 1))  # constant rows
        assert np.abs(smooth_gradient(beta, ds, eta=3.0)).max() == 0.0

    def test_eta_without_laplacian_rejected(self):
        ds = RegressionDataset(np.zeros((2, 3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="Laplacian"):
            smooth_gradient(np.zeros((3, 2)), ds, eta=1.0)


class TestProx:
    def test_row_inside_ball_zeroed(self):
        out = prox_group(np.array([[0.3, 0.4], [5.0, 0.0]]), 0.5)
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.allclose(out[1], [4.5, 0.0])

    def test_hand_case(self):
        out = prox_group(np.array([[3.0, 4.0]]), 2.5)
        assert np.allclose(out, [[1.5, 2.0]])

    def test_zero_threshold_identity(self):
        beta = np.random.default_rng(8).standard_normal((5, 3))
        assert np.array_equal(prox_group(beta, 0.0), beta)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox_group(np.zeros((2, 2)), -0.1)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((40, 3)) * 2.0
        for threshold in (0.1, 0.9, 2.7):
            got = prox_group(values, threshold)
            ref = reference_prox_rows(values, threshold)
            assert np.abs(got - ref).max() < 1e-3


def dense_lipschitz(ds, eta, lap):
    """2·λmax(XᵀX) + eta·λmax(L) from dense eigendecompositions."""
    flat = ds.latents.reshape(ds.n_subjects, -1)
    lam_data = np.linalg.eigvalsh(flat.T @ flat).max()
    return 2.0 * lam_data + eta * np.linalg.eigvalsh(lap.matrix.toarray()).max()


class TestLipschitz:
    def test_upper_bounds_gradient_curvature(self):
        lap = build_laplacian(grid_mesh(2, 3))
        ds, _ = random_dataset(6, 2, 8, seed=10, laplacian=lap.matrix)
        eta = 2.0
        lf = lipschitz_constant(ds, eta)
        flat = ds.latents.reshape(8, -1)
        lam_data = np.linalg.eigvalsh(flat.T @ flat).max()
        assert lf >= dense_lipschitz(ds, eta, lap)
        assert lf <= 2.0 * lam_data * (1 + 1e-9) + eta * 2 * lap.degrees.max()


def unscreened_mfista(ds, reg, step, fista, init=None):
    """Textbook MFISTA with fit_mfista's plateau stop, over every row: the
    gradient and objective are recomputed from beta on every use."""
    x = np.zeros(ds.shape) if init is None else init
    y, t = x, 1.0
    fx = objective(x, ds, reg)
    objectives, accepted = [fx], [fx]
    for _ in range(fista.max_iters):
        z = prox_group(y - step * smooth_gradient(y, ds, reg.eta), step * reg.alpha)
        fz = objective(z, ds, reg)
        x_prev = x
        if fz <= fx:
            x, fx = z, fz
            accepted.append(fx)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + (t / t_next) * (z - x) + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        objectives.append(fx)
        if len(accepted) > 10:
            past = accepted[-11]
            if past - accepted[-1] < fista.rel_tolerance * max(abs(past), 1e-12):
                break
    return x, np.array(objectives)


class TestCachedProducts:
    """fit_mfista keeps X·beta across iterations; a plain loop recomputes it."""

    @pytest.fixture
    def problem(self):
        lap = build_laplacian(grid_mesh(3, 4))
        ds, _ = random_dataset(12, 3, 10, seed=23, laplacian=lap.matrix, noise=0.5)
        return ds, RegularizationConfig(alpha=0.3, eta=0.7), lap

    def test_iterates_match_plain_loop(self, problem):
        ds, reg, _ = problem
        fit = fit_mfista(ds, reg, FistaConfig(max_iters=300, rel_tolerance=1e-300))
        assert fit.iterations == 300
        beta, objectives = unscreened_mfista(ds, reg, fit.step_size,
                                             FistaConfig(max_iters=300, rel_tolerance=1e-300))
        assert np.abs(fit.beta - beta).max() <= 1e-10 * np.abs(beta).max()
        assert np.allclose(fit.objectives, objectives, rtol=1e-10, atol=0)
        assert np.any(np.diff(objectives) == 0)  # the safeguard rejected some candidates

    def test_final_objective_recomputed(self, problem):
        ds, reg, _ = problem
        fit = fit_mfista(ds, reg, FistaConfig(max_iters=300, rel_tolerance=1e-300))
        fresh = objective(fit.beta, ds, reg)
        assert abs(fit.objectives[-1] - fresh) <= 1e-12 * abs(fresh)

    def test_step_within_exact_bound(self, problem):
        ds, reg, lap = problem
        fit = fit_mfista(ds, reg, FistaConfig(max_iters=5))
        assert fit.step_size <= 1.0 / dense_lipschitz(ds, reg.eta, lap)


class TestMfista:
    def test_matches_closed_form_least_squares(self):
        # alpha = eta = 0, n > m*d, well-conditioned
        ds, _ = random_dataset(4, 2, 50, seed=11)
        fit = fit_mfista(
            ds,
            RegularizationConfig(alpha=0, eta=0),
            FistaConfig(max_iters=20000, rel_tolerance=1e-14),
        )
        x = ds.latents.reshape(50, -1)
        closed = np.linalg.lstsq(x, ds.scores, rcond=None)[0].reshape(4, 2)
        rel = np.linalg.norm(fit.beta - closed) / np.linalg.norm(closed)
        assert rel < 1e-6
        assert fit.converged

    def test_planted_support_recovered_across_alpha_grid(self):
        lap = build_laplacian(grid_mesh(5, 6))
        rng = np.random.default_rng(12)
        beta_star = np.zeros((30, 2))
        support = [3, 11, 22]
        for j in support:
            beta_star[j] = rng.standard_normal(2)
        ds, _ = random_dataset(30, 2, 100, seed=13, laplacian=lap.matrix, beta=beta_star)
        recovered = []
        for alpha in (1e-4, 1e-3, 1e-2, 1e-1):
            fit = fit_mfista(ds, RegularizationConfig(alpha=alpha, eta=0),
                             FistaConfig(max_iters=5000))
            recovered.append(set(np.nonzero(row_norms(fit.beta) > 1e-6)[0]) == set(support))
        assert any(recovered)

    def test_objective_sequence_nonincreasing(self):
        lap = build_laplacian(grid_mesh(3, 3))
        for seed in range(5):
            ds, _ = random_dataset(9, 2, 12, seed=seed, laplacian=lap.matrix, noise=0.5)
            fit = fit_mfista(ds, RegularizationConfig(alpha=0.5, eta=0.5),
                             FistaConfig(max_iters=400))
            assert np.all(np.diff(fit.objectives) <= 0.0)

    def test_agrees_with_plain_proximal_gradient(self):
        # independent oracle: no momentum, explicit einsum gradient, own prox
        for seed in range(3):
            ds, _ = random_dataset(6, 2, 20, seed=100 + seed, noise=0.4)
            reg = RegularizationConfig(alpha=1.0, eta=0.0)
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=60000, rel_tolerance=1e-15))
            x = ds.latents
            step = 1.0 / (2.0 * np.linalg.eigvalsh(
                x.reshape(20, -1).T @ x.reshape(20, -1)).max())
            beta = np.zeros((6, 2))
            for _ in range(50_000):
                residual = ds.scores - np.einsum("nmd,md->n", x, beta)
                candidate = beta + step * 2.0 * np.einsum("n,nmd->md", residual, x)
                norms = np.linalg.norm(candidate, axis=1, keepdims=True)
                shrink = np.maximum(0.0, 1.0 - step * reg.alpha / np.maximum(norms, 1e-300))
                beta = candidate * shrink
            assert abs(objective(beta, ds, reg) - fit.objectives[-1]) < 1e-8
            assert np.abs(beta - fit.beta).max() < 1e-5

    def test_first_order_fixed_point(self):
        lap = build_laplacian(grid_mesh(2, 4))
        ds, _ = random_dataset(8, 2, 15, seed=14, laplacian=lap.matrix, noise=0.3)
        reg = RegularizationConfig(alpha=2.0, eta=1.0)
        fit = fit_mfista(ds, reg, FistaConfig(max_iters=60000, rel_tolerance=1e-15))
        step = fit.step_size
        mapped = prox_group(fit.beta - step * smooth_gradient(fit.beta, ds, reg.eta),
                            step * reg.alpha)
        scale = max(np.abs(fit.beta).max(), 1.0)
        assert np.abs(mapped - fit.beta).max() < 1e-6 * scale

    def test_solution_scales_with_targets(self):
        ds, _ = random_dataset(4, 2, 50, seed=15)
        reg = RegularizationConfig(alpha=0, eta=0)
        cfg = FistaConfig(max_iters=20000, rel_tolerance=1e-14)
        base = fit_mfista(ds, reg, cfg).beta
        scaled_ds = RegressionDataset(ds.latents, 3.0 * ds.scores)
        scaled = fit_mfista(scaled_ds, reg, cfg).beta
        assert np.abs(scaled - 3.0 * base).max() < 1e-6

    def test_sparsity_nonincreasing_in_alpha(self):
        ds, _ = random_dataset(8, 2, 60, seed=16, noise=0.5)
        counts = []
        for alpha in np.geomspace(0.01, 50.0, 10):
            fit = fit_mfista(ds, RegularizationConfig(alpha=alpha, eta=0),
                             FistaConfig(max_iters=5000))
            counts.append(int(np.sum(row_norms(fit.beta) > 1e-8)))
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_max_iters_sets_warning_flag(self):
        ds, _ = random_dataset(6, 2, 10, seed=18, noise=1.0)
        fit = fit_mfista(ds, RegularizationConfig(alpha=0.1, eta=0),
                         FistaConfig(max_iters=3, rel_tolerance=1e-16))
        assert not fit.converged
        assert fit.iterations == 3

    def test_default_init_is_zero_matrix(self):
        ds, _ = random_dataset(3, 2, 8, seed=19)
        fit = fit_mfista(ds, RegularizationConfig(alpha=1e9, eta=0),
                         FistaConfig(max_iters=5))
        # huge alpha keeps the zero incumbent; objective stays at F(0)
        assert np.all(fit.beta == 0.0)
        assert fit.objectives[0] == float(ds.scores @ ds.scores)

    def test_non_finite_initial_objective_raises(self):
        ds, _ = random_dataset(3, 2, 8, seed=20)
        with pytest.raises(DivergenceError):
            fit_mfista(ds, RegularizationConfig(alpha=0.1, eta=0),
                       init=np.full((3, 2), np.inf))

    def test_init_shape_checked(self):
        ds, _ = random_dataset(3, 2, 8, seed=21)
        with pytest.raises(ValueError):
            fit_mfista(ds, RegularizationConfig(alpha=0.1, eta=0),
                       init=np.zeros((2, 3)))


class TestScreening:
    """Rows the fit returns as zero, and its duality gap."""

    TIGHT = FistaConfig(max_iters=200_000, rel_tolerance=1e-13)

    @staticmethod
    def instances():
        """Sparse planted problems on a 30-vertex grid, at a weak and a strong
        alpha (fractions of the smallest alpha that zeroes every row)."""
        lap = build_laplacian(grid_mesh(5, 6))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            beta = np.zeros((30, 3))
            beta[rng.choice(30, 4, replace=False)] = rng.standard_normal((4, 3))
            ds, _ = random_dataset(30, 3, 20, seed=seed, laplacian=lap.matrix, beta=beta, noise=0.5)
            alpha_max = row_norms(smooth_gradient(np.zeros((30, 3)), ds, 0.0)).max()
            for fraction in (0.2, 0.5):
                yield ds, RegularizationConfig(alpha=fraction * alpha_max, eta=1.0)

    def test_zero_rows_zero_in_tight_solve(self):
        for ds, reg in self.instances():
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=3000))
            tight, _ = unscreened_mfista(ds, reg, fit.step_size, self.TIGHT)
            zero = row_norms(fit.beta) == 0
            assert zero.sum() >= 15
            assert np.all(row_norms(tight)[zero] == 0)

    def test_gap_bounds_suboptimality(self):
        for ds, reg in self.instances():
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=3000))
            tight, _ = unscreened_mfista(ds, reg, fit.step_size, self.TIGHT)
            value = objective(fit.beta, ds, reg)
            assert fit.gap >= value - objective(tight, ds, reg) - 1e-12 * abs(value)

    def test_gap_absent_without_group_penalty(self):
        ds, _ = random_dataset(4, 2, 10, seed=30, noise=0.5)
        assert fit_mfista(ds, RegularizationConfig(alpha=0.0, eta=0)).gap is None
        assert fit_mfista(ds, RegularizationConfig(alpha=1.0, eta=0)).gap >= 0.0


class TestWorkingSet:
    """fit_mfista solves on a growing set of vertex rows, and ends with the
    rows outside it meeting the optimality condition."""

    M = 240
    TIGHT = FistaConfig(max_iters=200_000, rel_tolerance=1e-13)

    @staticmethod
    def instances(rows=15, cols=16, fractions=(0.05, 0.2)):
        """Sparse planted problems on a rows × cols grid, at a weak and a
        strong alpha (fractions of the smallest alpha that zeroes every row).
        On the default 240-vertex grid the first working set (at most 100
        rows) is a strict subset."""
        m = rows * cols
        lap = build_laplacian(grid_mesh(rows, cols))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            beta = np.zeros((m, 3))
            beta[rng.choice(m, 6, replace=False)] = rng.standard_normal((6, 3))
            ds, _ = random_dataset(m, 3, 30, seed=seed, laplacian=lap.matrix, beta=beta, noise=0.5)
            alpha_max = row_norms(smooth_gradient(np.zeros((m, 3)), ds, 0.0)).max()
            for fraction in fractions:
                yield ds, RegularizationConfig(alpha=fraction * alpha_max, eta=1.0)

    def tight(self, ds, reg):
        """A 1e-13-tolerance solve over every row with the full step."""
        step = 1.0 / lipschitz_constant(ds, reg.eta)
        return unscreened_mfista(ds, reg, step, self.TIGHT)[0]

    @pytest.fixture
    def rows_held(self, monkeypatch):
        """Rows of the latents each forward pass of fit_mfista reads."""
        import mvtrace.trace_regression as tr

        held = []

        def recording(beta, latents):
            held.append(latents.shape[1])
            return predict_many(beta, latents)

        monkeypatch.setattr(tr, "predict_many", recording)
        return held

    def test_solves_on_growing_row_subsets(self, rows_held):
        grown = 0
        for ds, reg in self.instances():
            rows_held.clear()
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=3000))
            restricted = [rows for rows in rows_held if rows < self.M]
            assert restricted
            grown += any(b > a for a, b in zip(restricted, restricted[1:]))
            assert fit.converged and len(fit.objectives) == fit.iterations + 1
            assert np.all(np.diff(fit.objectives) <= 0.0)
        assert grown >= 2  # of 8 fits

    def test_restricted_solve_stops_on_its_gap(self, monkeypatch):
        import mvtrace.trace_regression as tr

        solves = []
        solve = tr._solve

        def recording(dataset, reg, x, fx, max_iters, rel_tolerance, gap_stop=None):
            fit = solve(dataset, reg, x, fx, max_iters, rel_tolerance, gap_stop)
            solves.append((dataset.shape[0], gap_stop, fit))
            return fit

        monkeypatch.setattr(tr, "_solve", recording)
        gap_stops = 0
        for ds, reg in self.instances():
            solves.clear()
            fit_mfista(ds, reg, FistaConfig(max_iters=3000))
            assert solves[-1][2].converged and solves[-1][2].gap is None
            for (rows, gap_stop, fit), (next_rows, next_stop, _) in zip(solves, solves[1:]):
                if fit.gap is None:
                    continue
                gap_stops += 1
                assert fit.gap <= gap_stop and not fit.converged
                # a gap stop with no row to add is solved again to its plateau
                assert next_rows > rows or next_stop is None
        assert gap_stops >= 8

    def test_zero_rows_zero_in_tight_solve(self):
        for ds, reg in self.instances():
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=3000))
            zero = row_norms(fit.beta) == 0
            assert zero.sum() >= self.M // 2
            assert np.all(row_norms(self.tight(ds, reg))[zero] == 0)

    def test_zero_rows_meet_optimality_condition(self):
        for ds, reg in self.instances():
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=3000))
            assert fit.converged
            zero = row_norms(fit.beta) == 0
            grad_norms = row_norms(smooth_gradient(fit.beta, ds, reg.eta))
            assert np.all(grad_norms[zero] <= reg.alpha)

    def test_objective_near_tight_solve(self):
        for ds, reg in self.instances():
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=3000))
            best = objective(self.tight(ds, reg), ds, reg)
            assert objective(fit.beta, ds, reg) - best <= PATH_OBJECTIVE_RTOL * abs(best)

    def test_tiny_alpha_is_the_plain_all_rows_solve(self):
        # every row breaks the optimality condition at zero, and 100 rows are
        # more than half of this 180-vertex grid, so the first working set
        # is every row
        import mvtrace.trace_regression as tr

        fista = FistaConfig(max_iters=3000)
        for ds, reg in self.instances(12, 15, fractions=(1e-4,)):
            zero = np.zeros(ds.shape)
            assert np.all(row_norms(smooth_gradient(zero, ds, reg.eta)) > reg.alpha)
            fit = fit_mfista(ds, reg, fista)
            plain = tr._solve(ds, reg, zero, objective(zero, ds, reg), fista.max_iters,
                              fista.rel_tolerance)
            assert np.array_equal(fit.beta, plain.beta)
            assert np.array_equal(fit.objectives, plain.objectives)
            assert fit.iterations == plain.iterations
            assert fit.step_size == plain.step_size == 1.0 / lipschitz_constant(ds, reg.eta)

    def test_max_iters_bounds_every_solve_together(self):
        for ds, reg in self.instances():
            full = fit_mfista(ds, reg, FistaConfig(max_iters=3000))
            budget = full.iterations // 2
            fit = fit_mfista(ds, reg, FistaConfig(max_iters=budget))
            assert fit.iterations == budget and not fit.converged
            assert len(fit.objectives) == budget + 1


class TestDataset:
    def test_laplacian_dimension_checked(self):
        lap = build_laplacian(grid_mesh(2, 2))
        with pytest.raises(ValueError, match="dimension"):
            RegressionDataset(np.zeros((2, 5, 2)), np.zeros(2), lap.matrix)

    def test_laplacian_is_a_sparse_matrix_kept_as_csr(self):
        lap = build_laplacian(grid_mesh(2, 2))
        latents = np.zeros((2, 4, 2))
        assert RegressionDataset(latents, np.zeros(2), lap.matrix).laplacian is lap.matrix
        coo = RegressionDataset(latents, np.zeros(2), lap.matrix.tocoo()).laplacian
        assert coo.format == "csr" and (coo != lap.matrix).nnz == 0
        with pytest.raises(TypeError, match="sparse matrix"):
            RegressionDataset(latents, np.zeros(2), lap)

    def test_single_subject_accepted(self):
        ds = RegressionDataset(np.ones((1, 3, 2)), np.array([1.0]))
        assert ds.n_subjects == 1 and ds.shape == (3, 2)
        fit = fit_mfista(ds, RegularizationConfig(alpha=0.01, eta=0),
                         FistaConfig(max_iters=2000))
        assert isinstance(fit, FitResult)


def test_export_beta_sidecar(tmp_path):
    from mvtrace import io

    beta = np.zeros((5, 2))
    beta[1] = [3.0, 4.0]
    beta[4] = [0.0, 0.5]
    path = tmp_path / "beta.mvrl"
    export_beta(path, beta, tol=1e-12)
    assert np.array_equal(io.read_matrix(path), beta)
    sidecar = (tmp_path / "beta_support.txt").read_text().splitlines()
    assert sidecar == ["1 5", "4 0.5"]
