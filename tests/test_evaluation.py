import csv
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_near_tight_solve, recorded_solves
from mvtrace import evaluation as ev
from mvtrace import synth
from mvtrace.autoencoders import (
    ArchitectureConfig,
    AutoencoderSpec,
    FeatureScaler,
    OracleSpec,
    PcaSpec,
    RawSpec,
)
from mvtrace.data import SubjectRecord
from mvtrace.mesh import build_laplacian
from mvtrace.trace_regression import FistaConfig, RegularizationConfig

FISTA = FistaConfig(max_iters=2000, rel_tolerance=1e-8)


class TestFolds:
    def test_forty_subjects_ten_folds(self):
        plan = ev.make_folds(40, 10, seed=0)
        assert [len(f) for f in plan.folds] == [4] * 10
        assert len(plan.train_indices(0)) == 36

    def test_leave_one_out(self):
        plan = ev.make_folds(5, 5, seed=1)
        assert sorted(int(f[0]) for f in plan.folds) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = ev.make_folds(23, 7, seed=9)
        b = ev.make_folds(23, 7, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.folds, b.folds))

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            ev.make_folds(3, 5, seed=0)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, k):
        # one fold would leave no training subject
        with pytest.raises(ValueError, match="need 2 <= k <= n"):
            ev.make_folds(12, k, seed=0)

    @pytest.mark.parametrize("n,k", [(11, 3), (40, 10), (7, 7), (25, 4)])
    def test_partition_properties(self, n, k):
        plan = ev.make_folds(n, k, seed=2)
        sizes = [len(f) for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1
        combined = np.sort(np.concatenate(plan.folds))
        assert np.array_equal(combined, np.arange(n))


class TestMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 5.0])
        assert ev.r_squared(y, y.copy()) == 1.0

    def test_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert ev.r_squared(y, np.full(3, 2.0)) == 0.0

    def test_hand_case(self):
        # 1 - 1/2
        assert ev.r_squared(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])) == 0.5

    def test_constant_targets_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            ev.r_squared(np.array([2.0, 2.0]), np.array([1.0, 3.0]))

    def test_mse(self):
        assert ev.mean_squared_error([1.0, 2.0], [0.0, 4.0]) == 2.5
        with pytest.raises(ValueError):
            ev.mean_squared_error([1.0], [1.0, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False).filter(lambda a: abs(a) > 1e-3),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(12)
        pred = y + 0.3 * rng.standard_normal(12)
        lhs = ev.r_squared(a * y + b, a * pred + b)
        rhs = ev.r_squared(y, pred)
        assert abs(lhs - rhs) < 1e-9


@pytest.fixture(scope="module")
def planted():
    subjects, mesh, gt = synth.generate(synth.GeneratorConfig(seed=0))
    return subjects, build_laplacian(mesh), gt


class TestRunCv:
    def test_oracle_passthrough_noiseless_r2(self):
        # known latents, noiseless planted score: near-perfect prediction
        subjects, mesh, gt = synth.generate(synth.GeneratorConfig(
            seed=1, noise_sigma=0.0, cluster_coherence=0.995,
            n_clusters=3, cluster_size=12,
        ))
        lap = build_laplacian(mesh)
        plan = ev.make_folds(40, 10, seed=1)
        [res] = ev.run_cv(
            subjects, lap, OracleSpec(latents=gt.latents),
            [(RegularizationConfig(alpha=1.0, eta=5.0),
              FistaConfig(max_iters=3000, rel_tolerance=1e-9))], plan, seed=1,
        )
        assert res.mean_r2 > 0.95

    def test_permuted_scores_have_no_signal(self, planted):
        subjects, lap, _ = planted
        reg = RegularizationConfig(alpha=12, eta=20)
        for seed in range(5):
            y = np.array([s.score for s in subjects])
            perm = np.random.default_rng(200 + seed).permutation(len(y))
            shuffled = [
                SubjectRecord(s.subject_id, s.x_task, s.x_rest, y[perm[i]])
                for i, s in enumerate(subjects)
            ]
            [res] = ev.run_cv(shuffled, lap, PcaSpec(enc=4), [(reg, FISTA)],
                              ev.make_folds(40, 10, seed), seed=seed)
            assert res.mean_r2 <= 0.1

    def test_averages_are_fold_means(self, planted):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 10, seed=3)
        [res] = ev.run_cv(subjects, lap, PcaSpec(enc=4),
                          [(RegularizationConfig(alpha=12, eta=20), FISTA)], plan, seed=3)
        assert res.mean_mse == pytest.approx(np.mean([f.mse for f in res.folds]), abs=0)
        assert res.mean_r2 == pytest.approx(np.mean([f.r2 for f in res.folds]), abs=0)
        k = len(res.folds)
        assert res.stderr_mse == pytest.approx(
            np.std([f.mse for f in res.folds], ddof=1) / np.sqrt(k)
        )
        assert all(len(f.predictions) == len(plan.test_indices(f.fold_id)) for f in res.folds)

    def test_pooled_r2_over_every_prediction(self, planted):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 10, seed=3)
        [res] = ev.run_cv(subjects, lap, PcaSpec(enc=4),
                          [(RegularizationConfig(alpha=12, eta=20), FISTA)], plan, seed=3)
        rows = [p for f in res.folds for p in f.predictions]
        y = np.array([r[1] for r in rows])
        pred = np.array([r[2] for r in rows])
        assert sorted(r[0] for r in rows) == sorted(s.subject_id for s in subjects)
        assert res.pooled_r2 == ev.r_squared(y, pred)

    def test_undefined_r2_left_out_of_means(self, planted):
        subjects, lap, _ = planted
        plan = ev.make_folds(12, 12, seed=2)
        [res] = ev.run_cv(subjects[:12], lap, PcaSpec(enc=4),
                          [(RegularizationConfig(alpha=12, eta=20), FISTA)], plan, seed=2)
        assert all(f.r2 is None for f in res.folds)
        assert res.mean_r2 is None and res.stderr_r2 is None
        assert res.pooled_r2 is not None  # twelve predictions pooled
        assert np.isfinite(res.mean_mse)
        defined = replace(res.folds[0], r2=0.5)
        mixed = ev.CvResult.from_folds([defined, res.folds[1], replace(defined, r2=0.25)])
        assert mixed.mean_r2 == 0.375
        assert mixed.stderr_r2 == pytest.approx(np.std([0.5, 0.25], ddof=1) / np.sqrt(2))

    def test_parallel_folds_match_sequential(self, planted):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 5, seed=4)
        reg = RegularizationConfig(alpha=12, eta=20)
        [seq] = ev.run_cv(subjects, lap, PcaSpec(enc=4), [(reg, FISTA)], plan, seed=4, jobs=1)
        [par] = ev.run_cv(subjects, lap, PcaSpec(enc=4), [(reg, FISTA)], plan, seed=4, jobs=2)
        assert all(
            np.array_equal(a.beta, b.beta) and a.mse == b.mse
            for a, b in zip(seq.folds, par.folds)
        )

    def test_fold_hygiene_bit_for_bit(self, planted, monkeypatch):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 10, seed=5)
        spec = AutoencoderSpec(
            config=ArchitectureConfig(kind="mdae", enc=4, hidden_dims=()),
            epochs=3, batch_size=500, learning_rate=1e-3,
        )
        reg = RegularizationConfig(alpha=12, eta=20)
        train_idx, test_idx = plan.train_indices(0), plan.test_indices(0)
        models = []
        fit = AutoencoderSpec.fit

        def capturing(spec, subs, seed):
            models.append(fit(spec, subs, seed))
            return models[-1]

        monkeypatch.setattr(AutoencoderSpec, "fit", capturing)

        def fold_beta(subject_list):
            [result] = ev.run_fold(subject_list, lap, spec, [(reg, FISTA)],
                                   train_idx, test_idx, fold_id=0, fit_seed=123)
            return result.beta

        rng = np.random.default_rng(999)
        corrupted = list(subjects)
        for i in test_idx:
            s = subjects[i]
            corrupted[i] = SubjectRecord(
                s.subject_id,
                rng.standard_normal(s.x_task.shape),
                rng.standard_normal(s.x_rest.shape),
                rng.standard_normal(),
            )
        beta_a = fold_beta(subjects)
        beta_b = fold_beta(corrupted)
        assert len(models) == 2
        model_a, model_b = models
        assert model_a.config == model_b.config
        assert model_a.view == model_b.view
        assert model_a.epoch_losses == model_b.epoch_losses
        assert len(model_a.scalers) == len(model_b.scalers)
        for scaler_a, scaler_b in zip(model_a.scalers, model_b.scalers):
            for f in fields(FeatureScaler):
                a, b = getattr(scaler_a, f.name), getattr(scaler_b, f.name)
                assert (a is None and b is None) or np.array_equal(a, b), f.name
        nets_a = model_a.encoders + model_a.decoders
        nets_b = model_b.encoders + model_b.decoders
        assert len(nets_a) == len(nets_b)
        for net_a, net_b in zip(nets_a, nets_b):
            assert len(net_a.layers) == len(net_b.layers)
            for layer_a, layer_b in zip(net_a.layers, net_b.layers):
                assert np.array_equal(layer_a.weights, layer_b.weights)
                assert np.array_equal(layer_a.bias, layer_b.bias)
                assert layer_a.activation == layer_b.activation
        assert np.array_equal(beta_a, beta_b)


def same_fold_results(a: list[ev.FoldResult], b: list[ev.FoldResult]) -> bool:
    return len(a) == len(b) and all(
        x.beta.tobytes() == y.beta.tobytes() and x.objectives.tobytes() == y.objectives.tobytes()
        and (x.fold_id, x.mse, x.r2, x.predictions, x.converged)
        == (y.fold_id, y.mse, y.r2, y.predictions, y.converged)
        for x, y in zip(a, b))


class TestFoldStages:
    """A fold is the score-blind fold_latents, then the score-reading solve_fold."""

    PENALTIES = [(RegularizationConfig(alpha=12, eta=20), FISTA),
                 (RegularizationConfig(alpha=4, eta=10), FISTA)]
    SPECS = {
        "pca": PcaSpec(enc=4),
        "mdae": AutoencoderSpec(config=ArchitectureConfig(kind="mdae", enc=4, hidden_dims=()),
                                epochs=2, batch_size=500, learning_rate=1e-3),
    }

    @pytest.mark.parametrize("arch", sorted(SPECS))
    def test_fold_latents_reads_no_score(self, planted, arch):
        subjects, _, _ = planted
        plan = ev.make_folds(40, 4, seed=3)
        train_idx, test_idx = plan.train_indices(2), plan.test_indices(2)
        rows = np.array([0, 5, 17, 100])
        scores = [s.score for s in subjects]
        cohorts = [
            subjects,
            [replace(s, score=np.nan) for s in subjects],
            [replace(s, score=v) for s, v in
             zip(subjects, np.random.default_rng(4).permutation(scores))],
        ]
        outputs = []
        for cohort in cohorts:
            train, encode = ev.fold_latents(cohort, self.SPECS[arch], train_idx, fit_seed=8)
            outputs.append((train.tobytes(),
                            encode([cohort[i] for i in test_idx], rows).tobytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_fold_latents_writes_one_stack(self, planted):
        # raw latents: the traced peak is the training stack, one subject's
        # latents beside it while they are encoded, and 10% of the stack
        subjects, _, _ = planted
        train_idx = ev.make_folds(40, 4, seed=3).train_indices(0)
        one = subjects[0].x_task.nbytes + subjects[0].x_rest.nbytes
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train, _ = ev.fold_latents(subjects, RawSpec(), train_idx, fit_seed=0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < train.nbytes + one + 0.1 * train.nbytes

    def test_solve_fold_repeats_and_leaves_latents_unchanged(self, planted):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 4, seed=3)
        train_idx, test_idx = plan.train_indices(1), plan.test_indices(1)
        latents = ev.fold_latents(subjects, PcaSpec(enc=4), train_idx, fit_seed=8)
        train = latents[0].copy()
        first = ev.solve_fold(latents, subjects, lap, self.PENALTIES, train_idx, test_idx, 1)
        second = ev.solve_fold(latents, subjects, lap, self.PENALTIES, train_idx, test_idx, 1)
        assert same_fold_results(first, second)
        assert latents[0].tobytes() == train.tobytes()
        composed = ev.run_fold(subjects, lap, PcaSpec(enc=4), self.PENALTIES, train_idx,
                               test_idx, 1, 8)
        assert same_fold_results(first, composed)

    def test_pool_gets_the_cohort_once(self, planted, monkeypatch):
        # a stand-in pool that runs its initializer and tasks in this process
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 5, seed=6)
        inits, tasks = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                inits.append(initargs)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                tasks.extend(items)
                return map(fn, tasks)

        monkeypatch.setattr(ev, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(ev, "_worker_inputs", None)  # restored after the test
        pooled = ev.run_cv(subjects, lap, PcaSpec(enc=4), self.PENALTIES, plan, seed=6, jobs=3)
        [initargs] = inits
        assert initargs[0] is subjects and initargs[1] is lap
        assert len(tasks) == plan.n_folds
        for task in tasks:
            assert all(isinstance(x, (int, np.ndarray)) for x in task)
            assert all(x.dtype.kind == "i" for x in task if isinstance(x, np.ndarray))
        serial = ev.run_cv(subjects, lap, PcaSpec(enc=4), self.PENALTIES, plan, seed=6)
        for a, b in zip(pooled, serial):
            assert same_fold_results(a.folds, b.folds)


class TestSignificance:
    def test_identical_nonzero_rows_are_infinitely_significant(self):
        beta = np.zeros((6, 2))
        beta[2] = [1.0, -0.2]
        maps = [beta.copy() for _ in range(5)]
        sig = ev.significance_map(maps)
        assert np.isinf(sig.t[2]) and sig.mask[2]

    def test_all_zero_rows_not_significant(self):
        maps = [np.zeros((4, 2)) for _ in range(5)]
        sig = ev.significance_map(maps)
        assert np.all(sig.t == 0.0)
        assert not sig.mask.any()

    def test_fold_order_invariance(self):
        rng = np.random.default_rng(0)
        maps = [rng.standard_normal((8, 3)) for _ in range(6)]
        a = ev.significance_map(maps)
        b = ev.significance_map(maps[::-1])
        assert np.array_equal(a.mask, b.mask)
        assert np.allclose(a.t, b.t, equal_nan=True)

    def test_reductions(self):
        # each row reduces to its norm signed by its mean entry; identical fold
        # maps have zero cross-fold variance, and the documented convention
        # maps any nonzero mean to t = +inf
        maps = [np.array([[1.0, -3.0]]) for _ in range(4)]
        sig = ev.significance_map(maps)
        assert sig.t[0] == np.inf and sig.mask[0]
        noisy = [np.array([[1.0 + 0.1 * k, -3.0 - 0.1 * k]]) for k in range(4)]
        assert ev.significance_map(noisy).t[0] < 0  # negative-mean vertex

    def test_finite_t_where_variance_positive(self):
        rng = np.random.default_rng(1)
        maps = [rng.standard_normal((5, 2)) for _ in range(8)]
        sig = ev.significance_map(maps)
        assert np.all(np.isfinite(sig.t))

    def test_needs_two_maps_and_equal_shapes(self):
        with pytest.raises(ValueError):
            ev.significance_map([np.zeros((3, 2))])
        with pytest.raises(ValueError):
            ev.significance_map([np.zeros((3, 2)), np.zeros((4, 2))])


class TestWarmPath:
    """run_fold solves a fold's penalties from strong to weak, warm-started."""

    PENALTIES = [
        (RegularizationConfig(alpha=4, eta=10), FISTA),
        (RegularizationConfig(alpha=12, eta=20), FISTA),
        (RegularizationConfig(alpha=8, eta=5), FISTA),
        (RegularizationConfig(alpha=8, eta=20), FISTA),
    ]

    @staticmethod
    def fold(subjects, lap, penalties):
        plan = ev.make_folds(40, 4, seed=11)
        return ev.run_fold(subjects, lap, PcaSpec(enc=4), penalties,
                           plan.train_indices(1), plan.test_indices(1), fold_id=1,
                           fit_seed=5)

    def test_alpha_descending_outputs_in_list_order(self, planted, monkeypatch):
        subjects, lap, _ = planted
        solves = recorded_solves(monkeypatch)
        results = self.fold(subjects, lap, self.PENALTIES)
        # stable: the two alpha=8 penalties keep list order
        assert [s[1] for s in solves] == [self.PENALTIES[i][0] for i in (1, 2, 3, 0)]
        assert solves[0][3] is None
        for previous, current in zip(solves, solves[1:]):
            assert current[3] is previous[4].beta
        for (reg, _), result in zip(self.PENALTIES, results):
            assert next(s[1] for s in solves if s[4].beta is result.beta) is reg

    def test_list_order_does_not_change_results(self, planted):
        subjects, lap, _ = planted
        forward = self.fold(subjects, lap, self.PENALTIES[:3])
        backward = self.fold(subjects, lap, self.PENALTIES[2::-1])[::-1]
        for a, b in zip(forward, backward):
            assert np.array_equal(a.beta, b.beta)
            assert (a.mse, a.r2, a.predictions) == (b.mse, b.r2, b.predictions)

    def test_predictions_are_inner_products_over_every_row(self, planted):
        # run_fold scores on the rows a fit keeps; the full z-scored latents
        # must give the same predictions up to rounding
        from mvtrace.trace_regression import predict

        subjects, lap, _ = planted
        plan = ev.make_folds(40, 4, seed=11)
        results = self.fold(subjects, lap, self.PENALTIES)
        train = [subjects[i] for i in plan.train_indices(1)]
        model = PcaSpec(enc=4).fit(train, 5)
        stack = np.stack([model.encode_subject(s) for s in train])
        center, scale = stack.mean(axis=(0, 1)), stack.std(axis=(0, 1))
        for result in results:
            assert 0 < np.count_nonzero(result.beta.any(axis=1)) < len(result.beta)
            for subject_id, score, prediction in result.predictions:
                subject = next(s for s in subjects if s.subject_id == subject_id)
                z = (model.encode_subject(subject) - center) / scale
                assert score == subject.score
                assert prediction == pytest.approx(predict(result.beta, z), rel=1e-12,
                                                   abs=1e-12)

    def test_strongest_alpha_is_a_cold_single_fit(self, planted):
        subjects, lap, _ = planted
        swept = self.fold(subjects, lap, self.PENALTIES)[1]
        single = self.fold(subjects, lap, [self.PENALTIES[1]])[0]
        assert np.array_equal(swept.beta, single.beta)
        assert np.array_equal(swept.objectives, single.objectives)


class TestSweepAndCsv:
    """run_cv with a penalty list, as each group of sweep points runs it."""

    def test_single_point_reduces_to_run_cv(self, planted):
        # one penalty pair: each fold is the run_fold call of its split and
        # SeedSequence-derived fit seed
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 5, seed=6)
        reg = RegularizationConfig(alpha=12, eta=20)
        [listed] = ev.run_cv(subjects, lap, PcaSpec(enc=4), [(reg, FISTA)], plan, seed=6)
        fold_seeds = np.random.SeedSequence(6).generate_state(plan.n_folds)
        direct = ev.CvResult.from_folds([
            ev.run_fold(subjects, lap, PcaSpec(enc=4), [(reg, FISTA)], plan.train_indices(f),
                        plan.test_indices(f), f, int(fold_seeds[f]))[0]
            for f in range(plan.n_folds)])
        assert listed.mean_mse == direct.mean_mse

    def test_enc_grid_rows(self, planted, tmp_path):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 5, seed=7)
        reg = RegularizationConfig(alpha=12, eta=20)
        points = [ev.SweepPoint(label=f"pca-{e}", spec=PcaSpec(enc=e)) for e in (2, 5, 10)]
        entries = [(point, ev.run_cv(subjects, lap, point.spec, [(reg, FISTA)], plan,
                                     seed=7)[0])
                   for point in points]
        folds_csv = tmp_path / "folds.csv"
        summary_csv = tmp_path / "summary.csv"
        ev.write_fold_csv(folds_csv, entries)
        ev.write_summary_csv(summary_csv, entries)
        with open(folds_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["config", "enc", "enc_t", "enc_r", "fold", "mse", "r2"]
        assert len(rows) == 1 + 3 * 5
        assert [r[:2] for r in rows[1::5]] == [["pca-2", "2"], ["pca-5", "5"], ["pca-10", "10"]]
        with open(summary_csv) as fh:
            srows = list(csv.reader(fh))
        assert [r[0] for r in srows[1:]] == ["pca-2", "pca-5", "pca-10"]
        for row in srows[1:]:
            float(row[4]), float(row[6])  # parse back

    def test_split_grid_rows(self, planted, tmp_path):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 4, seed=8)
        reg = RegularizationConfig(alpha=12, eta=20)
        entries = []
        for split in [(8, 2), (5, 5), (2, 8)]:
            cfg = ArchitectureConfig(kind="mdae", enc=10, enc_split=split, hidden_dims=())
            point = ev.SweepPoint(
                label=f"mdae-{split[0]}-{split[1]}",
                spec=AutoencoderSpec(config=cfg, epochs=2, batch_size=500, learning_rate=1e-3),
            )
            entries.append((point, ev.run_cv(subjects, lap, point.spec, [(reg, FISTA)], plan,
                                             seed=8)[0]))
        assert ev.point_dims(entries[0][0]) == (10, 8, 2)
        assert ev.point_dims(ev.SweepPoint("pca", PcaSpec(enc=4))) == (4, "", "")
        ev.write_summary_csv(tmp_path / "summary.csv", entries)
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert [r[:4] for r in rows[1:]] == [
            ["mdae-8-2", "10", "8", "2"], ["mdae-5-5", "10", "5", "5"],
            ["mdae-2-8", "10", "2", "8"]]

    def test_equal_specs_share_fold_fits(self, planted, monkeypatch):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 4, seed=9)
        fits = []
        fit = PcaSpec.fit

        def counted(spec, subs, seed):
            fits.append(spec.enc)
            return fit(spec, subs, seed)

        monkeypatch.setattr(PcaSpec, "fit", counted)
        solves = recorded_solves(monkeypatch)
        penalties = [
            (RegularizationConfig(alpha=12, eta=20), FISTA),
            (RegularizationConfig(alpha=4, eta=10), FistaConfig(max_iters=50)),
            (RegularizationConfig(alpha=8, eta=5), FISTA),
        ]
        listed = ev.run_cv(subjects, lap, PcaSpec(enc=4), penalties, plan, seed=9)
        assert fits == [4, 4, 4, 4]
        assert len(listed) == 3
        swept_solves = list(solves)
        for i, (pair, swept) in enumerate(zip(penalties, listed)):
            [direct] = ev.run_cv(subjects, lap, PcaSpec(enc=4), [pair], plan, seed=9)
            for a, b in zip(swept.folds, direct.folds):
                if i == 0:
                    # the strongest alpha: solved cold, as a single run
                    assert np.array_equal(a.beta, b.beta)
                    assert (a.mse, a.r2, a.converged) == (b.mse, b.r2, b.converged)
                else:
                    dataset, reg, fista, init, _ = next(
                        s for s in swept_solves if s[4].beta is a.beta)
                    assert reg is pair[0] and fista is pair[1]
                    assert init is not None
                    assert_near_tight_solve(dataset, reg, fista, a.beta)

    def test_empty_penalty_list_rejected(self, planted, monkeypatch):
        subjects, lap, _ = planted
        plan = ev.make_folds(40, 5, 0)
        fits = []
        monkeypatch.setattr(PcaSpec, "fit", lambda *a: fits.append(a))
        with pytest.raises(ValueError, match="empty penalty list"):
            ev.run_cv(subjects, lap, PcaSpec(enc=4), [], plan)
        with pytest.raises(ValueError, match="empty penalty list"):
            ev.run_fold(subjects, lap, PcaSpec(enc=4), [], plan.train_indices(0),
                        plan.test_indices(0), fold_id=0, fit_seed=0)
        assert fits == []

    def test_significance_csv(self, tmp_path):
        maps = [np.zeros((3, 2)) for _ in range(4)]
        maps[0][1] = [1.0, 1.0]
        sig = ev.significance_map(maps)
        path = tmp_path / "sig.csv"
        ev.write_significance_csv(path, sig)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["vertex", "t", "significant"]
        assert len(rows) == 4
